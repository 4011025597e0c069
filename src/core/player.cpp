#include "core/player.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dasm::core {

NodeId quantile_of_rank(NodeId rank, NodeId degree, NodeId k) {
  DASM_DCHECK(degree >= 1 && rank >= 0 && rank < degree && k >= 1);
  return static_cast<NodeId>(
      (static_cast<std::int64_t>(rank) * k) / degree + 1);
}

// ---------------------------------------------------------------- ManPlayer

ManPlayer::ManPlayer(NodeId node_id, const PreferenceList& pref, NodeId k,
                     NodeId woman_id_offset, std::unique_ptr<mm::Node> mm_node)
    : node_id_(node_id),
      pref_(&pref),
      k_(k),
      woman_id_offset_(woman_id_offset),
      mm_(std::move(mm_node)) {
  DASM_CHECK(k >= 1);
  DASM_CHECK(mm_ != nullptr);
  in_q_.assign(static_cast<std::size_t>(pref.degree()), true);
  q_size_ = pref.degree();
}

void ManPlayer::set_outer_gate(std::int64_t threshold) {
  active_ = static_cast<std::int64_t>(q_size_) >= threshold;
}

void ManPlayer::begin_quantile_match() {
  if (dropped_ || !active_ || partner_ != kNoNode) {
    active_targets_.clear();
    return;
  }
  active_targets_.clear();
  // A <- Q_i for the best nonempty quantile i (Algorithm 2). Ranks are
  // sorted by preference, so members of one quantile are contiguous among
  // the surviving ranks.
  NodeId best_quantile = kNoNode;
  for (NodeId r = 0; r < pref_->degree(); ++r) {
    if (!in_q_[static_cast<std::size_t>(r)]) continue;
    const NodeId q = quantile_of_rank(r, pref_->degree(), k_);
    if (best_quantile == kNoNode) best_quantile = q;
    if (q != best_quantile) break;
    active_targets_.push_back(pref_->at_rank(r));
  }
}

void ManPlayer::process_rejections(InboxView inbox) {
  for (const Envelope& e : inbox) {
    if (e.msg.type != MsgType::kReject) continue;
    const NodeId w = e.from - woman_id_offset_;
    const NodeId r = pref_->rank_of(w);
    DASM_CHECK_MSG(r != kNoNode,
                   "man " << node_id_ << " rejected by unranked woman " << w);
    DASM_CHECK_MSG(in_q_[static_cast<std::size_t>(r)],
                   "woman " << w << " rejected man " << node_id_ << " twice");
    in_q_[static_cast<std::size_t>(r)] = false;
    --q_size_;
    const auto it =
        std::find(active_targets_.begin(), active_targets_.end(), w);
    if (it != active_targets_.end()) active_targets_.erase(it);
    if (partner_ == w) partner_ = kNoNode;
  }
}

void ManPlayer::propose_round(Network& net) {
  if (dropped_ || partner_ != kNoNode) return;
  for (NodeId w : active_targets_) {
    net.send(node_id_, w + woman_id_offset_, Message{MsgType::kPropose});
  }
}

void ManPlayer::mm_first_round(InboxView inbox,
                               Network& net) {
  // The node copies the list, so one scratch list per thread serves every
  // man: steady-state steps allocate nothing and no man keeps a copy.
  thread_local std::vector<NodeId> g0;
  g0.clear();
  for (const Envelope& e : inbox) {
    if (e.msg.type == MsgType::kAccept) g0.push_back(e.from);
  }
  mm_->reset(node_id_, /*is_left=*/true, g0);
  mm_engaged_ = true;
  mm_->on_round(inbox, net);
}

void ManPlayer::mm_round(InboxView inbox, Network& net) {
  DASM_DCHECK(mm_engaged_);
  mm_->on_round(inbox, net);
}

void ManPlayer::resolve_round(bool drop_unsatisfied) {
  if (!mm_engaged_) return;
  mm_engaged_ = false;
  const NodeId p0 = mm_->partner();
  if (p0 != kNoNode) {
    DASM_CHECK_MSG(partner_ == kNoNode, "man " << node_id_
                                               << " matched in M0 while"
                                               << " already engaged");
    partner_ = p0 - woman_id_offset_;
    DASM_DCHECK(pref_->contains(partner_));
    active_targets_.clear();  // A <- {} (Step 4)
  }
  if (drop_unsatisfied && !dropped_ && !mm_->quiescent()) {
    // Unsatisfied per Definition 3 at truncation: unmatched in M0 with an
    // unmatched accepted neighbour. Removed from play (§5.2, footnote 2).
    dropped_ = true;
    active_targets_.clear();
  }
}

void ManPlayer::finalize(InboxView inbox) {
  process_rejections(inbox);
}

// -------------------------------------------------------------- WomanPlayer

WomanPlayer::WomanPlayer(NodeId node_id, const PreferenceList& pref, NodeId k,
                         std::unique_ptr<mm::Node> mm_node)
    : node_id_(node_id), pref_(&pref), k_(k), mm_(std::move(mm_node)) {
  DASM_CHECK(k >= 1);
  DASM_CHECK(mm_ != nullptr);
  in_q_.assign(static_cast<std::size_t>(pref.degree()), true);
  q_size_ = pref.degree();
}

void WomanPlayer::accept_round(InboxView inbox,
                               Network& net) {
  DASM_DCHECK(accepted_.empty() && !mm_engaged_);
  // Find the best (smallest) quantile among this round's proposers. Every
  // proposer is still in Q — membership pruning is symmetric — hence in a
  // strictly better quantile than the current partner (Lemma 1). A second
  // pass over the inbox accepts that quantile, so no proposer list is kept.
  auto quantile_of = [this](NodeId m) {
    return quantile_of_rank(pref_->rank_of(m), pref_->degree(), k_);
  };
  NodeId best_quantile = kNoNode;
  for (const Envelope& e : inbox) {
    if (e.msg.type != MsgType::kPropose) continue;
    const NodeId m = e.from;
    const NodeId r = pref_->rank_of(m);
    DASM_CHECK_MSG(r != kNoNode,
                   "woman " << node_id_ << " got proposal from unranked man "
                            << m);
    DASM_CHECK_MSG(in_q_[static_cast<std::size_t>(r)],
                   "proposal from pruned man " << m << " to woman "
                                               << node_id_);
    const NodeId q = quantile_of_rank(r, pref_->degree(), k_);
    if (best_quantile == kNoNode || q < best_quantile) best_quantile = q;
  }
  if (best_quantile == kNoNode) return;
  DASM_DCHECK(partner_ == kNoNode || best_quantile < quantile_of(partner_));
  for (const Envelope& e : inbox) {
    if (e.msg.type == MsgType::kPropose &&
        quantile_of(e.from) == best_quantile) {
      accepted_.push_back(e.from);
      net.send(node_id_, e.from, Message{MsgType::kAccept});
    }
  }
}

void WomanPlayer::mm_first_round(InboxView inbox,
                                 Network& net) {
  mm_->reset(node_id_, /*is_left=*/false, accepted_);
  mm_engaged_ = true;
  mm_->on_round(inbox, net);
}

void WomanPlayer::mm_round(InboxView inbox, Network& net) {
  DASM_DCHECK(mm_engaged_);
  mm_->on_round(inbox, net);
}

void WomanPlayer::resolve_round(Network& net) {
  if (!mm_engaged_) return;
  mm_engaged_ = false;
  const NodeId p0 = mm_->partner();
  DASM_DCHECK(p0 == kNoNode || std::find(accepted_.begin(), accepted_.end(),
                                         p0) != accepted_.end());
  accepted_.clear();
  if (p0 == kNoNode) return;
  const NodeId q0 =
      quantile_of_rank(pref_->rank_of(p0), pref_->degree(), k_);
  // Lemma 1 (monotonicity): a new partner always sits in a strictly
  // better quantile than the one he displaces.
  DASM_DCHECK(partner_ == kNoNode ||
              q0 < quantile_of_rank(pref_->rank_of(partner_),
                                    pref_->degree(), k_));
  // Reject every remaining Q member in quantile q0 or worse, other than
  // the new partner. This prunes the old partner too (his quantile is
  // strictly worse than q0), which is how he learns he was displaced.
  for (NodeId r = 0; r < pref_->degree(); ++r) {
    if (!in_q_[static_cast<std::size_t>(r)]) continue;
    if (quantile_of_rank(r, pref_->degree(), k_) < q0) continue;
    const NodeId m = pref_->at_rank(r);
    if (m == p0) continue;
    net.send(node_id_, m, Message{MsgType::kReject});
    in_q_[static_cast<std::size_t>(r)] = false;
    --q_size_;
  }
  partner_ = p0;
}

}  // namespace dasm::core
