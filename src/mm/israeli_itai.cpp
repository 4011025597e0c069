#include "mm/israeli_itai.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dasm::mm {

void IsraeliItaiNode::reset(NodeId self, bool /*is_left*/,
                            std::span<const NodeId> neighbors) {
  self_ = self;
  neighbors_.assign(neighbors.begin(), neighbors.end());
  neighbor_alive_.assign(neighbors_.size(), true);
  alive_ = !neighbors_.empty();
  partner_ = kNoNode;
  phase_ = Phase::kPick;
  picked_out_ = kNoNode;
  kept_in_ = kNoNode;
  out_was_kept_ = false;
  chosen_ = kNoNode;
}

void IsraeliItaiNode::mark_dead(NodeId v) {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbors_[i] == v) neighbor_alive_[i] = false;
  }
}

bool IsraeliItaiNode::has_live_neighbor() const {
  return std::find(neighbor_alive_.begin(), neighbor_alive_.end(), true) !=
         neighbor_alive_.end();
}

NodeId IsraeliItaiNode::random_live_neighbor() {
  std::uint64_t live = 0;
  for (bool a : neighbor_alive_) live += a ? 1 : 0;
  DASM_DCHECK(live > 0);
  std::uint64_t k = rng_.below(live);
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (!neighbor_alive_[i]) continue;
    if (k == 0) return neighbors_[i];
    --k;
  }
  DASM_CHECK_MSG(false, "no live neighbour");
  return kNoNode;
}

void IsraeliItaiNode::process_withdrawals(InboxView inbox) {
  for (const Envelope& e : inbox) {
    if (e.msg.type == MsgType::kMmMatched) mark_dead(e.from);
  }
}

void IsraeliItaiNode::on_round(InboxView inbox,
                               Network& net) {
  // Withdrawals are announced in the resolve step and consumed at the top
  // of the next pick step; processing them in every phase is harmless and
  // keeps the node robust to being embedded in larger protocols.
  process_withdrawals(inbox);

  switch (phase_) {
    case Phase::kPick: {
      picked_out_ = kNoNode;
      kept_in_ = kNoNode;
      out_was_kept_ = false;
      chosen_ = kNoNode;
      if (alive_ && !has_live_neighbor()) alive_ = false;  // isolated: drop
      if (alive_) {
        picked_out_ = random_live_neighbor();
        net.send(self_, picked_out_, Message{MsgType::kMmPick});
      }
      phase_ = Phase::kKeep;
      break;
    }
    case Phase::kKeep: {
      if (alive_) {
        // Keep the j-th incoming pick, j uniform: count, draw, then find
        // it (no per-step list).
        std::uint64_t picks = 0;
        for (const Envelope& e : inbox) {
          if (e.msg.type == MsgType::kMmPick) ++picks;
        }
        if (picks > 0) {
          std::uint64_t j = rng_.below(picks);
          for (const Envelope& e : inbox) {
            if (e.msg.type != MsgType::kMmPick) continue;
            if (j-- == 0) {
              kept_in_ = e.from;
              break;
            }
          }
          net.send(self_, kept_in_, Message{MsgType::kMmKeep});
        }
      }
      phase_ = Phase::kChoose;
      break;
    }
    case Phase::kChoose: {
      if (alive_) {
        for (const Envelope& e : inbox) {
          if (e.msg.type == MsgType::kMmKeep && e.from == picked_out_) {
            out_was_kept_ = true;
          }
        }
        // Incident edges of the sparse graph G' at this node (at most two).
        NodeId incident[2];
        std::uint64_t count = 0;
        if (kept_in_ != kNoNode) incident[count++] = kept_in_;
        if (out_was_kept_ && picked_out_ != kept_in_) {
          incident[count++] = picked_out_;
        }
        if (count > 0) {
          chosen_ = incident[rng_.below(count)];
          net.send(self_, chosen_, Message{MsgType::kMmChoose});
        }
      }
      phase_ = Phase::kResolve;
      break;
    }
    case Phase::kResolve: {
      if (alive_ && chosen_ != kNoNode) {
        bool mutual = false;
        for (const Envelope& e : inbox) {
          if (e.msg.type == MsgType::kMmChoose && e.from == chosen_) {
            mutual = true;
          }
        }
        if (mutual) {
          partner_ = chosen_;
          alive_ = false;
          for (std::size_t i = 0; i < neighbors_.size(); ++i) {
            if (neighbor_alive_[i] && neighbors_[i] != partner_) {
              net.send(self_, neighbors_[i], Message{MsgType::kMmMatched});
            }
          }
        }
      }
      phase_ = Phase::kPick;
      break;
    }
  }
}

}  // namespace dasm::mm
