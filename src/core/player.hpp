// Per-processor state machines for ASM (§3.1).
//
// A ManPlayer holds his quantized preferences Q (membership flags over his
// ranked list), his partner p, and his active set A; a WomanPlayer holds
// her quantized preferences, her partner, and the set G0 of proposals she
// accepted in the current ProposalRound. Both embed a maximal-matching
// node (mm::Node) that runs Step 3 on the accepted-proposal graph.
//
// The engine drives the players through the globally known phase
// sequence, stepping in each round only the players that can act in it
// (frontier stepping, DESIGN.md §6); players only ever read their own
// state and their inbox, so each method corresponds to a valid CONGEST
// round (see DESIGN.md). A player's per-ProposalRound state (its G0
// neighbours, whether its MM node was reset) is cleared by the step that
// consumes it, resolve_round(), so a player the engine does not step
// stays idle without a per-round reset.
#pragma once

#include <memory>
#include <vector>

#include "congest/network.hpp"
#include "mm/node.hpp"
#include "stable/preferences.hpp"

namespace dasm::core {

/// 1-based quantile of 0-based `rank` in a list of `degree` entries split
/// into k quantiles (§3.1; see stable/preferences.hpp).
NodeId quantile_of_rank(NodeId rank, NodeId degree, NodeId k);

class ManPlayer {
 public:
  /// `woman_id_offset` converts the woman indices in `pref` to network
  /// node ids (women are numbered after the men).
  ManPlayer(NodeId node_id, const PreferenceList& pref, NodeId k,
            NodeId woman_id_offset, std::unique_ptr<mm::Node> mm_node);

  NodeId node_id() const { return node_id_; }
  /// Current partner as a woman index, or kNoNode.
  NodeId partner() const { return partner_; }
  /// |Q|: acceptable partners who have not rejected him.
  NodeId q_size() const { return q_size_; }
  /// Good (§4): matched, or rejected by every acceptable partner.
  bool good() const { return partner_ != kNoNode || q_size_ == 0; }
  bool dropped() const { return dropped_; }
  /// Participates in the current outer iteration (|Q| >= threshold).
  bool active() const { return active_; }
  /// True if the next propose phase would send proposals.
  bool would_propose() const {
    return partner_ == kNoNode && !active_targets_.empty();
  }
  /// True while a later QuantileMatch can give him targets: not dropped,
  /// unmatched, Q nonempty. Any other man has an empty A, which
  /// begin_quantile_match() leaves empty.
  bool may_propose() const {
    return !dropped_ && partner_ == kNoNode && q_size_ > 0;
  }

  /// Outer-loop gate (Algorithm 3): active iff |Q| >= threshold.
  void set_outer_gate(std::int64_t threshold);

  /// QuantileMatch start (Algorithm 2): if unmatched and active, A <- the
  /// members of his best nonempty quantile.
  void begin_quantile_match();

  /// ProposalRound Step 1: propose to every woman in A. (Step 5 — the
  /// processing of the previous round's rejections — happens in
  /// finalize(), invoked right after their delivery.)
  void propose_round(Network& net);

  /// First round of the embedded maximal matching: his G0 neighbours are
  /// the women whose ACCEPT is in the inbox. Allocation-free once the
  /// buffers have grown to the largest G0 degree.
  void mm_first_round(InboxView inbox, Network& net);
  void mm_round(InboxView inbox, Network& net);
  bool mm_quiescent() const { return mm_->quiescent(); }

  /// ProposalRound Step 4, man side: adopt the M0 partner if matched;
  /// with `drop_unsatisfied` (§5.2), a man the truncated matching left
  /// Definition-3-unsatisfied is removed from play. Ends his part in this
  /// ProposalRound's G0.
  void resolve_round(bool drop_unsatisfied);

  /// Processes any rejections still in the inbox after the final round.
  void finalize(InboxView inbox);

 private:
  void process_rejections(InboxView inbox);

  NodeId node_id_;
  const PreferenceList* pref_;
  NodeId k_;
  NodeId woman_id_offset_;
  std::unique_ptr<mm::Node> mm_;

  std::vector<bool> in_q_;  // Q membership by rank
  NodeId q_size_ = 0;
  NodeId partner_ = kNoNode;            // woman index
  std::vector<NodeId> active_targets_;  // A, as woman indices
  bool active_ = true;
  bool dropped_ = false;
  bool mm_engaged_ = false;  // in G0: mm_first_round() until resolve_round()
};

class WomanPlayer {
 public:
  WomanPlayer(NodeId node_id, const PreferenceList& pref, NodeId k,
              std::unique_ptr<mm::Node> mm_node);

  NodeId node_id() const { return node_id_; }
  /// Current partner as a man index (== man node id), or kNoNode.
  NodeId partner() const { return partner_; }
  NodeId q_size() const { return q_size_; }

  /// ProposalRound Step 2: accept every proposal from the best quantile
  /// that proposed; the accepted men form her side of G0.
  /// Allocation-free once her G0 list has grown to its largest size.
  void accept_round(InboxView inbox, Network& net);
  /// True from accept_round() to resolve_round() if she accepted someone:
  /// she is a G0 endpoint of this ProposalRound.
  bool in_g0() const { return !accepted_.empty(); }

  void mm_first_round(InboxView inbox, Network& net);
  void mm_round(InboxView inbox, Network& net);
  bool mm_quiescent() const { return mm_->quiescent(); }

  /// ProposalRound Step 4: if matched in M0, reject every remaining Q
  /// member in a quantile no better than the new partner's and prune them
  /// from Q (Lemma 1's monotonicity follows from this pruning). Ends her
  /// part in this ProposalRound's G0.
  void resolve_round(Network& net);

 private:
  NodeId node_id_;
  const PreferenceList* pref_;
  NodeId k_;
  std::unique_ptr<mm::Node> mm_;

  std::vector<bool> in_q_;  // Q membership by rank
  NodeId q_size_ = 0;
  NodeId partner_ = kNoNode;     // man index
  std::vector<NodeId> accepted_;  // G0 neighbours this round (man ids)
  bool mm_engaged_ = false;
};

}  // namespace dasm::core
