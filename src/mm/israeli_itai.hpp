// Israeli–Itai randomized distributed maximal matching (Appendix A,
// Algorithm 4 "MatchingRound").
//
// One MatchingRound costs four communication rounds:
//   1. every live vertex picks a uniformly random live neighbour and
//      proposes the oriented edge (kMmPick);
//   2. every vertex with incoming picks keeps one uniformly at random and
//      notifies its source (kMmKeep) — the kept edges form the sparse
//      graph G';
//   3. every vertex with an incident G' edge chooses one uniformly at
//      random (kMmChoose); edges chosen from both sides are matched;
//   4. matched vertices withdraw, announcing kMmMatched to live
//      neighbours; vertices left without live neighbours drop out.
//
// Lemma 8: the expected number of surviving vertices decays geometrically,
// so O(log(n/eta)) MatchingRounds yield a maximal matching with
// probability at least 1 - eta (Corollary 1).
#pragma once

#include "mm/node.hpp"

namespace dasm::mm {

class IsraeliItaiNode final : public Node {
 public:
  /// `rng` must be an independent stream per node (derive_stream(seed, id)).
  explicit IsraeliItaiNode(Xoshiro256 rng) : rng_(rng) {}

  void reset(NodeId self, bool is_left,
             std::span<const NodeId> neighbors) override;
  void on_round(InboxView inbox, Network& net) override;
  NodeId partner() const override { return partner_; }
  bool quiescent() const override { return !alive_; }
  int rounds_per_iteration() const override { return 4; }

 private:
  enum class Phase { kPick, kKeep, kChoose, kResolve };

  void process_withdrawals(InboxView inbox);
  void mark_dead(NodeId v);
  bool has_live_neighbor() const;
  NodeId random_live_neighbor();

  Xoshiro256 rng_;
  NodeId self_ = kNoNode;
  Phase phase_ = Phase::kPick;
  bool alive_ = false;
  NodeId partner_ = kNoNode;

  std::vector<NodeId> neighbors_;       // live neighbour ids (unsorted ok)
  std::vector<bool> neighbor_alive_;    // parallel to neighbors_

  NodeId picked_out_ = kNoNode;  // step-1 outgoing pick
  NodeId kept_in_ = kNoNode;     // step-2 kept incoming edge source
  bool out_was_kept_ = false;    // peer kept our step-1 pick
  NodeId chosen_ = kNoNode;      // step-3 choice
};

}  // namespace dasm::mm
