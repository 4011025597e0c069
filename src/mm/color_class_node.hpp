// Deterministic distributed maximal matching via edge classes and
// Cole–Vishkin coloring (in the style of Panconesi–Rizzi), as a lockstep
// mm::Node — Backend::kColorClass, usable standalone (mm/runner) and as
// ProposalRound Step 3 inside ASM.
//
//   1. Every vertex numbers its incident edges with ports 0..deg-1 and
//      exchanges port numbers, so both endpoints of an edge {u, v}
//      (u < v) know its CLASS (port_u, port_v). Each class induces a
//      subgraph of maximum degree 2 (disjoint paths and cycles): a vertex
//      has at most one class edge as the lower endpoint (ports are
//      distinct) and at most one as the higher endpoint.
//   2. For each of the delta_bound^2 classes in a globally known order:
//      a. each vertex picks its highest-id live class-neighbour as its
//         parent, giving a pseudoforest (mutual pairs are rooted at the
//         higher id);
//      b. Cole–Vishkin color reduction runs on the pseudoforest until
//         every vertex has a color < 6 — O(log* n) rounds;
//      c. three sweeps over the 6 color phases compute a maximal matching
//         of the class subgraph: in phase c, unmatched color-c vertices
//         propose to their smallest-id unmatched class-neighbour,
//         receivers accept their smallest-id proposer, and matched
//         vertices withdraw from the whole graph. (Degree <= 2 means a
//         vertex can lose a neighbour to another match at most twice, so
//         three sweeps guarantee class maximality.)
//
// Every edge lies in some class, and each class pass leaves no class edge
// with two unmatched endpoints, so the union is maximal.
//
// Every node derives its phase from its own round counter and two global
// bounds: delta_bound (>= the degree of the subgraph the protocol runs on;
// inside ASM, quantization bounds G0's degree by max_v ceil(deg(v)/k)) and
// n_bound (for the Cole–Vishkin iteration count). The fixed schedule,
// 1 port round + delta_bound^2 classes x (1 parent + (cv+1) CV + 54 sweep
// rounds), is independent of the execution and constant in n for the
// bounded-preference regime of Floréen et al. [3]: a deterministic ASM
// Step 3 with a worst-case round bound and no HKP black box (DESIGN.md §2).
#pragma once

#include "mm/node.hpp"

namespace dasm::mm {

class ColorClassNode final : public Node {
 public:
  /// `delta_bound` >= the max degree of any subgraph this node will be
  /// reset on; `n_bound` >= the number of processors (for Cole–Vishkin).
  ColorClassNode(NodeId delta_bound, NodeId n_bound);

  void reset(NodeId self, bool is_left, std::vector<NodeId> neighbors) override;
  void on_round(InboxView inbox, Network& net) override;
  NodeId partner() const override { return partner_; }
  bool quiescent() const override { return !alive_; }
  /// One "iteration" is one class pass.
  int rounds_per_iteration() const override { return per_class_; }

 private:
  bool in_class() const { return !class_ports_.empty(); }
  void process_withdrawals(InboxView inbox);
  void mark_dead(NodeId v);
  bool any_live_neighbor() const;
  void withdraw(Network& net);
  void send_color(Network& net);  // to every live class neighbour

  NodeId delta_;
  int cv_iters_;
  int per_class_;

  NodeId self_ = kNoNode;
  bool alive_ = false;
  NodeId partner_ = kNoNode;
  std::int64_t round_ = 0;

  std::vector<NodeId> neighbors_;       // position = my port number
  std::vector<bool> neighbor_alive_;
  std::vector<NodeId> peer_port_;       // my port on the peer's side

  // Per-class scratch.
  std::vector<std::size_t> class_ports_;  // my ports of this class's edges
  NodeId parent_ = kNoNode;
  bool rooted_ = false;
  std::int64_t color_ = 0;
};

/// The Cole–Vishkin iteration count needed to take ids in [0, n) down to
/// colors < 6 (a deterministic a-priori bound, ~log* n + O(1)).
int cole_vishkin_iterations(NodeId n);

}  // namespace dasm::mm
