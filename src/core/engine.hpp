// The ASM execution engine: owns the CONGEST network and the players and
// drives them through the globally known phase sequence of Algorithms 1-3.
// Each round steps only the players that can act in it — an ascending
// frontier per phase (DESIGN.md §6): the men who would propose, the women
// with proposals, the live G0 endpoints, the men with rejections. The
// rest of the round is silent, so its cost follows the traffic, not n.
//
// Method bodies are split by algorithm: proposal_round.cpp (Algorithm 1),
// quantile_match.cpp (Algorithm 2), asm_algorithm.cpp (Algorithm 3 and
// result assembly).
#pragma once

#include <memory>
#include <vector>

#include "congest/network.hpp"
#include "core/params.hpp"
#include "core/player.hpp"
#include "core/result.hpp"
#include "core/schedule.hpp"
#include "obs/trace.hpp"
#include "par/frontier.hpp"
#include "par/thread_pool.hpp"
#include "stable/instance.hpp"

namespace dasm::core {

class AsmEngine {
 public:
  AsmEngine(const Instance& inst, const AsmParams& params);

  /// Runs the full schedule (or until provable global quiescence when
  /// trimming is enabled) and returns the matching plus diagnostics.
  AsmResult run();

 private:
  // Algorithm 1. Returns true if any message was sent during the round.
  bool run_proposal_round();
  // Step 3: drive the embedded maximal-matching protocol. Returns the
  // number of protocol iterations executed.
  int run_mm_phase();
  // Algorithm 2. Returns true if any message was sent.
  bool run_quantile_match();

  // True when no player will ever send another message (every man is
  // matched, exhausted, or permanently outside the degree gate).
  bool globally_quiescent() const { return proposers_.empty(); }

  // QuantileMatch start (Algorithm 2): refills the active sets of the
  // men who may propose and rebuilds the propose frontier.
  void begin_quantile_match();

  // `out` <- the player indices (node id - first) of the most recent
  // round's receivers with node ids in [first, first + count), ascending.
  void collect_receivers(NodeId first, NodeId count,
                         std::vector<NodeId>& out) const;

  // True once the AsmParams::max_rounds cap has been reached.
  bool round_budget_exhausted() const;

  void record_snapshot(int outer_iteration);

  /// Emits the per-inner-iteration obs counters (active/bad/matched/live
  /// men, plus blocking-pair counts when AsmParams::obs_blocking_pairs);
  /// no-op when no obs sink is attached.
  void emit_inner_counters();

  /// The current matching, read from the women's (authoritative) partner
  /// state; checks man/woman agreement. Valid at ProposalRound
  /// boundaries.
  Matching current_matching() const;

  AsmResult build_result();

  // Steps f(index) for every player index of the ascending `frontier`
  // (par::step_frontier: across the pool once the frontier is large
  // enough). CONGEST guarantees the steps of one round are independent —
  // each player reads only its own state and inbox and writes only its
  // own state and outgoing edges — and the network's send lanes restore
  // the sequential node-id-major send order at commit time (DESIGN.md §6).
  template <typename F>
  void step(const std::vector<NodeId>& frontier, F&& f) {
    m_player_steps_.inc(static_cast<std::int64_t>(frontier.size()));
    par::step_frontier(pool_.get(), frontier, f);
  }

  const Instance* inst_;
  AsmParams params_;
  Schedule sched_;
  Network net_;
  std::unique_ptr<par::ThreadPool> pool_;  // null = serial engine
  std::vector<ManPlayer> men_;
  std::vector<WomanPlayer> women_;

  // Frontiers: ascending player indices (man or woman index, not node id).
  std::vector<NodeId> proposers_;  // men who would_propose(); all at first
  std::vector<NodeId> displaced_;  // men a rejection left free this QM
  std::vector<NodeId> accepting_;  // women with mail in the accept round
  std::vector<NodeId> g0_men_;     // this ProposalRound's G0 endpoints
  std::vector<NodeId> g0_women_;
  std::vector<NodeId> mm_men_;     // the G0 endpoints not yet quiescent
  std::vector<NodeId> mm_women_;
  std::vector<NodeId> rejected_;   // men with mail after the resolve round

  // Progress counters (see AsmResult).
  std::int64_t proposal_rounds_executed_ = 0;
  std::int64_t quantile_matches_executed_ = 0;
  std::int64_t mm_rounds_executed_ = 0;
  int mm_iterations_peak_ = 0;
  std::int64_t inner_iteration_counter_ = 0;
  std::vector<InnerSnapshot> trace_;
  obs::Recorder rec_;  // null-sink recorder unless AsmParams::obs_sink set

  // Wall-clock metrics handles (inactive unless AsmParams::metrics set).
  obs::CounterHandle m_runs_;
  obs::CounterHandle m_outer_iters_;
  obs::CounterHandle m_inner_iters_;
  obs::CounterHandle m_player_steps_;     // logical: frontier player steps
  obs::HistogramHandle m_outer_us_;       // time per outer iteration
  obs::HistogramHandle m_inner_us_;       // time per inner iteration
  obs::HistogramHandle m_inner_rounds_;   // logical: rounds per inner iter
  obs::HistogramHandle m_certify_us_;     // blocking-pair sampling scans
  obs::HistogramHandle m_propose_us_;     // per phase, sends included
  obs::HistogramHandle m_accept_us_;
  obs::HistogramHandle m_mm_us_;
  obs::HistogramHandle m_resolve_us_;
};

/// Convenience entry point: run ASM with `params` on `inst`.
AsmResult run_asm(const Instance& inst, const AsmParams& params);

/// Upper bound on the degree of any Step-3 accepted-proposal graph G0
/// when preferences are quantized into k quantiles: max over players of
/// ceil(deg / k). The degree bound the engine hands mm::make_node, which
/// sizes degree-parameterized subroutines (mm::Backend::kColorClass).
NodeId g0_degree_bound(const Instance& inst, NodeId k);

}  // namespace dasm::core
