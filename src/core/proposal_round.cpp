// Algorithm 1 (ProposalRound) and its embedded Step-3 maximal matching.
#include "core/engine.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace dasm::core {

void AsmEngine::collect_receivers(NodeId first, NodeId count,
                                  std::vector<NodeId>& out) const {
  out.clear();
  const auto receivers = net_.receivers();
  // Sorting r receivers costs about r log r; scanning the id range, count.
  // Take the cheaper, so the bookkeeping stays O(min(r log r, count)).
  if (receivers.size() * std::bit_width(receivers.size()) <
      static_cast<std::size_t>(count)) {
    for (const NodeId v : receivers) {
      if (v >= first && v - first < count) out.push_back(v - first);
    }
    std::sort(out.begin(), out.end());
    return;
  }
  for (NodeId i = 0; i < count; ++i) {
    if (!net_.inbox(first + i).empty()) out.push_back(i);
  }
}

int AsmEngine::run_mm_phase() {
  const auto& bg = inst_->graph();
  const int rpi = sched_.mm_rounds_per_iteration;
  // With no explicit budget the subroutine runs to quiescence; the cap
  // only guards against protocol bugs (pointer-greedy matches at least
  // one edge per sweep, and Israeli–Itai exceeding this is a
  // probability-zero event for any practical input).
  const int cap = sched_.mm_budget_iterations > 0
                      ? sched_.mm_budget_iterations
                      : 2 * (inst_->n_men() + inst_->n_women()) + 16;

  // The G0 endpoints step until their MM node goes quiescent; a quiescent
  // node neither sends nor draws again, and a player outside G0 has
  // nothing to match, so the rest of each round is silent.
  mm_men_ = g0_men_;
  mm_women_ = g0_women_;
  auto drop_quiescent = [](std::vector<NodeId>& frontier, const auto& players) {
    std::erase_if(frontier, [&](NodeId i) {
      return players[static_cast<std::size_t>(i)].mm_quiescent();
    });
  };
  auto all_quiescent = [&] { return mm_men_.empty() && mm_women_.empty(); };

  // The span index ties the subcall to its ProposalRound (already
  // counted by the time Step 3 runs).
  rec_.begin_span(obs::Phase::kMmPhase, proposal_rounds_executed_,
                  net_.stats());
  int iterations = 0;
  for (; iterations < cap; ++iterations) {
    if (iterations > 0 && all_quiescent()) break;
    rec_.begin_span(obs::Phase::kMmIteration, iterations, net_.stats());
    for (int r = 0; r < rpi; ++r) {
      const bool first = iterations == 0 && r == 0;
      net_.begin_round();
      step(mm_men_, [&](NodeId m) {
        auto& man = men_[static_cast<std::size_t>(m)];
        const auto inbox = net_.inbox(bg.man_id(m));
        first ? man.mm_first_round(inbox, net_) : man.mm_round(inbox, net_);
      });
      // Sequentially every man sends before any woman: flush the men's
      // staged sends so the two sub-loops' commit orders don't interleave.
      net_.flush_lanes();
      step(mm_women_, [&](NodeId w) {
        auto& woman = women_[static_cast<std::size_t>(w)];
        const auto inbox = net_.inbox(bg.woman_id(w));
        first ? woman.mm_first_round(inbox, net_)
              : woman.mm_round(inbox, net_);
      });
      net_.end_round();
      ++mm_rounds_executed_;
      drop_quiescent(mm_men_, men_);
      drop_quiescent(mm_women_, women_);
    }
    rec_.end_span(obs::Phase::kMmIteration, iterations, net_.stats());
  }
  rec_.end_span(obs::Phase::kMmPhase, proposal_rounds_executed_,
                net_.stats());
  DASM_CHECK_MSG(sched_.mm_budget_iterations > 0 || all_quiescent(),
                 "maximal matching failed to converge within the safety cap");
  // Charge the unused part of a fixed budget to the paper schedule: a
  // fixed-schedule CONGEST execution always burns the full budget.
  if (sched_.mm_budget_iterations > 0) {
    net_.charge_scheduled_rounds(
        static_cast<std::int64_t>(sched_.mm_budget_iterations - iterations) *
        rpi);
  }
  mm_iterations_peak_ = std::max(mm_iterations_peak_, iterations);
  return iterations;
}

bool AsmEngine::run_proposal_round() {
  const auto& bg = inst_->graph();
  const std::int64_t msgs_before = net_.stats().messages;

  // Step 1: the men who would propose propose to their active sets.
  {
    const obs::ScopedTimer timer(m_propose_us_);
    net_.begin_round();
    step(proposers_, [&](NodeId m) {
      men_[static_cast<std::size_t>(m)].propose_round(net_);
    });
    net_.end_round();
  }
  ++proposal_rounds_executed_;

  const bool any_proposals = net_.stats().messages > msgs_before;
  if (!any_proposals && params_.trim_quiescent_phases) {
    // No proposals means an empty G0: the accept round, the MM subcall
    // and the reject round would all be silent. Charge them as scheduled.
    net_.charge_scheduled_rounds(sched_.rounds_per_proposal_round() - 1);
    return false;
  }

  // Step 2: the women with proposals accept their best proposing
  // quantile. The G0 endpoints are the women who accepted someone and the
  // men their ACCEPTs reached.
  {
    const obs::ScopedTimer timer(m_accept_us_);
    collect_receivers(inst_->n_men(), inst_->n_women(), accepting_);
    net_.begin_round();
    step(accepting_, [&](NodeId w) {
      women_[static_cast<std::size_t>(w)].accept_round(
          net_.inbox(bg.woman_id(w)), net_);
    });
    net_.end_round();
    g0_women_.clear();
    for (const NodeId w : accepting_) {
      if (women_[static_cast<std::size_t>(w)].in_g0()) g0_women_.push_back(w);
    }
    collect_receivers(0, inst_->n_men(), g0_men_);
  }

  // Step 3: maximal matching on the accepted-proposal graph G0.
  {
    const obs::ScopedTimer timer(m_mm_us_);
    run_mm_phase();
  }

  // Step 4: adopt M0 partners; matched women reject and prune. Step 5 is
  // the men's local processing of those rejections, performed right after
  // delivery (equivalent to processing them at the start of their next
  // round, which is when a real processor would act on them).
  const obs::ScopedTimer timer(m_resolve_us_);
  net_.begin_round();
  step(g0_men_, [&](NodeId m) {
    men_[static_cast<std::size_t>(m)].resolve_round(
        params_.drop_unsatisfied_men);
  });
  step(g0_women_, [&](NodeId w) {
    women_[static_cast<std::size_t>(w)].resolve_round(net_);
  });
  net_.end_round();
  collect_receivers(0, inst_->n_men(), rejected_);
  step(rejected_, [&](NodeId m) {
    men_[static_cast<std::size_t>(m)].finalize(net_.inbox(bg.man_id(m)));
  });

  // Within a QuantileMatch the propose frontier only shrinks: a man leaves
  // it when matched, dropped or out of targets, and nobody outside it
  // gains targets before the next begin_quantile_match(). A man a
  // rejection freed from his partner may propose again from then on.
  std::erase_if(proposers_, [&](NodeId m) {
    return !men_[static_cast<std::size_t>(m)].would_propose();
  });
  for (const NodeId m : rejected_) {
    if (men_[static_cast<std::size_t>(m)].may_propose()) {
      displaced_.push_back(m);
    }
  }
  return net_.stats().messages > msgs_before;
}

}  // namespace dasm::core
