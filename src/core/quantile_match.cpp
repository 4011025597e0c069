// Algorithm 2 (QuantileMatch): k ProposalRounds after refilling the men's
// active sets from their best nonempty quantile.
#include "core/engine.hpp"

#include <algorithm>

namespace dasm::core {

void AsmEngine::begin_quantile_match() {
  // Only a man who may propose gets a nonempty A, and every other man's A
  // is already empty. Those men are the ones who still would propose and
  // the ones a rejection left free during the last QuantileMatch: an
  // active free man always gets a nonempty A, and the gate only tightens,
  // so a free man outside both lists is inactive for good.
  std::sort(displaced_.begin(), displaced_.end());
  const auto old_end = static_cast<std::ptrdiff_t>(proposers_.size());
  proposers_.insert(proposers_.end(), displaced_.begin(), displaced_.end());
  std::inplace_merge(proposers_.begin(), proposers_.begin() + old_end,
                     proposers_.end());
  proposers_.erase(std::unique(proposers_.begin(), proposers_.end()),
                   proposers_.end());
  displaced_.clear();
  step(proposers_, [&](NodeId m) {
    men_[static_cast<std::size_t>(m)].begin_quantile_match();
  });
  std::erase_if(proposers_, [&](NodeId m) {
    return !men_[static_cast<std::size_t>(m)].would_propose();
  });
}

bool AsmEngine::run_quantile_match() {
  begin_quantile_match();

  bool any_message = false;
  for (NodeId pr = 0; pr < sched_.k; ++pr) {
    if (params_.trim_quiescent_phases && proposers_.empty()) {
      // Within one QuantileMatch the active sets only shrink and a man
      // only loses his partner when some other man's proposal displaces
      // him, so once nobody would propose the remaining ProposalRounds
      // are provably silent (Lemma 2's argument).
      net_.charge_scheduled_rounds(static_cast<std::int64_t>(sched_.k - pr) *
                                   sched_.rounds_per_proposal_round());
      break;
    }
    rec_.begin_span(obs::Phase::kProposalRound, pr, net_.stats());
    any_message |= run_proposal_round();
    rec_.end_span(obs::Phase::kProposalRound, pr, net_.stats());
    if (round_budget_exhausted()) break;
  }
  ++quantile_matches_executed_;
  return any_message;
}

}  // namespace dasm::core
