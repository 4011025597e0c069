// Self-timed execution vs. the orchestrated engine: the two must produce
// identical matchings, traffic, and good/bad partitions, which justifies
// the engine's (trimmed) driving everywhere else.
#include "core/selftimed.hpp"

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "gen/generators.hpp"
#include "stable/blocking.hpp"
#include "util/check.hpp"

namespace dasm::core {
namespace {

AsmParams small_schedule(mm::Backend backend, std::uint64_t seed) {
  AsmParams p;
  p.epsilon = 0.5;
  p.mm_backend = backend;
  p.seed = seed;
  p.mm_iteration_budget = 6;   // self-timed requires a fixed budget
  p.inner_iterations = 12;     // keep the full schedule affordable
  p.outer_iterations = 2;
  return p;
}

// --------------------------------------------------------- phase script

TEST(PhaseScript, EnumeratesTheRoundStructure) {
  AsmParams p = small_schedule(mm::Backend::kIsraeliItai, 1);
  const Schedule sched = resolve_schedule(p, 16, 32);
  const PhaseScript script(sched);
  // 2 outer x 12 inner x k PRs x (3 + 6*4) rounds.
  EXPECT_EQ(script.total_rounds(),
            2LL * 12 * sched.k * (3 + 6 * 4));

  const Phase first = script.at(0);
  EXPECT_EQ(first.kind, PhaseKind::kPropose);
  EXPECT_TRUE(first.quantile_match_start);
  EXPECT_EQ(first.outer, 0);

  EXPECT_EQ(script.at(1).kind, PhaseKind::kAccept);
  EXPECT_EQ(script.at(2).kind, PhaseKind::kMmRound);
  EXPECT_EQ(script.at(2).mm_round, 0);
  EXPECT_EQ(script.at(25).kind, PhaseKind::kMmRound);
  EXPECT_EQ(script.at(25).mm_round, 23);
  EXPECT_EQ(script.at(26).kind, PhaseKind::kResolve);

  // The second ProposalRound of the first QuantileMatch is NOT a QM start.
  const Phase second_pr = script.at(27);
  EXPECT_EQ(second_pr.kind, PhaseKind::kPropose);
  EXPECT_FALSE(second_pr.quantile_match_start);

  // The first round of the second outer iteration.
  const std::int64_t half = script.total_rounds() / 2;
  EXPECT_EQ(script.at(half).outer, 1);
  EXPECT_EQ(script.at(half).kind, PhaseKind::kPropose);
  EXPECT_TRUE(script.at(half).quantile_match_start);

  EXPECT_THROW(script.at(-1), CheckError);
  EXPECT_THROW(script.at(script.total_rounds()), CheckError);
}

TEST(PhaseScript, RejectsRunToQuiescenceSchedules) {
  AsmParams p;
  p.mm_iteration_budget = 0;
  const Schedule sched = resolve_schedule(p, 8, 16);
  EXPECT_THROW(PhaseScript{sched}, CheckError);
}

TEST(PhaseScript, PhaseKindNames) {
  EXPECT_STREQ(to_string(PhaseKind::kPropose), "propose");
  EXPECT_STREQ(to_string(PhaseKind::kMmRound), "mm");
}

// ------------------------------------------------- engine equivalence

class SelfTimedEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SelfTimedEquivalence, MatchesTheUntrimmedEngineExactly) {
  const Instance inst = gen::complete_uniform(12, GetParam());
  for (const auto backend :
       {mm::Backend::kIsraeliItai, mm::Backend::kRandomPriority,
        mm::Backend::kPointerGreedy, mm::Backend::kColorClass}) {
    AsmParams p = small_schedule(backend, GetParam() * 7 + 1);
    const SelfTimedResult self_timed = run_selftimed_asm(inst, p);

    AsmParams engine_params = p;
    engine_params.trim_quiescent_phases = false;
    const AsmResult engine = run_asm(inst, engine_params);

    EXPECT_EQ(self_timed.matching, engine.matching)
        << "backend " << static_cast<int>(backend);
    EXPECT_EQ(self_timed.net.messages, engine.net.messages);
    EXPECT_EQ(self_timed.net.bits, engine.net.bits);
    EXPECT_EQ(self_timed.good_men, engine.good_men);
    // Self-timed executes every scheduled round; the engine may finish a
    // quiescent MM subcall early (a silent, state-equivalent shortcut).
    EXPECT_GE(self_timed.net.executed_rounds, engine.net.executed_rounds);
    EXPECT_EQ(self_timed.net.executed_rounds,
              self_timed.schedule.scheduled_rounds());
  }
}

TEST_P(SelfTimedEquivalence, MatchesTrimmedEngineOutcome) {
  // Trimming never changes the outcome, so self-timed must also agree
  // with the default (trimmed) engine.
  const Instance inst = gen::regular_bipartite(16, 4, GetParam());
  AsmParams p = small_schedule(mm::Backend::kIsraeliItai, GetParam());
  const SelfTimedResult self_timed = run_selftimed_asm(inst, p);
  const AsmResult engine = run_asm(inst, p);
  EXPECT_EQ(self_timed.matching, engine.matching);
  EXPECT_EQ(self_timed.net.messages, engine.net.messages);
  EXPECT_EQ(self_timed.good_men, engine.good_men);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelfTimedEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(SelfTimed, SatisfiesTheoremThree) {
  const Instance inst = gen::complete_uniform(16, 9);
  AsmParams p = small_schedule(mm::Backend::kIsraeliItai, 3);
  const SelfTimedResult r = run_selftimed_asm(inst, p);
  validate_matching(inst, r.matching);
  EXPECT_LE(static_cast<double>(count_blocking_pairs(inst, r.matching)),
            p.epsilon * static_cast<double>(inst.edge_count()));
}

TEST(SelfTimed, RequiresFixedBudget) {
  const Instance inst = gen::complete_uniform(8, 1);
  AsmParams p;
  p.mm_iteration_budget = 0;
  EXPECT_THROW(run_selftimed_asm(inst, p), CheckError);
}

}  // namespace
}  // namespace dasm::core
