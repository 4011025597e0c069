#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include "mm/runner.hpp"
#include "util/check.hpp"

namespace dasm::core {
namespace {

TEST(ScheduleTest, PaperDefaults) {
  AsmParams p;
  p.epsilon = 0.25;
  const Schedule s = resolve_schedule(p, 1024, 2048);
  EXPECT_EQ(s.k, 32);              // ceil(8 / 0.25)
  EXPECT_DOUBLE_EQ(s.delta, 0.03125);  // eps / 8
  EXPECT_EQ(s.inner, 2 * 32 * 32);     // 2 delta^-1 k
  EXPECT_EQ(s.outer, 11);              // floor(log2 1024) + 1
  EXPECT_EQ(s.mm_rounds_per_iteration, 3);  // pointer-greedy backend
}

TEST(ScheduleTest, CeilingInK) {
  AsmParams p;
  p.epsilon = 0.3;
  const Schedule s = resolve_schedule(p, 64, 128);
  EXPECT_EQ(s.k, 27);  // ceil(8 / 0.3) = ceil(26.67)
}

TEST(ScheduleTest, OverridesRespected) {
  AsmParams p;
  p.epsilon = 0.5;
  p.k = 4;
  p.delta = 0.25;
  p.inner_iterations = 10;
  p.outer_iterations = 3;
  p.mm_iteration_budget = 7;
  p.mm_backend = mm::Backend::kIsraeliItai;
  const Schedule s = resolve_schedule(p, 256, 512);
  EXPECT_EQ(s.k, 4);
  EXPECT_DOUBLE_EQ(s.delta, 0.25);
  EXPECT_EQ(s.inner, 10);
  EXPECT_EQ(s.outer, 3);
  EXPECT_EQ(s.mm_budget_iterations, 7);
  EXPECT_EQ(s.mm_rounds_per_iteration, 4);
}

TEST(ScheduleTest, DerivedCounts) {
  AsmParams p;
  p.k = 4;
  p.inner_iterations = 10;
  p.outer_iterations = 3;
  p.mm_iteration_budget = 2;
  p.mm_backend = mm::Backend::kIsraeliItai;
  const Schedule s = resolve_schedule(p, 16, 32);
  EXPECT_EQ(s.scheduled_quantile_matches(), 30);
  EXPECT_EQ(s.scheduled_proposal_rounds(), 120);
  EXPECT_EQ(s.rounds_per_proposal_round(), 3 + 2 * 4);
  EXPECT_EQ(s.scheduled_rounds(), 120 * 11);
}

TEST(ScheduleTest, HkpNormalizedBound) {
  AsmParams p;
  p.k = 2;
  p.inner_iterations = 1;
  p.outer_iterations = 1;
  const Schedule s = resolve_schedule(p, 16, 32);
  // log2(16) = 4, so the HKP term is 4^4 = 256 per ProposalRound.
  EXPECT_EQ(s.hkp_normalized_rounds(16), 2 * (3 + 256));
}

TEST(ScheduleTest, OuterGrowsLogarithmically) {
  AsmParams p;
  EXPECT_EQ(resolve_schedule(p, 1, 2).outer, 1);
  EXPECT_EQ(resolve_schedule(p, 2, 4).outer, 2);
  EXPECT_EQ(resolve_schedule(p, 255, 510).outer, 8);
  EXPECT_EQ(resolve_schedule(p, 256, 512).outer, 9);
}

TEST(ScheduleTest, MmRoundsPerIterationComeFromTheBackendsNodes) {
  // Color-class sizes its schedule by the processor count (here 2 * 8 =
  // 16, which needs one Cole–Vishkin step more than 8 does).
  for (const auto backend :
       {mm::Backend::kPointerGreedy, mm::Backend::kIsraeliItai,
        mm::Backend::kRandomPriority, mm::Backend::kColorClass}) {
    AsmParams p;
    p.mm_backend = backend;
    const auto node = mm::make_node(backend, p.seed, /*node_id=*/0,
                                    /*degree_bound=*/3, /*node_count=*/16);
    EXPECT_EQ(resolve_schedule(p, 8, 16).mm_rounds_per_iteration,
              node->rounds_per_iteration())
        << mm::to_string(backend);
  }
}

TEST(ScheduleTest, ValidatesParameters) {
  AsmParams p;
  p.epsilon = 0.0;
  EXPECT_THROW(resolve_schedule(p, 8, 16), CheckError);
  p.epsilon = 1.5;
  EXPECT_THROW(resolve_schedule(p, 8, 16), CheckError);
  p.epsilon = 0.25;
  p.delta = 0.75;  // Lemma 5 requires delta <= 1/2
  EXPECT_THROW(resolve_schedule(p, 8, 16), CheckError);
  p.delta = 0.0;
  EXPECT_THROW(resolve_schedule(p, 0, 0), CheckError);
}

}  // namespace
}  // namespace dasm::core
