// Thread-count invariance of the parallel engine (DESIGN.md §6): for every
// protocol, running with 2, 4, or hardware-concurrency worker threads must
// produce results bit-identical to the serial engine — same matching, same
// NetStats (operator==), same network transmission trace, same
// diagnostics. Covers ASM over all four maximal-matching backends
// (pointer-greedy, Israeli–Itai, random-priority, color-class), RandASM,
// and the standalone mm::Runner; randomized protocols stay seed-stable at
// any thread count because every node draws from its own
// derive_stream(seed, node_id) PRNG stream.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "gen/generators.hpp"
#include "mm/runner.hpp"
#include "par/sweep.hpp"
#include "par/thread_pool.hpp"
#include "testing_graphs.hpp"

namespace dasm {
namespace {

std::vector<int> parallel_thread_counts() {
  // Baseline is threads = 1; these are compared against it. Thread counts
  // above the core count still exercise the lane merge (they just
  // timeslice), so the set is meaningful even on small hosts.
  std::set<int> counts{2, 4, par::hardware_threads()};
  counts.erase(1);
  return {counts.begin(), counts.end()};
}

const std::vector<std::uint64_t> kSeeds{1, 3, 5, 7, 11};

struct EngineVariant {
  std::string name;
  // Configures the MM backend of Step 3 for the given instance.
  void (*configure)(const Instance&, core::AsmParams&);
};

void use_pointer_greedy(const Instance&, core::AsmParams& p) {
  p.mm_backend = mm::Backend::kPointerGreedy;
}
void use_israeli_itai(const Instance&, core::AsmParams& p) {
  p.mm_backend = mm::Backend::kIsraeliItai;
}
void use_random_priority(const Instance&, core::AsmParams& p) {
  p.mm_backend = mm::Backend::kRandomPriority;
}
void use_color_class(const Instance&, core::AsmParams& p) {
  p.k = 2;  // coarse quantiles, so G0 has degree > 1
  p.mm_backend = mm::Backend::kColorClass;
}

const EngineVariant kVariants[] = {
    {"pointer-greedy", use_pointer_greedy},
    {"israeli-itai", use_israeli_itai},
    {"random-priority", use_random_priority},
    {"color-class", use_color_class},
};

void expect_identical(const core::AsmResult& got, const core::AsmResult& ref,
                      const std::string& what) {
  EXPECT_EQ(got.matching, ref.matching) << what;
  EXPECT_EQ(got.net, ref.net) << what;                // NetStats operator==
  EXPECT_EQ(got.net_trace, ref.net_trace) << what;    // every transmission
  EXPECT_EQ(got.trace, ref.trace) << what;            // inner snapshots
  EXPECT_EQ(got.good_men, ref.good_men) << what;
  EXPECT_EQ(got.final_q_size, ref.final_q_size) << what;
  EXPECT_EQ(got.proposal_rounds_executed, ref.proposal_rounds_executed)
      << what;
  EXPECT_EQ(got.mm_rounds_executed, ref.mm_rounds_executed) << what;
  EXPECT_EQ(got.good_count, ref.good_count) << what;
}

TEST(ParallelEngine, AsmBitIdenticalAcrossThreadCountsAndBackends) {
  const Instance dense = gen::complete_uniform(16, 42);
  const Instance sparse = gen::regular_bipartite(24, 6, 9);
  const Instance* instances[] = {&dense, &sparse};
  for (const EngineVariant& variant : kVariants) {
    for (std::size_t gi = 0; gi < 2; ++gi) {
      const Instance& inst = *instances[gi];
      for (const std::uint64_t seed : kSeeds) {
        core::AsmParams params;
        params.epsilon = 0.5;
        params.seed = seed;
        params.record_trace = true;
        params.net_trace_events = 1 << 14;
        variant.configure(inst, params);
        const auto ref = core::run_asm(inst, params);
        EXPECT_FALSE(ref.net_trace.empty());
        for (const int threads : parallel_thread_counts()) {
          core::AsmParams par_params = params;
          par_params.threads = threads;
          const auto got = core::run_asm(inst, par_params);
          expect_identical(got, ref,
                           variant.name + " inst" + std::to_string(gi) +
                               " seed" + std::to_string(seed) + " threads" +
                               std::to_string(threads));
        }
      }
    }
  }
}

TEST(ParallelEngine, RandAsmBitIdenticalAcrossThreadCounts) {
  const Instance inst = gen::complete_uniform(16, 7);
  for (const std::uint64_t seed : kSeeds) {
    core::RandAsmParams params;
    params.epsilon = 0.5;
    params.seed = seed;
    params.net_trace_events = 1 << 14;
    const auto ref = core::run_rand_asm(inst, params);
    for (const int threads : parallel_thread_counts()) {
      core::RandAsmParams par_params = params;
      par_params.threads = threads;
      const auto got = core::run_rand_asm(inst, par_params);
      EXPECT_EQ(got.matching, ref.matching) << "seed " << seed;
      EXPECT_EQ(got.net, ref.net) << "seed " << seed;
      EXPECT_EQ(got.net_trace, ref.net_trace) << "seed " << seed;
    }
  }
}

TEST(ParallelEngine, MmRunnerBitIdenticalAcrossThreadCounts) {
  const auto [bip, is_left] = testing::random_bipartite(20, 20, 0.3, 5);
  const Graph general = testing::random_graph(40, 0.15, 17);
  struct Case {
    const Graph* g;
    const std::vector<bool>* is_left;
    mm::Backend backend;
  };
  const std::vector<bool> no_sides;
  const std::vector<Case> cases = {
      {&bip, &is_left, mm::Backend::kPointerGreedy},
      {&bip, &is_left, mm::Backend::kIsraeliItai},
      {&general, &no_sides, mm::Backend::kIsraeliItai},
      {&bip, &is_left, mm::Backend::kRandomPriority},
      {&general, &no_sides, mm::Backend::kRandomPriority},
      {&bip, &is_left, mm::Backend::kColorClass},
      {&general, &no_sides, mm::Backend::kColorClass},
  };
  for (const Case& c : cases) {
    for (const std::uint64_t seed : kSeeds) {
      mm::RunConfig config;
      config.backend = c.backend;
      config.seed = seed;
      config.trace_events = 1 << 14;
      const auto ref = run_maximal_matching(*c.g, *c.is_left, config);
      EXPECT_TRUE(ref.maximal);
      for (const int threads : parallel_thread_counts()) {
        mm::RunConfig par_config = config;
        par_config.threads = threads;
        const auto got = run_maximal_matching(*c.g, *c.is_left, par_config);
        const std::string what = std::string(to_string(c.backend)) + " seed " +
                                 std::to_string(seed) + " threads " +
                                 std::to_string(threads);
        EXPECT_EQ(got.matching, ref.matching) << what;
        EXPECT_EQ(got.net, ref.net) << what;
        EXPECT_EQ(got.trace, ref.trace) << what;
        EXPECT_EQ(got.live_after_iteration, ref.live_after_iteration) << what;
        EXPECT_EQ(got.iterations_executed, ref.iterations_executed) << what;
        EXPECT_EQ(got.maximal, ref.maximal) << what;
      }
    }
  }
}

TEST(ParallelEngine, ThreadsZeroSelectsHardwareConcurrency) {
  const Instance inst = gen::complete_uniform(12, 3);
  core::AsmParams params;
  params.epsilon = 0.5;
  params.threads = 0;  // hardware concurrency — must still be identical
  const auto got = core::run_asm(inst, params);
  params.threads = 1;
  const auto ref = core::run_asm(inst, params);
  EXPECT_EQ(got.matching, ref.matching);
  EXPECT_EQ(got.net, ref.net);
}

// An engine launched from inside a sweep worker (nested parallelism) must
// degrade to serial inline execution, not deadlock or corrupt lanes.
TEST(ParallelEngine, NestedEngineInsideSweepWorkerStaysCorrect) {
  const Instance inst = gen::complete_uniform(12, 21);
  core::AsmParams params;
  params.epsilon = 0.5;
  const auto ref = core::run_asm(inst, params);
  par::SweepRunner sweep(4);
  const auto results = sweep.map<std::int64_t>(8, [&](std::int64_t) {
    core::AsmParams p = params;
    p.threads = 4;  // nested: runs inline as worker 0
    const auto r = core::run_asm(inst, p);
    return r.net.messages;
  });
  for (const std::int64_t messages : results) {
    EXPECT_EQ(messages, ref.net.messages);
  }
}

}  // namespace
}  // namespace dasm
