// Golden outputs of the protocol engines: a digest of every observable
// output — matching, NetStats, transmission trace, inner snapshots, the
// final good/dropped/|Q| vectors and the exported obs trace — pinned to the
// values the engines produced before frontier stepping replaced the
// full per-round player sweeps. An engine change that reorders a single
// send, draws one extra random number or steps a player a round late
// changes a digest here, at one thread or at four.
//
// Covered: ASM over all four mm::Backends x {complete, bounded, incomplete}
// x 3 seeds, RandASM, almost-regular ASM, truncated ASM with the drop rule,
// the untrimmed schedule, a seeded drop+delay+duplicate fault plan with
// retransmission, a raw (lossy) drop plan, and the standalone MM runner.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/almost_regular_asm.hpp"
#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "gen/generators.hpp"
#include "mm/runner.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "svc/digest.hpp"
#include "testing_graphs.hpp"

namespace dasm {
namespace {

const int kThreadCounts[] = {1, 4};

void mix_stats(svc::Fnv1a& h, const NetStats& s) {
  h.mix(static_cast<std::uint64_t>(s.executed_rounds))
      .mix(static_cast<std::uint64_t>(s.scheduled_rounds))
      .mix(static_cast<std::uint64_t>(s.messages))
      .mix(static_cast<std::uint64_t>(s.bits))
      .mix(static_cast<std::uint64_t>(s.max_message_bits));
  for (const std::int64_t c : s.messages_by_type) {
    h.mix(static_cast<std::uint64_t>(c));
  }
  h.mix(static_cast<std::uint64_t>(s.delivered))
      .mix(static_cast<std::uint64_t>(s.dropped))
      .mix(static_cast<std::uint64_t>(s.duplicated))
      .mix(static_cast<std::uint64_t>(s.retransmitted))
      .mix(static_cast<std::uint64_t>(s.filtered));
}

void mix_trace(svc::Fnv1a& h, const std::vector<TraceEvent>& trace) {
  h.mix(static_cast<std::uint64_t>(trace.size()));
  for (const TraceEvent& e : trace) {
    h.mix(static_cast<std::uint64_t>(e.round))
        .mix(static_cast<std::uint64_t>(e.from))
        .mix(static_cast<std::uint64_t>(e.to))
        .mix(static_cast<std::uint64_t>(e.msg.type))
        .mix(static_cast<std::uint64_t>(e.msg.a))
        .mix(static_cast<std::uint64_t>(e.msg.b));
  }
}

void mix_matching(svc::Fnv1a& h, const Matching& m) {
  h.mix(static_cast<std::uint64_t>(m.node_count()));
  for (NodeId v = 0; v < m.node_count(); ++v) {
    h.mix(static_cast<std::uint64_t>(m.partner_of(v)));
  }
}

template <typename Bits>
void mix_bits(svc::Fnv1a& h, const Bits& bits) {
  h.mix(static_cast<std::uint64_t>(bits.size()));
  for (const auto b : bits) h.mix(static_cast<std::uint64_t>(b));
}

std::uint64_t digest(const core::AsmResult& r, const obs::MemorySink* sink) {
  svc::Fnv1a h;
  mix_matching(h, r.matching);
  mix_stats(h, r.net);
  mix_trace(h, r.net_trace);
  h.mix(static_cast<std::uint64_t>(r.proposal_rounds_executed))
      .mix(static_cast<std::uint64_t>(r.quantile_matches_executed))
      .mix(static_cast<std::uint64_t>(r.mm_rounds_executed))
      .mix(static_cast<std::uint64_t>(r.mm_iterations_peak))
      .mix(static_cast<std::uint64_t>(r.good_count))
      .mix(static_cast<std::uint64_t>(r.bad_count));
  mix_bits(h, r.good_men);
  mix_bits(h, r.dropped_men);
  mix_bits(h, r.final_q_size);
  h.mix(static_cast<std::uint64_t>(r.trace.size()));
  for (const core::InnerSnapshot& s : r.trace) {
    h.mix(static_cast<std::uint64_t>(s.outer_iteration))
        .mix(static_cast<std::uint64_t>(s.inner_iteration))
        .mix(static_cast<std::uint64_t>(s.active_men))
        .mix(static_cast<std::uint64_t>(s.bad_active_men))
        .mix(static_cast<std::uint64_t>(s.matched_pairs))
        .mix(static_cast<std::uint64_t>(s.men_with_live_targets));
  }
  if (sink != nullptr) h.mix(obs::to_jsonl(*sink));
  return h.digest();
}

std::uint64_t digest(const mm::RunResult& r, const obs::MemorySink& sink) {
  svc::Fnv1a h;
  mix_matching(h, r.matching);
  mix_stats(h, r.net);
  mix_trace(h, r.trace);
  h.mix(static_cast<std::uint64_t>(r.iterations_executed))
      .mix(static_cast<std::uint64_t>(r.maximal));
  mix_bits(h, r.live_after_iteration);
  for (const NetStats& s : r.per_iteration_net) mix_stats(h, s);
  h.mix(obs::to_jsonl(sink));
  return h.digest();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Runs ASM with `params` at every thread count and checks each digest.
void expect_asm_golden(const Instance& inst, core::AsmParams params,
                       std::uint64_t golden, const std::string& what) {
  params.record_trace = true;
  params.net_trace_events = std::size_t{1} << 16;
  for (const int threads : kThreadCounts) {
    params.threads = threads;
    obs::MemorySink sink;
    params.obs_sink = &sink;
    const std::uint64_t got = digest(core::run_asm(inst, params), &sink);
    EXPECT_EQ(hex(got), hex(golden)) << what << " threads " << threads;
  }
}

Instance family_instance(int family, std::uint64_t seed) {
  switch (family) {
    case 0:
      return gen::complete_uniform(24, seed);
    case 1:
      return gen::bounded_degree(48, 5, seed);
    default:
      return gen::incomplete_uniform(32, 32, 0.3, seed);
  }
}

const char* const kFamilies[] = {"complete", "bounded", "incomplete"};
const mm::Backend kBackends[] = {
    mm::Backend::kPointerGreedy, mm::Backend::kIsraeliItai,
    mm::Backend::kRandomPriority, mm::Backend::kColorClass};

// [backend][family][seed - 1]
const std::uint64_t kAsmGolden[4][3][3] = {
    {{0x3740f532370f41f6, 0x841487dc515fecdc, 0x4281db27229417cb},
     {0x0c425cd1b991b374, 0x091c84c4720e0bc4, 0xc5bb34f6ea870d41},
     {0xca36582d47343a94, 0x33acc67485a6504c, 0xc557f535e10f4247}},
    {{0x61500f51506e8a8f, 0xb59bc2147a9119ab, 0x7a37ea2e892fc14e},
     {0xdd3de889c590de0f, 0xe3c664ac4a49ff36, 0x0b8570d37c017178},
     {0x01a138f96960bc0b, 0x0434989edb6f2901, 0x26d26c337f4a1aa9}},
    {{0x1423fcb966abff3e, 0xee2a8733004357d6, 0x2891c729103cb2d5},
     {0x7cb4a4cf956a7734, 0x39a6f68ac841bfca, 0x59861926754bd1d4},
     {0x48835fc358478bb9, 0x33895751e0ec9d9b, 0x288ab2c87198b1c1}},
    {{0xf591456e32878e1d, 0x620aa1dbd42ce794, 0xc0f3f52978f6243a},
     {0x81792941e4182145, 0x5eb7966dd8c3db6d, 0x386135774cefcb1e},
     {0x6fb4bfc7f860848f, 0x00d3e822db2989fc, 0x4438531bc1560d3c}},
};

TEST(Golden, AsmOverEveryBackendFamilyAndSeed) {
  for (int b = 0; b < 4; ++b) {
    for (int f = 0; f < 3; ++f) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Instance inst = family_instance(f, seed);
        core::AsmParams params;
        params.epsilon = 0.5;
        params.seed = seed;
        params.mm_backend = kBackends[b];
        params.obs_blocking_pairs = true;
        // Coarse quantiles give the color-class backend G0 degrees > 1.
        if (kBackends[b] == mm::Backend::kColorClass) params.k = 4;
        expect_asm_golden(inst, params, kAsmGolden[b][f][seed - 1],
                          std::string(mm::to_string(kBackends[b])) + " " +
                              kFamilies[f] + " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(Golden, RandAsm) {
  const std::uint64_t golden[3] = {0x7f377080144b93a3, 0xe5c11363f7269b45,
                                   0xaa4d5675ecb94660};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance inst = gen::complete_uniform(24, seed + 10);
    core::RandAsmParams params;
    params.epsilon = 0.5;
    params.seed = seed;
    params.record_trace = true;
    params.net_trace_events = std::size_t{1} << 16;
    for (const int threads : kThreadCounts) {
      params.threads = threads;
      obs::MemorySink sink;
      params.obs_sink = &sink;
      const std::uint64_t got =
          digest(core::run_rand_asm(inst, params), &sink);
      EXPECT_EQ(hex(got), hex(golden[seed - 1]))
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(Golden, AlmostRegularAsm) {
  const std::uint64_t golden[3] = {0x85021d6306614272, 0xa3c38742a192b062,
                                   0x90f7fedefa130e09};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance inst = gen::almost_regular(48, 4, 6, seed);
    core::AlmostRegularAsmParams params;
    params.epsilon = 0.5;
    params.seed = seed;
    params.record_trace = true;
    const std::uint64_t got =
        digest(core::run_almost_regular_asm(inst, params), nullptr);
    EXPECT_EQ(hex(got), hex(golden[seed - 1])) << "seed " << seed;
  }
}

TEST(Golden, TruncatedAsmWithDropRule) {
  // One Israeli-Itai iteration per Step 3 leaves unsatisfied men behind,
  // so the drop rule fires (the almost-regular path, at every thread
  // count).
  const std::uint64_t golden[3] = {0x8939bf9295f7f049, 0x49e4076c368a3735,
                                   0xd1798a6d8855d7d4};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance inst = gen::complete_uniform(24, seed + 20);
    core::AsmParams params;
    params.epsilon = 0.5;
    params.seed = seed;
    params.mm_backend = mm::Backend::kIsraeliItai;
    params.mm_iteration_budget = 1;
    params.drop_unsatisfied_men = true;
    expect_asm_golden(inst, params, golden[seed - 1],
                      "seed " + std::to_string(seed));
  }
}

TEST(Golden, UntrimmedSchedule) {
  const Instance inst = gen::bounded_degree(32, 4, 5);
  core::AsmParams params;
  params.epsilon = 0.5;
  params.trim_quiescent_phases = false;
  params.outer_iterations = 2;
  params.inner_iterations = 3;
  expect_asm_golden(inst, params, 0xb29dc5581a2d2a26, "untrimmed");
}

TEST(Golden, ReliableFaultPlan) {
  const Instance inst = gen::complete_uniform(16, 21);
  core::AsmParams params;
  params.epsilon = 0.5;
  params.seed = 9;
  params.fault_plan.seed = 118;
  params.fault_plan.drop = 0.15;
  params.fault_plan.duplicate = 0.10;
  params.fault_plan.delay = 0.20;
  params.fault_plan.max_delay = 3;
  params.retransmit_after = 2;
  expect_asm_golden(inst, params, 0x35f4b76bc4388a96,
                    "drop+delay+duplicate, retransmit 2");
}

TEST(Golden, LossyFaultPlan) {
  // Raw loss without the reliability sublayer: ACCEPTs and REJECTs go
  // missing, so G0 can be asymmetric — a woman may hold a man in her G0
  // whose ACCEPT never arrived. Loss can stall the maximal matching, so
  // Step 3 runs a fixed budget, as a fixed-schedule execution would.
  const Instance inst = gen::complete_uniform(16, 4);
  core::AsmParams params;
  params.epsilon = 0.5;
  params.mm_backend = mm::Backend::kIsraeliItai;
  params.mm_iteration_budget = 3;
  params.fault_plan.seed = 77;
  params.fault_plan.drop = 0.05;
  expect_asm_golden(inst, params, 0x9591535658420802, "raw drop 0.05");
}

TEST(Golden, LargeFrontiers) {
  // Frontiers large enough to be stepped across the pool at four threads.
  const Instance inst = gen::bounded_degree(4096, 8, 1);
  const std::uint64_t golden[2] = {0x5393a4bf6583a45a, 0x4f220fa7372676c2};
  for (int b = 0; b < 2; ++b) {
    core::AsmParams params;
    params.mm_backend = kBackends[b];
    expect_asm_golden(inst, params, golden[b],
                      std::string("bounded n=4096 ") +
                          mm::to_string(kBackends[b]));
  }
}

TEST(Golden, StandaloneMmRunner) {
  const auto [g, is_left] = testing::random_bipartite(20, 20, 0.25, 6);
  const auto [big, big_left] = testing::random_bipartite(2048, 2048, 0.002, 7);
  const std::uint64_t golden[2][4] = {
      {0xe6d92a9479543956, 0xd9b8abee4b492abb, 0x3f0f65fae1c7952d,
       0x246b0cba3ebacff2},
      {0x5e9e96749b67da33, 0x4959334836daa879, 0x9986e4f5e6cf9bb7,
       0x507dd7b00474eac7}};
  for (int b = 0; b < 8; ++b) {
    const bool large = b >= 4;
    mm::RunConfig config;
    config.backend = kBackends[b % 4];
    config.seed = 5;
    config.trace_events = std::size_t{1} << 16;
    for (const int threads : kThreadCounts) {
      config.threads = threads;
      obs::MemorySink sink;
      config.obs_sink = &sink;
      const std::uint64_t got = digest(
          mm::run_maximal_matching(large ? big : g, large ? big_left : is_left,
                                   config),
          sink);
      EXPECT_EQ(hex(got), hex(golden[b / 4][b % 4]))
          << mm::to_string(config.backend) << (large ? " n=4096" : " n=40")
          << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace dasm
