// A7 — scaling of the deterministic parallel engine (DESIGN.md §6), and
// the contract that makes it safe: every thread count produces the same
// bits.
//
// Layer 1 (intra-round): saturated all-edges rounds driven through a
// worker pool with per-thread send lanes, at 1/2/4/8 threads, on a dense
// complete-bipartite graph and a sparse d-regular circulant. Every
// parallel run must reproduce the serial run's per-round inbox checksums,
// final NetStats (operator==), and transmission trace exactly.
//
// Frontier dispatch: the round engines step only a frontier of players
// (par::step_frontier) and hand it to the pool only once it clears
// par::kParallelStepCutoff. The dispatch table times one light step (a
// single send, the typical sparse ASM step) over frontiers of growing size,
// inline and across the pool, which is where the cutoff comes from; the
// pooled rounds must reproduce the inline rounds' bits.
//
// Layer 2 (inter-instance): full run_asm executions as independent
// (instance, seed) sweep cells on a SweepRunner, measuring cells/sec at
// each thread count. The per-cell outputs and the NetStats merged across
// cells with operator+= must be identical at every thread count.
//
// The exit status follows the bit-identity verdicts only. The speedup
// verdicts are wall clock: they are printed with their thresholds, gated
// on hardware concurrency (thread counts above the core count still
// verify bit-identity, they just timeslice), and a loaded host can miss
// them without anything being wrong.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "congest/network.hpp"
#include "core/engine.hpp"
#include "mm/runner.hpp"
#include "par/frontier.hpp"
#include "par/sweep.hpp"
#include "par/thread_pool.hpp"
#include "util/table.hpp"

namespace dasm {
namespace {

struct Layer1Run {
  NetStats stats;
  std::vector<TraceEvent> trace;
  std::vector<std::int64_t> round_checksums;
  double rounds_per_sec = 0;
};

// Saturated all-edges rounds: each node messages every neighbour, stepped
// by `threads` pool workers with matching send lanes. threads == 1 is the
// plain serial engine (no pool, no lanes).
Layer1Run drive_saturated(const Graph& g, int threads, int rounds,
                          std::size_t trace_cap) {
  const NodeId n = g.node_count();
  Network net(g, /*message_bit_budget=*/1 << 20);
  net.enable_trace(trace_cap);
  std::unique_ptr<par::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<par::ThreadPool>(threads);
    net.set_send_lanes(threads);
  }
  auto step = [&](NodeId u, int round) {
    const auto id_payload = static_cast<std::int64_t>((u * 31 + round) % n);
    const auto rank_payload = static_cast<std::int64_t>(round % 997 + 1);
    for (NodeId v : g.neighbors(u)) {
      net.send(u, v, Message{MsgType::kPropose, id_payload, rank_payload});
    }
  };
  Layer1Run out;
  out.round_checksums.reserve(static_cast<std::size_t>(rounds));
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    net.begin_round();
    if (pool) {
      pool->parallel_for(0, n, [&](std::int64_t u) {
        step(static_cast<NodeId>(u), r);
      });
    } else {
      for (NodeId u = 0; u < n; ++u) step(u, r);
    }
    net.end_round();
    // Order-sensitive checksum: slot index weights each envelope, so any
    // deviation from the serial delivery order changes the sum.
    std::int64_t checksum = 0;
    for (NodeId v = 0; v < n; ++v) {
      const InboxView in = net.inbox(v);
      for (std::size_t i = 0; i < in.size(); ++i) {
        checksum += (in[i].msg.a + in[i].from + 1) *
                    static_cast<std::int64_t>(i + 1);
      }
    }
    out.round_checksums.push_back(checksum);
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.rounds_per_sec = static_cast<double>(rounds) /
                       std::chrono::duration<double>(t1 - t0).count();
  out.stats = net.stats();
  out.trace = net.trace();
  return out;
}

struct DispatchRun {
  NetStats stats;
  double us_per_round = 0;
};

// Rounds in which the `frontier` lowest ids each send one message to their
// first neighbour: inline on the calling thread (threads == 1) or across a
// `threads`-worker pool regardless of the frontier's size.
DispatchRun drive_frontier(const Graph& g, int threads, NodeId frontier,
                           int rounds) {
  Network net(g);
  std::unique_ptr<par::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<par::ThreadPool>(threads);
    net.set_send_lanes(threads);
  }
  auto step = [&](NodeId u) {
    net.send(u, g.neighbors(u).front(), Message{MsgType::kPropose});
  };
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    net.begin_round();
    if (pool) {
      pool->parallel_for(0, frontier, [&](std::int64_t u) {
        step(static_cast<NodeId>(u));
      });
    } else {
      for (NodeId u = 0; u < frontier; ++u) step(u);
    }
    net.end_round();
  }
  const auto t1 = std::chrono::steady_clock::now();
  DispatchRun out;
  out.stats = net.stats();
  out.us_per_round =
      std::chrono::duration<double, std::micro>(t1 - t0).count() / rounds;
  return out;
}

struct Layer2Run {
  NetStats merged;                     // operator+= over all cells
  std::vector<std::int64_t> cell_sig;  // per-cell matching signature
  double cells_per_sec = 0;
};

// Full run_asm executions as independent sweep cells: `seeds` seeds per
// instance family entry. Cell outputs are aggregated in index order.
Layer2Run drive_sweep(int threads, int seeds) {
  struct CellOut {
    NetStats net;
    std::int64_t matching_sig = 0;
  };
  const int families = 2;
  par::SweepRunner sweep(threads);
  const auto t0 = std::chrono::steady_clock::now();
  const auto cells = sweep.map<CellOut>(
      static_cast<std::int64_t>(families) * seeds, [&](std::int64_t i) {
        const int family = static_cast<int>(i / seeds);
        const auto seed = static_cast<std::uint64_t>(i % seeds) + 1;
        const Instance inst =
            family == 0 ? gen::complete_uniform(128, seed)
                        : gen::regular_bipartite(512, 16, seed);
        core::AsmParams params;
        params.epsilon = 0.25;
        const auto r = core::run_asm(inst, params);
        CellOut out;
        out.net = r.net;
        for (NodeId v = 0; v < r.matching.node_count(); ++v) {
          out.matching_sig =
              out.matching_sig * 1315423911 + r.matching.partner_of(v) + 2;
        }
        return out;
      });
  const auto t1 = std::chrono::steady_clock::now();
  Layer2Run out;
  for (const CellOut& c : cells) {
    out.merged += c.net;
    out.cell_sig.push_back(c.matching_sig);
  }
  out.cells_per_sec = static_cast<double>(cells.size()) /
                      std::chrono::duration<double>(t1 - t0).count();
  return out;
}

}  // namespace
}  // namespace dasm

// --threads is deliberately not honoured here: the whole point is sweeping
// the fixed thread ladder 1/2/4/8. --trace-out still works (it records a
// standalone MM-runner execution, the protocol this bench scales).
int main(int argc, char** argv) {
  using namespace dasm;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "A7",
      "Engine plumbing, not the paper: deterministic multi-threaded round "
      "stepping (per-thread send lanes) and batched instance sweeps",
      "bit-identical results at every thread count; throughput scales with "
      "threads up to the core count");

  const bool large = bench::large_mode();
  const int hw = par::hardware_threads();
  const std::vector<int> thread_counts{1, 2, 4, 8};
  std::cout << "hardware concurrency: " << hw << " thread(s)\n\n";

  // ---- Layer 1: intra-round stepping ------------------------------------
  struct Config {
    const char* name;
    Graph graph;
    int rounds;
  };
  std::vector<Config> configs;
  configs.push_back({"dense (K_128,128)", bench::complete_bipartite_graph(128),
                     large ? 120 : 40});
  configs.push_back({"sparse (8-reg circulant, n=8192)",
                     bench::circulant_graph(8192, 8), large ? 120 : 40});

  Table layer1({"graph", "threads", "rounds/s", "speedup", "bit-identical"});
  bool identical = true;
  double dense_speedup_at_hw = 1.0;
  for (auto& cfg : configs) {
    const std::size_t trace_cap = 4096;
    const Layer1Run serial =
        drive_saturated(cfg.graph, 1, cfg.rounds, trace_cap);
    for (const int threads : thread_counts) {
      const Layer1Run run =
          threads == 1 ? serial
                       : drive_saturated(cfg.graph, threads, cfg.rounds,
                                         trace_cap);
      const bool same = run.stats == serial.stats &&
                        run.trace == serial.trace &&
                        run.round_checksums == serial.round_checksums;
      identical = identical && same;
      const double speedup = run.rounds_per_sec / serial.rounds_per_sec;
      if (cfg.name[0] == 'd' && threads == std::min(4, hw)) {
        dense_speedup_at_hw = speedup;
      }
      layer1.add_row({cfg.name, Table::num((long long)threads),
                      Table::num(run.rounds_per_sec, 0),
                      Table::num(speedup, 2), same ? "yes" : "NO"});
    }
  }
  layer1.print(std::cout);
  std::cout << "\n";

  // ---- Frontier dispatch: where pooling a round starts to pay -----------
  const int pooled = std::max(2, std::min(4, hw));
  const Graph circulant = bench::circulant_graph(65536, 8);
  Table dispatch({"frontier", "inline us/round", "pooled us/round",
                  "pooled/inline", "bit-identical"});
  for (const NodeId frontier : {64, 256, 1024, 4096, 16384, 65536}) {
    const int rounds = static_cast<int>(
        std::max<NodeId>(20, (large ? 4 : 1) * (1 << 20) / frontier));
    const DispatchRun inline_run = drive_frontier(circulant, 1, frontier,
                                                  rounds);
    const DispatchRun pooled_run =
        drive_frontier(circulant, pooled, frontier, rounds);
    const bool same = pooled_run.stats == inline_run.stats;
    identical = identical && same;
    dispatch.add_row({Table::num((long long)frontier),
                      Table::num(inline_run.us_per_round, 1),
                      Table::num(pooled_run.us_per_round, 1),
                      Table::num(pooled_run.us_per_round /
                                     inline_run.us_per_round, 2),
                      same ? "yes" : "NO"});
  }
  std::cout << "frontier dispatch at " << pooled
            << " threads (one send per step; engines pool a frontier of >= "
            << par::kParallelStepCutoff << ")\n";
  dispatch.print(std::cout);
  std::cout << "\n";

  // ---- Layer 2: instance sweeps -----------------------------------------
  const int seeds = large ? 10 : 5;
  Table layer2({"threads", "cells", "cells/s", "speedup", "bit-identical"});
  Layer2Run base;
  double sweep_speedup_at_4 = 1.0;
  for (const int threads : thread_counts) {
    const Layer2Run run = drive_sweep(threads, seeds);
    if (threads == 1) base = run;
    const bool same =
        run.merged == base.merged && run.cell_sig == base.cell_sig;
    identical = identical && same;
    const double speedup = run.cells_per_sec / base.cells_per_sec;
    if (threads == 4) sweep_speedup_at_4 = speedup;
    layer2.add_row({Table::num((long long)threads),
                    Table::num((long long)base.cell_sig.size()),
                    Table::num(run.cells_per_sec, 2), Table::num(speedup, 2),
                    same ? "yes" : "NO"});
  }
  layer2.print(std::cout);
  std::cout << "\n";

  bench::print_verdict(identical,
                       "inbox checksums, NetStats, traces, and merged sweep "
                       "outputs bit-identical at 1/2/4/8 threads");
  if (hw >= 4) {
    bench::print_verdict(sweep_speedup_at_4 >= 2.5,
                         "sweep reaches >= 2.5x cells/sec at 4 threads");
    bench::print_verdict(dense_speedup_at_hw > 1.2,
                         "dense intra-round stepping gains from threads");
  } else {
    std::cout << "[SKIPPED]  speedup verdicts need >= 4 hardware threads "
                 "(this host has "
              << hw << "); determinism was still verified at every thread "
                       "count\n";
  }
  if (!opts.trace_out.empty()) {
    // An MM-runner trace (kRun > kMmIteration spans + live-node decay) at
    // hardware concurrency — byte-identical to the serial trace by the
    // lane-merge contract this bench verifies.
    obs::MemorySink sink;
    mm::RunConfig config;
    config.backend = mm::Backend::kIsraeliItai;
    config.threads = 0;
    config.obs_sink = &sink;
    const NodeId gn = large ? 4096 : 1024;
    mm::run_maximal_matching(bench::circulant_graph(gn, 8), {}, config);
    obs::write_trace_file(sink, opts.trace_out);
    std::cout << "[trace] wrote " << opts.trace_out << " ("
              << sink.events.size() << " events, " << sink.rounds.size()
              << " round samples)\n";
  }
  return identical ? 0 : 1;
}
