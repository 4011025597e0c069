// A11 — overhead and transparency of the wall-clock metrics registry
// (src/obs/metrics.hpp, ISSUE 9): the same workloads run with a registry
// attached and with the null (handles-inactive) path, on two layers:
//
//   1. the CONGEST simulator's saturated-round loop (the a6 workload) —
//      every end_round() pays the instrumentation branch, and with a
//      registry attached also two histogram observations;
//   2. full ASM engine runs — per-outer/inner-iteration timers plus the
//      network's per-round observations.
//
// Transparency first, throughput second: with a registry attached, every
// NetStats field, inbox checksum, and matching must be bit-identical to
// the uninstrumented run (DASM_CHECK — instrumentation that changes
// logical behaviour is a bug, not overhead). The throughput verdict is
// deliberately lenient — instrumented >= 0.5x null on the saturated-round
// loop — because the observation cost is a few arithmetic ops against a
// workload designed to be nothing but message pushes; EXPERIMENTS.md A11
// records the measured ratios.
//
// --n N          engine instance size (default 96; DASM_BENCH_LARGE=1: 256)
// --json-out P   machine-readable results (default
//                BENCH_a11_metrics_overhead.json)
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "congest/network.hpp"
#include "util/table.hpp"

namespace dasm {
namespace {

// One all-edges round plus the inbox read pass (the a6 driver shape).
std::int64_t saturate_round(Network& net, const Graph& g, int round) {
  net.begin_round();
  const NodeId n = g.node_count();
  for (NodeId u = 0; u < n; ++u) {
    const auto id_payload = static_cast<std::int64_t>((u * 31 + round) % n);
    const auto rank_payload = static_cast<std::int64_t>(round % 997 + 1);
    for (NodeId v : g.neighbors(u)) {
      net.send(u, v, Message{MsgType::kPropose, id_payload, rank_payload});
    }
  }
  net.end_round();
  std::int64_t checksum = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (const Envelope& e : net.inbox(v)) checksum += e.msg.a + e.from;
  }
  return checksum;
}

std::int64_t g_sink = 0;  // defeats dead-code elimination of the read pass

// rounds/s of the saturated loop, best of `reps` timed windows.
double saturated_rounds_per_sec(const Graph& g, int rounds, int reps,
                                obs::MetricsRegistry* registry) {
  Network net(g, 1 << 20);
  if (registry != nullptr) net.set_metrics(registry);
  for (int r = 0; r < 3; ++r) g_sink += saturate_round(net, g, r);
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) g_sink += saturate_round(net, g, r);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return static_cast<double>(rounds) / best;
}

// Engine runs/s (one full run_asm per repetition), best of `reps`.
double engine_runs_per_sec(const Instance& inst, core::AsmParams params,
                           int reps, obs::MetricsRegistry* registry) {
  params.metrics = registry;
  core::run_asm(inst, params);  // warm-up
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    core::run_asm(inst, params);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return 1.0 / best;
}

struct Row {
  std::string layer;
  double null_per_s = 0;
  double instrumented_per_s = 0;
  double ratio = 0;  ///< instrumented / null
};

int bench_main(int argc, const char* const* argv) {
  const bench::Options opt =
      bench::parse_options(argc, argv, {"n", "json-out"});
  const Cli cli(argc, argv);
  const bool large = bench::large_mode();
  const auto n = static_cast<NodeId>(cli.get_int("n", large ? 256 : 96));
  const std::string json_out =
      cli.get("json-out", "BENCH_a11_metrics_overhead.json");
  const int sat_rounds = large ? 400 : 150;
  const int reps = 3;

  bench::print_header(
      "A11",
      "Engine plumbing, not the paper: the wall-clock metrics registry "
      "must observe without perturbing — identical logical results, "
      "near-zero throughput cost",
      "bit-identical NetStats/inboxes/matchings with a registry attached; "
      "instrumented >= 0.5x null rounds/s on the saturated-round loop");

  // ---- Transparency: network layer ------------------------------------
  const Graph kbb = bench::complete_bipartite_graph(64);
  {
    obs::MetricsRegistry registry;
    Network plain(kbb, 1 << 20);
    Network instrumented(kbb, 1 << 20);
    instrumented.set_metrics(&registry);
    std::int64_t plain_sum = 0;
    std::int64_t inst_sum = 0;
    for (int r = 0; r < 25; ++r) {
      plain_sum += saturate_round(plain, kbb, r);
      inst_sum += saturate_round(instrumented, kbb, r);
    }
    DASM_CHECK(plain_sum == inst_sum);
    DASM_CHECK(plain.stats() == instrumented.stats());
    const obs::MetricsSnapshot snap = registry.snapshot();
    // The logical histogram must have seen every round.
    bool found = false;
    for (const obs::HistogramSnapshot& h : snap.histograms) {
      if (h.name == "net.round_messages") {
        found = true;
        DASM_CHECK(h.count == 25);
      }
    }
    DASM_CHECK(found || !obs::MetricsRegistry::enabled());
  }
  bench::print_verdict(true,
                       "network: NetStats and inbox checksums bit-identical "
                       "with the registry attached");

  // ---- Transparency: engine layer -------------------------------------
  const Instance inst = gen::complete_uniform(n, 7);
  core::AsmParams params;
  params.epsilon = 0.25;
  {
    obs::MetricsRegistry registry;
    core::AsmParams instrumented = params;
    instrumented.metrics = &registry;
    const core::AsmResult a = core::run_asm(inst, params);
    const core::AsmResult b = core::run_asm(inst, instrumented);
    DASM_CHECK(a.matching == b.matching);
    DASM_CHECK(a.net == b.net);
    DASM_CHECK(a.proposal_rounds_executed == b.proposal_rounds_executed);
    DASM_CHECK(a.quantile_matches_executed == b.quantile_matches_executed);
  }
  bench::print_verdict(true,
                       "engine: matching and NetStats bit-identical with "
                       "the registry attached");

  // ---- Throughput ------------------------------------------------------
  std::vector<Row> rows;
  {
    obs::MetricsRegistry registry;
    Row r;
    r.layer = "network saturated rounds";
    r.null_per_s = saturated_rounds_per_sec(kbb, sat_rounds, reps, nullptr);
    r.instrumented_per_s =
        saturated_rounds_per_sec(kbb, sat_rounds, reps, &registry);
    r.ratio = r.instrumented_per_s / r.null_per_s;
    rows.push_back(r);
  }
  {
    obs::MetricsRegistry registry;
    Row r;
    r.layer = "engine run_asm";
    r.null_per_s = engine_runs_per_sec(inst, params, reps, nullptr);
    r.instrumented_per_s = engine_runs_per_sec(inst, params, reps, &registry);
    r.ratio = r.instrumented_per_s / r.null_per_s;
    rows.push_back(r);
  }

  Table table({"layer", "null/s", "instrumented/s", "ratio"});
  for (const Row& r : rows) {
    table.add_row({r.layer, Table::num(r.null_per_s, 1),
                   Table::num(r.instrumented_per_s, 1),
                   Table::num(r.ratio, 3)});
  }
  table.print(std::cout);
  std::cout << "\n";

  // Only the network row gates: a whole engine run amortizes the handful
  // of observations over thousands of player steps, so its ratio is pure
  // noise; the saturated-round loop is the worst case by construction.
  const bool overhead_ok = rows[0].ratio >= 0.5;
  bench::print_verdict(overhead_ok,
                       "instrumented >= 0.5x null rounds/s on the "
                       "saturated-round loop (" +
                           std::string(Table::num(rows[0].ratio, 3)) + "x)");

  // ---- Machine-readable results ---------------------------------------
  {
    std::ofstream js(json_out);
    DASM_CHECK_MSG(js.good(), "cannot open " << json_out);
    js << "{\n  \"bench\": \"a11_metrics_overhead\",\n  \"n\": " << n
       << ",\n  \"obs_enabled\": "
       << (obs::MetricsRegistry::enabled() ? "true" : "false")
       << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      js << "    {\"layer\": \"" << r.layer
         << "\", \"null_per_s\": " << r.null_per_s
         << ", \"instrumented_per_s\": " << r.instrumented_per_s
         << ", \"ratio\": " << r.ratio << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    js << "  ]\n}\n";
    DASM_CHECK_MSG(js.good(), "write to " << json_out << " failed");
  }
  std::cout << "wrote " << json_out << "\n";

  // Separate instrumented pass for --metrics-out: one engine run's full
  // snapshot, the standard input for `dasm-trace metrics` / `diff`.
  if (!opt.metrics_out.empty()) {
    bench::export_asm_metrics(opt.metrics_out, inst, params);
  }
  std::cout << "(read-pass checksum " << g_sink << ")\n";
  return overhead_ok ? 0 : 1;
}

}  // namespace
}  // namespace dasm

int main(int argc, char** argv) { return dasm::bench_main(argc, argv); }
