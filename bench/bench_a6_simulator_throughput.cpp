// A6 — throughput of the CONGEST round engine: the traffic-sized delivery
// path of congest/network.cpp (one staging buffer, counting-sorted by
// receiver into a delivered buffer at end_round) vs. a faithful replica of
// the seed's per-node vector inbox/outbox engine (inboxes reallocated
// every round, trace evicted with erase(begin())).
//
// Four measurements:
//   1. rounds/sec and messages/sec per graph family, all-edges traffic,
//      tracing off;
//   2. the same with a capped trace enabled (the erase-front eviction is
//      O(cap) per dropped event — quadratic once the cap is hit);
//   3. heap allocations per steady-state round of the network, counted by
//      a replaced global operator new (must be exactly 0);
//   4. heap bytes allocated by constructing a network over a borrowed
//      K_256,256 Graph, per directed edge (must be at most 16: delivery
//      memory scales with traffic, not with edges).
//
// The two engines are also driven through an identical randomized schedule
// and must agree on every inbox (contents and order), every NetStats
// field, and the silent-round flag — the bit-for-bit equivalence the
// tentpole refactor promises.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <new>

#include "bench_common.hpp"
#include "congest/network.hpp"
#include "par/sweep.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every path to the heap in this binary goes through
// these operators, so a delta of zero over a window proves the engine did
// not touch the allocator, and the byte delta over a window is everything
// it requested.
namespace {
std::atomic<long long> g_heap_allocs{0};
std::atomic<long long> g_heap_bytes{0};
}

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(static_cast<long long>(size),
                         std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The deletes stay out of line: a free() inlined next to a call of
// operator new trips GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dasm {
namespace {

// The seed engine's per-field wire-size loop (one shift per magnitude
// bit), replicated verbatim so the baseline pays the same per-send costs
// the pre-change engine paid.
int legacy_payload_bits(std::int64_t v) {
  if (v == 0) return 0;
  std::uint64_t mag = static_cast<std::uint64_t>(v < 0 ? -v : v);
  int bits = 1;  // sign bit
  while (mag > 0) {
    ++bits;
    mag >>= 1;
  }
  return bits;
}

int legacy_encoded_bits(const Message& msg) {
  return 8 + legacy_payload_bits(msg.a) + legacy_payload_bits(msg.b);
}

// Replica of the seed engine: per-node vector inboxes/outboxes moved
// and regrown every round, binary-search edge lookup, nested per-node
// stamp vectors, erase-from-front trace eviction — the seed's
// congest/network.cpp send/end_round paths, line for line.
class LegacyEngine {
 public:
  LegacyEngine(const Graph& graph, int bit_budget) : bit_budget_(bit_budget) {
    const auto n = static_cast<std::size_t>(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
      const auto row = graph.neighbors(v);
      adj_.emplace_back(row.begin(), row.end());
    }
    inboxes_.resize(n);
    outboxes_.resize(n);
    sent_stamp_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      sent_stamp_[v].assign(adj_[v].size(), -1);
    }
  }

  void begin_round() {
    round_open_ = true;
    ++round_serial_;
  }

  void send(NodeId from, NodeId to, const Message& msg) {
    DASM_CHECK(round_open_);
    const auto& nb = adj_[static_cast<std::size_t>(from)];
    const auto it = std::lower_bound(nb.begin(), nb.end(), to);
    DASM_CHECK(it != nb.end() && *it == to);
    auto& stamp = sent_stamp_[static_cast<std::size_t>(from)]
                             [static_cast<std::size_t>(it - nb.begin())];
    DASM_CHECK(stamp != round_serial_);
    stamp = round_serial_;
    const int bits = legacy_encoded_bits(msg);
    DASM_CHECK(bits <= bit_budget_);
    if (trace_cap_ > 0) {
      if (trace_.size() >= trace_cap_) {
        trace_.erase(trace_.begin());
        ++trace_dropped_;
      }
      trace_.push_back(TraceEvent{stats_.executed_rounds, from, to, msg});
    }
    outboxes_[static_cast<std::size_t>(to)].push_back(Envelope{from, msg});
    ++stats_.messages;
    ++stats_.delivered;  // reliable wire: every committed send arrives
    ++stats_.messages_by_type[static_cast<std::size_t>(msg.type)];
    stats_.bits += bits;
    stats_.max_message_bits = std::max(stats_.max_message_bits, bits);
  }

  void end_round() {
    DASM_CHECK(round_open_);
    round_open_ = false;
    last_round_silent_ = true;
    for (std::size_t v = 0; v < adj_.size(); ++v) {
      inboxes_[v] = std::move(outboxes_[v]);
      outboxes_[v].clear();
      if (!inboxes_[v].empty()) last_round_silent_ = false;
    }
    ++stats_.executed_rounds;
    ++stats_.scheduled_rounds;
  }

  const std::vector<Envelope>& inbox(NodeId v) const {
    return inboxes_[static_cast<std::size_t>(v)];
  }
  bool last_round_was_silent() const { return last_round_silent_; }
  const NetStats& stats() const { return stats_; }
  void enable_trace(std::size_t cap) {
    trace_cap_ = cap;
    trace_.reserve(cap);
  }
  std::int64_t dropped_trace_events() const { return trace_dropped_; }

 private:
  std::vector<std::vector<NodeId>> adj_;
  std::vector<std::vector<Envelope>> inboxes_;
  std::vector<std::vector<Envelope>> outboxes_;
  std::vector<std::vector<std::int64_t>> sent_stamp_;
  std::int64_t round_serial_ = 0;
  bool round_open_ = false;
  bool last_round_silent_ = true;
  int bit_budget_ = 0;
  NetStats stats_;
  std::vector<TraceEvent> trace_;
  std::size_t trace_cap_ = 0;
  std::int64_t trace_dropped_ = 0;
};

// One all-edges round followed by the read pass every experiment's driver
// performs: each directed edge carries a protocol-shaped message (an id
// and a rank payload), then every node consumes its inbox.
template <typename Engine>
std::int64_t saturate_round(Engine& eng, const Graph& g, int round) {
  eng.begin_round();
  const NodeId n = g.node_count();
  for (NodeId u = 0; u < n; ++u) {
    const auto id_payload = static_cast<std::int64_t>((u * 31 + round) % n);
    const auto rank_payload = static_cast<std::int64_t>(round % 997 + 1);
    for (NodeId v : g.neighbors(u)) {
      eng.send(u, v, Message{MsgType::kPropose, id_payload, rank_payload});
    }
  }
  eng.end_round();
  std::int64_t checksum = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (const Envelope& e : eng.inbox(v)) checksum += e.msg.a + e.from;
  }
  return checksum;
}

// Defeats dead-code elimination of the inbox read pass; reported at the
// end of main so the reads are observable.
std::int64_t g_sink = 0;

struct Throughput {
  double rounds_per_sec = 0;
  double msgs_per_sec = 0;
};

template <typename Engine>
Throughput time_saturated(Engine& eng, const Graph& g, int rounds) {
  for (int r = 0; r < 3; ++r) g_sink += saturate_round(eng, g, r);
  const auto msgs_before = eng.stats().messages;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) g_sink += saturate_round(eng, g, r);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const auto msgs = eng.stats().messages - msgs_before;
  return Throughput{static_cast<double>(rounds) / secs,
                    static_cast<double>(msgs) / secs};
}

// Drives both engines through the same randomized schedule and verifies
// bit-for-bit agreement of inboxes, stats, and the silent flag.
bool engines_agree(const Graph& g, int rounds, std::uint64_t seed) {
  Network net(g);
  LegacyEngine legacy(g, net.message_bit_budget());
  Xoshiro256 rng(seed);
  for (int r = 0; r < rounds; ++r) {
    net.begin_round();
    legacy.begin_round();
    for (NodeId u = 0; u < g.node_count(); ++u) {
      for (NodeId v : g.neighbors(u)) {
        if (!rng.bernoulli(0.5)) continue;
        const Message msg{static_cast<MsgType>(rng.below(4)),
                          rng.range(0, 1 << 10)};
        net.send(u, v, msg);
        legacy.send(u, v, msg);
      }
    }
    net.end_round();
    legacy.end_round();
    if (net.last_round_was_silent() != legacy.last_round_was_silent()) {
      return false;
    }
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const InboxView got = net.inbox(v);
      const auto& want = legacy.inbox(v);
      if (got.size() != want.size()) return false;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (!(got[i] == want[i])) return false;
      }
    }
  }
  return net.stats() == legacy.stats();
}

}  // namespace
}  // namespace dasm

int main(int argc, char** argv) {
  using namespace dasm;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "A6",
      "Engine plumbing, not the paper: per-round message delivery cost of "
      "the CONGEST simulator that every experiment pays",
      "traffic-sized network >= 2x rounds/sec of the legacy vector engine "
      "on dense graphs, identical delivered traffic, 0 allocations per "
      "steady-state round, <= 16 B per directed edge at construction");

  const bool large = bench::large_mode();
  struct Config {
    const char* name;
    Graph graph;
    int rounds;
  };
  std::vector<Config> configs;
  configs.push_back({"dense (K_128,128)", bench::complete_bipartite_graph(128),
                     large ? 600 : 200});
  configs.push_back({"sparse (8-reg circulant, n=8192)",
                     bench::circulant_graph(8192, 8), large ? 600 : 200});

  Table table({"graph", "engine", "trace", "rounds/s", "Mmsg/s", "speedup"});
  bool dense_speedup_ok = false;
  for (auto& cfg : configs) {
    for (const bool traced : {false, true}) {
      // The trace cap is deliberately smaller than one round's traffic so
      // eviction runs continuously. The legacy engine pays O(cap) per
      // dropped event here, so its traced arm gets far fewer rounds to
      // keep the bench's runtime bounded.
      const std::size_t cap = 1024;
      const int rounds = traced ? (large ? 12 : 5) : cfg.rounds;
      LegacyEngine legacy(cfg.graph, 1 << 20);
      Network net(cfg.graph, 1 << 20);
      if (traced) {
        legacy.enable_trace(cap);
        net.enable_trace(cap);
      }
      const Throughput before = time_saturated(legacy, cfg.graph, rounds);
      const Throughput after = time_saturated(net, cfg.graph, rounds);
      const double speedup = after.rounds_per_sec / before.rounds_per_sec;
      table.add_row({cfg.name, "legacy", traced ? "on" : "off",
                     Table::num(before.rounds_per_sec, 0),
                     Table::num(before.msgs_per_sec / 1e6, 1), "1"});
      table.add_row({cfg.name, "network", traced ? "on" : "off",
                     Table::num(after.rounds_per_sec, 0),
                     Table::num(after.msgs_per_sec / 1e6, 1),
                     Table::num(speedup, 2)});
      if (!traced && cfg.name[0] == 'd') dense_speedup_ok = speedup >= 2.0;
    }
  }
  table.print(std::cout);

  // Equivalence: both engines, same randomized schedules. The independent
  // (graph, seed) cells run on a SweepRunner (--threads N); the verdict
  // AND-reduces the cell results in index order.
  struct AgreeCell {
    Graph graph;
    std::uint64_t seed;
  };
  std::vector<AgreeCell> agree_cells;
  agree_cells.push_back({bench::complete_bipartite_graph(24), 1});
  agree_cells.push_back({bench::circulant_graph(512, 6), 2});
  par::SweepRunner sweep(opts.threads);
  // int cells, not bool: vector<bool> packs slots into shared words, which
  // concurrent cell writes would race on.
  const auto agreement = sweep.map<int>(
      static_cast<std::int64_t>(agree_cells.size()), [&](std::int64_t i) {
        const AgreeCell& cell = agree_cells[static_cast<std::size_t>(i)];
        return engines_agree(cell.graph, 60, cell.seed) ? 1 : 0;
      });
  bool agree = true;
  for (const int cell_ok : agreement) agree = agree && cell_ok != 0;
  std::cout << "\n";
  bench::print_verdict(agree,
                       "inboxes, NetStats, and silent flags bit-identical "
                       "across engines on randomized schedules");

  // Steady-state allocation count of the network (trace on and off: the
  // ring buffer is preallocated, so tracing stays allocation-free). The
  // warm-up rounds grow the staging and delivered buffers to a saturated
  // round's traffic; from then on they only reuse their capacity.
  bool zero_alloc = true;
  const Graph alloc_graph = bench::complete_bipartite_graph(32);
  for (const bool traced : {false, true}) {
    Network net(alloc_graph);
    if (traced) net.enable_trace(64);
    for (int r = 0; r < 4; ++r) g_sink += saturate_round(net, alloc_graph, r);
    const long long before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int r = 0; r < 64; ++r) g_sink += saturate_round(net, alloc_graph, r);
    const long long allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - before;
    std::cout << "network, trace " << (traced ? "on" : "off") << ": "
              << allocs << " heap allocations over 64 rounds\n";
    zero_alloc = zero_alloc && allocs == 0;
  }
  bench::print_verdict(zero_alloc, "steady-state rounds allocate nothing");
  bench::print_verdict(dense_speedup_ok,
                       "network >= 2x legacy rounds/sec on the dense graph "
                       "(trace off)");

  // Construction footprint: every byte a network over a borrowed Graph
  // requests before its first round (the per-port send marks and the
  // per-node tables; delivery buffers start empty).
  const Graph kbb = bench::complete_bipartite_graph(256);
  const long long bytes_before = g_heap_bytes.load(std::memory_order_relaxed);
  double bytes_per_edge = 0;
  {
    const Network net(kbb);
    bytes_per_edge =
        static_cast<double>(g_heap_bytes.load(std::memory_order_relaxed) -
                            bytes_before) /
        static_cast<double>(2 * kbb.edge_count());
  }
  std::cout << "network construction over K_256,256: "
            << Table::num(bytes_per_edge, 2) << " B per directed edge\n";
  bench::print_verdict(bytes_per_edge <= 16.0,
                       "network construction allocates <= 16 B per directed "
                       "edge");

  // Separate instrumented pass for --metrics-out, after every timed
  // measurement so the registry never perturbs them: saturated rounds on
  // the dense graph with the wall-clock metrics attached.
  if (!opts.metrics_out.empty()) {
    obs::MetricsRegistry registry;
    const Graph metrics_graph = bench::complete_bipartite_graph(128);
    Network net(metrics_graph, 1 << 20);
    net.set_metrics(&registry);
    for (int r = 0; r < 50; ++r) {
      g_sink += saturate_round(net, metrics_graph, r);
    }
    bench::write_metrics_snapshot(opts.metrics_out, registry);
  }
  std::cout << "(read-pass checksum " << g_sink << ")\n";
  return 0;
}
