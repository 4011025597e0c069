// A1 — ablation of ASM's Step-3 maximal-matching backend (the design
// choice DESIGN.md substitutes for the HKP black box): deterministic
// pointer-greedy vs Israeli–Itai vs random-priority vs the deterministic
// color-class protocol, both standalone on raw graphs and embedded inside
// ASM.
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "mm/runner.hpp"
#include "stable/blocking.hpp"
#include "util/stats.hpp"

int main() {
  using namespace dasm;
  bench::print_header(
      "A1",
      "Ablation: the maximal-matching subroutine behind ProposalRound "
      "Step 3 (paper: HKP deterministic / Israeli-Itai randomized)",
      "all backends preserve the Theorem-3 guarantee; they differ only in "
      "round and message cost");

  const int seeds = 3;
  const NodeId n = bench::large_mode() ? 512 : 256;

  std::cout << "standalone maximal matching on a ~8-regular bipartite "
               "graph (n=" << n << " per side):\n";
  Table standalone({"backend", "iterations", "rounds", "messages",
                    "always_maximal"});
  bool all_ok = true;  // every standalone run maximal, every embedded met
  const mm::Backend kBackends[] = {
      mm::Backend::kPointerGreedy, mm::Backend::kIsraeliItai,
      mm::Backend::kRandomPriority, mm::Backend::kColorClass};
  for (const auto backend : kBackends) {
    Summary iters;
    Summary rounds;
    Summary msgs;
    bool maximal = true;
    for (int s = 1; s <= seeds; ++s) {
      const Instance inst =
          bench::make_family("regular", n, static_cast<std::uint64_t>(s));
      const Graph& g = inst.graph().graph();
      std::vector<bool> is_left(static_cast<std::size_t>(g.node_count()));
      for (NodeId v = 0; v < inst.n_men(); ++v) {
        is_left[static_cast<std::size_t>(v)] = true;
      }
      mm::RunConfig c;
      c.backend = backend;
      c.seed = static_cast<std::uint64_t>(s);
      const auto r = mm::run_maximal_matching(g, is_left, c);
      iters.add(static_cast<double>(r.iterations_executed));
      rounds.add(static_cast<double>(r.net.executed_rounds));
      msgs.add(static_cast<double>(r.net.messages));
      maximal = maximal && r.maximal;
    }
    standalone.add_row({mm::to_string(backend), Table::num(iters.mean(), 1),
                        Table::num(rounds.mean(), 1),
                        Table::num(msgs.mean(), 0),
                        maximal ? "yes" : "NO"});
    all_ok = all_ok && maximal;
  }
  standalone.print(std::cout);

  std::cout << "\nembedded in ASM (complete preferences, n=" << n / 2
            << ", eps=0.25):\n";
  Table embedded({"backend", "rounds(exec)", "mm_rounds", "messages",
                  "blocking/|E|", "guarantee"});
  for (const auto backend : kBackends) {
    Summary rounds;
    Summary mmr;
    Summary msgs;
    Summary frac;
    bool ok = true;
    for (int s = 1; s <= seeds; ++s) {
      const Instance inst = bench::make_family(
          "complete", n / 2, static_cast<std::uint64_t>(s));
      core::AsmParams params;
      params.epsilon = 0.25;
      params.seed = static_cast<std::uint64_t>(s) * 7 + 1;
      params.mm_backend = backend;
      const auto r = core::run_asm(inst, params);
      rounds.add(static_cast<double>(r.net.executed_rounds));
      mmr.add(static_cast<double>(r.mm_rounds_executed));
      msgs.add(static_cast<double>(r.net.messages));
      const double f =
          static_cast<double>(count_blocking_pairs(inst, r.matching)) /
          static_cast<double>(inst.edge_count());
      frac.add(f);
      ok = ok && f <= 0.25;
    }
    all_ok = all_ok && ok;
    embedded.add_row({mm::to_string(backend), Table::num(rounds.mean(), 1),
                      Table::num(mmr.mean(), 1), Table::num(msgs.mean(), 0),
                      Table::num(frac.mean(), 5), ok ? "met" : "VIOLATED"});
  }
  embedded.print(std::cout);
  std::cout << '\n';
  bench::print_verdict(all_ok,
                       "the guarantee is backend-independent — exactly why "
                       "the paper can treat MaximalMatching as a black box");
  return all_ok ? 0 : 1;
}
