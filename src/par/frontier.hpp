// Frontier stepping (Layer 1 of the parallel engine; DESIGN.md §6): the
// round engines step only an ascending frontier of the processors that can
// act in a round. Static chunking gives pool worker w a contiguous,
// ascending id block, so the Network's lane-order merge reproduces the
// serial node-id-major send order exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "par/thread_pool.hpp"

namespace dasm::par {

/// Frontiers shorter than this are stepped inline: a pool dispatch costs
/// about two condition-variable hops, and below this many player steps
/// the dispatch outweighs the work it spreads (measured in EXPERIMENTS.md
/// A7).
inline constexpr std::size_t kParallelStepCutoff = 1024;

/// Invokes f(id) for every id of `frontier`, which must be ascending;
/// across `pool` (when non-null) once the frontier clears
/// kParallelStepCutoff, otherwise inline in frontier order.
template <typename Id, typename F>
void step_frontier(ThreadPool* pool, const std::vector<Id>& frontier, F&& f) {
  if (pool != nullptr && frontier.size() >= kParallelStepCutoff) {
    pool->parallel_for(0, static_cast<std::int64_t>(frontier.size()),
                       [&](std::int64_t i) {
                         f(frontier[static_cast<std::size_t>(i)]);
                       });
    return;
  }
  for (const Id id : frontier) f(id);
}

}  // namespace dasm::par
