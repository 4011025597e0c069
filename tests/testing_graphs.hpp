// Shared graph builders for the maximal-matching tests.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "util/prng.hpp"

namespace dasm::testing {

inline Graph random_graph(NodeId n, double p, std::uint64_t seed) {
  Xoshiro256 rng = derive_stream(seed, 0x6E);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) edges.push_back({u, v});
    }
  }
  return Graph(n, edges);
}

/// Random bipartite graph: left vertices 0..nl-1, right nl..nl+nr-1.
/// Returns the graph and the left-side indicator.
inline std::pair<Graph, std::vector<bool>> random_bipartite(
    NodeId nl, NodeId nr, double p, std::uint64_t seed) {
  Xoshiro256 rng = derive_stream(seed, 0xB1);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < nl; ++u) {
    for (NodeId v = 0; v < nr; ++v) {
      if (rng.bernoulli(p)) edges.push_back({u, static_cast<NodeId>(nl + v)});
    }
  }
  std::vector<bool> is_left(static_cast<std::size_t>(nl + nr), false);
  for (NodeId u = 0; u < nl; ++u) is_left[static_cast<std::size_t>(u)] = true;
  return {Graph(nl + nr, edges), std::move(is_left)};
}

inline Graph path_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<NodeId>(v + 1)});
  return Graph(n, edges);
}

inline Graph cycle_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<NodeId>(v + 1)});
  edges.push_back({0, static_cast<NodeId>(n - 1)});
  return Graph(n, edges);
}

inline Graph star_graph(NodeId leaves) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v <= leaves; ++v) edges.push_back({0, v});
  return Graph(leaves + 1, edges);
}

inline Graph complete_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return Graph(n, edges);
}

/// K_{half,half}: left vertices 0..half-1, right half..2*half-1.
inline Graph complete_bipartite_graph(NodeId half) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < half; ++u) {
    for (NodeId v = 0; v < half; ++v) edges.push_back({u, half + v});
  }
  return Graph(2 * half, edges);
}

}  // namespace dasm::testing
