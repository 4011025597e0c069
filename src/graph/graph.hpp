// Simple immutable undirected graph in compressed sparse row form.
//
// Used both as the communication graph handed to the CONGEST simulator and
// as the input to the maximal-matching protocols (which operate on general
// graphs, per Israeli–Itai [8]).
//
// Storage is one CSR: n + 1 offsets and 2m neighbours. Row v is sorted by
// id and duplicate-free; an entry's position in the concatenation names a
// directed edge (the CONGEST simulator's send guard is indexed by it).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "congest/types.hpp"
#include "util/check.hpp"

namespace dasm {

/// Undirected edge as an ordered pair (u < v after normalization).
struct Edge {
  NodeId u;
  NodeId v;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  /// Empty graph on n vertices.
  explicit Graph(NodeId n = 0);

  /// Graph on n vertices with the given undirected edges. Out-of-range
  /// endpoints, self-loops and duplicate edges are rejected.
  Graph(NodeId n, const std::vector<Edge>& edges);

  /// Takes over finished CSR arrays without copying them. Precondition:
  /// `offsets` runs from 0 to neighbours.size(), and the rows are strictly
  /// increasing, in range, loop-free and symmetric. Only debug builds
  /// re-check it.
  Graph(std::vector<std::int64_t> offsets, std::vector<NodeId> neighbours);

  NodeId node_count() const { return static_cast<NodeId>(offsets_.size()) - 1; }
  std::int64_t edge_count() const { return std::ssize(neighbours_) / 2; }

  /// Sorted neighbour row of v. Inline: the CONGEST simulator resolves
  /// every send's port through it.
  std::span<const NodeId> neighbors(NodeId v) const {
    DASM_CHECK(v >= 0 && v < node_count());
    const auto i = static_cast<std::size_t>(v);
    return {neighbours_.data() + offsets_[i],
            static_cast<std::size_t>(offsets_[i + 1] - offsets_[i])};
  }
  /// Directed-edge index of v's first port: the edge (v, neighbors(v)[p])
  /// has index row_offset(v) + p, in [0, 2 * edge_count()).
  std::int64_t row_offset(NodeId v) const {
    return offsets_[static_cast<std::size_t>(v)];
  }
  NodeId degree(NodeId v) const;
  bool has_edge(NodeId u, NodeId v) const;

  /// All edges, normalized (u < v) and sorted.
  std::vector<Edge> edges() const;

  /// Maximum vertex degree (0 for the empty graph).
  NodeId max_degree() const;

 private:
  std::vector<std::int64_t> offsets_;  // node_count() + 1 entries
  std::vector<NodeId> neighbours_;     // concatenated sorted rows
};

}  // namespace dasm
