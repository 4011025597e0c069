#include "graph/graph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dasm {

Graph::Graph(NodeId n) {
  DASM_CHECK(n >= 0);
  adj_.resize(static_cast<std::size_t>(n));
}

Graph::Graph(NodeId n, const std::vector<Edge>& edges) : Graph(n) {
  for (const Edge& e : edges) {
    DASM_CHECK_MSG(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                   "edge endpoint out of range: (" << e.u << "," << e.v << ")");
    DASM_CHECK_MSG(e.u != e.v, "self-loop at " << e.u);
    adj_[static_cast<std::size_t>(e.u)].push_back(e.v);
    adj_[static_cast<std::size_t>(e.v)].push_back(e.u);
  }
  for (std::size_t v = 0; v < adj_.size(); ++v) {
    auto& nb = adj_[v];
    std::sort(nb.begin(), nb.end());
    DASM_CHECK_MSG(std::adjacent_find(nb.begin(), nb.end()) == nb.end(),
                   "duplicate edge incident to node " << v);
  }
  edge_count_ = static_cast<std::int64_t>(edges.size());
}

NodeId Graph::degree(NodeId v) const {
  return static_cast<NodeId>(neighbors(v).size());
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= node_count() || v >= node_count()) return false;
  const auto& nb = adj_[static_cast<std::size_t>(u)];
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(edge_count_));
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : adj_[static_cast<std::size_t>(u)]) {
      if (u < v) out.push_back(Edge{u, v});
    }
  }
  return out;
}

NodeId Graph::max_degree() const {
  NodeId best = 0;
  for (NodeId v = 0; v < node_count(); ++v) best = std::max(best, degree(v));
  return best;
}

}  // namespace dasm
