#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "util/check.hpp"

namespace dasm {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(GraphTest, PathGraph) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(GraphTest, EdgesAreNormalizedAndSorted) {
  Graph g(3, {{2, 0}, {1, 0}});
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2}));
}

TEST(GraphTest, NeighborsSorted) {
  Graph g(4, {{0, 3}, {0, 1}, {0, 2}});
  const auto nb = g.neighbors(0);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(GraphTest, RowsAreSlicesOfOneArray) {
  // Row v starts at row_offset(v) of one concatenation, so a directed
  // edge's CSR position is row_offset(v) + port.
  Graph g(4, {{2, 3}, {0, 3}, {1, 0}});
  std::int64_t at = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(g.row_offset(v), at);
    EXPECT_EQ(g.neighbors(v).data(), g.neighbors(0).data() + at);
    at += g.degree(v);
  }
  EXPECT_EQ(at, 2 * g.edge_count());
}

TEST(GraphTest, CsrHandOffKeepsTheArrays) {
  // Path 0-1-2 in CSR form, handed over as finished arrays.
  std::vector<NodeId> neighbours{1, 0, 2, 1};
  const NodeId* storage = neighbours.data();
  const Graph g({0, 1, 3, 4}, std::move(neighbours));
  EXPECT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_EQ(g.neighbors(0).data(), storage);  // moved, not copied
  EXPECT_EQ(g.edges(), (Graph(3, {{0, 1}, {1, 2}}).edges()));
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(GraphTest, RejectsSelfLoop) {
  EXPECT_THROW(Graph(2, {{1, 1}}), CheckError);
}

TEST(GraphTest, RejectsDuplicateEdge) {
  EXPECT_THROW(Graph(2, {{0, 1}, {1, 0}}), CheckError);
  EXPECT_THROW(Graph(2, {{0, 1}, {0, 1}}), CheckError);
  EXPECT_THROW(Graph(3, {{1, 2}, {0, 1}, {2, 1}}), CheckError);
}

TEST(GraphTest, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(Graph(2, {{0, 2}}), CheckError);
  EXPECT_THROW(Graph(2, {{5, 1}}), CheckError);
  EXPECT_THROW(Graph(2, {{-1, 0}}), CheckError);
  EXPECT_THROW(Graph(2, {{0, -1}}), CheckError);
}

TEST(GraphTest, QueriesValidateArguments) {
  Graph g(2, {{0, 1}});
  EXPECT_THROW(g.neighbors(5), CheckError);
  EXPECT_FALSE(g.has_edge(-1, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.has_edge(0, 99));
}

TEST(BipartiteGraphTest, IdMapping) {
  // 2 men, 3 women; man 0 ranks women 0 and 2, man 1 ranks woman 1.
  const Graph g(5, {{0, 2}, {0, 4}, {1, 3}});
  BipartiteGraph bg(2, 3, g);
  EXPECT_EQ(bg.node_count(), 5);
  EXPECT_EQ(bg.man_id(1), 1);
  EXPECT_EQ(bg.woman_id(0), 2);
  EXPECT_EQ(bg.woman_id(2), 4);
  EXPECT_TRUE(bg.is_man(0));
  EXPECT_FALSE(bg.is_man(2));
  EXPECT_TRUE(bg.is_woman(4));
  EXPECT_EQ(bg.man_index(1), 1);
  EXPECT_EQ(bg.woman_index(3), 1);
  EXPECT_TRUE(bg.graph().has_edge(0, 2));   // man 0 – woman 0
  EXPECT_TRUE(bg.graph().has_edge(0, 4));   // man 0 – woman 2
  EXPECT_TRUE(bg.graph().has_edge(1, 3));   // man 1 – woman 1
  EXPECT_EQ(bg.graph().edge_count(), 3);
}

TEST(BipartiteGraphTest, RejectsBadIndices) {
  const Graph g(2, {{0, 1}});
  EXPECT_THROW(BipartiteGraph(1, 2, g), CheckError);  // node count mismatch
  BipartiteGraph bg(1, 1, g);
  EXPECT_THROW(bg.man_id(1), CheckError);
  EXPECT_THROW(bg.woman_index(0), CheckError);  // id 0 is a man
}

}  // namespace
}  // namespace dasm
