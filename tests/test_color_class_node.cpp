// The lockstep ColorClassNode: standalone maximality and its use as a
// degree-parameterized deterministic Step-3 backend inside ASM.
#include "mm/color_class_node.hpp"

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "gen/generators.hpp"
#include "mm/color_matching.hpp"
#include "mm/runner.hpp"
#include "stable/blocking.hpp"
#include "testing_graphs.hpp"
#include "util/check.hpp"

namespace dasm {
namespace {

using testing::cycle_graph;
using testing::path_graph;
using testing::random_bipartite;
using testing::random_graph;

// Lockstep driver mirroring mm::run_maximal_matching for a custom node.
mm::RunResult drive(const Graph& g, NodeId delta_bound) {
  Network net(g);
  const NodeId n = g.node_count();
  std::vector<mm::ColorClassNode> nodes;
  nodes.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    nodes.emplace_back(delta_bound, std::max<NodeId>(n, 2));
    nodes.back().reset(v, false, g.neighbors(v));
  }
  const std::int64_t total =
      2 + static_cast<std::int64_t>(delta_bound) * delta_bound *
              mm::color_class_rounds_per_iteration(std::max<NodeId>(n, 2)) +
      2;
  for (std::int64_t r = 0; r < total; ++r) {
    bool all_done = true;
    for (const auto& node : nodes) all_done = all_done && node.quiescent();
    if (all_done) break;
    net.begin_round();
    for (NodeId v = 0; v < n; ++v) {
      nodes[static_cast<std::size_t>(v)].on_round(net.inbox(v), net);
    }
    net.end_round();
  }
  mm::RunResult result;
  result.matching = Matching(n);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId p = nodes[static_cast<std::size_t>(v)].partner();
    if (p != kNoNode && v < p) result.matching.add(v, p);
  }
  result.net = net.stats();
  result.maximal = result.matching.is_maximal(g);
  return result;
}

TEST(ColorClassNode, MaximalOnFixedTopologies) {
  for (const Graph& g :
       {path_graph(2), path_graph(9), cycle_graph(12)}) {
    const auto r = drive(g, g.max_degree());
    EXPECT_TRUE(r.matching.is_valid(g));
    EXPECT_TRUE(r.maximal) << "n=" << g.node_count();
  }
}

class ColorClassNodeSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColorClassNodeSeeds, MaximalOnRandomBipartite) {
  const auto [g, is_left] = random_bipartite(25, 25, 0.1, GetParam());
  const auto r = drive(g, g.max_degree());
  EXPECT_TRUE(r.matching.is_valid(g));
  EXPECT_TRUE(r.maximal);
}

TEST_P(ColorClassNodeSeeds, MaximalOnRandomGeneralGraphs) {
  const Graph g = random_graph(40, 0.1, GetParam());
  const auto r = drive(g, g.max_degree());
  EXPECT_TRUE(r.maximal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColorClassNodeSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(ColorClassNode, LooseDegreeBoundStillWorks) {
  const Graph g = path_graph(7);
  const auto tight = drive(g, 2);
  const auto loose = drive(g, 5);
  EXPECT_TRUE(tight.maximal);
  EXPECT_TRUE(loose.maximal);
}

TEST(ColorClassNode, RejectsDegreeAboveBound) {
  mm::ColorClassNode node(2, 16);
  EXPECT_THROW(node.reset(0, false, {1, 2, 3}), CheckError);
}

TEST(G0DegreeBound, FollowsQuantileSizes) {
  const Instance inst = gen::regular_bipartite(24, 6, 3);
  EXPECT_EQ(core::g0_degree_bound(inst, 2), 3);   // ceil(6/2)
  EXPECT_EQ(core::g0_degree_bound(inst, 6), 1);
  EXPECT_EQ(core::g0_degree_bound(inst, 100), 1);
  EXPECT_THROW(core::g0_degree_bound(inst, 0), CheckError);
}

TEST(ColorClassNode, BacksAsmForBoundedPreferences) {
  // Deterministic ASM whose Step-3 subroutine has a worst-case round
  // bound of O(Delta^2 log* n) — no HKP black box needed in the
  // bounded-degree regime.
  const Instance inst = gen::regular_bipartite(48, 6, 7);
  core::AsmParams params;
  params.epsilon = 0.5;
  params.k = 2;  // quantile size 3 => G0 degree bound 3
  const NodeId bound = core::g0_degree_bound(inst, params.k);
  const NodeId n_bound = inst.graph().node_count();
  params.mm_node_factory = [bound, n_bound](NodeId) {
    return std::make_unique<mm::ColorClassNode>(bound, n_bound);
  };
  params.mm_rounds_per_iteration_override =
      mm::color_class_rounds_per_iteration(n_bound);

  const auto r = core::run_asm(inst, params);
  validate_matching(inst, r.matching);
  EXPECT_LE(static_cast<double>(count_blocking_pairs(inst, r.matching)),
            0.5 * static_cast<double>(inst.edge_count()));
  EXPECT_EQ(r.schedule.mm_rounds_per_iteration,
            mm::color_class_rounds_per_iteration(n_bound));

  // Deterministic: identical on a rerun.
  const auto r2 = core::run_asm(inst, params);
  EXPECT_EQ(r.matching, r2.matching);
  EXPECT_EQ(r.net.messages, r2.net.messages);
}

}  // namespace
}  // namespace dasm
