// The color-class deterministic maximal matching (Backend::kColorClass,
// Panconesi–Rizzi style). The ColeVishkin / ColorMatching suites cover the
// protocol run standalone through mm::run_maximal_matching (ctest
// test_color_matching); the ColorClassNode / G0DegreeBound suites cover the
// node's degree bound and its use as a degree-parameterized deterministic
// Step-3 backend inside ASM (ctest test_color_class_node).
#include "mm/color_class_node.hpp"

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "gen/generators.hpp"
#include "mm/runner.hpp"
#include "stable/blocking.hpp"
#include "testing_graphs.hpp"
#include "util/check.hpp"

namespace dasm {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::random_bipartite;
using testing::random_graph;
using testing::star_graph;

mm::RunResult run_color_class(const Graph& g) {
  mm::RunConfig config;
  config.backend = mm::Backend::kColorClass;
  return mm::run_maximal_matching(g, /*is_left=*/{}, config);
}

TEST(ColeVishkin, IterationBoundIsTinyAndMonotone) {
  EXPECT_GE(mm::cole_vishkin_iterations(2), 0);
  EXPECT_LE(mm::cole_vishkin_iterations(1 << 20), 6);
  EXPECT_LE(mm::cole_vishkin_iterations(7), mm::cole_vishkin_iterations(1 << 20));
  EXPECT_THROW(mm::cole_vishkin_iterations(0), CheckError);
}

TEST(ColorMatching, EmptyAndEdgelessGraphs) {
  EXPECT_TRUE(run_color_class(Graph(0)).maximal);
  // Delta = 0: the runner clamps the degree bound to 1, which the node's
  // constructor requires.
  const auto r = run_color_class(Graph(4, {}));
  EXPECT_TRUE(r.maximal);
  EXPECT_EQ(r.matching.size(), 0);
  EXPECT_EQ(r.net.messages, 0);
}

TEST(ColorMatching, MaximalOnFixedTopologies) {
  for (const Graph& g :
       {path_graph(2), path_graph(9), cycle_graph(10), cycle_graph(12),
        star_graph(7), complete_graph(8)}) {
    const auto r = run_color_class(g);
    EXPECT_TRUE(r.matching.is_valid(g));
    EXPECT_TRUE(r.maximal) << "n=" << g.node_count();
  }
}

TEST(ColorMatching, DeterministicAndReproducible) {
  const Graph g = random_graph(60, 0.1, 4);
  const auto a = run_color_class(g);
  const auto b = run_color_class(g);
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.net.executed_rounds, b.net.executed_rounds);
  EXPECT_EQ(a.net.messages, b.net.messages);
}

class ColorMatchingSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColorMatchingSeeds, MaximalOnRandomGeneralGraphs) {
  for (const Graph& g :
       {random_graph(70, 0.08, GetParam()), random_graph(40, 0.1, GetParam())}) {
    const auto r = run_color_class(g);
    EXPECT_TRUE(r.matching.is_valid(g));
    EXPECT_TRUE(r.maximal);
  }
}

TEST_P(ColorMatchingSeeds, MaximalOnRandomBipartite) {
  for (const auto& [g, is_left] : {random_bipartite(35, 35, 0.12, GetParam()),
                                   random_bipartite(25, 25, 0.1, GetParam())}) {
    const auto r = run_color_class(g);
    EXPECT_TRUE(r.matching.is_valid(g));
    EXPECT_TRUE(r.maximal);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColorMatchingSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ColorMatching, RoundsIndependentOfNForBoundedDegree) {
  // The schedule is O(Delta^2 (log* n + 1)): doubling n on a
  // bounded-degree family must barely move the executed rounds.
  std::vector<std::int64_t> rounds;
  for (const NodeId n : {64, 128, 256, 512}) {
    // Cycles have Delta = 2 everywhere.
    const auto r = run_color_class(cycle_graph(n));
    EXPECT_TRUE(r.maximal);
    rounds.push_back(r.net.executed_rounds);
  }
  EXPECT_LE(rounds.back(), rounds.front() + 16);
}

TEST(ColorClassNode, LooseDegreeBoundStillWorks) {
  // A star with 5 leaves next to a 7-node path: the runner sizes every
  // node by the global Delta = 5, so the path's degree-<=2 nodes run a
  // schedule far looser than their own degree needs.
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf <= 5; ++leaf) edges.push_back({0, leaf});
  for (NodeId v = 6; v < 12; ++v) edges.push_back({v, v + 1});
  const Graph g(13, edges);
  ASSERT_EQ(g.max_degree(), 5);
  const auto r = run_color_class(g);
  EXPECT_TRUE(r.matching.is_valid(g));
  EXPECT_TRUE(r.maximal);
}

TEST(ColorClassNode, RejectsDegreeAboveBound) {
  mm::ColorClassNode node(2, 16);
  EXPECT_THROW(node.reset(0, false, {1, 2, 3}), CheckError);
}

TEST(ColorMatching, UsesOnlyExpectedMessageTypes) {
  const Graph g = random_graph(40, 0.1, 11);
  const auto r = run_color_class(g);
  EXPECT_GT(r.net.count_of(MsgType::kPort), 0);
  EXPECT_GT(r.net.count_of(MsgType::kColor), 0);
  EXPECT_EQ(r.net.count_of(MsgType::kMmPick), 0);
  EXPECT_EQ(r.net.count_of(MsgType::kGsPropose), 0);
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
  params.mm_backend = mm::Backend::kColorClass;

  const auto r = core::run_asm(inst, params);
  validate_matching(inst, r.matching);
  EXPECT_LE(static_cast<double>(count_blocking_pairs(inst, r.matching)),
            0.5 * static_cast<double>(inst.edge_count()));
  EXPECT_EQ(r.schedule.mm_rounds_per_iteration,
            mm::ColorClassNode(core::g0_degree_bound(inst, params.k),
                               inst.graph().node_count())
                .rounds_per_iteration());

  // Deterministic: identical on a rerun.
  const auto r2 = core::run_asm(inst, params);
  EXPECT_EQ(r.matching, r2.matching);
  EXPECT_EQ(r.net.messages, r2.net.messages);
}

}  // namespace
}  // namespace dasm
