#include "stable/instance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "util/check.hpp"

namespace dasm {
namespace {

Instance tiny_instance() {
  // 2 men, 2 women, complete symmetric preferences.
  std::vector<Ranking> men;
  men.emplace_back(std::vector<NodeId>{0, 1});
  men.emplace_back(std::vector<NodeId>{1, 0});
  std::vector<Ranking> women;
  women.emplace_back(std::vector<NodeId>{1, 0});
  women.emplace_back(std::vector<NodeId>{0, 1});
  return Instance(std::move(men), std::move(women));
}

TEST(InstanceTest, BasicAccessors) {
  const Instance inst = tiny_instance();
  EXPECT_EQ(inst.n_men(), 2);
  EXPECT_EQ(inst.n_women(), 2);
  EXPECT_EQ(inst.edge_count(), 4);
  EXPECT_TRUE(inst.is_complete());
  EXPECT_DOUBLE_EQ(inst.regularity_alpha(), 1.0);
  EXPECT_EQ(inst.man_pref(0).at_rank(0), 0);
  EXPECT_EQ(inst.woman_pref(0).at_rank(0), 1);
  EXPECT_TRUE(inst.graph().graph().has_edge(0, 2));
}

TEST(InstanceTest, RejectsAsymmetry) {
  std::vector<Ranking> men;
  men.emplace_back(std::vector<NodeId>{0});
  std::vector<Ranking> women;
  women.emplace_back(std::vector<NodeId>{});  // woman does not rank man 0
  EXPECT_THROW(Instance(std::move(men), std::move(women)), CheckError);

  std::vector<Ranking> men2;
  men2.emplace_back(std::vector<NodeId>{});
  std::vector<Ranking> women2;
  women2.emplace_back(std::vector<NodeId>{0});
  EXPECT_THROW(Instance(std::move(men2), std::move(women2)), CheckError);
}

TEST(InstanceTest, RejectsSwappedIdentitiesWithEqualDegrees) {
  // Every player has degree 1 and every id appears once per side, so
  // degree or edge counts alone cannot tell; only the identities differ.
  std::vector<Ranking> men;
  men.emplace_back(std::vector<NodeId>{0});
  men.emplace_back(std::vector<NodeId>{1});
  std::vector<Ranking> women;
  women.emplace_back(std::vector<NodeId>{1});
  women.emplace_back(std::vector<NodeId>{0});
  try {
    Instance(std::move(men), std::move(women));
    FAIL() << "asymmetric instance accepted";
  } catch (const CheckError& e) {
    // Man-major detection: man 0 is the first unreciprocated ranking.
    EXPECT_NE(std::string(e.what()).find(
                  "asymmetric preferences: man 0 ranks woman 0 but not back"),
              std::string::npos)
        << e.what();
  }
}

TEST(InstanceTest, GraphEqualsTheEdgeListBuildOnEveryFamily) {
  // The instance scatters its graph's CSR rows straight from the arenas;
  // it must equal the general Graph(n, edges) build over the same
  // (man, woman) pairs, row for row, on every generator family.
  const std::vector<std::pair<const char*,
                              std::function<Instance(std::uint64_t)>>>
      families{
          {"complete", [](auto s) { return gen::complete_uniform(12, s); }},
          {"incomplete",
           [](auto s) { return gen::incomplete_uniform(14, 11, 0.3, s); }},
          {"regular", [](auto s) { return gen::regular_bipartite(16, 4, s); }},
          {"bounded", [](auto s) { return gen::bounded_degree(16, 3, s); }},
          {"almost_regular",
           [](auto s) { return gen::almost_regular(16, 2, 5, s); }},
          {"master", [](auto s) { return gen::master_list(12, 6, s); }},
          {"chain", [](auto) { return gen::gs_displacement_chain(9); }},
          {"zipf", [](auto s) { return gen::zipf_popularity(16, 1.5, s); }},
          {"geometric", [](auto s) { return gen::geometric_knn(16, 4, s); }},
          {"social",
           [](auto s) { return gen::windowed_acquaintance(16, 4, 2, s); }},
      };
  for (const auto& [name, make] : families) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      const Instance inst = make(seed);
      const NodeId nm = inst.n_men();
      const PrefArena& men = inst.men_arena();
      std::vector<Edge> edges;
      for (NodeId m = 0; m < nm; ++m) {
        for (const NodeId w : men.list(m).ranked()) {
          edges.push_back(Edge{m, nm + w});
        }
      }
      const Graph want(nm + inst.n_women(), edges);
      const Graph& got = inst.graph().graph();
      ASSERT_EQ(got.node_count(), want.node_count()) << name << " " << seed;
      for (NodeId v = 0; v < got.node_count(); ++v) {
        const auto row = got.neighbors(v);
        EXPECT_TRUE(std::adjacent_find(row.begin(), row.end(),
                                       std::greater_equal<>()) == row.end())
            << name << " seed " << seed << " row " << v << " not sorted";
        const auto ref = want.neighbors(v);
        EXPECT_TRUE(std::equal(row.begin(), row.end(), ref.begin(), ref.end()))
            << name << " seed " << seed << " row " << v;
      }
      EXPECT_EQ(got.edge_count(), want.edge_count()) << name << " " << seed;
      EXPECT_EQ(got.max_degree(), want.max_degree()) << name << " " << seed;
      EXPECT_EQ(inst.edge_count(), men.total_degree()) << name << " " << seed;
    }
  }
}

TEST(InstanceTest, RejectsOutOfRangePartner) {
  std::vector<Ranking> men;
  men.emplace_back(std::vector<NodeId>{5});
  std::vector<Ranking> women;
  women.emplace_back(std::vector<NodeId>{});
  EXPECT_THROW(Instance(std::move(men), std::move(women)), CheckError);
}

TEST(InstanceTest, IncompleteIsDetected) {
  std::vector<Ranking> men;
  men.emplace_back(std::vector<NodeId>{0});
  men.emplace_back(std::vector<NodeId>{});
  std::vector<Ranking> women;
  women.emplace_back(std::vector<NodeId>{0});
  const Instance inst(std::move(men), std::move(women));
  EXPECT_FALSE(inst.is_complete());
  EXPECT_EQ(inst.edge_count(), 1);
}

TEST(InstanceTest, AlphaIgnoresZeroDegreeMen) {
  std::vector<Ranking> men;
  men.emplace_back(std::vector<NodeId>{0, 1});
  men.emplace_back(std::vector<NodeId>{});  // unranked man: skipped
  men.emplace_back(std::vector<NodeId>{0});
  std::vector<Ranking> women;
  women.emplace_back(std::vector<NodeId>{0, 2});
  women.emplace_back(std::vector<NodeId>{0});
  const Instance inst(std::move(men), std::move(women));
  EXPECT_DOUBLE_EQ(inst.regularity_alpha(), 2.0);
}

TEST(InstanceTest, AccessorsValidateIndices) {
  const Instance inst = tiny_instance();
  EXPECT_THROW(inst.man_pref(2), CheckError);
  EXPECT_THROW(inst.woman_pref(-1), CheckError);
}

}  // namespace
}  // namespace dasm
