#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "api/algorithms.h"
#include "api/graph_api.h"
#include "graph/gen/generators.h"

namespace {

using adaptive::Graph;
using adaptive::Policy;

Graph small_graph() {
  return Graph::from_edges(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
}

TEST(GraphApi, FromEdges) {
  const auto g = small_graph();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_FALSE(g.is_weighted());
  EXPECT_EQ(g.default_source(), 0u);
}

TEST(GraphApi, FromBuilder) {
  graph::GraphBuilder b;
  b.add_undirected(0, 1).add_undirected(1, 2);
  const auto g = Graph::from_builder(b);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(GraphApi, StatsCached) {
  const auto g = small_graph();
  const auto& s1 = g.stats();
  const auto& s2 = g.stats();
  EXPECT_EQ(&s1, &s2);
  EXPECT_EQ(s1.num_nodes, 5u);
}

TEST(GraphApi, WeightsEnableSssp) {
  auto g = small_graph();
  EXPECT_FALSE(g.is_weighted());
  g.set_uniform_weights(1, 10);
  EXPECT_TRUE(g.is_weighted());
}

TEST(GraphApi, BinarySaveLoad) {
  const auto path =
      (std::filesystem::temp_directory_path() / "api_test.agg").string();
  auto g = small_graph();
  g.set_uniform_weights(1, 5);
  g.save_binary(path);
  const auto loaded = Graph::load_binary(path);
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_TRUE(loaded.is_weighted());
  std::remove(path.c_str());
}

TEST(Algorithms, BfsDefaultPolicy) {
  const auto g = small_graph();
  const auto out = adaptive::bfs(g, 0);
  EXPECT_EQ(out.level[4], 3u);
  EXPECT_GT(out.metrics.total_us, 0.0);
}

TEST(Algorithms, AllPoliciesAgree) {
  auto csr = graph::gen::erdos_renyi(5000, 25000, 13);
  graph::assign_uniform_weights(csr, 1, 100, 1);
  const auto g = Graph::from_csr(std::move(csr));

  const auto cpu_out = adaptive::bfs(g, 0, Policy::cpu());
  const auto adapt_out = adaptive::bfs(g, 0, Policy::adapt());
  const auto fixed_out = adaptive::bfs(g, 0, Policy::fixed("U_B_QU"));
  EXPECT_EQ(adapt_out.level, cpu_out.level);
  EXPECT_EQ(fixed_out.level, cpu_out.level);

  const auto cpu_d = adaptive::sssp(g, 0, Policy::cpu());
  const auto adapt_d = adaptive::sssp(g, 0, Policy::adapt());
  const auto fixed_d = adaptive::sssp(g, 0, Policy::fixed("O_T_QU"));
  EXPECT_EQ(adapt_d.dist, cpu_d.dist);
  EXPECT_EQ(fixed_d.dist, cpu_d.dist);
}

TEST(Algorithms, SharedDeviceAccumulatesClock) {
  const auto g = small_graph();
  simt::Device dev;
  adaptive::bfs(dev, g, 0);
  const double after_first = dev.now_us();
  adaptive::bfs(dev, g, 0);
  EXPECT_GT(dev.now_us(), after_first);
}

TEST(Algorithms, CpuPolicyReportsWallClock) {
  const auto g = small_graph();
  const auto out = adaptive::bfs(g, 0, Policy::cpu());
  EXPECT_GE(out.cpu_wall_ms, 0.0);
  EXPECT_EQ(out.metrics.kernels, 0u);
}

TEST(Algorithms, SsspWithoutWeightsIsTypedError) {
  const auto g = small_graph();
  const auto out = adaptive::sssp(g, 0);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.code, adaptive::ErrorCode::invalid_argument);
  EXPECT_NE(out.error.find("weights"), std::string::npos) << out.error;
}

TEST(Algorithms, MstWithoutWeightsIsTypedError) {
  const auto g = small_graph();
  for (const auto& policy : {adaptive::Policy::adapt(), adaptive::Policy::cpu(),
                             adaptive::Policy::fixed(gg::parse_variant("U_T_BM"))}) {
    simt::Device dev;
    const auto out = adaptive::mst(dev, g, policy);
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.code, adaptive::ErrorCode::invalid_argument);
    EXPECT_EQ(out.error, "mst requires edge weights");
  }
}

TEST(Algorithms, FixedPolicyParsesAllNames) {
  for (const auto v : gg::all_variants()) {
    const auto p = Policy::fixed(gg::variant_name(v));
    EXPECT_EQ(p.variant, v);
  }
}

}  // namespace
