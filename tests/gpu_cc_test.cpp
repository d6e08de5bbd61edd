#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>

#include "api/algorithms.h"
#include "common/prng.h"
#include "cpu/bfs_serial.h"
#include "cpu/cc_serial.h"
#include "gpu_graph/cc_engine.h"
#include "graph/gen/generators.h"
#include "runtime/adaptive_engine.h"

namespace {

using gg::Variant;

struct GraphCase {
  const char* name;
  graph::Csr csr;  // symmetric
};

std::vector<GraphCase>& test_graphs() {
  static std::vector<GraphCase> cases = [] {
    std::vector<GraphCase> out;
    {
      // Two triangles and an isolated node.
      const std::vector<graph::Edge> e{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}};
      out.push_back({"triangles", graph::symmetrize(graph::csr_from_edges(7, e))});
    }
    out.push_back({"er", graph::symmetrize(graph::gen::erdos_renyi(2000, 3000, 3))});
    out.push_back({"road", graph::gen::road_network(2500, 9)});  // already symmetric
    {
      graph::gen::PowerLawParams p;
      p.num_nodes = 3000;
      p.tail_max = 200;
      p.tail_alpha = 1.5;
      p.seed = 12;
      out.push_back({"powerlaw",
                     graph::symmetrize(graph::gen::powerlaw_configuration(p))});
    }
    return out;
  }();
  return cases;
}

struct CcCase {
  std::size_t graph_index;
  Variant variant;
};

std::vector<Variant> cc_variants() {
  std::vector<Variant> out;
  for (const Variant v : gg::unordered_variants()) out.push_back(v);
  for (const Variant v : gg::warp_centric_variants()) out.push_back(v);
  return out;
}

std::vector<CcCase> all_cases() {
  std::vector<CcCase> cases;
  for (std::size_t g = 0; g < test_graphs().size(); ++g) {
    for (const Variant v : cc_variants()) cases.push_back({g, v});
  }
  return cases;
}

class GpuCcVariants : public ::testing::TestWithParam<CcCase> {};

TEST_P(GpuCcVariants, MatchesUnionFind) {
  const auto& [gi, variant] = GetParam();
  const auto& gc = test_graphs()[gi];
  const auto expected = cpu::connected_components(gc.csr);
  simt::Device dev;
  const auto got = gg::run_cc(dev, gc.csr, variant);
  EXPECT_EQ(got.component, expected.component) << gc.name;
  EXPECT_EQ(got.num_components, expected.num_components);
}

INSTANTIATE_TEST_SUITE_P(AllVariantsAllGraphs, GpuCcVariants,
                         ::testing::ValuesIn(all_cases()),
                         [](const auto& info) {
                           return std::string(test_graphs()[info.param.graph_index].name) +
                                  "_" + gg::variant_name(info.param.variant);
                         });

TEST(CpuCc, KnownPartition) {
  const auto& gc = test_graphs()[0];
  const auto r = cpu::connected_components(gc.csr);
  EXPECT_EQ(r.num_components, 3u);  // two triangles + isolated node 6
  EXPECT_EQ(r.component[0], 0u);
  EXPECT_EQ(r.component[1], 0u);
  EXPECT_EQ(r.component[2], 0u);
  EXPECT_EQ(r.component[3], 3u);
  EXPECT_EQ(r.component[5], 3u);
  EXPECT_EQ(r.component[6], 6u);
}

TEST(GpuCc, InitialWorkingSetIsAllNodes) {
  const auto& gc = test_graphs()[1];
  simt::Device dev;
  const auto got = gg::run_cc(dev, gc.csr, gg::parse_variant("U_T_BM"));
  ASSERT_FALSE(got.metrics.iterations.empty());
  EXPECT_EQ(got.metrics.iterations.front().ws_size, gc.csr.num_nodes);
  // Work shrinks as labels converge.
  EXPECT_LT(got.metrics.iterations.back().ws_size,
            got.metrics.iterations.front().ws_size);
}

TEST(GpuCc, AdaptiveMatchesUnionFind) {
  for (const auto& gc : test_graphs()) {
    const auto expected = cpu::connected_components(gc.csr);
    simt::Device dev;
    const auto got = rt::adaptive_cc(dev, gc.csr);
    ASSERT_EQ(got.component, expected.component) << gc.name;
  }
}

TEST(GpuCc, AdaptiveStartsLargeSoNotInBqURegion) {
  // Unlike BFS/SSSP, CC starts with |WS| = n, so on a graph with n above
  // the T2/T3 thresholds the first decision lands in the bitmap region of
  // the decision space.
  auto big = graph::symmetrize(graph::gen::erdos_renyi(20000, 30000, 4));
  simt::Device dev;
  const auto got = rt::adaptive_cc(dev, big);
  ASSERT_FALSE(got.metrics.iterations.empty());
  EXPECT_EQ(got.metrics.iterations.front().variant.repr,
            gg::WorksetRepr::bitmap);
}

TEST(GpuCc, DeterministicAcrossRuns) {
  const auto& gc = test_graphs()[3];
  simt::Device d1, d2;
  const auto a = gg::run_cc(d1, gc.csr, gg::parse_variant("U_B_QU"));
  const auto b = gg::run_cc(d2, gc.csr, gg::parse_variant("U_B_QU"));
  EXPECT_EQ(a.component, b.component);
  EXPECT_DOUBLE_EQ(a.metrics.total_us, b.metrics.total_us);
}

TEST(ApiCc, SymmetrizeHandlesDirectedInput) {
  // A directed chain is weakly connected.
  const auto g = adaptive::Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto out = adaptive::cc(g);
  EXPECT_EQ(out.num_components, 1u);
  for (const auto c : out.component) EXPECT_EQ(c, 0u);
}

TEST(ApiCc, WithoutSymmetrizeLabelsFollowDirectedReachability) {
  // Without reverse arcs, min-label propagation only flows along edges.
  const auto g = adaptive::Graph::from_edges(3, {{0, 1}, {1, 2}});
  const auto out = adaptive::cc(
      g, adaptive::Policy::adapt().with_symmetrize(adaptive::Symmetrize::never));
  EXPECT_EQ(out.component[0], 0u);
  EXPECT_EQ(out.component[2], 0u);  // label 0 reaches 2 along the chain
}

TEST(ApiCc, AllPoliciesAgree) {
  auto csr = graph::symmetrize(graph::gen::erdos_renyi(1500, 2200, 8));
  const auto g = adaptive::Graph::from_csr(std::move(csr));
  constexpr auto kNever = adaptive::Symmetrize::never;
  const auto cpu_out =
      adaptive::cc(g, adaptive::Policy::cpu().with_symmetrize(kNever));
  const auto adapt_out =
      adaptive::cc(g, adaptive::Policy::adapt().with_symmetrize(kNever));
  const auto fixed_out =
      adaptive::cc(g, adaptive::Policy::fixed("U_W_QU").with_symmetrize(kNever));
  EXPECT_EQ(adapt_out.component, cpu_out.component);
  EXPECT_EQ(fixed_out.component, cpu_out.component);
  EXPECT_EQ(adapt_out.num_components, cpu_out.num_components);
}

TEST(GpuCc, ComponentCountMatchesDistinctLabels) {
  const auto& gc = test_graphs()[2];
  simt::Device dev;
  const auto got = gg::run_cc(dev, gc.csr, gg::parse_variant("U_T_QU"));
  std::set<std::uint32_t> labels(got.component.begin(), got.component.end());
  EXPECT_EQ(labels.size(), got.num_components);
  // Every label is the minimum of its class: label[l] == l.
  for (const auto l : labels) EXPECT_EQ(got.component[l], l);
}

// ---- pointer jumping ---------------------------------------------------------

// What CC answers without symmetrization: for u in increasing id order, u
// labels every still-unlabelled node it reaches along arcs. A labelled node
// was reached by a smaller id, which also reached everything it reaches, so
// the search stops there.
std::vector<std::uint32_t> min_reaching_id(const graph::Csr& g) {
  std::vector<std::uint32_t> label(g.num_nodes, graph::kInfinity);
  std::vector<std::uint32_t> stack;
  for (std::uint32_t u = 0; u < g.num_nodes; ++u) {
    if (label[u] != graph::kInfinity) continue;
    label[u] = u;
    stack.push_back(u);
    while (!stack.empty()) {
      const std::uint32_t v = stack.back();
      stack.pop_back();
      for (const std::uint32_t t : g.neighbors(v)) {
        if (label[t] == graph::kInfinity) {
          label[t] = u;
          stack.push_back(t);
        }
      }
    }
  }
  return label;
}

// A random digraph with long directed chains: a Hamiltonian path through a
// shuffled node order with each arc oriented at random, plus n/8 random
// chords. Labels must travel far along arcs, so shortcuts get exercised.
graph::Csr oriented_path_digraph(std::uint32_t n, std::uint64_t seed) {
  agg::Prng rng(seed);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::uint32_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.bounded(i + 1)]);
  }
  std::vector<graph::Edge> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    if (rng.bounded(2) == 0) {
      edges.push_back({order[i], order[i + 1]});
    } else {
      edges.push_back({order[i + 1], order[i]});
    }
  }
  for (std::uint32_t k = 0; k < n / 8; ++k) {
    const auto u = static_cast<std::uint32_t>(rng.bounded(n));
    const auto v = static_cast<std::uint32_t>(rng.bounded(n));
    if (u != v) edges.push_back({u, v});
  }
  return graph::csr_from_edges(n, edges);
}

// Symmetrize::never labels follow directed reachability. A pointer jump
// keeps those labels (label[label[v]] also reaches v); a jump that also
// hooked a neighbour's old label onto the pushed one would not, and this is
// the test that tells them apart.
TEST(ApiCc, DirectedLabelsEqualMinReachingIdUnderEveryVariant) {
  constexpr auto kNever = adaptive::Symmetrize::never;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::vector<std::pair<std::string, graph::Csr>> graphs{
        {"er", graph::gen::erdos_renyi(1500, 1800 + 300 * seed, seed)},
        {"chain", oriented_path_digraph(2000, seed)}};
    for (const auto& [name, csr] : graphs) {
      const std::string where = name + " seed " + std::to_string(seed);
      const auto want = min_reaching_id(csr);
      const auto g = adaptive::Graph::from_csr(graph::Csr(csr));
      ASSERT_FALSE(g.is_symmetric()) << where;
      simt::Device dev;
      const auto adapt = adaptive::cc(
          dev, g, adaptive::Policy::adapt().with_symmetrize(kNever));
      ASSERT_TRUE(adapt.ok()) << where;
      EXPECT_EQ(adapt.component, want) << where << " adaptive";
      for (const Variant v : cc_variants()) {
        const auto got = adaptive::cc(
            dev, g, adaptive::Policy::fixed(v).with_symmetrize(kNever));
        ASSERT_TRUE(got.ok()) << where;
        EXPECT_EQ(got.component, want) << where << " " << gg::variant_name(v);
      }
    }
  }
}

// A seeded differential test: on a digraph under Symmetrize::never every CC
// answer is the min-reaching-id labelling, whatever computed it: the serial
// policy, every fixed variant and the adaptive policy, each asked for the
// plain, relabelled and adaptive layouts. The RMAT digraph is large and
// skewed enough that the adaptive layout would pick relabelled.
TEST(ApiCc, DirectedAnswerIsTheSameUnderEveryPolicyAndLayout) {
  constexpr auto kNever = adaptive::Symmetrize::never;
  constexpr gg::Representation kLayouts[] = {gg::Representation::plain,
                                             gg::Representation::relabelled,
                                             gg::Representation::adaptive};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    graph::gen::RmatParams rp;
    rp.scale = 12;
    rp.edges_per_node = 4;
    rp.seed = seed;
    const std::vector<std::pair<std::string, graph::Csr>> graphs{
        {"er", graph::gen::erdos_renyi(1500, 2000, seed)},
        {"chain", oriented_path_digraph(2000, seed)},
        {"rmat", graph::gen::rmat(rp)}};
    for (const auto& [name, csr] : graphs) {
      const auto want = min_reaching_id(csr);
      std::uint32_t want_classes = 0;
      for (std::uint32_t v = 0; v < want.size(); ++v) want_classes += want[v] == v;
      const auto g = adaptive::Graph::from_csr(graph::Csr(csr));
      ASSERT_FALSE(g.is_symmetric()) << name;
      std::vector<std::pair<std::string, adaptive::Policy>> policies{
          {"cpu", adaptive::Policy::cpu()}};
      for (const gg::Representation layout : kLayouts) {
        const std::string suffix =
            std::string("/") + gg::representation_name(layout);
        policies.emplace_back("adaptive" + suffix,
                              adaptive::Policy::adapt().with_representation(layout));
        for (const Variant v : cc_variants()) {
          policies.emplace_back(
              gg::variant_name(v) + suffix,
              adaptive::Policy::fixed(v).with_representation(layout));
        }
      }
      simt::Device dev;
      for (const auto& [label, policy] : policies) {
        const auto got = adaptive::cc(dev, g, policy.with_symmetrize(kNever));
        ASSERT_TRUE(got.ok()) << name << " seed " << seed << " " << label;
        EXPECT_EQ(got.component, want) << name << " seed " << seed << " " << label;
        EXPECT_EQ(got.num_components, want_classes)
            << name << " seed " << seed << " " << label;
      }
    }
  }
}

// The directed-input rule leaves symmetric input alone: a relabelled CC
// still runs relabelled (other modeled cost, same labels).
TEST(ApiCc, SymmetricInputKeepsTheRelabelledLayout) {
  graph::gen::RmatParams rp;
  rp.scale = 12;
  rp.seed = 3;
  const auto g = adaptive::Graph::from_csr(graph::symmetrize(graph::gen::rmat(rp)));
  ASSERT_TRUE(g.is_symmetric());
  simt::Device dev;
  const auto plain = adaptive::cc(dev, g, adaptive::Policy::adapt());
  const auto rel = adaptive::cc(
      dev, g,
      adaptive::Policy::adapt().with_representation(gg::Representation::relabelled));
  ASSERT_TRUE(plain.ok() && rel.ok());
  EXPECT_EQ(rel.component, cpu::connected_components(g.csr()).component);
  EXPECT_EQ(rel.component, plain.component);
  EXPECT_NE(rel.metrics.total_us, plain.metrics.total_us);
}

// Label propagation alone needs one sweep per hop of diameter; with pointer
// jumping a road lattice converges in a small fraction of its BFS depth.
TEST(GpuCc, RoadLatticeConvergesInAQuarterOfItsBfsDepth) {
  const auto& gc = test_graphs()[2];
  ASSERT_STREQ(gc.name, "road");
  const std::uint32_t bfs_levels = cpu::bfs(gc.csr, 0).counts.levels + 1;
  const auto want = cpu::connected_components(gc.csr);
  for (const Variant v : cc_variants()) {
    simt::Device dev;
    const auto got = gg::run_cc(dev, gc.csr, v);
    EXPECT_EQ(got.component, want.component) << gg::variant_name(v);
    EXPECT_LE(4 * got.metrics.iterations.size(), bfs_levels)
        << gg::variant_name(v) << ": " << got.metrics.iterations.size()
        << " iterations for " << bfs_levels << " BFS levels";
  }
  simt::Device dev;
  const auto got = rt::adaptive_cc(dev, gc.csr);
  EXPECT_EQ(got.component, want.component);
  EXPECT_LE(4 * got.metrics.iterations.size(), bfs_levels)
      << "adaptive: " << got.metrics.iterations.size() << " iterations for "
      << bfs_levels << " BFS levels";
}

}  // namespace
