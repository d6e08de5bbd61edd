#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <tuple>

#include "common/prng.h"
#include "conformance_corpus.h"
#include "cpu/bfs_serial.h"
#include "cpu/sssp_serial.h"
#include "graph/gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/transform.h"

namespace {

TEST(IsSymmetric, DetectsBothCases) {
  const auto directed =
      graph::csr_from_edges(3, std::vector<graph::Edge>{{0, 1}, {1, 2}});
  EXPECT_FALSE(graph::is_symmetric(directed));
  EXPECT_TRUE(graph::is_symmetric(graph::symmetrize(directed)));
}

TEST(IsSymmetric, SelfLoopsAreTheirOwnReverse) {
  const auto g = graph::csr_from_edges(2, std::vector<graph::Edge>{{0, 0}});
  EXPECT_TRUE(graph::is_symmetric(g));
}

TEST(IsSymmetric, CountsMultiplicity) {
  // Two arcs one way, one arc back: not symmetric.
  const auto g = graph::csr_from_edges(
      2, std::vector<graph::Edge>{{0, 1}, {0, 1}, {1, 0}});
  EXPECT_FALSE(graph::is_symmetric(g));
}

TEST(IsSymmetric, GeneratorsProduceWhatTheyClaim) {
  EXPECT_TRUE(graph::is_symmetric(graph::gen::road_network(2000, 4)));
  EXPECT_TRUE(graph::is_symmetric(graph::gen::watts_strogatz(1000, 4, 0.1, 5)));
  EXPECT_FALSE(graph::is_symmetric(graph::gen::regular_copurchase(1000, 5)));
}

// is_symmetric is deliberately structural (weights not consulted);
// is_weight_symmetric is the strong form a weighted CSR must pass before it
// may alias its own CSC (the PR 6 follow-up).
TEST(IsWeightSymmetric, StructuralSymmetryIsNotEnough) {
  // 0<->1 both ways, but with different weights: structurally symmetric,
  // weight-asymmetric.
  const auto g = graph::csr_from_edges(
      2, std::vector<graph::Edge>{{0, 1}, {1, 0}},
      std::vector<std::uint32_t>{3, 7});
  EXPECT_TRUE(graph::is_symmetric(g));
  EXPECT_FALSE(graph::is_weight_symmetric(g));

  const auto ok = graph::csr_from_edges(
      2, std::vector<graph::Edge>{{0, 1}, {1, 0}},
      std::vector<std::uint32_t>{3, 3});
  EXPECT_TRUE(graph::is_weight_symmetric(ok));
}

TEST(IsWeightSymmetric, CountsWeightedMultiplicity) {
  // (0,1,w=3) twice but only one (1,0,w=3) back: not weight-symmetric even
  // though every arc has some reverse.
  const auto g = graph::csr_from_edges(
      2, std::vector<graph::Edge>{{0, 1}, {0, 1}, {1, 0}, {1, 0}},
      std::vector<std::uint32_t>{3, 3, 3, 5});
  EXPECT_FALSE(graph::is_weight_symmetric(g));
  // Matching multiset of weights per direction: symmetric.
  const auto ok = graph::csr_from_edges(
      2, std::vector<graph::Edge>{{0, 1}, {0, 1}, {1, 0}, {1, 0}},
      std::vector<std::uint32_t>{3, 5, 5, 3});
  EXPECT_TRUE(graph::is_weight_symmetric(ok));
}

TEST(IsWeightSymmetric, UnweightedFallsBackToStructural) {
  const auto sym = graph::symmetrize(
      graph::csr_from_edges(3, std::vector<graph::Edge>{{0, 1}, {1, 2}}));
  EXPECT_TRUE(graph::is_weight_symmetric(sym));
  const auto dir =
      graph::csr_from_edges(3, std::vector<graph::Edge>{{0, 1}, {1, 2}});
  EXPECT_FALSE(graph::is_weight_symmetric(dir));
  // Self loops are their own reverse in both forms.
  const auto loop = graph::csr_from_edges(
      1, std::vector<graph::Edge>{{0, 0}}, std::vector<std::uint32_t>{9});
  EXPECT_TRUE(graph::is_weight_symmetric(loop));
}

// Reference predicates: the earlier map-based balance count, kept verbatim
// so the linear-time checks are compared against an independent form.
bool ref_is_symmetric(const graph::Csr& g) {
  std::map<std::pair<graph::NodeId, graph::NodeId>, std::int64_t> balance;
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    for (const graph::NodeId t : g.neighbors(v)) {
      if (v == t) continue;  // self loops are their own reverse
      const auto key = std::minmax(v, t);
      balance[{key.first, key.second}] += v < t ? 1 : -1;
    }
  }
  for (const auto& [key, count] : balance) {
    if (count != 0) return false;
  }
  return true;
}

bool ref_is_weight_symmetric(const graph::Csr& g) {
  if (!g.has_weights()) return ref_is_symmetric(g);
  std::map<std::tuple<graph::NodeId, graph::NodeId, std::uint32_t>,
           std::int64_t>
      balance;
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::NodeId t = nbrs[i];
      if (v == t) continue;
      const std::uint32_t w = g.weights[g.row_offsets[v] + i];
      const auto key = std::minmax(v, t);
      balance[{key.first, key.second, w}] += v < t ? 1 : -1;
    }
  }
  for (const auto& [key, count] : balance) {
    if (count != 0) return false;
  }
  return true;
}

void expect_matches_reference(const graph::Csr& g, const std::string& name) {
  EXPECT_EQ(graph::is_symmetric(g), ref_is_symmetric(g)) << name;
  EXPECT_EQ(graph::is_weight_symmetric(g), ref_is_weight_symmetric(g)) << name;
}

TEST(SymmetryChecks, MatchTheMapReferenceOnTheCorpus) {
  for (const auto& gc : testutil::conformance_corpus()) {
    expect_matches_reference(gc.csr, gc.name);
    graph::Csr sym_w(gc.csr);
    graph::assign_symmetric_uniform_weights(sym_w, 1, 4, 11);
    expect_matches_reference(sym_w, gc.name + " symmetric weights");
    graph::Csr any_w(gc.csr);
    graph::assign_uniform_weights(any_w, 1, 4, 12);
    expect_matches_reference(any_w, gc.name + " uniform weights");
  }
}

// Random multigraphs built symmetric (weights from a tiny range, so equal
// weights collide), then broken in one of the ways the predicates must see:
// a duplicate arc, a one-sided arc, a dropped arc or one mismatched weight.
TEST(SymmetryChecks, MatchTheMapReferenceOnRandomMultigraphs) {
  agg::Prng rng(2013);
  int symmetric = 0;
  int weight_symmetric = 0;
  constexpr int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto n = static_cast<std::uint32_t>(rng.uniform_int(1, 12));
    auto node = [&] { return static_cast<graph::NodeId>(rng.bounded(n)); };
    std::vector<graph::Edge> edges;
    std::vector<std::uint32_t> weights;
    const auto pairs = rng.uniform_int(0, 3 * n);
    for (std::int64_t i = 0; i < pairs; ++i) {
      const graph::NodeId u = node();
      const graph::NodeId v = rng.bounded(4) == 0 ? u : node();
      const auto w = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
      edges.push_back({u, v});
      edges.push_back({v, u});
      weights.insert(weights.end(), {w, w});
    }
    const auto mutation = rng.bounded(5);  // 0 = leave symmetric
    if (mutation == 1 && !edges.empty()) {  // duplicate one arc
      const auto i = rng.bounded(edges.size());
      edges.push_back(edges[i]);
      weights.push_back(weights[i]);
    } else if (mutation == 2) {  // add a one-sided arc
      edges.push_back({node(), node()});
      weights.push_back(static_cast<std::uint32_t>(rng.uniform_int(1, 3)));
    } else if (mutation == 3 && !edges.empty()) {  // drop one arc
      const auto i = rng.bounded(edges.size());
      edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(i));
      weights.erase(weights.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (mutation == 4 && !edges.empty()) {  // mismatch one weight
      weights[rng.bounded(weights.size())] += 1;
    }
    // Arc order within a row must not matter.
    for (std::size_t i = edges.size(); i > 1; --i) {
      const auto j = rng.bounded(i);
      std::swap(edges[i - 1], edges[j]);
      std::swap(weights[i - 1], weights[j]);
    }
    const std::string name = "trial " + std::to_string(trial);
    const graph::Csr unweighted = graph::csr_from_edges(n, edges);
    const graph::Csr weighted = graph::csr_from_edges(n, edges, weights);
    expect_matches_reference(unweighted, name);
    expect_matches_reference(weighted, name + " weighted");
    symmetric += graph::is_symmetric(weighted);
    weight_symmetric += graph::is_weight_symmetric(weighted);
  }
  // Both answers occur often, so neither predicate passes by always
  // returning the same value.
  EXPECT_GT(symmetric, kTrials / 4);
  EXPECT_LT(symmetric, kTrials * 3 / 4 + kTrials / 8);
  EXPECT_GT(weight_symmetric, kTrials / 5);
  EXPECT_LT(weight_symmetric, symmetric);
}

TEST(RelabelByDegree, SortsDegreesDescending) {
  const auto g = graph::gen::erdos_renyi(500, 3000, 9);
  const auto r = graph::relabel_by_degree(g);
  for (std::uint32_t v = 0; v + 1 < r.csr.num_nodes; ++v) {
    EXPECT_GE(r.csr.degree(v), r.csr.degree(v + 1));
  }
}

TEST(RelabelByDegree, MappingsAreInverse) {
  const auto g = graph::gen::erdos_renyi(300, 1200, 2);
  const auto r = graph::relabel_by_degree(g);
  for (std::uint32_t old = 0; old < g.num_nodes; ++old) {
    EXPECT_EQ(r.old_id[r.new_id[old]], old);
  }
}

TEST(Relabel, PreservesBfsStructure) {
  const auto g = graph::gen::erdos_renyi(800, 4000, 7);
  const auto r = graph::relabel_by_degree(g);
  const auto orig = cpu::bfs(g, 5);
  const auto relab = cpu::bfs(r.csr, r.new_id[5]);
  for (std::uint32_t old = 0; old < g.num_nodes; ++old) {
    EXPECT_EQ(orig.level[old], relab.level[r.new_id[old]]) << old;
  }
}

TEST(Relabel, PreservesWeightsAlongEdges) {
  auto g = graph::gen::erdos_renyi(400, 2000, 11);
  graph::assign_uniform_weights(g, 1, 99, 3);
  const auto r = graph::relabel_by_degree(g);
  const auto orig = cpu::dijkstra(g, 0);
  const auto relab = cpu::dijkstra(r.csr, r.new_id[0]);
  for (std::uint32_t old = 0; old < g.num_nodes; ++old) {
    EXPECT_EQ(orig.dist[old], relab.dist[r.new_id[old]]);
  }
}

TEST(Relabel, IdentityPermutationIsNoOp) {
  const auto g = graph::gen::erdos_renyi(100, 400, 1);
  std::vector<graph::NodeId> identity(g.num_nodes);
  std::iota(identity.begin(), identity.end(), 0u);
  const auto r = graph::relabel(g, identity);
  EXPECT_EQ(r.csr.row_offsets, g.row_offsets);
  EXPECT_EQ(r.csr.col_indices, g.col_indices);
}

TEST(InducedSubgraph, KeepsOnlyInternalEdges) {
  // 0-1-2-3 chain; take {1, 2}.
  const auto g = graph::csr_from_edges(
      4, std::vector<graph::Edge>{{0, 1}, {1, 2}, {2, 3}});
  const std::vector<graph::NodeId> sel{1, 2};
  const auto r = graph::induced_subgraph(g, sel);
  EXPECT_EQ(r.csr.num_nodes, 2u);
  EXPECT_EQ(r.csr.num_edges(), 1u);  // only 1->2 survives
  EXPECT_EQ(r.csr.neighbors(0)[0], 1u);
  EXPECT_EQ(r.old_id[0], 1u);
  EXPECT_EQ(r.old_id[1], 2u);
}

TEST(InducedSubgraph, RejectsDuplicates) {
  const auto g = graph::csr_from_edges(3, std::vector<graph::Edge>{{0, 1}});
  const std::vector<graph::NodeId> sel{1, 1};
  EXPECT_DEATH(graph::induced_subgraph(g, sel), "duplicate");
}

TEST(DedupEdges, KeepsMinWeight) {
  const std::vector<graph::Edge> e{{0, 1}, {0, 1}, {0, 2}};
  const std::vector<std::uint32_t> w{9, 4, 7};
  const auto g = graph::csr_from_edges(3, e, w);
  const auto d = graph::dedup_edges(g);
  EXPECT_EQ(d.num_edges(), 2u);
  EXPECT_EQ(d.edge_weights(0)[0], 4u);  // neighbors sorted by id: 1 then 2
  EXPECT_EQ(d.edge_weights(0)[1], 7u);
}

TEST(DedupEdges, ShortestPathsUnchanged) {
  auto g = graph::gen::erdos_renyi(500, 5000, 13);  // dense: duplicates likely
  graph::assign_uniform_weights(g, 1, 50, 2);
  const auto d = graph::dedup_edges(g);
  EXPECT_LE(d.num_edges(), g.num_edges());
  EXPECT_EQ(cpu::dijkstra(g, 0).dist, cpu::dijkstra(d, 0).dist);
}

TEST(WattsStrogatz, ZeroRewireIsRingLattice) {
  const auto g = graph::gen::watts_strogatz(100, 4, 0.0, 1);
  const auto s = graph::GraphStats::compute(g);
  EXPECT_EQ(s.outdeg_min, 4u);
  EXPECT_EQ(s.outdeg_max, 4u);
  const auto reach = graph::compute_reach(g, 0);
  EXPECT_EQ(reach.reachable_nodes, 100u);
  EXPECT_EQ(reach.levels, 25u);  // n / k hops around the ring
}

TEST(WattsStrogatz, RewiringShrinksDiameter) {
  const auto lattice = graph::gen::watts_strogatz(2000, 4, 0.0, 1);
  const auto small_world = graph::gen::watts_strogatz(2000, 4, 0.2, 1);
  EXPECT_GT(graph::compute_reach(lattice, 0).levels,
            2 * graph::compute_reach(small_world, 0).levels);
}

}  // namespace
