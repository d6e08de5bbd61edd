// Direction-optimizing traversal (4th adaptive dimension): pull (gather)
// kernels and the Beamer push<->pull controller must be invisible in the
// answers — byte-identical to the push kernels and the serial CPU oracles
// across the whole conformance corpus — while actually changing the
// execution (the controller must reach pull iterations on frontier-heavy
// graphs), staying deterministic for any --sim-threads value, and parsing
// cleanly from user-facing policy strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "api/algorithms.h"
#include "api/session.h"
#include "conformance_corpus.h"
#include "cpu/bfs_serial.h"
#include "cpu/cc_serial.h"
#include "cpu/sssp_serial.h"
#include "gpu_graph/variant.h"
#include "graph/gen/generators.h"
#include "graph/transform.h"
#include "runtime/decision.h"
#include "simt/device.h"
#include "simt/exec_pool.h"

namespace {

using testutil::conformance_corpus;

adaptive::Policy pull_fixed() {
  return adaptive::Policy::fixed(gg::parse_variant("U_T_BM"))
      .with_direction(gg::Direction::pull);
}

adaptive::Policy push_fixed() {
  return adaptive::Policy::fixed(gg::parse_variant("U_T_BM"));
}

adaptive::Policy direction_optimizing() {
  return adaptive::Policy::adapt().with_direction(gg::Direction::adaptive);
}

bool ran_pull_iteration(const gg::TraversalMetrics& m) {
  return std::any_of(m.iterations.begin(), m.iterations.end(),
                     [](const gg::IterationRecord& it) {
                       return it.variant.direction == gg::Direction::pull;
                     });
}

// ---- naming / parsing -------------------------------------------------------

TEST(Direction, VariantNamesRoundTripTheDirectionSuffix) {
  gg::Variant v = gg::parse_variant("U_T_BM");
  EXPECT_EQ(gg::variant_name(v), "U_T_BM");
  v.direction = gg::Direction::pull;
  EXPECT_EQ(gg::variant_name(v), "U_T_BM_PULL");
  v.direction = gg::Direction::adaptive;
  EXPECT_EQ(gg::variant_name(v), "U_T_BM_DO");

  const auto pull = gg::try_parse_variant("O_B_QU_PULL");
  ASSERT_TRUE(pull.has_value());
  EXPECT_EQ(pull->direction, gg::Direction::pull);
  EXPECT_EQ(pull->ordering, gg::Ordering::ordered);
  const auto push = gg::try_parse_variant("U_W_QU_PUSH");
  ASSERT_TRUE(push.has_value());
  EXPECT_EQ(push->direction, gg::Direction::push);
  EXPECT_EQ(*push, gg::parse_variant("U_W_QU"));
  EXPECT_FALSE(gg::try_parse_variant("U_T_BM_SIDEWAYS").has_value());
  EXPECT_FALSE(gg::try_parse_variant("UTBM_PULL").has_value());
  EXPECT_FALSE(gg::try_parse_variant("").has_value());
}

TEST(Direction, ParsePolicyReturnsTypedErrorsInsteadOfAborting) {
  EXPECT_TRUE(adaptive::parse_policy("adaptive").ok());
  EXPECT_TRUE(adaptive::parse_policy("cpu").ok());

  const auto pull = adaptive::parse_policy("U_T_BM_PULL");
  ASSERT_TRUE(pull.ok());
  EXPECT_EQ(pull.policy.mode, adaptive::Policy::Mode::fixed_variant);
  EXPECT_EQ(pull.policy.variant.direction, gg::Direction::pull);
  EXPECT_TRUE(pull.policy.wants_pull());
  EXPECT_FALSE(adaptive::parse_policy("U_T_BM").policy.wants_pull());

  const auto bad = adaptive::parse_policy("bogus");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status, adaptive::Status::error);
  EXPECT_EQ(bad.code, adaptive::ErrorCode::invalid_argument);
  EXPECT_FALSE(bad.error.empty());

  // _DO names a trajectory, not a kernel: only the adaptive policy can
  // honor it, so the fixed spelling is a typed error with guidance.
  const auto fixed_do = adaptive::parse_policy("U_T_BM_DO");
  EXPECT_FALSE(fixed_do.ok());
  EXPECT_EQ(fixed_do.code, adaptive::ErrorCode::invalid_argument);
}

TEST(Direction, ControllerFlipsOnFrontierGrowthAndBack) {
  rt::Thresholds t;  // defaults: alpha = 0.5, beta = 0.05
  // Small frontier against a mostly-unexplored gather volume: stay push.
  EXPECT_EQ(rt::decide_direction(t, gg::Direction::push, 100, 10000, 1000),
            gg::Direction::push);
  // Frontier edge mass covers over half the gather volume: flip to pull.
  EXPECT_EQ(rt::decide_direction(t, gg::Direction::push, 6000, 5000, 1000),
            gg::Direction::pull);
  // Hysteresis band: 400 would not trigger entry (alpha needs > 3500) but it
  // is still above the exit band (beta needs < 350) — stay pull.
  EXPECT_EQ(rt::decide_direction(t, gg::Direction::push, 400, 6000, 1000),
            gg::Direction::push);
  EXPECT_EQ(rt::decide_direction(t, gg::Direction::pull, 400, 6000, 1000),
            gg::Direction::pull);
  // Frontier drained below beta * (unexplored + n): flip back to push.
  EXPECT_EQ(rt::decide_direction(t, gg::Direction::pull, 100, 6000, 1000),
            gg::Direction::push);
}

// ---- differential correctness ----------------------------------------------

TEST(Direction, PullAndDirectionOptimizingMatchTheOracleAcrossTheCorpus) {
  const std::vector<adaptive::Policy> policies{pull_fixed(),
                                               direction_optimizing()};
  for (const auto& gc : conformance_corpus()) {
    if (gc.csr.num_nodes == 0) continue;
    adaptive::Graph g = adaptive::Graph::from_csr(graph::Csr(gc.csr));
    const bool has_edges = g.num_edges() > 0;
    adaptive::Graph weighted = adaptive::Graph::from_csr(graph::Csr(gc.csr));
    if (has_edges) weighted.set_uniform_weights(1, 31);

    const graph::NodeId src = graph::suggest_source(gc.csr);
    const auto bfs_want = cpu::bfs(gc.csr, src);
    const auto cc_want = cpu::connected_components(gc.csr);

    for (const auto& policy : policies) {
      const char* tag = policy.mode == adaptive::Policy::Mode::adaptive
                            ? "direction-optimizing"
                            : "pull";
      simt::Device dev;
      const auto got = adaptive::bfs(dev, g, src, policy);
      ASSERT_TRUE(got.ok()) << gc.name << " bfs " << tag;
      ASSERT_EQ(got.level, bfs_want.level) << gc.name << " bfs " << tag;

      if (has_edges) {
        simt::Device sdev;
        const auto sg = adaptive::sssp(sdev, weighted, src, policy);
        ASSERT_TRUE(sg.ok()) << gc.name << " sssp " << tag;
        ASSERT_EQ(sg.dist, cpu::dijkstra(weighted.csr(), src).dist)
            << gc.name << " sssp " << tag;
      }

      simt::Device cdev;
      const auto cc = adaptive::cc(cdev, g, policy);
      ASSERT_TRUE(cc.ok()) << gc.name << " cc " << tag;
      ASSERT_EQ(cc.component, cc_want.component) << gc.name << " cc " << tag;
      ASSERT_EQ(cc.num_components, cc_want.num_components) << gc.name;
      // CC runs push under every direction (CcRunsPushUnderEveryDirection).
      simt::Device pdev;
      const auto cc_push =
          adaptive::cc(pdev, g, policy.with_direction(gg::Direction::push));
      EXPECT_EQ(cc.metrics.total_us, cc_push.metrics.total_us)
          << gc.name << " cc " << tag;
    }
  }
}

// The controller must actually reach pull iterations where they pay off —
// otherwise the differential test above only ever exercises push.
TEST(Direction, ControllerReachesPullOnFrontierHeavyGraphs) {
  graph::gen::RmatParams rm;
  rm.scale = 11;
  rm.edges_per_node = 16;
  rm.seed = 3;
  adaptive::Graph g = adaptive::Graph::from_csr(graph::gen::rmat(rm));
  const graph::NodeId src = graph::suggest_source(g.csr());

  simt::Device dev;
  const auto out = adaptive::bfs(dev, g, src, direction_optimizing());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.level, cpu::bfs(g.csr(), src).level);
  EXPECT_TRUE(ran_pull_iteration(out.metrics))
      << "direction controller never left push on a dense R-MAT";
}

std::vector<std::string> iteration_variants(const gg::TraversalMetrics& m) {
  std::vector<std::string> names;
  for (const auto& it : m.iterations) names.push_back(gg::variant_name(it.variant));
  return names;
}

// CC has no gather kernel: a min-label fold cannot stop at the first
// frontier in-neighbor, so the gather lost everywhere it was measured.
// Every direction spelling is accepted and runs exactly the push schedule.
TEST(Direction, CcRunsPushUnderEveryDirection) {
  graph::gen::RmatParams rm;
  rm.scale = 11;
  rm.edges_per_node = 16;
  rm.seed = 3;
  const std::vector<std::pair<const char*, graph::Csr>> graphs{
      {"rmat11", graph::gen::rmat(rm)},
      {"road", graph::gen::road_network(2000, 4)}};
  const std::pair<adaptive::Policy, adaptive::Policy> pairs[] = {
      {direction_optimizing(), adaptive::Policy::adapt()},
      {pull_fixed(), push_fixed()}};
  for (const auto& [name, csr] : graphs) {
    adaptive::Graph g = adaptive::Graph::from_csr(graph::Csr(csr));
    const auto want = cpu::connected_components(g.symmetrized());
    for (const auto& [asked, push] : pairs) {
      simt::Device dev_push;
      simt::Device dev_asked;
      const auto p = adaptive::cc(dev_push, g, push);
      const auto a = adaptive::cc(dev_asked, g, asked);
      ASSERT_TRUE(p.ok()) << name;
      ASSERT_TRUE(a.ok()) << name;
      EXPECT_EQ(p.component, want.component) << name;
      EXPECT_EQ(a.component, want.component) << name;
      EXPECT_FALSE(ran_pull_iteration(p.metrics)) << name;
      EXPECT_FALSE(ran_pull_iteration(a.metrics)) << name;
      EXPECT_EQ(a.metrics.total_us, p.metrics.total_us) << name;
      EXPECT_EQ(a.metrics.kernels, p.metrics.kernels) << name;
      EXPECT_EQ(iteration_variants(a.metrics), iteration_variants(p.metrics))
          << name;
    }
  }
}

// SSSP has no gather kernel either: a weighted min-fold rescans every
// in-edge and its weight, and the gather was 5.9-10.4x slower than push on
// every dataset measured. Every direction spelling is accepted and runs
// exactly the push schedule.
TEST(Direction, SsspRunsPushUnderEveryDirection) {
  graph::gen::RmatParams rm;
  rm.scale = 11;
  rm.edges_per_node = 16;
  rm.seed = 3;
  const std::vector<std::pair<const char*, graph::Csr>> graphs{
      {"rmat11", graph::gen::rmat(rm)},
      {"road", graph::gen::road_network(2000, 4)}};
  const std::pair<adaptive::Policy, adaptive::Policy> pairs[] = {
      {direction_optimizing(), adaptive::Policy::adapt()},
      {pull_fixed(), push_fixed()}};
  for (const auto& [name, csr] : graphs) {
    adaptive::Graph g = adaptive::Graph::from_csr(graph::Csr(csr));
    g.set_uniform_weights(1, 31);
    const graph::NodeId src = graph::suggest_source(g.csr());
    const auto want = cpu::dijkstra(g.csr(), src).dist;
    for (const auto& [asked, push] : pairs) {
      simt::Device dev_push;
      simt::Device dev_asked;
      const auto p = adaptive::sssp(dev_push, g, src, push);
      const auto a = adaptive::sssp(dev_asked, g, src, asked);
      ASSERT_TRUE(p.ok()) << name;
      ASSERT_TRUE(a.ok()) << name;
      EXPECT_EQ(p.dist, want) << name;
      EXPECT_EQ(a.dist, want) << name;
      EXPECT_FALSE(ran_pull_iteration(a.metrics)) << name;
      EXPECT_EQ(a.metrics.total_us, p.metrics.total_us) << name;
      EXPECT_EQ(a.metrics.kernels, p.metrics.kernels) << name;
      EXPECT_EQ(iteration_variants(a.metrics), iteration_variants(p.metrics))
          << name;
    }
  }
}

// SSSP only scatters: its query hands the engine no CSC, and a cache-on
// Session keys every direction of it once.
TEST(Direction, SsspQueryCarriesNoCscAndSharesOneCacheEntry) {
  adaptive::Graph g = adaptive::Graph::from_csr(graph::csr_from_edges(
      3, std::vector<graph::Edge>{{0, 1}, {1, 2}}));
  g.set_uniform_weights(1, 9);
  const adaptive::Policy dopt = direction_optimizing();
  EXPECT_EQ(adaptive::detail::runtime_query(g, dopt, /*gathers=*/false)
                .options.engine.csc,
            nullptr);

  adaptive::Session session;
  session.register_graph(g);
  session.enable_result_cache(16 << 20);
  const auto adapt = session.sssp(g, 0, adaptive::Policy::adapt());
  const auto do_sp = session.sssp(g, 0, dopt);
  const auto pull_sp = session.sssp(
      g, 0, adaptive::Policy::adapt().with_direction(gg::Direction::pull));
  ASSERT_TRUE(adapt.ok());
  EXPECT_EQ(session.result_cache().entries(), 1u);
  EXPECT_EQ(session.result_cache().stats().hits, 2u);
  EXPECT_EQ(do_sp.dist, adapt.dist);
  EXPECT_EQ(pull_sp.dist, adapt.dist);
}

// Every direction runs the same CC, so a cache-on Session keys it once.
TEST(Direction, CcCacheEntryIsSharedAcrossDirections) {
  const adaptive::Graph g =
      adaptive::Graph::from_csr(graph::gen::road_network(1000, 5));
  adaptive::Session session;
  session.register_graph(g);
  session.enable_result_cache(16 << 20);
  const auto adapt = session.cc(g, adaptive::Policy::adapt());
  const auto dopt = session.cc(g, direction_optimizing());
  const auto push = session.cc(
      g, adaptive::Policy::adapt().with_direction(gg::Direction::push));
  ASSERT_TRUE(adapt.ok());
  EXPECT_EQ(session.result_cache().entries(), 1u);
  EXPECT_EQ(session.result_cache().stats().hits, 2u);
  EXPECT_EQ(dopt.component, adapt.component);
  EXPECT_EQ(push.component, adapt.component);

  // BFS keys still tell the directions apart.
  session.bfs(g, 0, direction_optimizing());
  session.bfs(g, 0, adaptive::Policy::adapt());
  EXPECT_EQ(session.result_cache().entries(), 3u);
}

// ---- CSC cache --------------------------------------------------------------

TEST(Direction, CscIsCachedSharedForSymmetricAndInvalidatedOnMutation) {
  // Directed: the CSC is a real transpose, built once and cached.
  adaptive::Graph g = adaptive::Graph::from_csr(graph::csr_from_edges(
      4, std::vector<graph::Edge>{{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
  const graph::Csr& csc = g.csc();
  EXPECT_EQ(&csc, &g.csc());  // cached, not rebuilt
  const graph::Csr want = graph::build_csc(g.csr());
  EXPECT_EQ(csc.row_offsets, want.row_offsets);
  EXPECT_EQ(csc.col_indices, want.col_indices);

  // Symmetric: CSR is its own transpose; no copy is made.
  adaptive::Graph sym = adaptive::Graph::from_csr(graph::csr_from_edges(
      3, std::vector<graph::Edge>{{0, 1}, {1, 0}, {1, 2}, {2, 1}}));
  EXPECT_EQ(&sym.csc(), &sym.csr());

  // Mutation (weights appearing) invalidates the cached transpose.
  g.set_uniform_weights(1, 9);
  const graph::Csr& csc2 = g.csc();
  EXPECT_TRUE(csc2.has_weights());
  EXPECT_EQ(csc2.row_offsets, want.row_offsets);
}

// CC only scatters: its query hands the engine no CSC, so a graph whose
// transpose is not its CSR never builds one for CC. BFS still gets it.
TEST(Direction, CcQueryCarriesNoCsc) {
  const adaptive::Graph g = adaptive::Graph::from_csr(graph::csr_from_edges(
      3, std::vector<graph::Edge>{{0, 1}, {1, 2}}));
  const adaptive::Policy dopt = direction_optimizing();
  for (const bool of_symmetrized : {false, true}) {
    EXPECT_EQ(adaptive::detail::cc_query(g, dopt, of_symmetrized)
                  .options.engine.csc,
              nullptr);
  }
  EXPECT_EQ(adaptive::detail::runtime_query(g, dopt).options.engine.csc,
            &g.csc());
}

TEST(Direction, SessionServesPullPoliciesOnResidentGraphs) {
  graph::gen::PowerLawParams pl;
  pl.num_nodes = 400;
  pl.tail_max = 60;
  pl.seed = 7;
  adaptive::Graph g = adaptive::Graph::from_csr(
      graph::gen::powerlaw_configuration(pl));
  g.set_uniform_weights(1, 31);
  const graph::NodeId src = graph::suggest_source(g.csr());

  adaptive::Session session;
  session.register_graph(g);
  const auto push = session.bfs(g, src, push_fixed());
  const auto pull = session.bfs(g, src, pull_fixed());
  const auto dopt = session.bfs(g, src, direction_optimizing());
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE(pull.ok());
  ASSERT_TRUE(dopt.ok());
  EXPECT_EQ(pull.level, push.level);
  EXPECT_EQ(dopt.level, push.level);
  EXPECT_EQ(push.level, cpu::bfs(g.csr(), src).level);

  const auto sp = session.sssp(g, src, pull_fixed());
  ASSERT_TRUE(sp.ok());
  EXPECT_EQ(sp.dist, cpu::dijkstra(g.csr(), src).dist);
  session.unregister_graph(g);
}

// ---- determinism ------------------------------------------------------------

struct DoCapture {
  std::vector<std::uint32_t> level;
  std::vector<std::string> variants;  // per-iteration, encodes the direction
  double total_us = 0;
};

DoCapture run_do_bfs_with_threads(int threads) {
  simt::ExecPool::set_threads(threads);
  graph::gen::RmatParams rm;
  rm.scale = 10;
  rm.edges_per_node = 12;
  rm.seed = 5;
  adaptive::Graph g = adaptive::Graph::from_csr(graph::gen::rmat(rm));
  simt::Device dev;
  const auto out =
      adaptive::bfs(dev, g, graph::suggest_source(g.csr()),
                    direction_optimizing());
  DoCapture cap;
  cap.level = out.level;
  cap.variants = iteration_variants(out.metrics);
  cap.total_us = out.metrics.total_us;
  simt::ExecPool::set_threads(1);
  return cap;
}

TEST(Direction, ControllerDecisionsAreSimThreadInvariant) {
  const DoCapture serial = run_do_bfs_with_threads(1);
  const DoCapture four = run_do_bfs_with_threads(4);
  const DoCapture pool = run_do_bfs_with_threads(0);  // hardware concurrency
  EXPECT_EQ(serial.level, four.level);
  EXPECT_EQ(serial.level, pool.level);
  EXPECT_EQ(serial.variants, four.variants);  // same flip points
  EXPECT_EQ(serial.variants, pool.variants);
  EXPECT_EQ(serial.total_us, four.total_us);  // bit-identical modeled time
  EXPECT_EQ(serial.total_us, pool.total_us);
  EXPECT_TRUE(std::any_of(
      serial.variants.begin(), serial.variants.end(),
      [](const std::string& v) { return v.find("_PULL") != std::string::npos; }));
}

}  // namespace
