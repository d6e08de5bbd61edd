// Representation axis (5th adaptive dimension): the degree-relabelled CSR
// layout must be invisible in the answers — byte-identical to the plain-CSR
// engines and the serial CPU oracles across the whole conformance corpus —
// while actually changing the execution (adaptive picks it at query start
// on divergence-bound graphs), costing a one-shot query no extra upload,
// surviving mutation without reading a stale layout, keying the result
// cache so runs under different layouts never alias, staying deterministic
// for any --sim-threads value, and parsing cleanly from user-facing policy
// strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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
#include "service/result_cache.h"
#include "simt/device.h"
#include "simt/exec_pool.h"

namespace {

using testutil::conformance_corpus;

adaptive::Policy fixed_with(gg::Representation rep) {
  return adaptive::Policy::fixed(gg::parse_variant("U_T_BM"))
      .with_representation(rep);
}

adaptive::Policy rep_adaptive() {
  return adaptive::Policy::adapt().with_representation(
      gg::Representation::adaptive);
}

bool ran_relabelled_throughout(const gg::TraversalMetrics& m) {
  return !m.iterations.empty() &&
         std::all_of(m.iterations.begin(), m.iterations.end(),
                     [](const gg::IterationRecord& it) {
                       return it.variant.representation ==
                              gg::Representation::relabelled;
                     });
}

// Scattered hubs in a low-degree mesh: the shape the layout axis targets.
graph::Csr hub_graph(std::uint32_t num_nodes, std::uint32_t hub_deg,
                     std::uint64_t seed) {
  graph::gen::PowerLawParams pl;
  pl.num_nodes = num_nodes;
  pl.head_fraction = 0.97;
  pl.head_min = 1;
  pl.head_max = 2;
  pl.tail_alpha = 0.0;
  pl.tail_min = hub_deg;
  pl.tail_max = hub_deg;
  pl.seed = seed;
  return graph::gen::powerlaw_configuration(pl);
}

// ---- naming / parsing -------------------------------------------------------

TEST(Representation, VariantNamesRoundTripTheRepresentationSuffix) {
  gg::Variant v = gg::parse_variant("U_T_BM");
  v.representation = gg::Representation::relabelled;
  EXPECT_EQ(gg::variant_name(v), "U_T_BM_REL");
  v.representation = gg::Representation::adaptive;
  EXPECT_EQ(gg::variant_name(v), "U_T_BM_AREP");
  // Suffixes compose base[_direction][_representation], outermost last.
  v.representation = gg::Representation::relabelled;
  v.direction = gg::Direction::pull;
  EXPECT_EQ(gg::variant_name(v), "U_T_BM_PULL_REL");

  const auto rel = gg::try_parse_variant("U_T_BM_REL");
  ASSERT_TRUE(rel.has_value());
  EXPECT_EQ(rel->representation, gg::Representation::relabelled);
  const auto both = gg::try_parse_variant("O_B_QU_PULL_REL");
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(both->representation, gg::Representation::relabelled);
  EXPECT_EQ(both->direction, gg::Direction::pull);
  EXPECT_EQ(both->ordering, gg::Ordering::ordered);
  // The suffix is outermost: direction-after-representation is not a name.
  EXPECT_FALSE(gg::try_parse_variant("U_T_BM_REL_PULL").has_value());
  EXPECT_FALSE(gg::try_parse_variant("U_T_BM_FLAT").has_value());
  EXPECT_FALSE(gg::try_parse_variant("_REL").has_value());
}

TEST(Representation, ParsePolicyReturnsTypedErrorsInsteadOfAborting) {
  const auto rel = adaptive::parse_policy("U_T_BM_REL");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.policy.mode, adaptive::Policy::Mode::fixed_variant);
  EXPECT_EQ(rel.policy.variant.representation,
            gg::Representation::relabelled);
  EXPECT_TRUE(rel.policy.wants_rep());
  EXPECT_FALSE(adaptive::parse_policy("U_T_BM").policy.wants_rep());

  // _AREP belongs to the adaptive policy (a fixed variant names its layout
  // outright), so the fixed spelling is a typed error with guidance.
  const auto fixed_arep = adaptive::parse_policy("U_T_BM_AREP");
  EXPECT_FALSE(fixed_arep.ok());
  EXPECT_EQ(fixed_arep.status, adaptive::Status::error);
  EXPECT_EQ(fixed_arep.code, adaptive::ErrorCode::invalid_argument);
  EXPECT_FALSE(fixed_arep.error.empty());

  const auto bogus = adaptive::parse_policy("U_T_BM_RELISH");
  EXPECT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.code, adaptive::ErrorCode::invalid_argument);
}

TEST(Representation, BinnedSpellingsAreTypedErrors) {
  // There is no binned layout: the _BIN suffix and the "binned" spelling
  // are malformed input, answered with a typed error instead of an abort.
  for (const char* name : {"U_T_BM_BIN", "U_T_BM_PULL_BIN", "U_W_QU_BIN"}) {
    EXPECT_FALSE(gg::try_parse_variant(name).has_value()) << name;
    const auto parsed = adaptive::parse_policy(name);
    EXPECT_FALSE(parsed.ok()) << name;
    EXPECT_EQ(parsed.status, adaptive::Status::error) << name;
    EXPECT_EQ(parsed.code, adaptive::ErrorCode::invalid_argument) << name;
  }
  EXPECT_FALSE(gg::try_parse_representation("binned").has_value());
  EXPECT_FALSE(gg::try_parse_representation("").has_value());
  for (const gg::Representation r :
       {gg::Representation::plain, gg::Representation::relabelled,
        gg::Representation::adaptive}) {
    EXPECT_EQ(gg::try_parse_representation(gg::representation_name(r)), r);
  }
}

// ---- query-start decision --------------------------------------------------

TEST(Representation, StaticPreferenceFollowsTopologyStats) {
  rt::Thresholds t;  // defaults: rep_cv = 1.0, rep_hub = 16, min 4096 nodes
  // Regular degree distribution (CV <= rep_cv): plain, layout cannot help.
  EXPECT_EQ(rt::decide_representation(t, 100000, 10.0, 2.0, 14),
            gg::Representation::plain);
  // Small graphs stay plain no matter the skew: nothing to amortize.
  EXPECT_EQ(rt::decide_representation(t, 1000, 4.0, 40.0, 800),
            gg::Representation::plain);
  // Skewed with an extreme hub ratio (max/avg >= rep_hub): relabelled.
  EXPECT_EQ(rt::decide_representation(t, 100000, 4.0, 20.0, 512),
            gg::Representation::relabelled);
  // Skewed but hub-free (max/avg below rep_hub): plain.
  EXPECT_EQ(rt::decide_representation(t, 100000, 8.0, 24.0, 100),
            gg::Representation::plain);
}

// ---- differential correctness ----------------------------------------------

TEST(Representation, AllLayoutsMatchTheOracleAcrossTheCorpus) {
  const std::vector<std::pair<const char*, adaptive::Policy>> policies{
      {"plain", fixed_with(gg::Representation::plain)},
      {"rel", fixed_with(gg::Representation::relabelled)},
      {"adaptive", rep_adaptive()}};
  for (const auto& gc : conformance_corpus()) {
    if (gc.csr.num_nodes == 0) continue;
    adaptive::Graph g = adaptive::Graph::from_csr(graph::Csr(gc.csr));
    const bool has_edges = g.num_edges() > 0;
    adaptive::Graph weighted = adaptive::Graph::from_csr(graph::Csr(gc.csr));
    if (has_edges) weighted.set_uniform_weights(1, 31);

    const graph::NodeId src = graph::suggest_source(gc.csr);
    const auto bfs_want = cpu::bfs(gc.csr, src);
    const auto cc_want = cpu::connected_components(gc.csr);

    for (const auto& [tag, policy] : policies) {
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
    }
  }
}

// Adaptive must actually pick the relabelled layout where it pays off —
// otherwise the differential test above only ever exercises plain — and it
// picks it at query start, so a one-shot BFS runs _REL from its first
// decision on.
TEST(Representation, OneShotAdaptiveBfsRunsRelabelledFromTheFirstDecision) {
  adaptive::Graph g = adaptive::Graph::from_csr(hub_graph(16384, 256, 3));
  const graph::NodeId src = graph::suggest_source(g.csr());

  simt::Device dev;
  const auto out = adaptive::bfs(dev, g, src, rep_adaptive());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.level, cpu::bfs(g.csr(), src).level);
  ASSERT_FALSE(out.metrics.iterations.empty());
  EXPECT_TRUE(gg::variant_name(out.metrics.iterations.front().variant)
                  .ends_with("_REL"));
  EXPECT_TRUE(ran_relabelled_throughout(out.metrics))
      << "adaptive BFS did not run relabelled throughout on a hub-heavy graph";
}

// A one-shot relabelled query uploads the relabelled CSR instead of the
// plain one, never both: the same h2d bytes as the plain query.
TEST(Representation, OneShotRelabelledBfsUploadsNoPlainCsr) {
  adaptive::Graph g = adaptive::Graph::from_csr(hub_graph(16384, 256, 3));
  const graph::NodeId src = graph::suggest_source(g.csr());
  const auto h2d_bytes = [&](const adaptive::Policy& p) {
    simt::Device dev;
    const auto out = adaptive::bfs(dev, g, src, p);
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.level, cpu::bfs(g.csr(), src).level);
    return dev.stats().bytes_h2d;
  };
  EXPECT_EQ(h2d_bytes(adaptive::Policy::fixed("U_T_BM_REL")),
            h2d_bytes(adaptive::Policy::fixed("U_T_BM")));
}

// ---- serving / mutation -----------------------------------------------------

TEST(Representation, SessionServesAllLayoutsOnResidentGraphs) {
  adaptive::Graph g = adaptive::Graph::from_csr(hub_graph(4096, 128, 7));
  g.set_uniform_weights(1, 31);
  const graph::NodeId src = graph::suggest_source(g.csr());

  adaptive::Session session;
  session.register_graph(g);
  const auto plain = session.bfs(g, src, fixed_with(gg::Representation::plain));
  const auto rel =
      session.bfs(g, src, fixed_with(gg::Representation::relabelled));
  const auto adap = session.bfs(g, src, rep_adaptive());
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE(adap.ok());
  EXPECT_EQ(rel.level, plain.level);
  EXPECT_EQ(adap.level, plain.level);
  EXPECT_EQ(plain.level, cpu::bfs(g.csr(), src).level);

  const auto sp =
      session.sssp(g, src, fixed_with(gg::Representation::relabelled));
  ASSERT_TRUE(sp.ok());
  EXPECT_EQ(sp.dist, cpu::dijkstra(g.csr(), src).dist);
  const auto cc = session.cc(g, fixed_with(gg::Representation::relabelled));
  ASSERT_TRUE(cc.ok());
  EXPECT_EQ(cc.component, cpu::connected_components(g.csr()).component);
  session.unregister_graph(g);
}

// Mutate-then-query under a non-plain layout: the patch path must invalidate
// the nested alternate-layout residents, or the re-query would traverse a
// stale physical CSR and return answers for the pre-mutation graph.
TEST(Representation, MutationNeverLeavesAStaleAlternateLayoutResident) {
  adaptive::Graph g = adaptive::Graph::from_csr(hub_graph(4096, 128, 11));
  adaptive::Session session;
  session.register_graph(g);
  const adaptive::Policy rel = fixed_with(gg::Representation::relabelled);
  const graph::NodeId src = graph::suggest_source(g.csr());

  // Pin the relabelled layout device-resident.
  ASSERT_TRUE(session.bfs(g, src, rel).ok());

  // Rewire a hub: the relabelled copy on the device is now stale.
  graph::EdgeDelta d;
  const graph::NodeId hub = [&] {
    graph::NodeId best = 0;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.csr().degree(v) > g.csr().degree(best)) best = v;
    }
    return best;
  }();
  d.deletes.push_back({hub, g.csr().neighbors(hub)[0]});
  for (graph::NodeId v = 0; v < 40; ++v) {
    d.inserts.push_back({hub, (hub + 7 * v + 1) % g.num_nodes()});
  }
  session.mutate_graph(g, d);

  const auto want = cpu::bfs(g.csr(), src);
  EXPECT_EQ(session.bfs(g, src, rel).level, want.level);
  EXPECT_EQ(session.bfs(g, src, rep_adaptive()).level, want.level);
  session.unregister_graph(g);
}

// ---- result cache -----------------------------------------------------------

TEST(Representation, PolicySignatureSeparatesLayouts) {
  // Plain, relabelled and adaptive answers agree bit-for-bit but traverse
  // different physical CSRs at different modeled costs: they must never
  // alias in the cache.
  const adaptive::Policy fixed =
      adaptive::Policy::fixed(gg::parse_variant("U_T_BM"));
  const auto sig = [](const adaptive::Policy& p) {
    return svc::policy_signature(p);
  };
  EXPECT_NE(sig(fixed), sig(fixed_with(gg::Representation::relabelled)));
  EXPECT_NE(sig(fixed), sig(fixed_with(gg::Representation::adaptive)));
  EXPECT_NE(sig(fixed_with(gg::Representation::relabelled)),
            sig(fixed_with(gg::Representation::adaptive)));

  const adaptive::Policy adapt = adaptive::Policy::adapt();
  EXPECT_NE(sig(adapt), sig(rep_adaptive()));
  EXPECT_NE(sig(adapt.with_representation(gg::Representation::relabelled)),
            sig(rep_adaptive()));

  // The layout knobs shape the adaptive trajectory, so they key the entry.
  adaptive::Policy tuned = rep_adaptive();
  tuned.options.thresholds.rep_cv = 2.5;
  EXPECT_NE(sig(rep_adaptive()), sig(tuned));
  tuned = rep_adaptive();
  tuned.options.thresholds.rep_hub = 64.0;
  EXPECT_NE(sig(rep_adaptive()), sig(tuned));
  tuned = rep_adaptive();
  tuned.options.thresholds.rep_min_nodes = 128;
  EXPECT_NE(sig(rep_adaptive()), sig(tuned));
}

// ---- determinism ------------------------------------------------------------

struct RepCapture {
  std::vector<std::uint32_t> level;
  std::vector<std::string> variants;  // per-iteration, encodes the layout
  double total_us = 0;
};

RepCapture run_rep_bfs_with_threads(int threads) {
  simt::ExecPool::set_threads(threads);
  adaptive::Graph g = adaptive::Graph::from_csr(hub_graph(16384, 256, 5));
  simt::Device dev;
  const auto out = adaptive::bfs(dev, g, graph::suggest_source(g.csr()),
                                 rep_adaptive());
  RepCapture cap;
  cap.level = out.level;
  for (const auto& it : out.metrics.iterations) {
    cap.variants.push_back(gg::variant_name(it.variant));
  }
  cap.total_us = out.metrics.total_us;
  simt::ExecPool::set_threads(1);
  return cap;
}

TEST(Representation, LayoutDecisionsAreSimThreadInvariant) {
  const RepCapture serial = run_rep_bfs_with_threads(1);
  const RepCapture four = run_rep_bfs_with_threads(4);
  const RepCapture pool = run_rep_bfs_with_threads(0);  // hw concurrency
  EXPECT_EQ(serial.level, four.level);
  EXPECT_EQ(serial.level, pool.level);
  EXPECT_EQ(serial.variants, four.variants);  // same decisions
  EXPECT_EQ(serial.variants, pool.variants);
  EXPECT_EQ(serial.total_us, four.total_us);  // bit-identical modeled time
  EXPECT_EQ(serial.total_us, pool.total_us);
  EXPECT_TRUE(std::any_of(serial.variants.begin(), serial.variants.end(),
                          [](const std::string& v) {
                            return v.find("_REL") != std::string::npos;
                          }));
}

}  // namespace
