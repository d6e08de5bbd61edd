// adaptive::Session: resident graphs, version-based invalidation, the
// default-session convenience overloads, and the Result<>/Symmetrize API.
#include <gtest/gtest.h>

#include "api/algorithms.h"
#include "api/session.h"
#include "cpu/bfs_serial.h"
#include "cpu/cc_serial.h"
#include "cpu/sssp_serial.h"
#include "graph/gen/generators.h"
#include "graph/transform.h"

namespace {

adaptive::Graph make_graph(std::uint32_t n = 1500, std::uint32_t m = 4500,
                           std::uint64_t seed = 3) {
  return adaptive::Graph::from_csr(graph::gen::erdos_renyi(n, m, seed));
}

TEST(Session, ResidentQueriesMatchReference) {
  adaptive::Session session;
  const auto g = make_graph();
  session.register_graph(g);
  EXPECT_TRUE(session.is_registered(g));
  const auto out = session.bfs(g, 5);
  EXPECT_EQ(out.level, cpu::bfs(g.csr(), 5).level);
  EXPECT_TRUE(out.ok());
}

// Bad sources and unweighted SSSP are typed invalid_argument errors on the
// resident path, the unregistered path and the CPU policy alike, and the
// session keeps answering afterwards.
TEST(Session, BadSourcesAndUnweightedSsspAreTypedErrors) {
  adaptive::Session session;
  const auto g = make_graph(200, 600);
  const auto unregistered = make_graph(200, 600);
  session.register_graph(g);
  const adaptive::NodeId bad = g.num_nodes();
  for (const adaptive::Graph* graph : {&g, &unregistered}) {
    for (const auto& policy :
         {adaptive::Policy::adapt(), adaptive::Policy::cpu()}) {
      const auto b = session.bfs(*graph, bad, policy);
      EXPECT_EQ(b.code, adaptive::ErrorCode::invalid_argument) << b.error;
      const auto s = session.sssp(*graph, 0, policy);
      EXPECT_EQ(s.code, adaptive::ErrorCode::invalid_argument) << s.error;
      EXPECT_FALSE(b.ok());
      EXPECT_FALSE(s.ok());
    }
  }
  auto weighted = make_graph(200, 600);
  weighted.set_uniform_weights(1, 9);
  session.register_graph(weighted);
  const auto s = session.sssp(weighted, bad);
  EXPECT_EQ(s.code, adaptive::ErrorCode::invalid_argument) << s.error;
  EXPECT_EQ(session.sssp(weighted, 0).dist,
            cpu::dijkstra(weighted.csr(), 0).dist);
  EXPECT_EQ(session.bfs(g, 0).level, cpu::bfs(g.csr(), 0).level);
}

// MST on an unweighted graph is a typed invalid_argument too, registered or
// not, and is not mistaken for a dead device.
TEST(Session, UnweightedMstIsTypedError) {
  adaptive::Session session;
  const auto g = make_graph(200, 600);
  const auto unregistered = make_graph(200, 600);
  session.register_graph(g);
  for (const adaptive::Graph* graph : {&g, &unregistered}) {
    for (const auto& policy :
         {adaptive::Policy::adapt(), adaptive::Policy::cpu()}) {
      const auto m = session.mst(*graph, policy);
      EXPECT_FALSE(m.ok());
      EXPECT_EQ(m.code, adaptive::ErrorCode::invalid_argument) << m.error;
      EXPECT_FALSE(m.degraded);
    }
  }
  auto weighted = make_graph(200, 600);
  weighted.set_uniform_weights(1, 9);
  EXPECT_TRUE(session.mst(weighted).ok());
}

TEST(Session, RegisteredGraphSkipsPerQueryUpload) {
  adaptive::Session resident;
  adaptive::Session fresh;
  const auto g = make_graph();
  resident.register_graph(g);

  const auto warm = resident.bfs(g, 0);
  const auto cold = fresh.bfs(g, 0);  // unregistered: upload per query
  EXPECT_EQ(warm.level, cold.level);
  // The cold path pays the CSR H2D transfer inside the query.
  EXPECT_GT(cold.metrics.transfer_us, warm.metrics.transfer_us);
  EXPECT_GT(cold.metrics.total_us, warm.metrics.total_us);
}

TEST(Session, UnregisterReleasesAndFallsBack) {
  adaptive::Session session;
  const auto g = make_graph();
  session.register_graph(g);
  ASSERT_EQ(session.num_registered(), 1u);
  session.unregister_graph(g);
  EXPECT_EQ(session.num_registered(), 0u);
  EXPECT_FALSE(session.is_registered(g));
  // Still answers (non-resident path).
  EXPECT_EQ(session.bfs(g, 2).level, cpu::bfs(g.csr(), 2).level);
}

TEST(Session, MutationInvalidatesResidentCopy) {
  adaptive::Session session;
  auto g = make_graph();
  session.register_graph(g);
  const auto v0 = g.version();
  g.set_uniform_weights(1, 64);  // bumps the version
  EXPECT_NE(g.version(), v0);
  // The stale pin is refreshed (re-upload with weights), not reused: sssp
  // sees the new weights.
  const auto out = session.sssp(g, 7);
  EXPECT_EQ(out.dist, cpu::dijkstra(g.csr(), 7).dist);
}

TEST(Session, CcOnDirectedGraphUsesSymmetrizedClosure) {
  adaptive::Session session;
  const auto g = adaptive::Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  session.register_graph(g);
  const auto out = session.cc(g);
  EXPECT_EQ(out.num_components, 2u);
  // Policy-level opt-out still works through the session.
  const auto directed = session.cc(
      g, adaptive::Policy::adapt().with_symmetrize(adaptive::Symmetrize::never));
  EXPECT_TRUE(directed.ok());
}

TEST(Session, EvictReleasesAndReuploadsOnNextQuery) {
  adaptive::Session session;
  const auto g = make_graph();
  session.register_graph(g);
  ASSERT_TRUE(session.is_resident(g));
  const std::uint64_t held = session.device().mem_in_use();

  session.evict(g);
  EXPECT_FALSE(session.is_resident(g));
  EXPECT_TRUE(session.is_registered(g));  // registration survives
  EXPECT_LT(session.device().mem_in_use(), held);

  // The next query transparently re-uploads and pins again.
  const auto out = session.bfs(g, 5);
  EXPECT_EQ(out.level, cpu::bfs(g.csr(), 5).level);
  EXPECT_TRUE(session.is_resident(g));
}

TEST(Session, EvictAllFreesEveryResidentGraph) {
  adaptive::Session session;
  const auto a = make_graph();
  const auto b = make_graph(800, 2400, 17);
  session.register_graph(a);
  session.register_graph(b);
  session.evict_all();
  EXPECT_FALSE(session.is_resident(a));
  EXPECT_FALSE(session.is_resident(b));
  EXPECT_EQ(session.num_registered(), 2u);
  // Both still answer correctly after re-upload.
  EXPECT_EQ(session.bfs(a, 1).level, cpu::bfs(a.csr(), 1).level);
  EXPECT_EQ(session.bfs(b, 1).level, cpu::bfs(b.csr(), 1).level);
}

TEST(Session, ResultCacheServesRepeatsAndInvalidatesOnMutation) {
  adaptive::Session session;
  auto g = make_graph();
  session.register_graph(g);
  session.enable_result_cache(16 << 20);

  const auto first = session.bfs(g, 5);
  ASSERT_EQ(session.result_cache().entries(), 1u);
  const auto repeat = session.bfs(g, 5);
  EXPECT_EQ(repeat.level, first.level);
  EXPECT_EQ(session.result_cache().stats().hits, 1u);

  g.set_uniform_weights(1, 64);  // version bump retires the entry
  const auto after = session.sssp(g, 5);
  EXPECT_EQ(after.dist, cpu::dijkstra(g.csr(), 5).dist);
  EXPECT_GE(session.result_cache().stats().invalidations, 1u);

  // Eviction changes residency, not answers: cached entries stay valid.
  session.evict(g);
  EXPECT_EQ(session.sssp(g, 5).dist, after.dist);
}

TEST(Session, DefaultSessionBacksConvenienceOverloads) {
  auto& session = adaptive::Session::default_session();
  ASSERT_EQ(&session, &adaptive::Session::default_session());
  const auto g = make_graph(800, 2400, 11);
  // The device-less overloads run on the default session's device; its
  // modeled clock advances monotonically across calls.
  const double t0 = session.device().now_us();
  const auto out = adaptive::bfs(g, 1);
  EXPECT_EQ(out.level, cpu::bfs(g.csr(), 1).level);
  EXPECT_GT(session.device().now_us(), t0);
}

TEST(GraphCache, SymmetrizedIsCachedAndVersioned) {
  auto g = adaptive::Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_FALSE(g.is_symmetric());
  const auto& s1 = g.symmetrized();
  const auto& s2 = g.symmetrized();
  EXPECT_EQ(&s1, &s2);  // cached, no recompute
  EXPECT_TRUE(graph::is_symmetric(s1));
  // A symmetric graph returns its own CSR without copying.
  auto sym = adaptive::Graph::from_csr(graph::symmetrize(g.csr()));
  EXPECT_TRUE(sym.is_symmetric());
  EXPECT_EQ(&sym.symmetrized(), &sym.csr());
}

TEST(ResultApi, StatusDefaultsToOkAndPayloadInherits) {
  const auto g = make_graph(600, 1800, 2);
  const adaptive::BfsResult out = adaptive::bfs(g, 0);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.status, adaptive::Status::ok);
  EXPECT_TRUE(out.error.empty());
  // Payload fields read directly off the result (inheritance, not wrapping).
  EXPECT_EQ(out.level.size(), g.num_nodes());
  // The legacy *Output spelling stays valid.
  const adaptive::BfsOutput& legacy = out;
  EXPECT_EQ(legacy.level, out.level);
}

TEST(ResultApi, SymmetrizePolicyOnCc) {
  const auto directed = adaptive::Graph::from_edges(3, {{0, 1}, {1, 2}});
  simt::Device dev;
  const auto auto_out = adaptive::cc(dev, directed);  // auto_detect
  EXPECT_EQ(auto_out.num_components, 1u);
  const auto forced = adaptive::cc(
      dev, directed, adaptive::Policy::adapt().with_symmetrize(
                         adaptive::Symmetrize::always));
  EXPECT_EQ(forced.component, auto_out.component);
}

}  // namespace
