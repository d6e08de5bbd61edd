// The generic frontier engine must reproduce the built-in algorithms when
// given their operators, across variants, with correct push deduplication.
#include <gtest/gtest.h>

#include <cmath>

#include "cpu/bfs_serial.h"
#include "cpu/pagerank_serial.h"
#include "gpu_graph/bfs_engine.h"
#include "gpu_graph/bfs_multi_engine.h"
#include "gpu_graph/generic_engine.h"
#include "gpu_graph/pagerank_engine.h"
#include "graph/gen/generators.h"
#include "runtime/adaptive_engine.h"
#include "simt/profiler.h"

namespace {

constexpr simt::Site kLevel{0, "t.level"};
constexpr simt::Site kRows{1, "t.rows"};
constexpr simt::Site kEdges{2, "t.edges"};
constexpr simt::Site kNbr{3, "t.nbr"};
constexpr simt::Site kOps{4, "t.ops"};

// BFS expressed as a user operator.
struct BfsFixture {
  simt::Device dev;
  graph::Csr g;
  gg::DeviceGraph dg;
  simt::DeviceBuffer<std::uint32_t> level;

  explicit BfsFixture(graph::Csr graph_in, graph::NodeId source)
      : g(std::move(graph_in)) {
    dg = gg::DeviceGraph::upload(dev, g, false);
    level = dev.alloc<std::uint32_t>(g.num_nodes, "level");
    dev.fill(level, graph::kInfinity);
    dev.write_scalar(level, source, 0u);
  }

  auto op() {
    return [this](simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
                  std::uint32_t step, gg::Push& push) {
      const std::uint32_t lvl = ctx.load(level, id, kLevel);
      const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRows);
      const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRows);
      ctx.compute(4, kOps);
      for (std::uint32_t e = begin + offset; e < end; e += step) {
        const std::uint32_t t = ctx.load(dg.col_indices, e, kEdges);
        ctx.compute(3, kOps);
        if (lvl + 1 < ctx.load(level, t, kNbr)) {
          ctx.store(level, t, lvl + 1, kNbr);
          push.mark(t);
        }
      }
    };
  }
};

class GenericVariants : public ::testing::TestWithParam<gg::Variant> {};

TEST_P(GenericVariants, OperatorBfsMatchesBuiltin) {
  const auto g = graph::gen::erdos_renyi(3000, 15000, 71);
  const auto expected = cpu::bfs(g, 0);
  BfsFixture fx(g, 0);
  gg::run_frontier(fx.dev, fx.g, fx.dg, {0}, fx.op(),
                   gg::fixed_variant(GetParam()));
  std::vector<std::uint32_t> got(fx.level.host_view().begin(),
                                 fx.level.host_view().end());
  EXPECT_EQ(got, expected.level);
}

std::vector<gg::Variant> generic_variants() {
  const auto base = gg::unordered_variants();
  std::vector<gg::Variant> out(base.begin(), base.end());
  for (const auto v : gg::warp_centric_variants()) out.push_back(v);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, GenericVariants,
                         ::testing::ValuesIn(generic_variants()),
                         [](const auto& info) {
                           return gg::variant_name(info.param);
                         });

TEST(GenericEngine, AdaptiveSelectorDrivesSwitches) {
  const auto g = graph::gen::erdos_renyi(60000, 300000, 72);
  const auto expected = cpu::bfs(g, 0);
  BfsFixture fx(g, 0);
  gg::EngineOptions opts;
  opts.monitor_interval = 1;
  const auto thresholds = rt::Thresholds::for_device(fx.dev.props());
  const auto result =
      gg::run_frontier(fx.dev, fx.g, fx.dg, {0}, fx.op(),
                       rt::make_adaptive_selector(thresholds), opts);
  std::vector<std::uint32_t> got(fx.level.host_view().begin(),
                                 fx.level.host_view().end());
  EXPECT_EQ(got, expected.level);
  EXPECT_GT(result.metrics.switches, 0u);
}

TEST(GenericEngine, MultiSourceInitialFrontier) {
  const auto g = graph::gen::erdos_renyi(2000, 8000, 73);
  BfsFixture fx(g, 0);
  fx.dev.write_scalar(fx.level, 1500, 0u);  // second source
  const auto result = gg::run_frontier(fx.dev, fx.g, fx.dg, {0, 1500}, fx.op(),
                                       gg::fixed_variant(gg::parse_variant("U_T_QU")));
  EXPECT_EQ(result.metrics.iterations.front().ws_size, 2u);
  // Multi-source BFS: level = min over sources.
  const auto a = cpu::bfs(g, 0);
  const auto b = cpu::bfs(g, 1500);
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    EXPECT_EQ(fx.level.host_view()[v], std::min(a.level[v], b.level[v])) << v;
  }
}

TEST(GenericEngine, PushDeduplicatesWithinIteration) {
  // A node with many in-edges from the frontier must enter the next working
  // set exactly once.
  std::vector<graph::Edge> edges;
  for (std::uint32_t v = 1; v <= 64; ++v) {
    edges.push_back({0, v});   // fan out
    edges.push_back({v, 65});  // all fan in to 65
  }
  const auto g = graph::csr_from_edges(66, edges);
  BfsFixture fx(g, 0);
  const auto result = gg::run_frontier(fx.dev, fx.g, fx.dg, {0}, fx.op(),
                                       gg::fixed_variant(gg::parse_variant("U_B_QU")));
  ASSERT_EQ(result.metrics.iterations.size(), 3u);
  EXPECT_EQ(result.metrics.iterations[1].ws_size, 64u);
  EXPECT_EQ(result.metrics.iterations[2].ws_size, 1u);  // node 65, once
}

TEST(GenericEngine, EmptyInitialFrontierIsANoOp) {
  const auto g = graph::gen::erdos_renyi(100, 400, 74);
  BfsFixture fx(g, 0);
  const auto result = gg::run_frontier(fx.dev, fx.g, fx.dg, {}, fx.op(),
                                       gg::fixed_variant(gg::parse_variant("U_T_BM")));
  EXPECT_TRUE(result.metrics.iterations.empty());
}

TEST(GenericEngine, MatchesBuiltinBfsCostShape) {
  // Same algorithm through both paths: modeled times must be close (the
  // built-in engine differs only in site labels and bitmap-clear placement).
  const auto g = graph::gen::erdos_renyi(20000, 100000, 75);
  BfsFixture fx(g, 0);
  const auto generic = gg::run_frontier(fx.dev, fx.g, fx.dg, {0}, fx.op(),
                                        gg::fixed_variant(gg::parse_variant("U_T_QU")));
  simt::Device dev2;
  const auto builtin = gg::run_bfs(dev2, g, 0, gg::parse_variant("U_T_QU"));
  const double ratio = generic.metrics.kernel_us / builtin.metrics.kernel_us;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

// EngineOptions::scan_queue_gen is honoured by every algorithm on the
// driver, seeding included: PageRank and MS-BFS generate their queues by
// scan and still answer as their oracles do.
TEST(GenericEngine, ScanQueueGenAppliesToEveryDriverAlgorithm) {
  const auto g = graph::gen::erdos_renyi(2000, 10000, 76);
  const gg::Variant queue = gg::parse_variant("U_T_QU");
  auto launched_scan = [](const simt::Profiler& prof) {
    return prof.entries().count("workset_gen.queue_scan") == 1;
  };

  gg::PageRankOptions pr;
  pr.engine.scan_queue_gen = true;
  simt::Device pdev;
  simt::Profiler pprof(pdev);
  const auto rank = gg::run_pagerank(pdev, g, queue, pr);
  EXPECT_TRUE(launched_scan(pprof));
  const auto want = cpu::pagerank(g);
  double diff = 0, norm = 0;
  for (std::size_t v = 0; v < want.rank.size(); ++v) {
    diff += std::abs(static_cast<double>(rank.rank[v]) - want.rank[v]);
    norm += std::abs(want.rank[v]);
  }
  EXPECT_LT(diff / norm, 2e-3);

  gg::EngineOptions opts;
  opts.scan_queue_gen = true;
  const std::vector<graph::NodeId> sources{0, 17, 401, 1999};
  simt::Device mdev;
  simt::Profiler mprof(mdev);
  const auto multi =
      gg::run_bfs_multi(mdev, g, sources, gg::fixed_variant(queue), opts);
  EXPECT_TRUE(launched_scan(mprof));
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const auto want_levels = cpu::bfs(g, sources[s]).level;
    for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
      ASSERT_EQ(multi.levels_for(v)[s], want_levels[v])
          << "source " << sources[s] << " node " << v;
    }
  }
}

}  // namespace
