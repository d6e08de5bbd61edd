// The fused iteration loop (DESIGN.md "Fused iteration loop"): under the
// adaptive policy, runs of BFS/SSSP/CC iterations execute inside one
// persistent kernel. Fusion may change nothing but the fixed per-iteration
// costs, so every adaptive traversal here is replayed, unfused, through the
// engine's selector interface with the variant sequence it chose: the
// payload, the per-iteration variants and the simulated work must be equal,
// and the modeled time must differ by exactly the launches and readbacks the
// persistent kernel removed and the grid barriers it added.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/algorithms.h"
#include "conformance_corpus.h"
#include "cpu/bfs_serial.h"
#include "cpu/cc_serial.h"
#include "cpu/sssp_serial.h"
#include "graph/gen/generators.h"
#include "graph/transform.h"
#include "runtime/adaptive_engine.h"
#include "simt/device.h"

namespace {

// Replays `m`'s per-iteration variants: the selector is asked once before
// iteration 1 (input iteration 0) and after every iteration i (input
// iteration i) for the variant of the next one. Never fused.
gg::VariantSelector replay(const gg::TraversalMetrics& m) {
  auto seq = std::make_shared<std::vector<gg::Variant>>();
  for (const auto& it : m.iterations) seq->push_back(it.variant);
  return [seq](const gg::SelectorInput& in) -> gg::Selection {
    return seq->empty() ? gg::Variant{}
                        : (*seq)[std::min<std::size_t>(in.iteration,
                                                       seq->size() - 1)];
  };
}

struct Observed {
  gg::TraversalMetrics metrics;
  simt::DeviceStats stats;
};

// Asserts the fused run `f` and its unfused replay `u` did the same work and
// differ in modeled time by the fixed costs only.
void expect_same_work(const Observed& f, const Observed& u,
                      const simt::Device& dev, const std::string& where) {
  ASSERT_EQ(f.metrics.iterations.size(), u.metrics.iterations.size()) << where;
  for (std::size_t i = 0; i < f.metrics.iterations.size(); ++i) {
    EXPECT_EQ(f.metrics.iterations[i].variant, u.metrics.iterations[i].variant)
        << where << " iteration " << i + 1;
    EXPECT_EQ(f.metrics.iterations[i].ws_size, u.metrics.iterations[i].ws_size)
        << where << " iteration " << i + 1;
    EXPECT_FALSE(u.metrics.iterations[i].fused) << where;
  }
  EXPECT_EQ(f.metrics.edges_processed, u.metrics.edges_processed) << where;
  EXPECT_EQ(f.metrics.decisions, u.metrics.decisions) << where;
  EXPECT_EQ(f.stats.warps_executed, u.stats.warps_executed) << where;
  EXPECT_EQ(f.stats.transactions, u.stats.transactions) << where;
  EXPECT_EQ(f.stats.atomics, u.stats.atomics) << where;
  EXPECT_EQ(f.stats.kernels_launched, u.stats.kernels_launched) << where;
  EXPECT_EQ(u.stats.grid_barriers, 0u) << where;

  const double barrier_us = dev.grid_barrier_us(gg::EngineOptions{}.thread_tpb);
  const double readback_us =
      dev.timing().transfer_latency_us + 4 / (dev.props().pcie_gbps * 1e3);
  const auto barriers = static_cast<double>(f.stats.grid_barriers);
  const auto readbacks = static_cast<double>(u.stats.transfers - f.stats.transfers);
  EXPECT_GE(readbacks, 0) << where;
  EXPECT_EQ(u.stats.bytes_d2h - f.stats.bytes_d2h, 4 * (u.stats.transfers -
                                                        f.stats.transfers))
      << where << ": only 4-byte size readbacks may disappear";
  const double saved =
      barriers * (dev.timing().launch_overhead_us - barrier_us) +
      readbacks * readback_us;
  EXPECT_NEAR(u.metrics.total_us - f.metrics.total_us, saved,
              1e-9 * u.metrics.total_us + 1e-9)
      << where;
}

// One adaptive traversal of `algo` on `g` (fused wherever the rule says),
// then the unfused replay through the engine's selector interface.
template <class Fused, class Unfused>
std::pair<Observed, Observed> fused_and_replayed(Fused&& fused,
                                                 Unfused&& unfused) {
  Observed f;
  {
    simt::Device dev;
    f.metrics = fused(dev);
    f.stats = dev.stats();
  }
  Observed u;
  {
    simt::Device dev;
    u.metrics = unfused(dev, replay(f.metrics));
    u.stats = dev.stats();
  }
  return {f, u};
}

gg::EngineOptions replay_options() {
  gg::EngineOptions eo;
  eo.monitor_interval = 1;  // the adaptive runtime's sampling rate R
  return eo;
}

std::size_t fused_iterations(const gg::TraversalMetrics& m) {
  std::size_t n = 0;
  for (const auto& it : m.iterations) n += it.fused;
  return n;
}

// BFS (push and direction-optimizing), unordered SSSP and CC on `csr`.
// Returns the number of fused iterations seen.
std::size_t check_graph(const std::string& name, const graph::Csr& csr,
                        const graph::Csr& weighted) {
  const simt::Device ref;
  std::size_t fused = 0;
  const graph::NodeId src = graph::suggest_source(csr);
  const auto bfs_want = cpu::bfs(csr, src).level;
  for (const gg::Direction dir : {gg::Direction::push, gg::Direction::adaptive}) {
    rt::AdaptiveOptions ao;
    ao.direction = dir;
    std::vector<std::uint32_t> got, again;
    const auto [f, u] = fused_and_replayed(
        [&](simt::Device& dev) {
          auto r = rt::adaptive_bfs(dev, csr, src, ao);
          got = r.level;
          return r.metrics;
        },
        [&](simt::Device& dev, const gg::VariantSelector& sel) {
          auto r = gg::run_bfs(dev, csr, src, sel, replay_options());
          again = r.level;
          return r.metrics;
        });
    const std::string where = name + " bfs " + gg::direction_name(dir);
    EXPECT_EQ(got, bfs_want) << where;
    EXPECT_EQ(again, bfs_want) << where;
    expect_same_work(f, u, ref, where);
    fused += fused_iterations(f.metrics);
  }
  if (weighted.num_edges() > 0) {
    const auto sssp_want = cpu::dijkstra(weighted, src).dist;
    std::vector<std::uint32_t> got, again;
    const auto [f, u] = fused_and_replayed(
        [&](simt::Device& dev) {
          auto r = rt::adaptive_sssp(dev, weighted, src);
          got = r.dist;
          return r.metrics;
        },
        [&](simt::Device& dev, const gg::VariantSelector& sel) {
          auto r = gg::run_sssp(dev, weighted, src, sel, replay_options());
          again = r.dist;
          return r.metrics;
        });
    EXPECT_EQ(got, sssp_want) << name << " sssp";
    EXPECT_EQ(again, sssp_want) << name << " sssp";
    expect_same_work(f, u, ref, name + " sssp");
    fused += fused_iterations(f.metrics);
  }
  const graph::Csr sym = graph::symmetrize(csr);
  const auto cc_want = cpu::connected_components(sym).component;
  std::vector<std::uint32_t> got, again;
  const auto [f, u] = fused_and_replayed(
      [&](simt::Device& dev) {
        auto r = rt::adaptive_cc(dev, sym);
        got = r.component;
        return r.metrics;
      },
      [&](simt::Device& dev, const gg::VariantSelector& sel) {
        auto r = gg::run_cc(dev, sym, sel, replay_options());
        again = r.component;
        return r.metrics;
      });
  EXPECT_EQ(got, cc_want) << name << " cc";
  EXPECT_EQ(again, cc_want) << name << " cc";
  expect_same_work(f, u, ref, name + " cc");
  return fused + fused_iterations(f.metrics);
}

graph::Csr weighted_copy(const graph::Csr& g) {
  graph::Csr w = g;
  if (w.num_edges() > 0) graph::assign_uniform_weights(w, 1, 31, 7);
  return w;
}

TEST(FusedLoop, ConformanceCorpusMatchesItsUnfusedReplay) {
  std::size_t fused = 0;
  for (const auto& gc : testutil::conformance_corpus()) {
    if (gc.csr.num_nodes == 0) continue;
    fused += check_graph(gc.name, gc.csr, weighted_copy(gc.csr));
  }
  EXPECT_GT(fused, 0u);
}

// The traverse workload's two graphs: a road lattice whose hundreds of
// tiny levels are what fusion is for, and RMAT-14, where it saves little.
TEST(FusedLoop, RoadLatticeAndRmatMatchTheirUnfusedReplay) {
  graph::Csr road = graph::gen::road_network(12500, 2);
  graph::Csr road_w = road;
  graph::assign_symmetric_uniform_weights(road_w, 1, 100, 3);
  const std::size_t road_fused = check_graph("road", road, road_w);
  EXPECT_GT(road_fused, 100u);

  graph::gen::RmatParams rp;
  rp.scale = 14;
  rp.seed = 4;
  const graph::Csr rmat = graph::gen::rmat(rp);
  check_graph("rmat14", rmat, weighted_copy(rmat));
}

// Fusion is the adaptive runtime's choice: fixed variants keep one launch
// per kernel and one readback per iteration.
TEST(FusedLoop, FixedVariantsNeverFuse) {
  const graph::Csr road = graph::gen::road_network(3000, 5);
  for (const gg::Variant v : gg::unordered_variants()) {
    rt::Query q;
    q.fixed = v;
    simt::Device dev;
    const auto r = rt::run_bfs(dev, nullptr, road, 0, q);
    EXPECT_EQ(fused_iterations(r.metrics), 0u) << gg::variant_name(v);
    EXPECT_EQ(dev.stats().grid_barriers, 0u) << gg::variant_name(v);
    simt::Device plain;
    const auto same = gg::run_bfs(plain, road, 0, v);
    EXPECT_EQ(r.metrics.total_us, same.metrics.total_us) << gg::variant_name(v);
  }
}

// The rule itself: fuse when a barrier beats a relaunch plus a readback and
// no host step comes between.
TEST(FusedLoop, RuleWeighsBarrierAgainstRelaunchAndReadback) {
  const simt::Device dev;
  const rt::FusionCosts c = rt::FusionCosts::of(dev, 192);
  EXPECT_NEAR(c.barrier_us, 1.0852, 1e-3);  // (400 + 112 * 4 + 400) / 1150
  EXPECT_TRUE(rt::decide_fused(c, /*host_step=*/false));
  EXPECT_FALSE(rt::decide_fused(c, /*host_step=*/true));
  rt::FusionCosts slow = c;
  slow.barrier_us = c.relaunch_us + c.readback_us;
  EXPECT_FALSE(rt::decide_fused(slow, false));
}

// A pull iteration whose CSC is not resident yet starts with its upload, a
// host step: it runs unfused, and the persistent kernel before it ends.
TEST(FusedLoop, CscUploadEndsThePhase) {
  graph::gen::RmatParams rp;
  rp.scale = 12;
  rp.seed = 2;
  const graph::Csr g = graph::gen::rmat(rp);
  rt::AdaptiveOptions ao;
  ao.direction = gg::Direction::adaptive;
  simt::Device dev;
  const auto r = rt::adaptive_bfs(dev, g, graph::suggest_source(g), ao);
  const auto& its = r.metrics.iterations;
  const auto first_pull =
      std::find_if(its.begin(), its.end(), [](const gg::IterationRecord& it) {
        return it.variant.direction == gg::Direction::pull;
      });
  ASSERT_NE(first_pull, its.end()) << "the controller never pulled";
  EXPECT_FALSE(first_pull->fused) << "iteration " << first_pull->iteration;
}

// A kernel fault inside a persistent phase unwinds out of it: the device is
// left outside any phase, and the retried query charges what it charges on
// a fresh device.
TEST(FusedLoop, FaultInsideAPhaseLeavesIt) {
  const auto g = adaptive::Graph::from_csr(graph::gen::road_network(3000, 6));
  simt::Device fresh;
  const auto want = adaptive::bfs(fresh, g, 0);
  ASSERT_TRUE(want.ok());
  ASSERT_GT(fused_iterations(want.metrics), 10u);

  simt::Device dev;
  dev.set_fault_plan(simt::FaultPlan::parse("kernel.at=40"));
  const auto failed = adaptive::bfs(dev, g, 0);
  EXPECT_EQ(failed.code, adaptive::ErrorCode::kernel_fault);
  EXPECT_FALSE(dev.in_persistent());
  const auto retry = adaptive::bfs(dev, g, 0);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.level, want.level);
  EXPECT_NEAR(retry.metrics.total_us, want.metrics.total_us,
              1e-9 * want.metrics.total_us);
  EXPECT_EQ(retry.metrics.kernels, want.metrics.kernels);
}

}  // namespace
