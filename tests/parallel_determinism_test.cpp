// The determinism contract of the parallel launch path (see exec_pool.h):
// for any SIMT thread count, every launch shape and every engine must
// produce bit-identical KernelStats, DeviceStats, and functional outputs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "gpu_graph/bfs_engine.h"
#include "gpu_graph/cc_engine.h"
#include "gpu_graph/pagerank_engine.h"
#include "gpu_graph/sssp_engine.h"
#include "graph/gen/generators.h"
#include "runtime/adaptive_engine.h"
#include "simt/exec_pool.h"
#include "simt/launch.h"
#include "simt/primitives.h"

namespace {

constexpr simt::Site kIn{0, "in"};
constexpr simt::Site kOut{1, "out"};
constexpr simt::Site kOps{2, "ops"};
constexpr simt::Site kCnt{3, "cnt"};
constexpr simt::Site kMin{4, "min"};

void expect_same_kernel(const simt::KernelStats& a, const simt::KernelStats& b) {
  EXPECT_STREQ(a.name, b.name);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.total_threads, b.total_threads);
  EXPECT_EQ(a.warps_executed, b.warps_executed);
  EXPECT_EQ(a.warps_uniform, b.warps_uniform);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
  EXPECT_EQ(a.mem_instrs, b.mem_instrs);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.max_atomic_same_addr, b.max_atomic_same_addr);
  EXPECT_EQ(a.lane_work, b.lane_work);
  EXPECT_EQ(a.lockstep_work, b.lockstep_work);
  EXPECT_EQ(a.sm_time_us, b.sm_time_us);
  EXPECT_EQ(a.bw_time_us, b.bw_time_us);
  EXPECT_EQ(a.atomic_time_us, b.atomic_time_us);
  EXPECT_EQ(a.time_us, b.time_us);
}

void expect_same_device_stats(const simt::DeviceStats& a, const simt::DeviceStats& b) {
  EXPECT_EQ(a.kernels_launched, b.kernels_launched);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.kernel_time_us, b.kernel_time_us);
  EXPECT_EQ(a.transfer_time_us, b.transfer_time_us);
  EXPECT_EQ(a.host_time_us, b.host_time_us);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.lane_work, b.lane_work);
  EXPECT_EQ(a.lockstep_work, b.lockstep_work);
  EXPECT_EQ(a.warps_executed, b.warps_executed);
  EXPECT_EQ(a.warps_uniform, b.warps_uniform);
  EXPECT_EQ(a.grid_barriers, b.grid_barriers);
  EXPECT_EQ(a.bytes_h2d, b.bytes_h2d);
  EXPECT_EQ(a.bytes_d2h, b.bytes_d2h);
}

// One captured run: every kernel's final stats (via the Device observer),
// the cumulative device stats, and whatever outputs the scenario exports.
struct Capture {
  std::vector<simt::KernelStats> kernels;
  simt::DeviceStats stats;
  std::vector<std::uint32_t> ints;
  std::vector<float> floats;
};

template <typename Scenario>
Capture run_with_threads(int threads, Scenario&& scenario) {
  simt::ExecPool::set_threads(threads);
  Capture run;
  simt::Device dev;
  dev.set_kernel_observer(
      [&](const simt::KernelStats& ks) { run.kernels.push_back(ks); });
  scenario(dev, run);
  run.stats = dev.stats();
  simt::ExecPool::set_threads(1);
  return run;
}

template <typename Scenario>
void expect_thread_invariant(Scenario&& scenario) {
  const Capture serial = run_with_threads(1, scenario);
  const Capture pooled = run_with_threads(8, scenario);
  ASSERT_EQ(serial.kernels.size(), pooled.kernels.size());
  for (std::size_t i = 0; i < serial.kernels.size(); ++i) {
    SCOPED_TRACE(serial.kernels[i].name);
    expect_same_kernel(serial.kernels[i], pooled.kernels[i]);
  }
  expect_same_device_stats(serial.stats, pooled.stats);
  EXPECT_EQ(serial.ints, pooled.ints);
  EXPECT_EQ(serial.floats, pooled.floats);
}

TEST(ParallelDeterminism, DenseComputeLoadStore) {
  expect_thread_invariant([](simt::Device& dev, Capture& run) {
    const std::uint64_t n = 1 << 15;
    auto in = dev.alloc<std::uint32_t>(n, "in");
    auto out = dev.alloc<std::uint32_t>(n, "out");
    for (std::size_t i = 0; i < n; ++i) {
      in.host_view()[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    simt::launch(dev, "det.dense",
                 simt::GridSpec::dense(n, 256).with(simt::LaunchPolicy::parallel),
                 [&](simt::ThreadCtx& ctx) {
                   const std::uint64_t gid = ctx.global_id();
                   const std::uint32_t v = ctx.load(in, gid, kIn);
                   // Divergent work keyed on the value, to vary warp costs.
                   ctx.compute(1 + v % 7, kOps);
                   ctx.store(out, gid, v ^ 0x9e3779b9u, kOut);
                 });
    const auto view = out.host_view();
    run.ints.assign(view.begin(), view.end());
  });
}

TEST(ParallelDeterminism, DenseContendedAtomics) {
  expect_thread_invariant([](simt::Device& dev, Capture& run) {
    const std::uint64_t n = 1 << 14;
    auto counters = dev.alloc<std::uint32_t>(64, "counters");
    auto mins = dev.alloc<std::uint32_t>(64, "mins");
    dev.fill(counters, 0u);
    dev.fill(mins, 0xffffffffu);
    // Same-value counting and idempotent min folds: order-insensitive, so
    // the launch qualifies for the parallel policy.
    simt::launch(dev, "det.atomics",
                 simt::GridSpec::dense(n, 256).with(simt::LaunchPolicy::parallel),
                 [&](simt::ThreadCtx& ctx) {
                   const std::uint64_t gid = ctx.global_id();
                   ctx.atomic_add(counters, gid % 64, 1u, kCnt);
                   ctx.atomic_min(mins, gid % 64,
                                  static_cast<std::uint32_t>(gid / 64), kMin);
                 });
    const auto c = counters.host_view();
    const auto m = mins.host_view();
    run.ints.assign(c.begin(), c.end());
    run.ints.insert(run.ints.end(), m.begin(), m.end());
  });
}

TEST(ParallelDeterminism, SparseThreadsWithGaps) {
  expect_thread_invariant([](simt::Device& dev, Capture& run) {
    const std::uint64_t n = 1 << 14;
    auto flags = dev.alloc<std::uint8_t>(n, "flags");
    auto out = dev.alloc<std::uint32_t>(n, "out");
    dev.fill(out, 0u);
    // Active ids clustered in two block ranges with a large uniform gap in
    // between, so the launch mixes executed, partially-active, and folded
    // predicate-only blocks.
    std::vector<std::uint32_t> active;
    for (std::uint32_t id = 5 * 256; id < 20 * 256; id += 3) active.push_back(id);
    for (std::uint32_t id = 48 * 256; id < 52 * 256; id += 7) active.push_back(id);
    simt::Predicate pred;
    pred.base_addr = flags.base_addr();
    pred.stride = 1;
    pred.ops = 2;
    simt::launch(dev, "det.sparse_threads",
                 simt::GridSpec::over_threads(n, 256, active, pred)
                     .with(simt::LaunchPolicy::parallel),
                 [&](simt::ThreadCtx& ctx) {
                   const std::uint64_t gid = ctx.global_id();
                   ctx.compute(3, kOps);
                   ctx.store(out, gid, static_cast<std::uint32_t>(gid + 1), kOut);
                 });
    const auto view = out.host_view();
    run.ints.assign(view.begin(), view.end());
  });
}

TEST(ParallelDeterminism, SparseBlocks) {
  expect_thread_invariant([](simt::Device& dev, Capture& run) {
    const std::uint64_t total_blocks = 96;
    const std::uint32_t tpb = 64;
    auto flags = dev.alloc<std::uint8_t>(total_blocks, "flags");
    auto out = dev.alloc<std::uint32_t>(total_blocks * tpb, "out");
    dev.fill(out, 0u);
    std::vector<std::uint32_t> active;
    for (std::uint32_t b = 1; b < total_blocks; b += 5) active.push_back(b);
    simt::Predicate pred;
    pred.base_addr = flags.base_addr();
    pred.stride = 1;
    pred.ops = 2;
    simt::launch(dev, "det.sparse_blocks",
                 simt::GridSpec::over_blocks(total_blocks, tpb, active, pred)
                     .with(simt::LaunchPolicy::parallel),
                 [&](simt::ThreadCtx& ctx) {
                   ctx.store(out, ctx.global_id(),
                             static_cast<std::uint32_t>(ctx.block_idx()), kOut);
                 });
    const auto view = out.host_view();
    run.ints.assign(view.begin(), view.end());
  });
}

TEST(ParallelDeterminism, PhasedScanAndReduce) {
  expect_thread_invariant([](simt::Device& dev, Capture& run) {
    const std::size_t n = 1 << 14;
    auto values = dev.alloc<std::uint32_t>(n, "values");
    auto scanned = dev.alloc<std::uint32_t>(n, "scanned");
    for (std::size_t i = 0; i < n; ++i) {
      values.host_view()[i] = static_cast<std::uint32_t>((i * 31 + 7) % 97);
    }
    simt::prim::exclusive_scan(dev, values, scanned, n);
    const std::uint32_t min = simt::prim::reduce_min(dev, values, n);
    const auto view = scanned.host_view();
    run.ints.assign(view.begin(), view.end());
    run.ints.push_back(min);
  });
}

// Engines: the compute kernels stay serial by policy, but bitmap workset
// generation and the ordered-SSSP reduction run pooled inside real runs.
class EngineDeterminism : public ::testing::Test {
 protected:
  static const graph::Csr& er() {
    static const graph::Csr g = graph::gen::erdos_renyi(2000, 10000, 7);
    return g;
  }
  static const graph::Csr& road() {
    static const graph::Csr g = [] {
      graph::Csr g = graph::gen::road_network(1500, 3);
      graph::assign_uniform_weights(g, 1, 100, 2);
      return g;
    }();
    return g;
  }
};

TEST_F(EngineDeterminism, Bfs) {
  for (const char* vname : {"U_T_BM", "U_B_QU"}) {
    SCOPED_TRACE(vname);
    const gg::Variant v = gg::parse_variant(vname);
    expect_thread_invariant([&](simt::Device& dev, Capture& run) {
      auto r = gg::run_bfs(dev, er(), 0, v);
      run.ints = std::move(r.level);
      run.floats.push_back(static_cast<float>(r.metrics.total_us));
    });
  }
}

TEST_F(EngineDeterminism, SsspUnorderedAndOrdered) {
  for (const char* vname : {"U_T_BM", "O_T_BM"}) {
    SCOPED_TRACE(vname);
    const gg::Variant v = gg::parse_variant(vname);
    expect_thread_invariant([&](simt::Device& dev, Capture& run) {
      auto r = gg::run_sssp(dev, road(), 0, v);
      run.ints = std::move(r.dist);
      run.floats.push_back(static_cast<float>(r.metrics.total_us));
    });
  }
}

TEST_F(EngineDeterminism, PageRank) {
  expect_thread_invariant([&](simt::Device& dev, Capture& run) {
    auto r = gg::run_pagerank(dev, er(), gg::parse_variant("U_T_BM"));
    run.floats = std::move(r.rank);
    run.floats.push_back(static_cast<float>(r.metrics.total_us));
  });
}

TEST_F(EngineDeterminism, ConnectedComponents) {
  expect_thread_invariant([&](simt::Device& dev, Capture& run) {
    auto r = gg::run_cc(dev, er(), gg::parse_variant("U_T_BM"));
    run.ints = std::move(r.component);
    run.ints.push_back(r.num_components);
    run.floats.push_back(static_cast<float>(r.metrics.total_us));
  });
}

// The road lattice takes many pointer jumps per sweep, under each mapping.
TEST_F(EngineDeterminism, ConnectedComponentsWithPointerJumps) {
  for (const char* vname : {"U_T_QU", "U_B_BM", "U_W_QU"}) {
    SCOPED_TRACE(vname);
    const gg::Variant v = gg::parse_variant(vname);
    expect_thread_invariant([&](simt::Device& dev, Capture& run) {
      auto r = gg::run_cc(dev, road(), v);
      run.ints = std::move(r.component);
      run.ints.push_back(r.num_components);
      run.ints.push_back(static_cast<std::uint32_t>(r.metrics.iterations.size()));
      run.floats.push_back(static_cast<float>(r.metrics.total_us));
    });
  }
}

// Adaptive traversals fuse their small road iterations into persistent
// kernels; barrier charges and phase boundaries are thread-invariant too.
TEST_F(EngineDeterminism, FusedAdaptiveTraversals) {
  expect_thread_invariant([&](simt::Device& dev, Capture& run) {
    rt::AdaptiveOptions ao;
    ao.direction = gg::Direction::adaptive;
    auto b = rt::adaptive_bfs(dev, road(), 0, ao);
    auto s = rt::adaptive_sssp(dev, road(), 0);
    auto c = rt::adaptive_cc(dev, graph::symmetrize(road()));
    for (const auto* m : {&b.metrics, &s.metrics, &c.metrics}) {
      for (const auto& it : m->iterations) run.ints.push_back(it.fused);
      run.floats.push_back(static_cast<float>(m->total_us));
    }
    run.ints.insert(run.ints.end(), b.level.begin(), b.level.end());
    run.ints.insert(run.ints.end(), s.dist.begin(), s.dist.end());
    run.ints.insert(run.ints.end(), c.component.begin(), c.component.end());
    EXPECT_GT(dev.stats().grid_barriers, 0u);
  });
}

TEST(SimThreadsConfig, EnvVariableIsHonored) {
  simt::ExecPool::set_threads(0);  // fall back to env resolution
  ASSERT_EQ(setenv("SIMT_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(simt::ExecPool::threads(), 3);
  ASSERT_EQ(setenv("SIMT_THREADS", "garbage", 1), 0);
  EXPECT_GE(simt::ExecPool::threads(), 1);  // invalid values fall back
  ASSERT_EQ(unsetenv("SIMT_THREADS"), 0);
  simt::ExecPool::set_threads(5);  // explicit override wins over env
  ASSERT_EQ(setenv("SIMT_THREADS", "2", 1), 0);
  EXPECT_EQ(simt::ExecPool::threads(), 5);
  ASSERT_EQ(unsetenv("SIMT_THREADS"), 0);
  simt::ExecPool::set_threads(1);
}

TEST(LaunchGuards, PhasedValidatesTpb) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  simt::Device dev;
  EXPECT_DEATH(simt::launch_phased(dev, "bad.tpb0", 256, 0, 1,
                                   [](int, simt::ThreadCtx&) {}),
               "tpb >= 1");
  EXPECT_DEATH(simt::launch_phased(dev, "bad.tpb_huge", 256, 4096, 1,
                                   [](int, simt::ThreadCtx&) {}),
               "tpb >= 1");
}

TEST(LaunchGuards, OverBlocksRejectsOverflow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<std::uint32_t> active;
  EXPECT_DEATH(simt::GridSpec::over_blocks(
                   std::numeric_limits<std::uint64_t>::max() / 2, 256, active,
                   simt::Predicate{}),
               "total_blocks");
}

}  // namespace
