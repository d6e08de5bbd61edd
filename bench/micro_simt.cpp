// Microbenchmarks of the SIMT simulator substrate itself (google-benchmark):
// tracing throughput, coalescing analysis, sparse-launch accounting, and the
// reduction primitive. These bound the simulation cost per modeled event and
// guard against regressions that would make the experiment benches unusable.
//
// Rows with a `per_event` / `per_edge` counter report host seconds per
// recorded warp-trace event / per graph edge (printed with an SI prefix:
// 12.3n = 12.3 ns).
#include <benchmark/benchmark.h>

#include <memory>

#include "api/algorithms.h"
#include "graph/gen/generators.h"
#include "simt/exec_pool.h"
#include "simt/launch.h"
#include "simt/primitives.h"
#include "trace/chrome_trace.h"
#include "trace/trace_sink.h"

namespace {

constexpr simt::Site kLoad{0, "load"};
constexpr simt::Site kOps{1, "ops"};
constexpr simt::Site kAtomic{2, "atomic"};

void BM_DenseLaunchCompute(benchmark::State& state) {
  simt::Device dev;
  const auto threads = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    simt::launch(dev, "compute", simt::GridSpec::dense(threads, 256),
                 [](simt::ThreadCtx& ctx) { ctx.compute(4, kOps); });
  }
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_DenseLaunchCompute)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_CoalescedLoads(benchmark::State& state) {
  simt::Device dev;
  const auto threads = static_cast<std::uint64_t>(state.range(0));
  auto buf = dev.alloc<std::uint32_t>(threads, "buf");
  for (auto _ : state) {
    simt::launch(dev, "loads", simt::GridSpec::dense(threads, 256),
                 [&](simt::ThreadCtx& ctx) {
                   benchmark::DoNotOptimize(ctx.load(buf, ctx.global_id(), kLoad));
                 });
  }
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_CoalescedLoads)->Arg(1 << 14)->Arg(1 << 17);

void BM_ScatteredLoads(benchmark::State& state) {
  simt::Device dev;
  const auto threads = static_cast<std::uint64_t>(state.range(0));
  auto buf = dev.alloc<std::uint32_t>(threads * 64, "buf");
  for (auto _ : state) {
    simt::launch(dev, "scatter", simt::GridSpec::dense(threads, 256),
                 [&](simt::ThreadCtx& ctx) {
                   const std::size_t i = ctx.global_id() * 2654435761u % (threads * 64);
                   benchmark::DoNotOptimize(ctx.load(buf, i, kLoad));
                 });
  }
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_ScatteredLoads)->Arg(1 << 14);

void BM_AtomicTally(benchmark::State& state) {
  simt::Device dev;
  auto counter = dev.alloc<std::uint32_t>(1, "counter");
  const auto threads = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    simt::launch(dev, "atomics", simt::GridSpec::dense(threads, 256),
                 [&](simt::ThreadCtx& ctx) {
                   ctx.atomic_add(counter, 0, 1u, kAtomic);
                 });
  }
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_AtomicTally)->Arg(1 << 14);

void BM_SparseLaunchAccounting(benchmark::State& state) {
  // One active thread in a grid of `range` threads: measures the analytic
  // accounting cost of predicate-only blocks.
  simt::Device dev;
  const auto total = static_cast<std::uint64_t>(state.range(0));
  auto flags = dev.alloc<std::uint8_t>(total, "flags");
  const std::vector<std::uint32_t> active{static_cast<std::uint32_t>(total / 2)};
  simt::Predicate pred;
  pred.base_addr = flags.base_addr();
  pred.stride = 1;
  for (auto _ : state) {
    simt::launch(dev, "sparse",
                 simt::GridSpec::over_threads(total, 256, active, pred),
                 [](simt::ThreadCtx& ctx) { ctx.compute(1, kOps); });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparseLaunchAccounting)->Arg(1 << 16)->Arg(1 << 22);

void BM_ReduceMinExecuted(benchmark::State& state) {
  simt::Device dev;
  const auto n = static_cast<std::size_t>(state.range(0));
  auto buf = dev.alloc<std::uint32_t>(n, "vals");
  dev.fill(buf, 123u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simt::prim::reduce_min(dev, buf, n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReduceMinExecuted)->Arg(1 << 12)->Arg(1 << 16);

void BM_ReduceMinAnalytic(benchmark::State& state) {
  simt::Device dev;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    simt::prim::charge_reduce_min(dev, n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReduceMinAnalytic)->Arg(1 << 22);

// ---- serial vs pooled launch path ----
//
// Each Pooled* benchmark runs the identical kernel under
// LaunchPolicy::parallel at a configured worker count (second argument;
// 1 = the exact serial path). The host wall-clock speedup of the N-thread
// row over the 1-thread row is the figure of merit; the simulated
// KernelStats are bit-identical across rows by construction.

// Restores the configured thread count on scope exit so the pooled rows
// don't leak their setting into later benchmarks.
struct SimThreadsScope {
  explicit SimThreadsScope(int n) { simt::ExecPool::set_threads(n); }
  ~SimThreadsScope() { simt::ExecPool::set_threads(1); }
};

void BM_PooledDenseCompute(benchmark::State& state) {
  SimThreadsScope scope(static_cast<int>(state.range(1)));
  simt::Device dev;
  const auto threads = static_cast<std::uint64_t>(state.range(0));
  auto in = dev.alloc<std::uint32_t>(threads, "in");
  auto out = dev.alloc<std::uint32_t>(threads, "out");
  const auto grid =
      simt::GridSpec::dense(threads, 256).with(simt::LaunchPolicy::parallel);
  for (auto _ : state) {
    simt::launch(dev, "pooled.compute", grid, [&](simt::ThreadCtx& ctx) {
      const std::uint64_t gid = ctx.global_id();
      const std::uint32_t v = ctx.load(in, gid, kLoad);
      ctx.compute(4 + v % 5, kOps);
      ctx.store(out, gid, v + 1, kLoad);
    });
  }
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_PooledDenseCompute)
    ->Args({1 << 17, 1})
    ->Args({1 << 17, 2})
    ->Args({1 << 17, 4})
    ->Args({1 << 17, 8})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 8});

void BM_PooledSparseThreads(benchmark::State& state) {
  SimThreadsScope scope(static_cast<int>(state.range(1)));
  simt::Device dev;
  const auto total = static_cast<std::uint64_t>(state.range(0));
  auto flags = dev.alloc<std::uint8_t>(total, "flags");
  auto out = dev.alloc<std::uint32_t>(total, "out");
  std::vector<std::uint32_t> active;
  for (std::uint64_t id = 0; id < total; id += 2) {
    active.push_back(static_cast<std::uint32_t>(id));
  }
  simt::Predicate pred;
  pred.base_addr = flags.base_addr();
  pred.stride = 1;
  const auto grid = simt::GridSpec::over_threads(total, 256, active, pred)
                        .with(simt::LaunchPolicy::parallel);
  for (auto _ : state) {
    simt::launch(dev, "pooled.sparse_threads", grid, [&](simt::ThreadCtx& ctx) {
      ctx.compute(4, kOps);
      ctx.store(out, ctx.global_id(), 1u, kLoad);
    });
  }
  state.SetItemsProcessed(state.iterations() * active.size());
}
BENCHMARK(BM_PooledSparseThreads)->Args({1 << 17, 1})->Args({1 << 17, 8});

void BM_PooledSparseBlocks(benchmark::State& state) {
  SimThreadsScope scope(static_cast<int>(state.range(1)));
  simt::Device dev;
  const auto total_blocks = static_cast<std::uint64_t>(state.range(0)) / 256;
  auto flags = dev.alloc<std::uint8_t>(total_blocks, "flags");
  auto out = dev.alloc<std::uint32_t>(total_blocks * 256, "out");
  std::vector<std::uint32_t> active;
  for (std::uint64_t b = 0; b < total_blocks; b += 2) {
    active.push_back(static_cast<std::uint32_t>(b));
  }
  simt::Predicate pred;
  pred.base_addr = flags.base_addr();
  pred.stride = 1;
  const auto grid = simt::GridSpec::over_blocks(total_blocks, 256, active, pred)
                        .with(simt::LaunchPolicy::parallel);
  for (auto _ : state) {
    simt::launch(dev, "pooled.sparse_blocks", grid, [&](simt::ThreadCtx& ctx) {
      ctx.compute(4, kOps);
      ctx.store(out, ctx.global_id(), 1u, kLoad);
    });
  }
  state.SetItemsProcessed(state.iterations() * active.size() * 256);
}
BENCHMARK(BM_PooledSparseBlocks)->Args({1 << 17, 1})->Args({1 << 17, 8});

void BM_PooledPhasedScan(benchmark::State& state) {
  SimThreadsScope scope(static_cast<int>(state.range(1)));
  simt::Device dev;
  const auto n = static_cast<std::size_t>(state.range(0));
  auto values = dev.alloc<std::uint32_t>(n, "vals");
  auto out = dev.alloc<std::uint32_t>(n, "scan");
  dev.fill(values, 3u);
  for (auto _ : state) {
    simt::prim::exclusive_scan(dev, values, out, n);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PooledPhasedScan)->Args({1 << 17, 1})->Args({1 << 17, 8});

// ---- tracing overhead ----
//
// Second argument: 0 = tracing off (each launch pays exactly one
// predicted-false trace::active() branch — this row must track the plain
// launch numbers), 1 = Chrome sink attached in memory (cost of rendering
// every kernel event).
void BM_LaunchTraceOverhead(benchmark::State& state) {
  if (state.range(1) != 0) {
    trace::Tracer::instance().attach(std::make_unique<trace::ChromeTraceSink>());
  }
  simt::Device dev;
  const auto threads = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    simt::launch(dev, "traced", simt::GridSpec::dense(threads, 256),
                 [](simt::ThreadCtx& ctx) { ctx.compute(4, kOps); });
  }
  trace::Tracer::instance().clear();
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_LaunchTraceOverhead)->Args({1 << 14, 0})->Args({1 << 14, 1});

// ---- warp tracer cost per recorded event ----
//
// Serial dense launches whose bodies only record events, so host time is
// the tracer's (plus the fixed per-warp launch loop).

constexpr std::uint64_t kTraceThreads = 1 << 14;
constexpr std::uint64_t kEventsPerThread = 8;

void set_per_event(benchmark::State& state, std::uint64_t events_per_iter) {
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(events_per_iter),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

// Lane l of iteration i reads element i*threads + l: one segment per 32 lanes.
void BM_TraceCoalesced(benchmark::State& state) {
  simt::Device dev;
  auto buf = dev.alloc<std::uint32_t>(kTraceThreads * kEventsPerThread, "buf");
  for (auto _ : state) {
    simt::launch(dev, "trace.coalesced", simt::GridSpec::dense(kTraceThreads, 256),
                 [&](simt::ThreadCtx& ctx) {
                   for (std::uint64_t i = 0; i < kEventsPerThread; ++i) {
                     benchmark::DoNotOptimize(
                         ctx.load(buf, i * kTraceThreads + ctx.global_id(), kLoad));
                   }
                 });
  }
  set_per_event(state, kTraceThreads * kEventsPerThread);
}
BENCHMARK(BM_TraceCoalesced);

// Hashed addresses: up to 32 distinct segments per lockstep instruction.
void BM_TraceScattered(benchmark::State& state) {
  simt::Device dev;
  constexpr std::uint64_t kElems = kTraceThreads * 64;
  auto buf = dev.alloc<std::uint32_t>(kElems, "buf");
  for (auto _ : state) {
    simt::launch(dev, "trace.scattered", simt::GridSpec::dense(kTraceThreads, 256),
                 [&](simt::ThreadCtx& ctx) {
                   for (std::uint64_t i = 0; i < kEventsPerThread; ++i) {
                     const std::uint64_t h =
                         (ctx.global_id() * kEventsPerThread + i) * 2654435761u;
                     benchmark::DoNotOptimize(ctx.load(buf, h % kElems, kLoad));
                   }
                 });
  }
  set_per_event(state, kTraceThreads * kEventsPerThread);
}
BENCHMARK(BM_TraceScattered);

// Thread-mapped neighbour loops over long adjacency runs: each lane scans its
// own 1024..3071 consecutive elements (mostly line-buffer hits) and charges
// one op per neighbour, so a warp walks thousands of lockstep steps.
void BM_TraceStreaming(benchmark::State& state) {
  simt::Device dev;
  constexpr std::uint64_t kThreads = 1024;
  constexpr std::uint64_t kRun = 3072;
  auto adj = dev.alloc<std::uint32_t>(kThreads * kRun, "adj");
  auto degree = [](std::uint64_t t) { return 1024 + t * 797 % 2048; };
  std::uint64_t events = 0;
  for (std::uint64_t t = 0; t < kThreads; ++t) events += 2 * degree(t);
  for (auto _ : state) {
    simt::launch(dev, "trace.streaming", simt::GridSpec::dense(kThreads, 256),
                 [&](simt::ThreadCtx& ctx) {
                   const std::uint64_t t = ctx.global_id();
                   for (std::uint64_t j = 0; j < degree(t); ++j) {
                     benchmark::DoNotOptimize(ctx.load(adj, t * kRun + j, kLoad));
                     ctx.compute(1, kOps);
                   }
                 });
  }
  set_per_event(state, events);
}
BENCHMARK(BM_TraceStreaming);

// Half the atomics hit one hot counter, half spread over per-thread words.
void BM_TraceAtomics(benchmark::State& state) {
  simt::Device dev;
  auto hot = dev.alloc<std::uint32_t>(1, "hot");
  auto cold = dev.alloc<std::uint32_t>(kTraceThreads * kEventsPerThread, "cold");
  for (auto _ : state) {
    simt::launch(dev, "trace.atomics", simt::GridSpec::dense(kTraceThreads, 256),
                 [&](simt::ThreadCtx& ctx) {
                   for (std::uint64_t i = 0; i < kEventsPerThread; i += 2) {
                     ctx.atomic_add(hot, 0, 1u, kAtomic);
                     ctx.atomic_add(cold, i * kTraceThreads + ctx.global_id(), 1u,
                                    kAtomic);
                   }
                 });
  }
  set_per_event(state, kTraceThreads * kEventsPerThread);
}
BENCHMARK(BM_TraceAtomics);

// ---- end-to-end algorithms, host time per edge ----
//
// Adaptive one-shot BFS / SSSP / CC on a fixed RMAT graph (scale 14, 16
// arcs per node, seed 1), one simulator thread, fresh Device per query.

const adaptive::Graph& rmat_graph() {
  static const adaptive::Graph g = [] {
    graph::gen::RmatParams p;
    p.scale = 14;
    p.edges_per_node = 16;
    p.seed = 1;
    adaptive::Graph graph = adaptive::Graph::from_csr(graph::gen::rmat(p));
    graph.set_uniform_weights(1, 1000);
    return graph;
  }();
  return g;
}

template <typename Query>
void run_end_to_end(benchmark::State& state, Query&& query) {
  SimThreadsScope scope(1);
  const adaptive::Graph& g = rmat_graph();
  for (auto _ : state) {
    simt::Device dev;
    benchmark::DoNotOptimize(query(dev, g));
  }
  state.counters["per_edge"] = benchmark::Counter(
      static_cast<double>(g.num_edges()),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

void BM_EndToEndBfs(benchmark::State& state) {
  run_end_to_end(state, [](simt::Device& dev, const adaptive::Graph& g) {
    return adaptive::bfs(dev, g, g.default_source());
  });
}
BENCHMARK(BM_EndToEndBfs)->Unit(benchmark::kMillisecond);

void BM_EndToEndSssp(benchmark::State& state) {
  run_end_to_end(state, [](simt::Device& dev, const adaptive::Graph& g) {
    return adaptive::sssp(dev, g, g.default_source());
  });
}
BENCHMARK(BM_EndToEndSssp)->Unit(benchmark::kMillisecond);

void BM_EndToEndCc(benchmark::State& state) {
  run_end_to_end(state, [](simt::Device& dev, const adaptive::Graph& g) {
    return adaptive::cc(dev, g);
  });
}
BENCHMARK(BM_EndToEndCc)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
