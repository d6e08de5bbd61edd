// Extension experiment (ours): hybrid CPU/GPU execution vs GPU-only.
//
// The paper positions itself against Hong et al. [13] ("considers an
// adaptive solution that alternates CPU and GPU execution. We, on the other
// hand, focus on the automatic selection of different GPU solutions").
// Having both mechanisms in one framework lets us measure what each is
// worth: small frontiers run serially on the host (no launch/readback
// overhead), large ones on the device, with state-array transfers at each
// switch. The GPU-only column is the default adaptive policy, whose fused
// iteration loop already runs small device iterations without relaunches or
// readbacks (DESIGN.md "Fused iteration loop"), so the gain column is what
// the host hybrid adds on top of fusion.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "runtime/adaptive_engine.h"

namespace {

void run_algo(bench::Algo algo, const bench::Options& opts) {
  agg::Table table({"Network", "adaptive, fused (ms)", "hybrid (ms)", "gain",
                    "CPU iters", "GPU iters"});
  for (const auto id : opts.datasets) {
    const auto d = bench::load_dataset(id, opts.scale, opts.cache_dir);
    const auto base = algo == bench::Algo::bfs ? bench::cpu_baseline_bfs(d)
                                               : bench::cpu_baseline_sssp(d);
    const auto& expected =
        algo == bench::Algo::bfs ? base.bfs_level : base.sssp_dist;

    auto run = [&](std::uint64_t threshold) {
      simt::Device dev;
      rt::AdaptiveOptions ao;
      ao.engine.hybrid_cpu_threshold = threshold;
      gg::TraversalMetrics m;
      if (algo == bench::Algo::bfs) {
        auto r = rt::adaptive_bfs(dev, d.csr, d.source, ao);
        AGG_CHECK(r.level == expected);
        m = std::move(r.metrics);
      } else {
        auto r = rt::adaptive_sssp(dev, d.csr, d.source, ao);
        AGG_CHECK(r.dist == expected);
        m = std::move(r.metrics);
      }
      return m;
    };

    const auto pure = run(0);
    // Host the frontiers that cannot fill the device (the T2 region).
    const auto mixed = run(2688);
    std::uint64_t cpu_iters = 0;
    for (const auto& it : mixed.iterations) cpu_iters += it.on_cpu;
    table.add_row(
        {d.name, agg::Table::fmt(pure.total_us / 1000.0, 2),
         agg::Table::fmt(mixed.total_us / 1000.0, 2),
         agg::Table::fmt(pure.total_us / mixed.total_us, 2) + "x",
         agg::Table::fmt_int(cpu_iters),
         agg::Table::fmt_int(mixed.iterations.size() - cpu_iters)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  agg::Cli cli(argc, argv);
  if (cli.maybe_help("Hybrid CPU/GPU execution vs GPU-only adaptive (Hong et "
                     "al. [13] mechanism inside this framework)."))
    return 0;
  const auto opts = bench::parse_common(cli);
  bench::print_banner(
      "Extension - hybrid CPU/GPU execution",
      "Frontiers below T2 run serially on the host. Expected shape: large "
      "gains on the high-diameter road network (hundreds of tiny frontiers), "
      "no loss on scale-free graphs (one or two switches).",
      opts);

  std::printf(">>> BFS\n");
  run_algo(bench::Algo::bfs, opts);
  std::printf(">>> SSSP\n");
  run_algo(bench::Algo::sssp, opts);
  return 0;
}
