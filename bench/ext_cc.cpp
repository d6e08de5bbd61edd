// Extension experiment (ours): connected components under the framework —
// speedups of the unordered variants and the adaptive runtime over serial
// union-find, per dataset. Validates the paper's projection that the
// approach "can be extended to many other graph algorithms".
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "cpu/cc_serial.h"
#include "cpu/cpu_cost_model.h"
#include "gpu_graph/cc_engine.h"
#include "runtime/adaptive_engine.h"

int main(int argc, char** argv) {
  agg::Cli cli(argc, argv);
  if (cli.maybe_help("Connected components: GPU variants + adaptive vs serial "
                     "union-find."))
    return 0;
  const auto opts = bench::parse_common(cli);
  bench::print_banner(
      "Extension - connected components (min-label propagation with pointer "
      "jumping)",
      "The CC working set starts at n (every node active) and shrinks, the "
      "mirror image of a traversal — a different regime for the decision "
      "space. Speedups over serial union-find.",
      opts);

  std::vector<std::string> header{"Network"};
  for (const auto v : gg::unordered_variants()) header.push_back(gg::variant_name(v));
  for (const auto v : gg::warp_centric_variants()) header.push_back(gg::variant_name(v));
  header.push_back("adaptive");
  agg::Table table(header);

  for (const auto id : opts.datasets) {
    auto d = bench::load_dataset(id, opts.scale, opts.cache_dir);
    const graph::Csr sym = graph::symmetrize(d.csr);
    const auto expected = cpu::connected_components(sym);
    const double cpu_us =
        cpu::CpuModel::core_i7().cc_time_us(expected.counts, sym.num_nodes);

    std::vector<std::string> row{d.name};
    double best = 0;
    int best_col = 0;
    int col = 0;
    auto record = [&](double gpu_us) {
      const double speedup = cpu_us / gpu_us;
      row.push_back(agg::Table::fmt(speedup, 2));
      ++col;
      if (speedup > best) {
        best = speedup;
        best_col = col;
      }
    };

    const auto pool = [] {
      const auto base = gg::unordered_variants();
      std::vector<gg::Variant> out(base.begin(), base.end());
      for (const auto v : gg::warp_centric_variants()) out.push_back(v);
      return out;
    }();
    {
      for (const auto v : pool) {
        simt::Device dev;
        const auto r = gg::run_cc(dev, sym, v);
        AGG_CHECK_MSG(r.component == expected.component, "CC result mismatch");
        record(r.metrics.total_us);
      }
    }
    simt::Device dev;
    const auto adaptive = rt::adaptive_cc(dev, sym);
    AGG_CHECK(adaptive.component == expected.component);
    record(adaptive.metrics.total_us);
    std::printf("  %-9s cpu(model) %8.2f ms | adaptive %8.3f ms, %zu iterations, "
                "%s edge visits | %s components\n",
                d.name.c_str(), cpu_us / 1000.0,
                adaptive.metrics.total_us / 1000.0,
                adaptive.metrics.iterations.size(),
                agg::Table::fmt_int(adaptive.metrics.edges_processed).c_str(),
                agg::Table::fmt_int(expected.num_components).c_str());
    table.add_row(std::move(row), best_col);
  }
  std::printf("\n%s\n", table.render().c_str());
  return 0;
}
