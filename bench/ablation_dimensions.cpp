// Ablation (ours): how much each decision dimension contributes. Runs the
// adaptive SSSP with (a) the full decision space, (b) the mapping dimension
// frozen (always thread / always block), and (c) the representation
// dimension frozen (always bitmap / always queue).
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "gpu_graph/sssp_engine.h"
#include "runtime/adaptive_engine.h"

namespace {

double run_with(const graph::gen::Dataset& d,
                const gg::VariantSelector& selector) {
  simt::Device dev;
  gg::EngineOptions opts;
  opts.monitor_interval = 1;
  const auto r = gg::run_sssp(dev, d.csr, d.source, selector, opts);
  return r.metrics.total_us;
}

}  // namespace

int main(int argc, char** argv) {
  agg::Cli cli(argc, argv);
  if (cli.maybe_help("Ablation: adaptive SSSP with one decision dimension "
                     "frozen at a time."))
    return 0;
  const auto opts = bench::parse_common(cli);
  bench::print_banner(
      "Ablation - contribution of the decision dimensions (SSSP)",
      "Freezing a dimension shows what the full two-dimensional decision "
      "space (Fig. 11) buys over one-dimensional policies.",
      opts);

  const auto thresholds =
      rt::Thresholds::for_device(simt::DeviceProps::fermi_c2070());
  const auto full = rt::make_adaptive_selector(thresholds);

  auto frozen_mapping = [&](gg::Mapping m) {
    return [=](const gg::SelectorInput& in) {
      gg::Variant v = full(in).variant;
      v.mapping = m;
      return v;
    };
  };
  auto frozen_repr = [&](gg::WorksetRepr w) {
    return [=](const gg::SelectorInput& in) {
      gg::Variant v = full(in).variant;
      v.repr = w;
      return v;
    };
  };

  agg::Table table({"Network", "full (ms)", "thread-only", "block-only",
                    "bitmap-only", "queue-only"});
  for (const auto id : opts.datasets) {
    const auto d = bench::load_dataset(id, opts.scale, opts.cache_dir);
    const double t_full = run_with(d, full);
    auto rel = [&](double t) {
      return agg::Table::fmt(t / t_full, 2) + "x";
    };
    table.add_row({d.name, agg::Table::fmt(t_full / 1000.0, 2),
                   rel(run_with(d, frozen_mapping(gg::Mapping::thread))),
                   rel(run_with(d, frozen_mapping(gg::Mapping::block))),
                   rel(run_with(d, frozen_repr(gg::WorksetRepr::bitmap))),
                   rel(run_with(d, frozen_repr(gg::WorksetRepr::queue)))});
  }
  std::printf("%s\n(frozen columns are relative to the full decision space; "
              ">1.00x means the frozen policy is slower)\n",
              table.render().c_str());
  return 0;
}
