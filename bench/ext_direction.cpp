// Extension bench: direction-optimizing traversal (push vs pull vs the
// Beamer push<->pull controller) for BFS and SSSP on every dataset. The
// paper's four static dimensions all scatter along out-edges; this measures
// what the 4th adaptive dimension buys on frontier-heavy (heavy-tailed)
// graphs, where one or two saturated iterations dominate the traversal and
// gathering along in-edges skips the contended atomics. SSSP has no gather
// kernel (it lost to push everywhere) and runs push under every direction,
// so its three columns must be equal.
//
// Times are measured in the serving regime (cf. Session pinning): the CSR —
// and, for runs that may gather, the CSC — is device-resident before the
// traversal starts, so the columns compare traversal policy, not one-time
// uploads. A one-shot pull run would additionally pay the transpose upload.
//
// Acceptance (tracked in results/BENCH_direction.json via run_benches.sh):
// direction-optimizing BFS beats always-push adaptive on at least one
// heavy-tailed dataset and never loses more than 5% anywhere. Every run is
// verified against the serial CPU oracle before its time is reported.
//
// Extra flag: --json-out=FILE writes the per-dataset numbers as JSON.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "gpu_graph/device_graph.h"
#include "graph/graph_stats.h"
#include "graph/transform.h"
#include "runtime/adaptive_engine.h"
#include "trace/json_writer.h"

namespace {

struct DirRun {
  double us = 0;
  std::uint32_t pull_iterations = 0;
  std::uint32_t flips = 0;  // direction changes along the trajectory
};

DirRun run_one(bench::Algo algo, const graph::gen::Dataset& d,
               const graph::Csr& csc, gg::Direction direction,
               const std::vector<std::uint32_t>& expected) {
  rt::AdaptiveOptions opts;
  opts.direction = direction;
  simt::Device dev;
  const bool with_weights = algo == bench::Algo::sssp;
  auto dg = gg::DeviceGraph::upload(dev, d.csr, with_weights);
  std::optional<graph::Csr> scratch;
  if (algo == bench::Algo::bfs && direction != gg::Direction::push) {
    // Serving regime: the gather view is pinned before the query, like a
    // Session would keep it across repeated traversals. SSSP runs push
    // under every direction and never reads it.
    gg::ensure_csc_resident(dev, dg, d.csr, &csc, scratch);
    opts.engine.csc = &csc;
  }
  gg::TraversalMetrics m;
  if (algo == bench::Algo::bfs) {
    auto r = rt::adaptive_bfs(dev, dg, d.csr, d.source, opts);
    AGG_CHECK(r.level == expected);
    m = std::move(r.metrics);
  } else {
    auto r = rt::adaptive_sssp(dev, dg, d.csr, d.source, opts);
    AGG_CHECK(r.dist == expected);
    m = std::move(r.metrics);
  }
  dg.release(dev);
  DirRun out;
  out.us = m.total_us;
  gg::Direction prev = gg::Direction::push;
  for (const auto& it : m.iterations) {
    if (it.variant.direction == gg::Direction::pull) ++out.pull_iterations;
    if (it.variant.direction != prev) ++out.flips;
    prev = it.variant.direction;
  }
  return out;
}

struct Row {
  std::string dataset;
  const char* algo = "";
  bool heavy_tailed = false;
  DirRun push, pull, dopt;
};

void run_algo(bench::Algo algo, const bench::Options& opts,
              std::vector<Row>& rows) {
  agg::Table table({"Network", "push (ms)", "pull (ms)", "DO (ms)",
                    "DO pull iters", "DO flips", "DO/push"});
  for (const auto id : opts.datasets) {
    const auto d = bench::load_dataset(id, opts.scale, opts.cache_dir);
    const auto base = algo == bench::Algo::bfs ? bench::cpu_baseline_bfs(d)
                                               : bench::cpu_baseline_sssp(d);
    const auto& expected =
        algo == bench::Algo::bfs ? base.bfs_level : base.sssp_dist;

    Row row;
    row.dataset = d.name;
    row.algo = algo == bench::Algo::bfs ? "bfs" : "sssp";
    // Heavy-tailed degree distribution: the regime pull is built for.
    const auto stats = graph::GraphStats::compute(d.csr);
    row.heavy_tailed = stats.outdeg_stddev > stats.outdeg_avg;
    const graph::Csr csc = graph::build_csc(d.csr);
    row.push = run_one(algo, d, csc, gg::Direction::push, expected);
    row.pull = run_one(algo, d, csc, gg::Direction::pull, expected);
    row.dopt = run_one(algo, d, csc, gg::Direction::adaptive, expected);

    const double vs_push = row.push.us / row.dopt.us;  // >1: DO wins
    table.add_row({d.name, agg::Table::fmt(row.push.us / 1000.0, 2),
                   agg::Table::fmt(row.pull.us / 1000.0, 2),
                   agg::Table::fmt(row.dopt.us / 1000.0, 2),
                   std::to_string(row.dopt.pull_iterations),
                   std::to_string(row.dopt.flips),
                   agg::Table::fmt(vs_push, 2)},
                  vs_push >= 1.0 ? 6 : -1);
    rows.push_back(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("ext_direction");
  w.key("rows");
  w.begin_array();
  for (const auto& r : rows) {
    w.begin_object();
    w.field("dataset", r.dataset);
    w.field("algo", r.algo);
    w.field("heavy_tailed", r.heavy_tailed);
    w.field("push_us", r.push.us);
    w.field("pull_us", r.pull.us);
    w.field("do_us", r.dopt.us);
    w.field("do_pull_iterations", r.dopt.pull_iterations);
    w.field("do_flips", r.dopt.flips);
    w.field("do_speedup_vs_push", r.push.us / r.dopt.us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (f) {
    f << w.str() << '\n';
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  agg::Cli cli(argc, argv);
  if (cli.maybe_help("Push vs pull vs direction-optimizing traversal on every "
                     "dataset; --json-out=FILE for machine-readable results."))
    return 0;
  const auto opts = bench::parse_common(cli);
  bench::print_banner(
      "Direction-optimizing traversal (extension)",
      "Beamer-style push<->pull controller as a 4th adaptive dimension: flip "
      "to gather when frontier edges dominate the unexplored volume, back to "
      "scatter when the frontier drains.",
      opts);

  std::vector<Row> rows;
  std::printf(">>> BFS\n");
  run_algo(bench::Algo::bfs, opts, rows);
  std::printf(">>> SSSP\n");
  run_algo(bench::Algo::sssp, opts, rows);

  // Acceptance: on BFS, DO wins somewhere heavy-tailed and never loses >5%;
  // SSSP runs the same push schedule under every direction.
  int heavy_wins = 0;
  int regressions = 0;
  int sssp_mismatches = 0;
  for (const auto& r : rows) {
    if (std::string(r.algo) != "bfs") {
      if (r.pull.us != r.push.us || r.dopt.us != r.push.us) ++sssp_mismatches;
      continue;
    }
    const double ratio = r.push.us / r.dopt.us;
    if (r.heavy_tailed && ratio > 1.0) ++heavy_wins;
    if (ratio < 0.95) ++regressions;
  }
  const bool pass = heavy_wins >= 1 && regressions == 0 && sssp_mismatches == 0;
  std::printf("acceptance: DO-BFS beats always-push on %d heavy-tailed "
              "dataset(s); regressions beyond 5%%: %d; SSSP datasets whose "
              "directions differ: %d -> %s\n",
              heavy_wins, regressions, sssp_mismatches, pass ? "PASS" : "FAIL");

  const std::string json_out = cli.get("json-out", "");
  if (!json_out.empty()) write_json(json_out, rows);
  return pass ? 0 : 1;
}
