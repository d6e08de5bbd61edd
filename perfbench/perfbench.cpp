// The repository benchmark driver. Runs one workload (workloads.h) through
// the program's public entry points and prints its end-to-end metrics, or,
// with --trace 1, its per-layer metrics, as the last line of stdout:
//
//   perfbench --workload traverse --seed 7 --seconds 10 --trace 0
//
// Protocol of one run (every instance is set up from the same seed, so all
// instances see identical inputs):
//   A  set up; run the first wave on min(4, cores) simulator threads
//      (thread-invariance self-check against B's first wave);
//   B  set up; run the timed phase untraced -> end-to-end metrics;
//   C  set up; with --trace 1 run the timed phase again with a SpanSink
//      attached and the counter registry on -> per-layer metrics, and
//      require B's modeled results and counts to repeat exactly.
// setup_s is the median of the three set-up times. Timed phases run the
// simulator on one thread: more would measure the shared host's scheduler.
//
// Host-clock metrics are scaled to a steady host speed: the HostGauge is
// sampled before and after each set-up and each timed call (query, or
// service wave), for about kGaugeShare of the interval's length, and the
// interval's host time is multiplied by kNominalS over the mean of the two
// samples around it. The raw figures are printed in the provenance.
//
// The timed phase is a fixed number of waves derived from --seconds at a
// nominal rate per workload, so every modeled number and count is a
// function of (workload, seed, seconds) alone and repeats exactly; host
// numbers are measured. Oracle checks run outside every timed interval.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "probe.h"
#include "simt/exec_pool.h"
#include "trace/counters.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Simulator threads of every timed phase, and of the self-check (both
// capped at the host's cores).
constexpr int kSimThreads = 1;
constexpr int kCheckThreads = 4;

// Host time a gauge sample covers, as a share of the interval before it.
constexpr double kGaugeShare = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir;  // --trace 1: where the span file goes
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0) throw std::invalid_argument("every flag takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--spans-dir") {
      a.spans_dir = v;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (a.workload.empty() || a.seconds <= 0) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--spans-dir <dir>]");
  }
  return a;
}

// Waves per nominal second of each workload, and the floor that keeps at
// least 100 latency samples (10 beyond p90) in a run. At one simulator
// thread on a 4-core 2 GHz x86 host a timed phase lasts about --seconds;
// serve-zipf, whose host figures spread most, up to a third longer.
struct Pace {
  double waves_per_s;
  std::size_t min_waves;
};
Pace pace(const std::string& workload) {
  if (workload == "traverse") return {0.8, 10};
  if (workload == "serve-zipf") return {0.5, 4};
  return {1.0, 4};
}

// Modeled results of the first wave: must repeat at any thread count.
struct Fingerprint {
  std::vector<double> latencies;
  std::uint64_t checksum = 0;
  simt::DeviceStats stats;
};

struct Phase {
  std::vector<QueryRecord> records;
  double host_s = 0;
  double scaled_host_s = 0;  // host_s at the gauge's nominal speed
  double drain_host_s = 0;
  std::uint64_t checksum = 0;
  EngineTotals engine;
  simt::DeviceStats stats;  // fleet delta over the phase
  double makespan_us = 0;   // fleet makespan delta over the phase
  std::uint32_t devices = 0;
  svc::CacheStats cache;
  Fingerprint first;
};

bool same_stats(const simt::DeviceStats& a, const simt::DeviceStats& b) {
  return a.kernels_launched == b.kernels_launched &&
         a.transfers == b.transfers && a.kernel_time_us == b.kernel_time_us &&
         a.transfer_time_us == b.transfer_time_us &&
         a.host_time_us == b.host_time_us && a.issue_cycles == b.issue_cycles &&
         a.transactions == b.transactions && a.atomics == b.atomics &&
         a.lane_work == b.lane_work && a.lockstep_work == b.lockstep_work &&
         a.warps_executed == b.warps_executed &&
         a.warps_uniform == b.warps_uniform && a.bytes_h2d == b.bytes_h2d &&
         a.bytes_d2h == b.bytes_d2h;
}

bool same(const Fingerprint& a, const Fingerprint& b) {
  return a.latencies == b.latencies && a.checksum == b.checksum &&
         same_stats(a.stats, b.stats);
}

// Host seconds `host_s`, measured between two gauge samples of `before`
// and `after` seconds per unit, at the gauge's nominal speed.
double scaled(double host_s, double before, double after) {
  return host_s * HostGauge::kNominalS / (0.5 * (before + after));
}

Phase run_phase(Workload& w, std::size_t waves, SpanSink* sink,
                HostGauge& gauge) {
  Phase p;
  const FleetSnapshot begin = w.fleet_snapshot();
  const svc::CacheStats cache0 = w.cache_stats();
  double before = gauge.sample(0);
  std::vector<double> after;
  const Workload::Between between = [&](double call_s) {
    after.push_back(gauge.sample(kGaugeShare * call_s));
  };
  for (std::size_t i = 0; i < waves; ++i) {
    const FleetSnapshot s0 = w.fleet_snapshot();
    after.clear();
    WaveResult r = w.run_wave(sink, between);
    for (std::size_t j = 0; j < r.call_host_s.size(); ++j) {
      p.scaled_host_s += scaled(r.call_host_s[j], before, after[j]);
      before = after[j];
    }
    if (i == 0) {
      for (const QueryRecord& q : r.records) p.first.latencies.push_back(q.latency_us);
      p.first.checksum = r.checksum;
      p.first.stats = delta(w.fleet_snapshot().stats, s0.stats);
    }
    p.host_s += r.host_s;
    p.drain_host_s += r.drain_host_s;
    p.checksum += r.checksum;
    p.engine.transfer_us += r.engine.transfer_us;
    p.engine.total_us += r.engine.total_us;
    p.engine.iterations += r.engine.iterations;
    p.engine.edges_processed += r.engine.edges_processed;
    p.records.insert(p.records.end(), r.records.begin(), r.records.end());
  }
  const FleetSnapshot end = w.fleet_snapshot();
  p.stats = delta(end.stats, begin.stats);
  p.makespan_us = end.makespan_us - begin.makespan_us;
  p.devices = end.devices;
  p.cache = delta(w.cache_stats(), cache0);
  return p;
}

// Everything a traced phase must reproduce from the untraced one.
bool same_model(const Phase& a, const Phase& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const QueryRecord& x = a.records[i];
    const QueryRecord& y = b.records[i];
    if (x.id != y.id || x.ok != y.ok || x.latency_us != y.latency_us ||
        x.queue_wait_us != y.queue_wait_us || x.cached != y.cached ||
        x.collapsed != y.collapsed || x.batch_size != y.batch_size ||
        x.device != y.device || x.rebuilt != y.rebuilt) {
      return false;
    }
  }
  return a.checksum == b.checksum && same_stats(a.stats, b.stats) &&
         a.makespan_us == b.makespan_us && a.cache.hits == b.cache.hits &&
         a.cache.misses == b.cache.misses &&
         a.cache.evictions == b.cache.evictions &&
         a.cache.delta_kept == b.cache.delta_kept &&
         a.engine.iterations == b.engine.iterations &&
         a.engine.edges_processed == b.engine.edges_processed;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Ordered name -> (value, unit) list, printed as a table and as JSON.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  std::string json() const {
    std::string s = "{";
    char buf[64];
    for (std::size_t i = 0; i < items.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", items[i].second.first);
      s += (i ? ", \"" : "\"") + items[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + items[i].second.second + "\"}";
    }
    return s + "}";
  }
  void print(const char* title) const {
    std::printf("%s\n", title);
    for (const auto& [name, vu] : items) {
      std::printf("  %-34s %16.6g %s\n", name.c_str(), vu.first,
                  vu.second.c_str());
    }
  }
};

struct Summary {
  std::vector<double> latencies;  // completed queries
  std::vector<double> mutation_latencies;
  std::size_t queries = 0;
  std::size_t mutations = 0;
  std::size_t failed = 0;
};

Summary summarize(const Phase& p) {
  Summary s;
  for (const QueryRecord& q : p.records) {
    if (!q.ok) ++s.failed;
    if (q.mutation) {
      ++s.mutations;
      if (q.ok) s.mutation_latencies.push_back(q.latency_us);
    } else {
      ++s.queries;
      if (q.ok) s.latencies.push_back(q.latency_us);
    }
  }
  return s;
}

Metrics end_to_end(const Phase& p, double setup_s) {
  const Summary s = summarize(p);
  const double done = static_cast<double>(s.latencies.size());
  Metrics m;
  m.add("setup_s", setup_s, "s");
  m.add("modeled_latency_p50_us", quantile(s.latencies, 0.5), "us");
  m.add("modeled_latency_p90_us", quantile(s.latencies, 0.9), "us");
  m.add("modeled_qps", ratio(done, p.makespan_us / 1e6), "1/s");
  m.add("host_qps", ratio(done, p.scaled_host_s), "1/s");
  m.add("sim_warps_per_host_s",
        ratio(static_cast<double>(p.stats.warps_executed), p.scaled_host_s),
        "1/s");
  m.add("failed_frac",
        ratio(static_cast<double>(s.failed),
              static_cast<double>(p.records.size())),
        "ratio");
  m.add("host_peak_rss_mb", peak_rss_mb(), "MB");
  return m;
}

struct Registry {
  double engine_iterations, engine_edges, engine_max_ws;
  double rt_decisions, rt_switches;
  double mutate_patch, mutate_rebuild, mutate_bytes;
};

Registry read_registry() {
  const auto& r = trace::CounterRegistry::instance();
  return {r.counter_value("engine.iterations"),
          r.counter_value("engine.edges_processed"),
          r.gauge_value("engine.max_ws_size"),
          r.counter_value("rt.decisions"),
          r.counter_value("rt.switches"),
          r.counter_value("svc.mutate.patch"),
          r.counter_value("svc.mutate.rebuild"),
          r.counter_value("svc.mutate.bytes")};
}

Metrics per_layer(const Phase& traced, const Phase& untraced,
                  const SinkTotals& sink, const Registry& reg) {
  const Summary s = summarize(traced);
  const simt::DeviceStats& d = traced.stats;
  std::vector<double> wait, exec;
  std::vector<double> per_device(traced.devices, 0.0);
  double collapsed = 0, batched = 0, batch_sum = 0, degraded = 0, retries = 0;
  for (const QueryRecord& q : traced.records) {
    degraded += q.degraded;
    retries += q.retries;
    if (q.mutation || !q.ok) continue;
    wait.push_back(q.queue_wait_us);
    exec.push_back(q.exec_us);
    collapsed += q.collapsed;
    if (q.batch_size > 1) {
      batched += 1;
      batch_sum += q.batch_size;
    }
    if (q.dispatched) per_device[q.device] += 1;
  }
  // Queries per device, least ÷ most loaded; 1 when nothing was routed.
  const auto [lo, hi] = std::minmax_element(per_device.begin(), per_device.end());
  const double balance = lo == per_device.end() || *hi == 0 ? 1.0 : *lo / *hi;
  const double queries = static_cast<double>(s.queries);
  const double traced_qps = ratio(static_cast<double>(s.latencies.size()),
                                  traced.scaled_host_s);
  const double untraced_qps =
      ratio(static_cast<double>(summarize(untraced).latencies.size()),
            untraced.scaled_host_s);

  Metrics m;
  m.add("simt.kernels", static_cast<double>(d.kernels_launched), "count");
  m.add("simt.atomics", d.atomics, "count");
  m.add("simt.transactions", d.transactions, "count");
  m.add("simt.simd_efficiency", d.simd_efficiency(), "ratio");
  m.add("simt.warps_executed", static_cast<double>(d.warps_executed), "count");
  m.add("simt.kernel_busy_us", d.kernel_time_us, "us");
  m.add("simt.transfer_busy_us", d.transfer_time_us, "us");
  m.add("simt.bytes_h2d", static_cast<double>(d.bytes_h2d), "bytes");
  m.add("simt.bytes_d2h", static_cast<double>(d.bytes_d2h), "bytes");
  m.add("simt.host_kernel_s", sink.host_kernel_s, "s");
  m.add("engine.iterations", reg.engine_iterations, "count");
  m.add("engine.edges_processed", reg.engine_edges, "count");
  m.add("engine.max_ws_size", reg.engine_max_ws, "count");
  m.add("engine.transfer_share",
        ratio(traced.engine.transfer_us, traced.engine.total_us), "ratio");
  m.add("rt.decisions", reg.rt_decisions, "count");
  m.add("rt.switches", reg.rt_switches, "count");
  m.add("rt.switch_ratio", ratio(reg.rt_switches, reg.rt_decisions), "ratio");
  m.add("rt.pull_share",
        ratio(static_cast<double>(sink.pull_decisions),
              static_cast<double>(sink.decisions)),
        "ratio");
  m.add("rt.nonplain_rep_share",
        ratio(static_cast<double>(sink.nonplain_decisions),
              static_cast<double>(sink.decisions)),
        "ratio");
  m.add("api.host_self_ms", (traced.host_s - sink.host_engine_s) * 1e3, "ms");
  m.add("svc.queue_wait_p50_us", quantile(wait, 0.5), "us");
  m.add("svc.queue_wait_p90_us", quantile(wait, 0.9), "us");
  m.add("svc.exec_p50_us", quantile(exec, 0.5), "us");
  m.add("svc.cache.hit_ratio",
        ratio(static_cast<double>(traced.cache.hits),
              static_cast<double>(traced.cache.hits + traced.cache.misses)),
        "ratio");
  m.add("svc.collapse_ratio", ratio(collapsed, queries), "ratio");
  m.add("svc.batched_share", ratio(batched, queries), "ratio");
  m.add("svc.batch_size_mean", ratio(batch_sum, batched), "count");
  m.add("svc.cache.evictions", static_cast<double>(traced.cache.evictions),
        "count");
  m.add("svc.route.balance", balance, "ratio");
  m.add("svc.host_drain_ms_per_query", ratio(traced.drain_host_s * 1e3, queries),
        "ms");
  m.add("svc.degraded", degraded, "count");
  m.add("svc.retry", retries, "count");
  m.add("svc.mutate.count", static_cast<double>(s.mutations), "count");
  m.add("svc.mutate.patch", reg.mutate_patch, "count");
  m.add("svc.mutate.rebuild", reg.mutate_rebuild, "count");
  m.add("svc.mutate.bytes", reg.mutate_bytes, "bytes");
  m.add("svc.mutation_latency_p50_us", quantile(s.mutation_latencies, 0.5),
        "us");
  m.add("svc.cache.delta_keep_ratio",
        ratio(static_cast<double>(traced.cache.delta_kept),
              static_cast<double>(traced.cache.delta_kept +
                                  traced.cache.delta_dropped)),
        "ratio");
  m.add("trace.overhead_frac", 1.0 - ratio(traced_qps, untraced_qps), "ratio");
  m.add("failed_frac",
        ratio(static_cast<double>(s.failed),
              static_cast<double>(traced.records.size())),
        "ratio");
  return m;
}

std::string quote(const std::string& s) { return "\"" + s + "\""; }

int run(const Args& args) {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = std::max(1, std::min(kSimThreads, cores));
  const int check_threads = std::max(1, std::min(kCheckThreads, cores));
  simt::ExecPool::set_threads(threads);
  HostGauge gauge;
  const Pace pc = pace(args.workload);
  const std::size_t waves = std::max(
      pc.min_waves,
      static_cast<std::size_t>(std::ceil(pc.waves_per_s * args.seconds)));

  std::vector<double> setup_times;  // scaled
  std::vector<double> raw_setup_times;
  auto set_up = [&]() {
    auto w = make_workload(args.workload, args.seed, waves);
    const double before = gauge.sample(0);
    const Clock::time_point t0 = Clock::now();
    w->setup();
    const double t = seconds_since(t0);
    raw_setup_times.push_back(t);
    setup_times.push_back(scaled(t, before, gauge.sample(kGaugeShare * t)));
    return w;
  };

  // A: the first wave on several simulator threads.
  Fingerprint check;
  {
    auto w = set_up();
    simt::ExecPool::set_threads(check_threads);
    check = run_phase(*w, 1, nullptr, gauge).first;
    simt::ExecPool::set_threads(threads);
  }
  // B: the untraced timed phase.
  Phase main;
  std::vector<GraphInfo> graphs;
  {
    auto w = set_up();
    graphs = w->graphs();
    main = run_phase(*w, waves, nullptr, gauge);
  }
  // C: the traced timed phase (or, untraced, a third set-up sample).
  Phase traced;
  SinkTotals sink_totals;
  Registry reg{};
  std::size_t spans = 0;
  {
    auto w = set_up();
    if (args.trace) {
      auto& registry = trace::CounterRegistry::instance();
      registry.reset();
      registry.set_enabled(true);
      auto* sink = static_cast<SpanSink*>(
          trace::Tracer::instance().attach(std::make_unique<SpanSink>()));
      traced = run_phase(*w, waves, sink, gauge);
      sink_totals = sink->totals();
      reg = read_registry();
      spans = sink->spans().size();
      if (!args.spans_dir.empty()) {
        sink->write_jsonl(args.spans_dir + "/" + args.workload + "-seed" +
                          std::to_string(args.seed) + ".jsonl");
      }
      trace::Tracer::instance().clear();
      registry.set_enabled(false);
    }
  }

  const Summary sum = summarize(main);
  std::vector<std::string> problems;
  if (sum.failed) problems.push_back("wrong or failed answers");
  if (!same(check, main.first)) {
    problems.push_back("first wave differs at --sim-threads=" +
                       std::to_string(check_threads));
  }
  if (args.trace && !same_model(traced, main)) {
    problems.push_back("traced run differs from the untraced run");
  }
  if (args.trace && (sink_totals.kernels != traced.stats.kernels_launched ||
                     sink_totals.transfers != traced.stats.transfers)) {
    problems.push_back("trace sink missed device events");
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  const bool correct = problems.empty();

  std::sort(setup_times.begin(), setup_times.end());
  const Metrics e2e = end_to_end(main, setup_times[setup_times.size() / 2]);
  e2e.print(("end-to-end (" + args.workload + ")").c_str());
  Metrics layers;
  if (args.trace) {
    layers = per_layer(traced, main, sink_totals, reg);
    layers.print(("per-layer, traced (" + args.workload + ")").c_str());
  }

  // Provenance: what the numbers stand on.
  std::string graphs_json = "[";
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    graphs_json += (i ? ", " : "") + std::string("{\"name\": ") +
                   quote(graphs[i].name) + ", \"nodes\": " +
                   std::to_string(graphs[i].nodes) + ", \"arcs\": " +
                   std::to_string(graphs[i].arcs) + "}";
  }
  graphs_json += "]";
  const std::size_t n = sum.latencies.size();
  const std::size_t beyond_p90 = static_cast<std::size_t>(std::count_if(
      sum.latencies.begin(), sum.latencies.end(),
      [p90 = quantile(sum.latencies, 0.9)](double x) { return x > p90; }));
  char setup_buf[128], raw_setup_buf[128], host_buf[256];
  std::snprintf(setup_buf, sizeof setup_buf, "[%.6f, %.6f, %.6f]",
                setup_times[0], setup_times[1], setup_times[2]);
  std::snprintf(raw_setup_buf, sizeof raw_setup_buf, "[%.6f, %.6f, %.6f]",
                raw_setup_times[0], raw_setup_times[1], raw_setup_times[2]);
  const std::vector<double>& g = gauge.samples();
  std::snprintf(host_buf, sizeof host_buf,
                "\"raw_host_qps\": %.6g, \"gauge_units\": %zu, "
                "\"gauge_s\": {\"p10\": %.6f, \"p50\": %.6f, \"p90\": %.6f}",
                ratio(static_cast<double>(n), main.host_s), g.size(),
                quantile(g, 0.1), quantile(g, 0.5), quantile(g, 0.9));
  const std::string provenance =
      "{\"host_cores\": " + std::to_string(cores) +
      ", \"sim_threads\": " + std::to_string(threads) +
      ", \"check_sim_threads\": " + std::to_string(check_threads) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"waves\": " + std::to_string(waves) +
      ", \"wave_size\": " + std::to_string(main.records.size() / waves) +
      ", \"queries\": " + std::to_string(sum.queries) +
      ", \"mutations\": " + std::to_string(sum.mutations) +
      ", \"latency_samples\": " + std::to_string(n) +
      ", \"samples_beyond_p90\": " + std::to_string(beyond_p90) +
      ", \"mutation_latency_samples\": " +
      std::to_string(sum.mutation_latencies.size()) +
      ", \"setup_s_samples\": " + setup_buf +
      ", \"raw_setup_s_samples\": " + raw_setup_buf + ", " + host_buf +
      ", \"spans\": " + std::to_string(spans) +
      ", \"graphs\": " + graphs_json + "}";

  std::printf(
      "{\"workload\": %s, \"correct\": %s, \"attempted\": %zu, \"failed\": "
      "%zu, \"end_to_end\": %s, \"per_layer\": %s, \"provenance\": %s}\n",
      quote(args.workload).c_str(), correct ? "true" : "false",
      main.records.size(), sum.failed, e2e.json().c_str(),
      args.trace ? layers.json().c_str() : "null", provenance.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
