// Outside-only instrumentation for the repository benchmark: order
// statistics, fleet counter snapshots, and a trace sink that stamps host
// time on the program's existing trace events.
//
// Nothing here reaches into the library. The sink is attached through
// trace::Tracer like any other; the snapshots read simt::DeviceStats and
// ResultCache::stats(), which the library already exposes.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "service/result_cache.h"
#include "simt/cluster.h"
#include "trace/trace_sink.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// A fixed unit of host work that belongs to the benchmark, not to the
// program: breadth-first searches from 64 fixed roots over a skewed random
// graph (4,096 nodes, 65,536 arcs) the gauge builds itself. The benchmark
// runs units between the program's calls to learn how fast the shared host
// runs at that moment, and scales host-clock metrics to the speed at which
// a unit takes kNominalS. A change to the program cannot move the gauge,
// so it moves a scaled metric as it would move the raw one on a host of
// steady speed.
class HostGauge {
 public:
  // Host seconds of one unit on the 4-core 2 GHz x86 host the scale was
  // set on.
  static constexpr double kNominalS = 0.01;

  HostGauge();
  // Runs units until `cover_s` host seconds have passed (at least one);
  // returns the mean host seconds per unit.
  double sample(double cover_s);
  // Every sample so far.
  const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr std::uint32_t kRoots = 64;
  void run_unit();

  std::vector<double> samples_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> targets_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> queue_;
  std::uint64_t visited_ = 0;  // keeps the searches observable
};

// Linear-interpolation quantile (numpy's default) of an unsorted sample;
// 0 for an empty sample.
double quantile(std::vector<double> v, double q);

// Sum of the per-device counters of a fleet plus its makespan.
struct FleetSnapshot {
  simt::DeviceStats stats;
  double makespan_us = 0;
  std::uint32_t devices = 0;
};
FleetSnapshot snapshot(const simt::Fleet& fleet, double makespan_us);

// Field-wise after - before of the additive counters.
simt::DeviceStats delta(const simt::DeviceStats& after,
                        const simt::DeviceStats& before);

svc::CacheStats delta(const svc::CacheStats& after,
                      const svc::CacheStats& before);

// One traced event with the host interval the sink attributes to it: from
// the previous event the sink saw (or the start of the enclosing call) to
// the moment the event arrived.
struct Span {
  std::uint64_t query = 0;  // benchmark query id; 0 = not attributed
  const char* kind = "";    // kernel | transfer | iteration | decision | service
  std::string name;
  double host_begin_s = 0;  // seconds since the sink was created
  double host_end_s = 0;
  double modeled_start_us = 0;
  double modeled_dur_us = 0;
  std::uint32_t device = 0;
  std::uint32_t stream = 0;
  bool has_slot = false;    // device/stream identify where it ran
};

// Totals the sink accumulates while attached.
struct SinkTotals {
  std::uint64_t kernels = 0;
  std::uint64_t transfers = 0;
  std::uint64_t decisions = 0;
  std::uint64_t pull_decisions = 0;
  std::uint64_t nonplain_decisions = 0;
  double host_kernel_s = 0;  // host time attributed to kernel events
  double host_engine_s = 0;  // host time attributed to any device/engine event
};

class SpanSink : public trace::TraceSink {
 public:
  SpanSink() : origin_(Clock::now()), last_(origin_) {}

  // Spans recorded from here on carry `query` until the next call; the
  // host interval of the first event starts now.
  void begin_call(std::uint64_t query);

  void kernel(const trace::KernelEvent& ev) override;
  void transfer(const trace::TransferEvent& ev) override;
  void iteration(const trace::IterationEvent& ev) override;
  void decision(const trace::DecisionEvent& ev) override;
  void service(const trace::ServiceEvent& ev) override;

  // Service workloads: spans recorded since `first_span` that ran on a
  // (device, stream) slot take the id of the query whose modeled
  // [start, finish) interval on that slot contains them; iteration and
  // decision spans inherit the id of the kernel before them.
  struct Slot {
    std::uint64_t query;
    std::uint32_t device;
    std::uint32_t stream;
    double start_us;
    double finish_us;
  };
  void attribute(std::size_t first_span, const std::vector<Slot>& slots);

  const SinkTotals& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

 private:
  Span& push(const char* kind, std::string name, double modeled_start_us,
             double modeled_dur_us);

  Clock::time_point origin_;
  Clock::time_point last_;
  std::uint64_t query_ = 0;
  std::vector<Span> spans_;
  SinkTotals totals_;
};

}  // namespace perfbench
