#include "probe.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

HostGauge::HostGauge() {
  constexpr std::uint32_t kScale = 12;
  constexpr std::uint32_t kNodes = 1u << kScale;
  constexpr std::uint64_t kArcs = 16ull * kNodes;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  // R-MAT quadrant choice per bit (a, b, c) = (0.57, 0.19, 0.19).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> arcs(kArcs);
  for (auto& [u, v] : arcs) {
    u = v = 0;
    for (std::uint32_t bit = 0; bit < kScale; ++bit) {
      const double r = static_cast<double>(next() >> 11) * 0x1.0p-53;
      const std::uint32_t down = r >= 0.57 + 0.19;
      const std::uint32_t right = (r >= 0.57 && r < 0.57 + 0.19) || r >= 0.95;
      u = (u << 1) | down;
      v = (v << 1) | right;
    }
  }
  offsets_.assign(kNodes + 1, 0);
  for (const auto& a : arcs) ++offsets_[a.first + 1];
  for (std::uint32_t i = 0; i < kNodes; ++i) offsets_[i + 1] += offsets_[i];
  targets_.resize(kArcs);
  std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const auto& a : arcs) targets_[fill[a.first]++] = a.second;
  level_.resize(kNodes);
  queue_.reserve(kNodes);
}

void HostGauge::run_unit() {
  const auto n = static_cast<std::uint32_t>(level_.size());
  for (std::uint32_t k = 0; k < kRoots; ++k) {
    std::fill(level_.begin(), level_.end(), ~0u);
    const std::uint32_t root = (k * 4099u) % n;
    queue_.assign(1, root);
    level_[root] = 0;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const std::uint32_t v = queue_[head];
      for (std::uint32_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
        const std::uint32_t u = targets_[e];
        if (level_[u] == ~0u) {
          level_[u] = level_[v] + 1;
          queue_.push_back(u);
        }
      }
    }
    visited_ += queue_.size();
  }
}

double HostGauge::sample(double cover_s) {
  const Clock::time_point t0 = Clock::now();
  std::size_t units = 0;
  double elapsed = 0;
  do {
    run_unit();
    ++units;
    elapsed = seconds_since(t0);
  } while (elapsed < cover_s);
  samples_.push_back(elapsed / static_cast<double>(units));
  return samples_.back();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

FleetSnapshot snapshot(const simt::Fleet& fleet, double makespan_us) {
  FleetSnapshot s;
  s.makespan_us = makespan_us;
  s.devices = fleet.size();
  for (simt::DeviceIndex d = 0; d < fleet.size(); ++d) {
    const simt::DeviceStats& x = fleet.device(d).stats();
    simt::DeviceStats& t = s.stats;
    t.kernels_launched += x.kernels_launched;
    t.transfers += x.transfers;
    t.kernel_time_us += x.kernel_time_us;
    t.transfer_time_us += x.transfer_time_us;
    t.host_time_us += x.host_time_us;
    t.issue_cycles += x.issue_cycles;
    t.transactions += x.transactions;
    t.atomics += x.atomics;
    t.lane_work += x.lane_work;
    t.lockstep_work += x.lockstep_work;
    t.warps_executed += x.warps_executed;
    t.warps_uniform += x.warps_uniform;
    t.bytes_h2d += x.bytes_h2d;
    t.bytes_d2h += x.bytes_d2h;
  }
  return s;
}

simt::DeviceStats delta(const simt::DeviceStats& a, const simt::DeviceStats& b) {
  simt::DeviceStats d;
  d.kernels_launched = a.kernels_launched - b.kernels_launched;
  d.transfers = a.transfers - b.transfers;
  d.kernel_time_us = a.kernel_time_us - b.kernel_time_us;
  d.transfer_time_us = a.transfer_time_us - b.transfer_time_us;
  d.host_time_us = a.host_time_us - b.host_time_us;
  d.issue_cycles = a.issue_cycles - b.issue_cycles;
  d.transactions = a.transactions - b.transactions;
  d.atomics = a.atomics - b.atomics;
  d.lane_work = a.lane_work - b.lane_work;
  d.lockstep_work = a.lockstep_work - b.lockstep_work;
  d.warps_executed = a.warps_executed - b.warps_executed;
  d.warps_uniform = a.warps_uniform - b.warps_uniform;
  d.bytes_h2d = a.bytes_h2d - b.bytes_h2d;
  d.bytes_d2h = a.bytes_d2h - b.bytes_d2h;
  return d;
}

svc::CacheStats delta(const svc::CacheStats& a, const svc::CacheStats& b) {
  svc::CacheStats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.insertions = a.insertions - b.insertions;
  d.evictions = a.evictions - b.evictions;
  d.invalidations = a.invalidations - b.invalidations;
  d.rejected = a.rejected - b.rejected;
  d.delta_kept = a.delta_kept - b.delta_kept;
  d.delta_dropped = a.delta_dropped - b.delta_dropped;
  return d;
}

void SpanSink::begin_call(std::uint64_t query) {
  query_ = query;
  last_ = Clock::now();
}

Span& SpanSink::push(const char* kind, std::string name,
                     double modeled_start_us, double modeled_dur_us) {
  const Clock::time_point now = Clock::now();
  Span s;
  s.query = query_;
  s.kind = kind;
  s.name = std::move(name);
  s.host_begin_s = std::chrono::duration<double>(last_ - origin_).count();
  s.host_end_s = std::chrono::duration<double>(now - origin_).count();
  s.modeled_start_us = modeled_start_us;
  s.modeled_dur_us = modeled_dur_us;
  last_ = now;
  spans_.push_back(std::move(s));
  return spans_.back();
}

void SpanSink::kernel(const trace::KernelEvent& ev) {
  Span& s = push("kernel", ev.name, ev.start_us, ev.dur_us);
  s.device = ev.device;
  s.stream = ev.stream;
  s.has_slot = true;
  ++totals_.kernels;
  const double host = s.host_end_s - s.host_begin_s;
  totals_.host_kernel_s += host;
  totals_.host_engine_s += host;
}

void SpanSink::transfer(const trace::TransferEvent& ev) {
  Span& s = push("transfer", ev.to_device ? "h2d" : "d2h", ev.start_us,
                 ev.dur_us);
  s.device = ev.device;
  s.stream = ev.stream;
  s.has_slot = true;
  ++totals_.transfers;
  totals_.host_engine_s += s.host_end_s - s.host_begin_s;
}

void SpanSink::iteration(const trace::IterationEvent& ev) {
  Span& s = push("iteration", std::string(ev.algo) + "/" + ev.variant,
                 ev.start_us, ev.dur_us);
  totals_.host_engine_s += s.host_end_s - s.host_begin_s;
}

void SpanSink::decision(const trace::DecisionEvent& ev) {
  Span& s = push("decision", ev.variant, ev.ts_us, 0);
  ++totals_.decisions;
  if (std::strcmp(ev.direction, "pull") == 0) ++totals_.pull_decisions;
  if (std::strcmp(ev.representation, "plain") != 0) {
    ++totals_.nonplain_decisions;
  }
  totals_.host_engine_s += s.host_end_s - s.host_begin_s;
}

void SpanSink::service(const trace::ServiceEvent& ev) {
  Span& s = push("service", ev.action, ev.ts_us, 0);
  if (ev.query != 0) s.query = ev.query;
}

void SpanSink::attribute(std::size_t first_span,
                         const std::vector<Slot>& slots) {
  std::uint64_t last_kernel_query = 0;
  for (std::size_t i = first_span; i < spans_.size(); ++i) {
    Span& s = spans_[i];
    if (std::strcmp(s.kind, "service") == 0) continue;
    if (!s.has_slot) {
      s.query = last_kernel_query;
      continue;
    }
    s.query = 0;
    for (const Slot& q : slots) {
      if (q.device == s.device && q.stream == s.stream &&
          s.modeled_start_us >= q.start_us && s.modeled_start_us < q.finish_us) {
        s.query = q.query;
        break;
      }
    }
    last_kernel_query = s.query;
  }
}

void SpanSink::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  char buf[512];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "{\"query\":%llu,\"kind\":\"%s\",\"host_begin_s\":%.9f,"
                  "\"host_end_s\":%.9f,\"modeled_start_us\":%.3f,"
                  "\"modeled_dur_us\":%.3f,\"device\":%u,\"stream\":%u,"
                  "\"name\":\"",
                  static_cast<unsigned long long>(s.query), s.kind,
                  s.host_begin_s, s.host_end_s, s.modeled_start_us,
                  s.modeled_dur_us, s.device, s.stream);
    out << buf;
    for (const char c : s.name) {
      if (c == '"' || c == '\\') out << '\\';
      out << c;
    }
    out << "\"}\n";
  }
}

}  // namespace perfbench
