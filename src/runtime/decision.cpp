#include "runtime/decision.h"

#include "simt/device.h"

namespace rt {

Thresholds Thresholds::for_device(const simt::DeviceProps& props,
                                  std::uint32_t thread_tpb, double t3_fraction) {
  Thresholds t;
  t.t1_avg_outdegree = simt::kWarpSize;  // Sec. VII.B: "we set T1 to 32"
  t.t2_ws_size = static_cast<double>(thread_tpb) * props.num_sms;
  t.t3_fraction = t3_fraction;
  return t;
}

gg::Variant decide(const Thresholds& t, std::uint64_t ws_size, double avg_outdegree,
                   std::uint32_t num_nodes, double outdeg_stddev) {
  gg::Variant v;
  v.ordering = gg::Ordering::unordered;  // Sec. VI.A: adaptive pool is unordered

  const auto ws = static_cast<double>(ws_size);
  if (ws < t.t2_ws_size) {
    // Left of T2: too little coarse-grained parallelism for thread mapping,
    // and a bitmap over N nodes would be nearly all waste.
    v.mapping = gg::Mapping::block;
    v.repr = gg::WorksetRepr::queue;
    return v;
  }
  const double effective_outdegree =
      avg_outdegree + t.skew_weight * outdeg_stddev;
  v.mapping = effective_outdegree < t.t1_avg_outdegree ? gg::Mapping::thread
                                                       : gg::Mapping::block;
  const double t3 = t.t3_fraction * static_cast<double>(num_nodes);
  v.repr = ws > t3 ? gg::WorksetRepr::bitmap : gg::WorksetRepr::queue;
  return v;
}

gg::Direction decide_direction(const Thresholds& t, gg::Direction current,
                               std::uint64_t frontier_edges,
                               std::uint64_t unexplored_edges,
                               std::uint32_t num_nodes) {
  // Modeled cost of one gather iteration: a dense sweep over every vertex
  // plus the unexplored in-edges it still has to read. A scatter iteration
  // costs the frontier's out-edges — with contended atomics, which is what
  // pull saves. Flip to pull when the scatter mass covers do_alpha of the
  // gather volume; flip back once it drains below the (much lower) do_beta
  // band. The gap between the two is the hysteresis that keeps a post-peak
  // frontier pulling and makes push<->pull<->push thrash impossible.
  const double gather_volume =
      static_cast<double>(unexplored_edges) + static_cast<double>(num_nodes);
  const double scatter_mass = static_cast<double>(frontier_edges);
  if (current != gg::Direction::pull) {
    return scatter_mass > t.do_alpha * gather_volume ? gg::Direction::pull
                                                     : gg::Direction::push;
  }
  return scatter_mass < t.do_beta * gather_volume ? gg::Direction::push
                                                  : gg::Direction::pull;
}

gg::Representation decide_representation(const Thresholds& t,
                                         std::uint32_t num_nodes,
                                         double avg_outdegree,
                                         double outdeg_stddev,
                                         std::uint32_t max_outdegree) {
  if (num_nodes < t.rep_min_nodes || avg_outdegree <= 0.0 ||
      outdeg_stddev / avg_outdegree <= t.rep_cv ||
      static_cast<double>(max_outdegree) / avg_outdegree < t.rep_hub) {
    return gg::Representation::plain;
  }
  return gg::Representation::relabelled;
}

FusionCosts FusionCosts::of(const simt::Device& dev,
                            std::uint32_t threads_per_block) {
  FusionCosts c;
  c.barrier_us = dev.grid_barrier_us(threads_per_block);
  c.relaunch_us = dev.timing().launch_overhead_us;
  c.readback_us = dev.timing().transfer_latency_us +
                  sizeof(std::uint32_t) / (dev.props().pcie_gbps * 1e3);
  return c;
}

bool decide_fused(const FusionCosts& c, bool host_step) {
  return !host_step && c.barrier_us < c.relaunch_us + c.readback_us;
}

bool choose_cpu_fallback(const FallbackInput& in) {
  if (!in.device_healthy) return true;
  if (in.deadline_us <= 0) return false;
  const double deadline = in.submit_us + in.deadline_us;
  if (in.gpu_start_us <= deadline) return false;
  // The GPU cannot even start in time; the CPU is the only path that might
  // still meet the deadline.
  return in.cpu_start_us + in.cpu_estimate_us <= deadline;
}

}  // namespace rt
