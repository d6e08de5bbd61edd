// The decision maker (paper Sec. VI.B-VI.D, Fig. 11).
//
// Given the runtime attributes — working-set size |WS| and the graph's
// average outdegree — selects one of the four unordered implementations:
//
//      avg outdegree
//        ^
//        |   B_QU      B_QU        B_BM
//   T1 --+           ----------+----------
//        |   B_QU      T_QU    |   T_BM
//        +---------+-----------+-----------> |WS|
//                  T2          T3
//
//  * T1 = warp size: below it, block mapping underutilizes the cores of an
//    SM during the cooperative neighborhood visit;
//  * T2 = thread_tpb x num_SMs: below it, thread mapping cannot put work on
//    every SM, so block mapping is always preferred (B_QU region);
//  * T3 = fraction of the node count: above it, the bitmap's wasted-thread
//    fraction (1 - |WS|/N) is low enough to beat the queue's atomic
//    serialization.
#pragma once

#include <cstdint>

#include "gpu_graph/variant.h"
#include "simt/device_props.h"

namespace simt {
class Device;
}

namespace rt {

struct Thresholds {
  double t1_avg_outdegree = 32.0;
  double t2_ws_size = 2688.0;    // 192 threads/block x 14 SMs on the C2070
  // Fraction of the node count. Experimentally tuned on the simulated
  // device via bench/fig13_t3_sweep (per-dataset optima fall at 10-80%; the
  // paper's Fermi measurements put them at 1-13% — our modeled queue
  // insertion is cheaper relative to bitmap thread waste).
  double t3_fraction = 0.30;

  // Extension over the paper's Fig. 11 (motivated by its own Sec. VI.B
  // thread-divergence discussion): the mapping decision compares
  // avg + skew_weight * stddev of the outdegree against T1, so heavy-tailed
  // graphs with a low *average* outdegree (e.g. SNS) still select block
  // mapping, whose cooperative neighborhood visit absorbs the tail. Set
  // skew_weight = 0 for the paper's exact rule.
  double skew_weight = 0.5;

  // Direction-optimizing thresholds (after Beamer et al., "Direction-
  // Optimizing Breadth-First Search"; the 4th adaptive dimension). Both
  // rules compare the frontier's edge mass against the volume one gather
  // iteration would scan, `unexplored_edges + num_nodes` (every pull kernel
  // sweeps all vertices; unexplored_edges is the engine's estimate of the
  // in-edges that sweep still has to read — see each engine for its proxy):
  //   push -> pull  when  frontier_edges > do_alpha * (unexplored + n)
  //   pull -> push  when  frontier_edges < do_beta  * (unexplored + n)
  // do_beta well below do_alpha gives hysteresis: a post-peak frontier keeps
  // pulling until it has truly drained. Beamer's CPU-tuned alpha=1/14 and
  // beta=1/24 (against different denominators) do not transfer to the
  // simulated kernels' cost model; these defaults are calibrated against
  // per-iteration push/pull timings on the bench corpus, where pull starts
  // winning once the frontier covers roughly half the gather volume.
  double do_alpha = 0.5;
  double do_beta = 0.05;

  // Representation thresholds (the 5th adaptive dimension; DESIGN.md
  // "Representation adaptivity"). The layout is chosen once, at query
  // start, from the inspector's whole-graph topology stats: degree-
  // relabelled CSR when the graph has at least rep_min_nodes nodes, a
  // degree CV (stddev/avg) above rep_cv and an extreme hub ratio
  // (max/avg >= rep_hub) — packing the hubs into a few warps is the only way
  // to keep them from serializing every warp they land in; plain CSR
  // otherwise (uniform rows have nothing to rebalance, and the conversion
  // of a small graph never pays back).
  double rep_cv = 1.0;
  double rep_hub = 16.0;
  std::uint32_t rep_min_nodes = 4096;

  // Derives T1/T2 from the device per the paper's rules; keeps the given
  // T3 fraction (and the defaults for the direction knobs).
  static Thresholds for_device(const simt::DeviceProps& props,
                               std::uint32_t thread_tpb = 192,
                               double t3_fraction = 0.30);
};

gg::Variant decide(const Thresholds& t, std::uint64_t ws_size, double avg_outdegree,
                   std::uint32_t num_nodes, double outdeg_stddev = 0.0);

// Direction-optimizing controller step (the push<->pull hysteresis above):
// given the direction the traversal is currently running in and the
// inspector's frontier statistics, returns the direction for the next
// iteration. Pure function — the adaptive selector threads the returned
// value back in as `current`.
gg::Direction decide_direction(const Thresholds& t, gg::Direction current,
                               std::uint64_t frontier_edges,
                               std::uint64_t unexplored_edges,
                               std::uint32_t num_nodes);

// Query-start layout choice for a graph (the rule on Thresholds above):
// pure over the inspector's whole-graph topology stats, so it replays
// deterministically and can be asserted in tests. Returns plain or
// relabelled, never `adaptive`.
gg::Representation decide_representation(const Thresholds& t,
                                         std::uint32_t num_nodes,
                                         double avg_outdegree,
                                         double outdeg_stddev,
                                         std::uint32_t max_outdegree);

// Fused-loop rule (DESIGN.md "Fused iteration loop"): the next iteration
// runs inside the traversal's persistent kernel when one grid barrier costs
// less than what it replaces, a relaunch plus the per-iteration size
// readback, and no host step comes between it and the iteration before
// (`host_step`: a pull iteration's CSC upload or a hybrid host phase).
struct FusionCosts {
  double barrier_us = 0;   // simt::Device::grid_barrier_us at the loop's tpb
  double relaunch_us = 0;  // TimingModel::launch_overhead_us
  double readback_us = 0;  // one 4-byte device-to-host transfer
  static FusionCosts of(const simt::Device& dev, std::uint32_t threads_per_block);
};

bool decide_fused(const FusionCosts& c, bool host_step);

// CPU-fallback decision for the serving layer: answer a query with the
// serial oracle instead of launching on the device. Complements the variant
// decision above — it picks *whether* to use the GPU at all, on modeled
// time alone, so the choice replays deterministically.
struct FallbackInput {
  bool device_healthy = true;  // false once a fault plan killed the device
  double deadline_us = 0;      // modeled budget from submit; 0 = none
  double submit_us = 0;        // modeled submission time
  double gpu_start_us = 0;     // earliest slot on any device stream
  double cpu_start_us = 0;     // host serial timeline ready time
  double cpu_estimate_us = 0;  // modeled serial execution time (upper bound)
};

// True when the device is unhealthy, or the earliest device slot already
// misses the deadline while the host can still answer in time.
bool choose_cpu_fallback(const FallbackInput& in);

}  // namespace rt
