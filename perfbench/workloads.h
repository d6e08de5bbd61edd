// The benchmark's three workloads. Each drives the program only through its
// public entry points (adaptive::Session, svc::GraphService) and checks every
// answer against the serial CPU oracles, outside the timed intervals.
//
//   traverse      one closed-loop caller on a single-device Session, cache
//                 off; BFS/SSSP/CC on a road lattice and an RMAT graph under
//                 the fully adaptive policy (O/U, T/B, BM/QU, direction,
//                 representation). Exercises simt, gpu_graph and runtime;
//                 leaves the service, cache and mutation paths idle.
//   serve-zipf    2-device replicated GraphService with the default cache,
//                 collapsing and batching; Zipf(1.0) BFS/SSSP sources on an
//                 RMAT graph under the default 3-axis policy. Exercises the
//                 cache, singleflight collapsing, fused MS-BFS batching and
//                 replica routing; bypasses the direction and representation
//                 controllers.
//   serve-mutate  1-device GraphService over 16 disjoint communities; about
//                 10% of submissions are 8-op edge deltas generated against
//                 a mirror CSR. Exercises delta validation, device patching,
//                 incremental CC, version barriers and delta-aware cache
//                 invalidation next to the read path.
//
// The service workloads run closed-loop waves: 32 submissions, then drain().
// The service stamps submit_us at the fleet makespan, so arrivals cannot be
// scheduled from outside the program.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"

namespace perfbench {

// Everything the benchmark observes about one submission.
struct QueryRecord {
  std::uint64_t id = 0;
  bool mutation = false;
  bool ok = false;          // completed, and the payload matched the oracle
  double latency_us = 0;    // modeled: total_us, or finish_us - submit_us
  // Service outcomes only.
  double queue_wait_us = 0;  // start_us - submit_us
  double exec_us = 0;        // finish_us - start_us
  bool cached = false;
  bool collapsed = false;
  bool dispatched = false;   // ran on a device stream
  bool degraded = false;
  bool rebuilt = false;
  std::uint32_t batch_size = 1;
  std::uint32_t device = 0;
  std::uint32_t retries = 0;
};

// Engine-level sums read from the Result metrics of executed queries.
struct EngineTotals {
  double transfer_us = 0;
  double total_us = 0;
  std::uint64_t iterations = 0;
  std::uint64_t edges_processed = 0;
};

struct WaveResult {
  std::vector<QueryRecord> records;
  std::vector<double> call_host_s;  // host time of each timed call
  double host_s = 0;        // host time inside calls into the program
  double drain_host_s = 0;  // service workloads: the drain() part of host_s
  std::uint64_t checksum = 0;  // order-independent digest of the payloads
  EngineTotals engine;
};

struct GraphInfo {
  std::string name;
  std::uint32_t nodes = 0;
  std::uint64_t arcs = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the graphs, builds the system under test, uploads and runs one
  // warm-up query per (graph, algorithm). The caller times it.
  virtual void setup() = 0;

  // Called after each timed call, outside every timed interval, with that
  // call's host seconds.
  using Between = std::function<void(double call_host_s)>;

  // Generates and runs the next wave. Inputs and oracle answers are made
  // before the timed calls and answers are checked after them. When `sink`
  // is attached, its spans are tagged with query ids.
  virtual WaveResult run_wave(SpanSink* sink, const Between& between) = 0;

  virtual FleetSnapshot fleet_snapshot() const = 0;
  virtual svc::CacheStats cache_stats() const { return {}; }
  virtual std::vector<GraphInfo> graphs() const = 0;
};

// Valid names: traverse, serve-zipf, serve-mutate. Throws on anything else.
// Instances made with the same arguments see identical inputs; `waves` is
// the length of the run the input streams are drawn for.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, std::size_t waves);

}  // namespace perfbench
