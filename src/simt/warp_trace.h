// Warp-level execution tracing and cost aggregation.
//
// The simulator executes the 32 lanes of a warp one after another
// (functionally), while each lane records its architectural events against a
// *static access site* — an id the kernel author assigns to each load/store/
// atomic/arithmetic location in the kernel body, playing the role of a static
// instruction address. The k-th event each lane produces at a site belongs to
// the site's k-th *dynamic warp instruction* (one SIMT lockstep instruction).
// From that grouping we derive the three first-order Fermi effects the
// paper's evaluation rests on:
//
//  * divergence   — a site executes max-over-lanes(k) dynamic instructions,
//                   so a warp whose lanes loop over different outdegrees pays
//                   for the largest one (paper Sec. III.B / IV.B);
//  * coalescing   — the <=32 addresses of one dynamic instruction collapse
//                   into 128-byte segments; each segment costs one memory
//                   transaction (paper Sec. III.C);
//  * atomics      — atomic events are tallied per target address; the launch
//                   charges serialized throughput on the hottest address
//                   (paper Sec. IV.C / V.C, queue insertion).
//
// Lane-order folding invariant. launch() and launch_phased() run the lanes
// of a warp in increasing lane order, and each lane runs to completion before
// the next one starts (kernel.h, launch.h). A lane therefore never returns to
// a site once a later lane has touched it, so a site keeps the counters of
// one lane only — the lane that touched it last — and folds them into the
// warp's max/sum when the next lane arrives (and once more in finish_warp).
// Per-step state (the segments of each dynamic instruction) is shared by all
// lanes and indexed by the lane's own event count. Recording an event is a
// handful of scalar updates on one SiteState; every number equals what
// regrouping full per-lane event lists would give.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "simt/device_props.h"

namespace simt {

// A static access site. Kernels declare them as constexpr values; ids must be
// unique within one kernel launch and < kMaxSites.
struct Site {
  std::uint8_t id;
  const char* name;
};

inline constexpr int kMaxSites = 20;

// Aggregated cost of one executed warp.
struct WarpCost {
  double issue_cycles = 0;      // SM issue/execute occupancy
  double mem_instrs = 0;        // dynamic global-memory instructions (latency chain)
  double transactions = 0;      // 128 B segments moved
  double atomics = 0;           // atomic operations issued (total, for contention)
  double atomic_steps = 0;      // lockstep atomic instructions (max per lane)
  double lane_work = 0;         // sum of per-lane compute ops (for SIMD efficiency)
  double lockstep_work = 0;     // kWarpSize * sum of max-lane compute ops

  // Critical path of this warp alone: what it costs when latency cannot be
  // hidden behind other warps. Independent loads within a warp overlap up to
  // the modeled memory-level parallelism; the 32 atomics of one lockstep
  // instruction are one latency step (their serialization is charged at the
  // launch level through the address tally).
  double critical_cycles(const TimingModel& tm) const {
    return issue_cycles +
           (mem_instrs * tm.mem_latency_cycles +
            atomic_steps * tm.atomic_latency_cycles) /
               tm.mem_level_parallelism;
  }

  WarpCost& operator+=(const WarpCost& o);
  WarpCost operator*(double k) const;
};

// Open-addressing counter map used to find the hottest atomic address of a
// kernel launch. Reused across launches to avoid allocation churn; reset()
// and merge_into() visit only the slots the launch occupied, never the whole
// (possibly grown) table.
class AtomicTally {
 public:
  void reset();
  void add(std::uint64_t addr, std::uint64_t count = 1) {
    if (occupied_.size() * 2 >= slots_.size()) grow();
    // addr 0 is an invalid device address, safe to use as the empty marker.
    AGG_DCHECK(addr != 0);
    std::uint64_t h = addr;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    while (slots_[i].key != 0 && slots_[i].key != addr) i = (i + 1) & mask;
    if (slots_[i].key == 0) {
      slots_[i].key = addr;
      occupied_.push_back(static_cast<std::uint32_t>(i));
    }
    slots_[i].count += count;
    max_count_ = std::max(max_count_, slots_[i].count);
    total_ += count;
  }
  // Adds every (addr, count) pair of this tally into `dst`. Counts are
  // integers, so merging per-worker tallies in any order yields the same
  // per-address totals (and hence the same max_count) as a serial tally —
  // the property the deterministic parallel launch path relies on.
  void merge_into(AtomicTally& dst) const;
  std::uint64_t max_count() const { return max_count_; }
  std::uint64_t total() const { return total_; }

 private:
  void grow();
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t count = 0;
  };
  std::vector<Slot> slots_ = std::vector<Slot>(1024);
  std::vector<std::uint32_t> occupied_;  // indices of the non-empty slots
  std::uint64_t max_count_ = 0;
  std::uint64_t total_ = 0;
};

class WarpTrace {
 public:
  // A default-constructed trace must be rebind()-ed to a timing model before
  // recording; the worker-pool scratch slots outlive any single Device.
  WarpTrace() = default;
  explicit WarpTrace(const TimingModel& tm) { rebind(tm); }

  // `tm` must satisfy the checks of the Device constructor (segment_bytes a
  // power of two, stream_refetch_period >= 1).
  void rebind(const TimingModel& tm);

  // Starts a warp. Atomic events recorded until finish_warp() are added to
  // `tally` as they happen.
  void begin_warp(AtomicTally& tally);
  void set_lane(int lane) { lane_ = lane; }
  int lane() const { return lane_; }

  // Recording API, called by ThreadCtx.
  void on_global(Site site, std::uint64_t addr) {
    SiteState& s = touch(site, Kind::global);
    const std::uint32_t k = next_step(s);
    std::uint64_t* segs = s.segs[k].data();
    std::uint32_t& nsegs = s.nsegs[k];
    const std::uint64_t seg = addr >> seg_shift_;
    // Line-buffer model of per-thread spatial locality: a lane re-reading the
    // 128 B segment it touched last at this site (e.g. the sequential
    // adjacency scan of thread mapping) hits in L1 and skips the latency
    // step; the lockstep instruction itself is still issued. Because L1 is
    // shared by all resident warps, only part of the stream survives between
    // a lane's own accesses: every stream_refetch_period-th hit refetches the
    // segment (counted against DRAM bandwidth, but not the latency chain).
    if (s.lane.last_seg == seg + 1) {
      if (--s.lane.refetch_in != 0) return;
      s.lane.refetch_in = refetch_period_;
      if (!contains(segs, nsegs, seg) && nsegs < static_cast<std::uint32_t>(kWarpSize)) {
        segs[nsegs++] = seg;
      }
      return;
    }
    s.lane.last_seg = seg + 1;
    ++s.lane.misses;
    if (!contains(segs, nsegs, seg)) {
      AGG_DCHECK(nsegs < static_cast<std::uint32_t>(kWarpSize));
      segs[nsegs++] = seg;
    }
  }

  void on_compute(Site site, std::uint64_t ops) {
    SiteState& s = touch(site, Kind::compute);
    s.lane.ops += ops;
    s.sum += ops;
  }

  void on_atomic(Site site, std::uint64_t addr) {
    SiteState& s = touch(site, Kind::atomic);
    if (s.lane.steps++ == s.nsteps) ++s.nsteps;
    ++s.sum;
    tally_->add(addr);
  }

  void on_shared(Site site, std::uint32_t word_index) {
    SiteState& s = touch(site, Kind::shared);
    const std::uint32_t k = next_step(s);
    // For shared sites, segs[] holds raw word indices (not deduplicated);
    // bank conflicts are derived in finish_warp.
    AGG_DCHECK(s.nsegs[k] < static_cast<std::uint32_t>(kWarpSize));
    s.segs[k][s.nsegs[k]++] = word_index;
  }

  // Aggregates the events recorded since begin_warp().
  WarpCost finish_warp();

 private:
  enum class Kind : std::uint8_t { unused, global, compute, atomic, shared };

  // Counters of the one lane a site currently belongs to.
  struct LaneCounters {
    std::uint32_t steps = 0;       // events so far = index of the lane's next step
    std::uint32_t misses = 0;      // global events missing the line buffer
    std::uint32_t refetch_in = 0;  // line-buffer hits left until the next refetch
    std::uint64_t last_seg = 0;    // last segment + 1 (0 = none yet)
    std::uint64_t ops = 0;         // compute ops
  };

  struct SiteState {
    Kind kind = Kind::unused;
    int owner = -1;  // lane whose counters `lane` holds; -1 = none this warp
    LaneCounters lane;
    // Warp totals. Dynamic instructions = max lane steps (global, shared,
    // atomic); max_misses/max_ops cover the lanes folded so far.
    std::uint32_t nsteps = 0;
    std::uint32_t max_misses = 0;
    std::uint64_t max_ops = 0;
    std::uint64_t sum = 0;  // compute: ops of all lanes; atomic: events
    // Step storage, reused across warps; [0, nsteps) is live. Global: the
    // distinct segment ids of each dynamic instruction; shared: word indices.
    std::vector<std::uint32_t> nsegs;
    std::vector<std::array<std::uint64_t, kWarpSize>> segs;
  };

  // The site's state, first folding the previous lane's counters when the
  // current lane touches it for the first time.
  SiteState& touch(Site site, Kind kind) {
    AGG_DCHECK(site.id < kMaxSites);
    SiteState& s = sites_[site.id];
    if (s.owner != lane_) {
      AGG_DCHECK(s.owner < lane_);  // lane-order contract (see header comment)
      if (s.kind == Kind::unused) {
        s.kind = kind;
        touched_[num_touched_++] = site.id;
      } else {
        fold(s);
      }
      s.owner = lane_;
      s.lane = LaneCounters{};
      s.lane.refetch_in = refetch_period_;
    }
    AGG_DCHECK(s.kind == kind);
    return s;
  }

  static void fold(SiteState& s) {
    s.max_misses = std::max(s.max_misses, s.lane.misses);
    s.max_ops = std::max(s.max_ops, s.lane.ops);
  }

  // Index of the current lane's next dynamic instruction at `s`, opening the
  // step (with no segments) when no earlier lane reached it.
  static std::uint32_t next_step(SiteState& s) {
    const std::uint32_t k = s.lane.steps++;
    if (k == s.nsteps) {
      if (k == s.nsegs.size()) {
        s.nsegs.push_back(0);
        s.segs.emplace_back();
      }
      s.nsegs[k] = 0;
      ++s.nsteps;
    }
    return k;
  }

  static bool contains(const std::uint64_t* segs, std::uint32_t n, std::uint64_t seg) {
    // Newest first: neighbouring lanes usually share the latest segment.
    while (n > 0) {
      if (segs[--n] == seg) return true;
    }
    return false;
  }

  const TimingModel* tm_ = nullptr;
  unsigned seg_shift_ = 0;             // log2(segment_bytes)
  std::uint32_t refetch_period_ = 1;   // stream_refetch_period
  AtomicTally* tally_ = nullptr;
  std::array<SiteState, kMaxSites> sites_;
  std::array<std::uint8_t, kMaxSites> touched_{};
  int num_touched_ = 0;
  int lane_ = 0;
};

}  // namespace simt
