// Differential test of the warp tracer.
//
// RefTrace below is the tracer's original algorithm, which keeps full
// per-lane counter arrays and regroups them per warp. Seeded random event
// programs are replayed through it and through simt::WarpTrace (lane-scalar
// site state, folded in lane order); every WarpCost field and the atomic
// tally's max_count/total must match exactly. The AtomicTally and
// TimingModel-validation cases live here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "simt/device.h"
#include "simt/exec_pool.h"
#include "simt/launch.h"
#include "simt/warp_trace.h"

namespace {

using simt::kWarpSize;
using simt::Site;
using simt::TimingModel;
using simt::WarpCost;

// ---- reference tracer: per-lane arrays, regrouped in finish_warp ----

class RefTrace {
 public:
  explicit RefTrace(const TimingModel& tm) : tm_(&tm) {}

  void begin_warp() {
    for (std::uint8_t id : touched_) {
      SiteState& s = sites_[id];
      s.kind = Kind::unused;
      s.lane_steps.fill(0);
      s.lane_miss.fill(0);
      s.lane_hits.fill(0);
      s.last_seg.fill(0);
      s.lane_ops.fill(0);
      s.steps.clear();
      s.atomic_addrs.clear();
    }
    touched_.clear();
    lane_ = 0;
  }
  void set_lane(int lane) { lane_ = lane; }

  void on_global(Site site, std::uint64_t addr, std::uint32_t bytes) {
    SiteState& s = touch(site, Kind::global);
    const std::uint32_t k = s.lane_steps[lane_]++;
    if (k >= s.steps.size()) s.steps.resize(k + 1);
    Step& step = s.steps[k];
    const auto seg = static_cast<std::uint64_t>(
        addr / static_cast<std::uint64_t>(tm_->segment_bytes));
    if (s.last_seg[lane_] == seg + 1) {
      ++step.lanes;
      step.bytes += bytes;
      if (static_cast<int>(++s.lane_hits[lane_]) % tm_->stream_refetch_period != 0) {
        return;
      }
      bool refetched = false;
      for (std::uint32_t i = 0; i < step.nsegs; ++i) {
        if (step.segs[i] == seg) {
          refetched = true;
          break;
        }
      }
      if (!refetched && step.nsegs < static_cast<std::uint32_t>(kWarpSize)) {
        step.segs[step.nsegs++] = seg;
      }
      return;
    }
    s.last_seg[lane_] = seg + 1;
    ++s.lane_miss[lane_];
    bool found = false;
    for (std::uint32_t i = 0; i < step.nsegs; ++i) {
      if (step.segs[i] == seg) {
        found = true;
        break;
      }
    }
    if (!found) {
      AGG_CHECK(step.nsegs < static_cast<std::uint32_t>(kWarpSize));
      step.segs[step.nsegs++] = seg;
    }
    ++step.lanes;
    step.bytes += bytes;
  }

  void on_compute(Site site, std::uint64_t ops) {
    SiteState& s = touch(site, Kind::compute);
    s.lane_ops[lane_] += ops;
  }

  void on_atomic(Site site, std::uint64_t addr) {
    SiteState& s = touch(site, Kind::atomic);
    ++s.lane_steps[lane_];
    s.atomic_addrs.push_back(addr);
  }

  void on_shared(Site site, std::uint32_t word_index) {
    SiteState& s = touch(site, Kind::shared);
    const std::uint32_t k = s.lane_steps[lane_]++;
    if (k >= s.steps.size()) s.steps.resize(k + 1);
    Step& step = s.steps[k];
    AGG_CHECK(step.nsegs < static_cast<std::uint32_t>(kWarpSize));
    step.segs[step.nsegs++] = word_index;
    ++step.lanes;
    step.bytes += 4;
  }

  WarpCost finish_warp(std::map<std::uint64_t, std::uint64_t>& tally) {
    WarpCost cost;
    for (std::uint8_t id : touched_) {
      SiteState& s = sites_[id];
      switch (s.kind) {
        case Kind::compute: {
          std::uint64_t max_ops = 0;
          std::uint64_t sum_ops = 0;
          for (int l = 0; l < kWarpSize; ++l) {
            max_ops = std::max(max_ops, s.lane_ops[l]);
            sum_ops += s.lane_ops[l];
          }
          cost.issue_cycles += static_cast<double>(max_ops);
          cost.lane_work += static_cast<double>(sum_ops);
          cost.lockstep_work += static_cast<double>(kWarpSize * max_ops);
          break;
        }
        case Kind::global: {
          for (const Step& step : s.steps) {
            cost.issue_cycles += tm_->issue_cycles_per_mem_instr +
                                 tm_->lsu_cycles_per_transaction * step.nsegs;
            cost.transactions += step.nsegs;
          }
          std::uint32_t max_miss = 0;
          for (int l = 0; l < kWarpSize; ++l) {
            max_miss = std::max(max_miss, s.lane_miss[l]);
          }
          cost.mem_instrs += static_cast<double>(max_miss);
          break;
        }
        case Kind::atomic: {
          std::uint32_t max_steps = 0;
          for (int l = 0; l < kWarpSize; ++l) {
            max_steps = std::max(max_steps, s.lane_steps[l]);
          }
          cost.issue_cycles +=
              tm_->issue_cycles_per_atomic * static_cast<double>(max_steps);
          cost.atomic_steps += static_cast<double>(max_steps);
          cost.atomics += static_cast<double>(s.atomic_addrs.size());
          for (std::uint64_t addr : s.atomic_addrs) ++tally[addr];
          break;
        }
        case Kind::shared: {
          for (const Step& step : s.steps) {
            std::array<std::uint8_t, 32> bank{};
            std::uint32_t replays = 1;
            for (std::uint32_t i = 0; i < step.nsegs; ++i) {
              const auto b = static_cast<std::uint32_t>(step.segs[i] % 32);
              replays = std::max<std::uint32_t>(replays, ++bank[b]);
            }
            cost.issue_cycles += 1.0 + tm_->shared_replay_cycles * (replays - 1);
          }
          break;
        }
        case Kind::unused:
          break;
      }
    }
    return cost;
  }

 private:
  struct Step {
    std::uint32_t nsegs = 0;
    std::array<std::uint64_t, kWarpSize> segs;
    std::uint32_t lanes = 0;
    std::uint32_t bytes = 0;
  };

  enum class Kind : std::uint8_t { unused, global, compute, atomic, shared };

  struct SiteState {
    Kind kind = Kind::unused;
    std::array<std::uint32_t, kWarpSize> lane_steps{};
    std::array<std::uint32_t, kWarpSize> lane_miss{};
    std::array<std::uint32_t, kWarpSize> lane_hits{};
    std::array<std::uint64_t, kWarpSize> last_seg{};
    std::array<std::uint64_t, kWarpSize> lane_ops{};
    std::vector<Step> steps;
    std::vector<std::uint64_t> atomic_addrs;
  };

  SiteState& touch(Site site, Kind kind) {
    AGG_CHECK(site.id < simt::kMaxSites);
    SiteState& s = sites_[site.id];
    if (s.kind == Kind::unused) {
      s.kind = kind;
      touched_.push_back(site.id);
    }
    AGG_CHECK(s.kind == kind);
    return s;
  }

  const TimingModel* tm_;
  std::array<SiteState, simt::kMaxSites> sites_;
  std::vector<std::uint8_t> touched_;
  int lane_ = 0;
};

// ---- random event programs ----

enum class Op : std::uint8_t { global, compute, atomic, shared };

struct Event {
  Op op;
  std::uint8_t site;
  std::uint64_t value;  // address, ops or shared word index
  int iter;             // loop iteration of the lane that issues it
};

using WarpProgram = std::array<std::vector<Event>, kWarpSize>;

// The access shapes a site can take; one per site per warp.
enum class Shape {
  coalesced,  // lane l, iteration i reads element i*32 + l
  strided,    // lane l reads element (i*32 + l) * stride
  scattered,  // uniformly random addresses in a small or large range
  streaming,  // lane l scans its own contiguous run (line-buffer hits)
  compute,
  atomic_hot,   // most atomics land on two hot words
  atomic_cold,  // atomics spread over many words
  shared,       // bank-conflict pattern word = (i*32 + l) * stride
  kCount
};

class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  WarpProgram next() {
    WarpProgram prog;
    const int nsites = pick(1, 6);
    std::vector<std::uint8_t> ids(simt::kMaxSites);
    for (int i = 0; i < simt::kMaxSites; ++i) ids[i] = static_cast<std::uint8_t>(i);
    std::shuffle(ids.begin(), ids.end(), rng_);

    // Per-lane trip counts: uniform, divergent, or deep (thousands of steps
    // at one site, to exercise step storage growth and reuse).
    const int trip_mode = pick(0, 3);
    const int max_trip = trip_mode == 3 ? pick(200, 2500) : pick(1, 12);
    std::array<int, kWarpSize> trips{};
    for (int l = 0; l < kWarpSize; ++l) {
      trips[l] = trip_mode == 0 ? max_trip : pick(0, max_trip);
    }
    // Lanes that touch no site at all.
    if (pick(0, 2) == 0) {
      const int idle = pick(1, kWarpSize);
      for (int k = 0; k < idle; ++k) trips[pick(0, kWarpSize - 1)] = 0;
    }
    const bool shuffle_lane_order = pick(0, 3) == 0;

    for (int si = 0; si < nsites; ++si) {
      const std::uint8_t site = ids[si];
      const auto shape = static_cast<Shape>(pick(0, static_cast<int>(Shape::kCount) - 1));
      const std::uint64_t base = 4096 + 4096 * static_cast<std::uint64_t>(pick(0, 1 << 20));
      const std::uint64_t elem = std::array<std::uint64_t, 3>{1, 4, 8}[pick(0, 2)];
      const std::uint64_t stride = std::array<std::uint64_t, 5>{2, 8, 32, 33, 64}[pick(0, 4)];
      const std::uint64_t range = pick(0, 1) ? 512 : (1u << 24);
      const std::uint64_t lane_span = 8 * static_cast<std::uint64_t>(pick(64, 4096));
      // Some sites run fewer iterations than the lane's loop.
      const int every = pick(1, 3);
      for (int l = 0; l < kWarpSize; ++l) {
        for (int i = 0; i < trips[l]; i += every) {
          const auto ui = static_cast<std::uint64_t>(i);
          const auto ul = static_cast<std::uint64_t>(l);
          Event e{Op::global, site, 0, i};
          switch (shape) {
            case Shape::coalesced:
              e.value = base + (ui * kWarpSize + ul) * elem;
              break;
            case Shape::strided:
              e.value = base + (ui * kWarpSize + ul) * stride * elem;
              break;
            case Shape::scattered:
              e.value = base + (rng_() % range) * elem;
              break;
            case Shape::streaming:
              e.value = base + ul * lane_span + ui * elem;
              break;
            case Shape::compute:
              e.op = Op::compute;
              e.value = static_cast<std::uint64_t>(pick(0, 9));
              break;
            case Shape::atomic_hot:
              e.op = Op::atomic;
              e.value = pick(0, 7) ? base + 4 * static_cast<std::uint64_t>(pick(0, 1))
                                   : base + 4 * (rng_() % range);
              break;
            case Shape::atomic_cold:
              e.op = Op::atomic;
              e.value = base + 4 * (rng_() % range);
              break;
            case Shape::shared:
              e.op = Op::shared;
              e.value = (ui * kWarpSize + ul) * stride % 12288;
              break;
            case Shape::kCount:
              break;
          }
          prog[l].push_back(e);
        }
      }
    }
    // Interleave the sites of each lane like a loop body, or shuffle them.
    for (auto& lane : prog) {
      if (shuffle_lane_order) {
        std::shuffle(lane.begin(), lane.end(), rng_);
      } else {
        std::stable_sort(lane.begin(), lane.end(), [](const Event& a, const Event& b) {
          return a.iter < b.iter;
        });
      }
    }
    return prog;
  }

 private:
  int pick(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }

  std::mt19937_64 rng_;
};

template <typename Trace>
void replay_lane(Trace& t, const std::vector<Event>& events) {
  for (const Event& e : events) {
    const Site site{e.site, "random"};
    switch (e.op) {
      case Op::global:
        if constexpr (std::is_same_v<Trace, RefTrace>) {
          t.on_global(site, e.value, 4);
        } else {
          t.on_global(site, e.value);
        }
        break;
      case Op::compute:
        t.on_compute(site, e.value);
        break;
      case Op::atomic:
        t.on_atomic(site, e.value);
        break;
      case Op::shared:
        t.on_shared(site, static_cast<std::uint32_t>(e.value));
        break;
    }
  }
}

void expect_same_cost(const WarpCost& got, const WarpCost& want, int warp) {
  EXPECT_EQ(got.issue_cycles, want.issue_cycles) << "warp " << warp;
  EXPECT_EQ(got.mem_instrs, want.mem_instrs) << "warp " << warp;
  EXPECT_EQ(got.transactions, want.transactions) << "warp " << warp;
  EXPECT_EQ(got.atomics, want.atomics) << "warp " << warp;
  EXPECT_EQ(got.atomic_steps, want.atomic_steps) << "warp " << warp;
  EXPECT_EQ(got.lane_work, want.lane_work) << "warp " << warp;
  EXPECT_EQ(got.lockstep_work, want.lockstep_work) << "warp " << warp;
}

// Replays `warps` random warps through both tracers, one "launch" (tally
// reset) every `warps_per_launch` warps, with the same tracer objects
// throughout so state reuse across warps and launches is exercised.
void differential_run(const TimingModel& tm, std::uint64_t seed, int warps) {
  constexpr int warps_per_launch = 8;
  ProgramGen gen(seed);
  simt::WarpTrace trace(tm);
  simt::AtomicTally tally;
  RefTrace ref(tm);
  std::map<std::uint64_t, std::uint64_t> ref_tally;

  auto check_tally = [&](int warp) {
    std::uint64_t max_count = 0;
    std::uint64_t total = 0;
    for (const auto& [addr, count] : ref_tally) {
      max_count = std::max(max_count, count);
      total += count;
    }
    EXPECT_EQ(tally.max_count(), max_count) << "launch ending at warp " << warp;
    EXPECT_EQ(tally.total(), total) << "launch ending at warp " << warp;
  };

  for (int w = 0; w < warps; ++w) {
    if (w % warps_per_launch == 0) {
      if (w > 0) check_tally(w - 1);
      tally.reset();
      ref_tally.clear();
    }
    const WarpProgram prog = gen.next();
    trace.begin_warp(tally);
    ref.begin_warp();
    for (int l = 0; l < kWarpSize; ++l) {
      trace.set_lane(l);
      ref.set_lane(l);
      replay_lane(trace, prog[l]);
      replay_lane(ref, prog[l]);
    }
    expect_same_cost(trace.finish_warp(), ref.finish_warp(ref_tally), w);
    if (::testing::Test::HasFailure()) return;
  }
  check_tally(warps - 1);
}

TEST(WarpTraceDifferential, MatchesPerLaneReferenceOnFermiDefaults) {
  differential_run(TimingModel::fermi_default(), 1, 400);
}

TEST(WarpTraceDifferential, MatchesPerLaneReferenceAtEveryRefetchPeriod) {
  for (int period : {1, 2, 3}) {
    SCOPED_TRACE(period);
    TimingModel tm = TimingModel::fermi_default();
    tm.stream_refetch_period = period;
    differential_run(tm, 100 + static_cast<std::uint64_t>(period), 300);
  }
}

TEST(WarpTraceDifferential, MatchesPerLaneReferenceAtOtherSegmentSizes) {
  for (double seg : {4.0, 32.0, 256.0}) {
    SCOPED_TRACE(seg);
    TimingModel tm = TimingModel::kepler_default();
    tm.segment_bytes = seg;
    differential_run(tm, 200 + static_cast<std::uint64_t>(seg), 200);
  }
}

TEST(WarpTraceDifferential, EmptyWarpCostsNothing) {
  const TimingModel tm = TimingModel::fermi_default();
  simt::WarpTrace trace(tm);
  simt::AtomicTally tally;
  // A warp with touched sites first, so the empty one must not see leftovers.
  trace.begin_warp(tally);
  trace.on_compute(Site{3, "ops"}, 5);
  trace.on_atomic(Site{4, "atomic"}, 4096);
  trace.finish_warp();
  trace.begin_warp(tally);
  for (int l = 0; l < kWarpSize; ++l) trace.set_lane(l);
  expect_same_cost(trace.finish_warp(), WarpCost{}, 1);
  EXPECT_EQ(tally.total(), 1u);
}

// ---- AtomicTally ----

TEST(AtomicTally, ResetAfterGrowLeavesAnEmptyTally) {
  simt::AtomicTally tally;
  constexpr std::uint64_t kAddrs = 5000;  // well past the initial 1024 slots
  for (std::uint64_t a = 1; a <= kAddrs; ++a) tally.add(a * 4);
  tally.add(8, 6);
  EXPECT_EQ(tally.max_count(), 7u);
  EXPECT_EQ(tally.total(), kAddrs + 6);

  tally.reset();
  EXPECT_EQ(tally.max_count(), 0u);
  EXPECT_EQ(tally.total(), 0u);
  // Every slot was emptied: re-adding counts from zero again.
  for (std::uint64_t a = 1; a <= kAddrs; ++a) tally.add(a * 4);
  EXPECT_EQ(tally.max_count(), 1u);
  EXPECT_EQ(tally.total(), kAddrs);

  simt::AtomicTally dst;
  tally.merge_into(dst);
  EXPECT_EQ(dst.max_count(), 1u);
  EXPECT_EQ(dst.total(), kAddrs);
}

TEST(AtomicTally, MergeOrderDoesNotChangeMaxOrTotal) {
  std::mt19937_64 rng(7);
  std::array<simt::AtomicTally, 3> workers;
  simt::AtomicTally serial;
  for (int i = 0; i < 20000; ++i) {
    // A few hot words plus a long tail, split across workers at random.
    const std::uint64_t addr =
        (rng() % 4 == 0 ? 4096 + 4 * (rng() % 3) : 4096 + 4 * (rng() % 3000));
    workers[rng() % workers.size()].add(addr);
    serial.add(addr);
  }
  simt::AtomicTally forward;
  simt::AtomicTally backward;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    workers[w].merge_into(forward);
    workers[workers.size() - 1 - w].merge_into(backward);
  }
  EXPECT_EQ(forward.max_count(), serial.max_count());
  EXPECT_EQ(forward.total(), serial.total());
  EXPECT_EQ(backward.max_count(), serial.max_count());
  EXPECT_EQ(backward.total(), serial.total());
}

// ---- pooled launches: each worker's tracer tallies into its own tally ----

simt::KernelStats atomic_launch(int threads) {
  constexpr std::uint64_t kThreads = 1 << 15;
  simt::ExecPool::set_threads(threads);
  simt::Device dev;
  auto hot = dev.alloc<std::uint32_t>(1, "hot");
  auto cold = dev.alloc<std::uint32_t>(kThreads, "cold");
  // Counting atomics with discarded returns: order-insensitive. The cold
  // words (one per thread) grow every worker's tally past its initial table.
  const simt::KernelStats ks = simt::launch(
      dev, "tally.pooled",
      simt::GridSpec::dense(kThreads, 256).with(simt::LaunchPolicy::parallel),
      [&](simt::ThreadCtx& ctx) {
        ctx.atomic_add(hot, 0, 1u, Site{0, "hot"});
        ctx.atomic_add(cold, ctx.global_id(), 1u, Site{1, "cold"});
        if (ctx.global_id() % 3 == 0) ctx.atomic_add(hot, 0, 1u, Site{0, "hot"});
      });
  simt::ExecPool::set_threads(1);
  EXPECT_EQ(hot.host_view()[0], kThreads + (kThreads + 2) / 3);
  return ks;
}

TEST(WarpTracePooled, WorkerTalliesMergeToTheSerialTally) {
  const simt::KernelStats serial = atomic_launch(1);
  const simt::KernelStats pooled = atomic_launch(8);
  EXPECT_EQ(serial.max_atomic_same_addr, (1u << 15) + ((1u << 15) + 2) / 3);
  EXPECT_EQ(pooled.max_atomic_same_addr, serial.max_atomic_same_addr);
  EXPECT_EQ(pooled.atomics, serial.atomics);
  EXPECT_EQ(pooled.issue_cycles, serial.issue_cycles);
  EXPECT_EQ(pooled.time_us, serial.time_us);
}

// ---- TimingModel validation at Device construction ----

TEST(TimingModelCheck, ShippedPresetsAreAccepted) {
  simt::Device fermi(simt::DeviceProps::fermi_c2070(), TimingModel::fermi_default());
  simt::Device kepler(simt::DeviceProps::kepler_k20(), TimingModel::kepler_default());
  EXPECT_EQ(fermi.timing().segment_bytes, 128.0);
  EXPECT_EQ(kepler.timing().stream_refetch_period, 2);
}

TEST(TimingModelCheckDeathTest, ZeroRefetchPeriodAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";  // pool workers may run
  TimingModel tm = TimingModel::fermi_default();
  tm.stream_refetch_period = 0;
  EXPECT_DEATH(simt::Device(simt::DeviceProps::fermi_c2070(), tm),
               "stream_refetch_period must be >= 1");
}

TEST(TimingModelCheckDeathTest, BadSegmentBytesAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (double seg : {0.0, 2.0, 96.0, 128.5, -128.0}) {
    SCOPED_TRACE(seg);
    TimingModel tm = TimingModel::fermi_default();
    tm.segment_bytes = seg;
    EXPECT_DEATH(simt::Device(simt::DeviceProps::fermi_c2070(), tm),
                 "segment_bytes must be a power of two");
  }
}

}  // namespace
