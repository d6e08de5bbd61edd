#include "simt/warp_trace.h"

#include <algorithm>
#include <bit>

namespace simt {

WarpCost& WarpCost::operator+=(const WarpCost& o) {
  issue_cycles += o.issue_cycles;
  mem_instrs += o.mem_instrs;
  transactions += o.transactions;
  atomics += o.atomics;
  atomic_steps += o.atomic_steps;
  lane_work += o.lane_work;
  lockstep_work += o.lockstep_work;
  return *this;
}

WarpCost WarpCost::operator*(double k) const {
  WarpCost c = *this;
  c.issue_cycles *= k;
  c.mem_instrs *= k;
  c.transactions *= k;
  c.atomics *= k;
  c.atomic_steps *= k;
  c.lane_work *= k;
  c.lockstep_work *= k;
  return c;
}

void AtomicTally::reset() {
  for (std::uint32_t i : occupied_) slots_[i] = Slot{};
  occupied_.clear();
  max_count_ = 0;
  total_ = 0;
}

void AtomicTally::merge_into(AtomicTally& dst) const {
  for (std::uint32_t i : occupied_) dst.add(slots_[i].key, slots_[i].count);
}

void AtomicTally::grow() {
  // Slot indices are kept as 32 bits; a table that large would be 64 GiB.
  AGG_CHECK(slots_.size() < (std::size_t{1} << 32));
  const std::vector<Slot> old = std::move(slots_);
  const std::vector<std::uint32_t> old_occupied = std::move(occupied_);
  slots_.assign(old.size() * 2, Slot{});
  occupied_.clear();
  const std::uint64_t keep_max = max_count_;
  const std::uint64_t keep_total = total_;
  for (std::uint32_t i : old_occupied) add(old[i].key, old[i].count);
  max_count_ = keep_max;
  total_ = keep_total;
}

void WarpTrace::rebind(const TimingModel& tm) {
  tm_ = &tm;
  const auto seg_bytes = static_cast<std::uint64_t>(tm.segment_bytes);
  AGG_DCHECK(std::has_single_bit(seg_bytes) && tm.stream_refetch_period >= 1);
  seg_shift_ = static_cast<unsigned>(std::countr_zero(seg_bytes));
  refetch_period_ = static_cast<std::uint32_t>(tm.stream_refetch_period);
}

void WarpTrace::begin_warp(AtomicTally& tally) {
  for (int t = 0; t < num_touched_; ++t) {
    SiteState& s = sites_[touched_[t]];
    s.kind = Kind::unused;
    s.owner = -1;
    s.nsteps = 0;
    s.max_misses = 0;
    s.max_ops = 0;
    s.sum = 0;
  }
  num_touched_ = 0;
  tally_ = &tally;
  lane_ = 0;
}

WarpCost WarpTrace::finish_warp() {
  WarpCost cost;
  for (int t = 0; t < num_touched_; ++t) {
    SiteState& s = sites_[touched_[t]];
    fold(s);
    switch (s.kind) {
      case Kind::compute:
        cost.issue_cycles += static_cast<double>(s.max_ops);
        cost.lane_work += static_cast<double>(s.sum);
        cost.lockstep_work += static_cast<double>(kWarpSize * s.max_ops);
        break;
      case Kind::global:
        for (std::uint32_t k = 0; k < s.nsteps; ++k) {
          cost.issue_cycles += tm_->issue_cycles_per_mem_instr +
                               tm_->lsu_cycles_per_transaction * s.nsegs[k];
          cost.transactions += s.nsegs[k];
        }
        // The latency chain counts only line-buffer misses (hits are served
        // from L1 within the issue cost), lockstep across lanes.
        cost.mem_instrs += static_cast<double>(s.max_misses);
        break;
      case Kind::atomic:
        cost.issue_cycles +=
            tm_->issue_cycles_per_atomic * static_cast<double>(s.nsteps);
        cost.atomic_steps += static_cast<double>(s.nsteps);
        cost.atomics += static_cast<double>(s.sum);
        break;
      case Kind::shared:
        for (std::uint32_t k = 0; k < s.nsteps; ++k) {
          // Replays: max accesses that map to one bank; conflict-free = 1.
          std::array<std::uint8_t, 32> bank{};
          std::uint32_t replays = 1;
          for (std::uint32_t i = 0; i < s.nsegs[k]; ++i) {
            const auto b = static_cast<std::uint32_t>(s.segs[k][i] % 32);
            replays = std::max<std::uint32_t>(replays, ++bank[b]);
          }
          cost.issue_cycles += 1.0 + tm_->shared_replay_cycles * (replays - 1);
        }
        break;
      case Kind::unused:
        break;
    }
  }
  return cost;
}

}  // namespace simt
