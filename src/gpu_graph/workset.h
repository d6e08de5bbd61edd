// Dual-representation device working set (paper Sec. IV.C / V.C / VI).
//
// Both representations are backed by the same *update vector*: the
// computation kernel marks nodes to be processed next by setting update[id],
// and the CUDA_workset_gen kernel (Fig. 9) transforms the update vector into
// bitmap or queue form while clearing it. Because generation starts from the
// shared update vector every iteration, the adaptive runtime can switch
// representation between iterations at no extra cost — the paper's
// "data structures that lead to minimal overhead when switching" design.
//
// Simulation note: the engines keep a host-side shadow of the ids whose
// update flag is set (collected while the computation kernel executes) so
// the generation kernel can be driven as a sparse launch; the device-side
// contents of bitmap/queue/update are nevertheless fully materialized and
// verified by tests.
#pragma once

#include <cstdint>
#include <span>

#include "gpu_graph/variant.h"
#include "simt/device.h"

namespace gg {

class Workset {
 public:
  Workset(simt::Device& dev, std::uint32_t num_nodes);
  void release(simt::Device& dev);

  std::uint32_t num_nodes() const { return n_; }

  // Seeds the working set with the traversal source in `repr` form.
  void init_source(simt::Device& dev, std::uint32_t source, WorksetRepr repr);

  // How the queue form is generated (paper Sec. V.C): `atomic` is the basic
  // implementation of [33] (one atomicAdd per inserted element — serialized
  // on the tail counter); `scan` is the Merrill et al. optimization the
  // paper cites as orthogonal (an exclusive prefix scan over the update
  // vector computes insertion offsets without atomics, at the cost of extra
  // passes over all n flags).
  enum class GenMethod { atomic, scan };

  // Runs CUDA_workset_gen: transforms the update vector into `repr`,
  // clearing the flags. `updated` is the sorted host shadow of the set
  // flags. Returns the working-set size (= updated.size()).
  std::uint64_t generate(simt::Device& dev, WorksetRepr repr,
                         std::span<const std::uint32_t> updated,
                         GenMethod method = GenMethod::atomic);

  // Clears the bitmap bits of `frontier` (the sorted current working set).
  // Pull (gather) iterations read the frontier bitmap concurrently from many
  // threads, so — unlike the push kernels, which clear their own bit as they
  // process it — the consumed frontier is wiped afterwards by this sparse
  // kernel, restoring the bitmap-holds-exactly-the-frontier invariant before
  // the next generate().
  void clear_frontier_bitmap(simt::Device& dev,
                             std::span<const std::uint32_t> frontier);

  // Termination / monitoring readback costs (paper Sec. VI.E):
  //  * queue mode: the queue length is read back anyway (the host needs the
  //    next grid size) — charge_queue_len_readback();
  //  * bitmap mode: termination uses a 4-byte changed-flag readback; the
  //    exact working-set size requires the extra population-count kernel,
  //    charged only on sampled iterations — charge_bitmap_count_kernel();
  //  * inside a persistent kernel (FusedLoop below) the device reads its
  //    own counter, so the count kernel's readback is not charged.
  void charge_queue_len_readback(simt::Device& dev) const;
  void charge_changed_flag_readback(simt::Device& dev) const;
  void charge_bitmap_count_kernel(simt::Device& dev) const;
  // The per-iteration size readback of a `repr` working set.
  void charge_size_readback(simt::Device& dev, WorksetRepr repr) const {
    if (repr == WorksetRepr::queue) {
      charge_queue_len_readback(dev);
    } else {
      charge_changed_flag_readback(dev);
    }
  }

  simt::DeviceBuffer<std::uint8_t>& bitmap() { return bitmap_; }
  simt::DeviceBuffer<std::uint32_t>& queue() { return queue_; }
  simt::DeviceBuffer<std::uint32_t>& queue_len() { return queue_len_; }
  simt::DeviceBuffer<std::uint8_t>& update() { return update_; }
  const simt::DeviceBuffer<std::uint8_t>& bitmap() const { return bitmap_; }
  const simt::DeviceBuffer<std::uint32_t>& queue() const { return queue_; }
  const simt::DeviceBuffer<std::uint8_t>& update() const { return update_; }

 private:
  std::uint32_t n_ = 0;
  simt::DeviceBuffer<std::uint8_t> bitmap_;      // n bytes
  simt::DeviceBuffer<std::uint32_t> queue_;      // n ids
  simt::DeviceBuffer<std::uint32_t> queue_len_;  // scalar
  simt::DeviceBuffer<std::uint8_t> update_;      // n flags
  simt::DeviceBuffer<std::uint32_t> changed_;    // scalar flag
};

// The persistent-kernel phases of one traversal's iteration loop (DESIGN.md
// "Fused iteration loop"). A run of consecutive fused iterations is one
// persistent kernel launched with `threads_per_block`: entering it pays a
// launch, each later kernel a grid barrier instead of its launch, the device
// reads its own working-set counter and evaluates the selector's rule, and
// leaving it for another iteration pays the one size readback the host
// needs. Unfused iterations charge exactly as before: a launch per kernel
// and a readback each.
class FusedLoop {
 public:
  FusedLoop(simt::Device& dev, const Workset& ws,
            std::uint32_t threads_per_block)
      : dev_(dev), ws_(ws), tpb_(threads_per_block) {}
  ~FusedLoop() {
    if (dev_.in_persistent()) dev_.leave_persistent();  // unwinding a fault
  }
  FusedLoop(const FusedLoop&) = delete;
  FusedLoop& operator=(const FusedLoop&) = delete;

  // Top of an iteration; `fused` is the selection for it (false for host
  // phases). A fused iteration joins the running persistent kernel or
  // launches one.
  void begin(bool fused) {
    fused_ = fused;
    if (fused_ && !dev_.in_persistent()) dev_.enter_persistent(tpb_);
  }
  bool fused() const { return fused_; }
  // The iteration's size readback (Fig. 8 line 4), after its compute kernel.
  void readback(WorksetRepr repr) const {
    if (!fused_) ws_.charge_size_readback(dev_, repr);
  }
  // Bottom of the iteration. `more`: the working set is not empty. The
  // persistent kernel runs on into the next iteration when there is one and
  // it `joins` (it is fused too and nothing on the host comes between);
  // otherwise it ends here. The host reads the size back only when the
  // traversal goes on: an exhausted working set ends the kernel itself, and
  // the payload download waits for it.
  void end(bool joins, bool more, WorksetRepr repr) {
    if (fused_ && !(joins && more)) {
      dev_.leave_persistent();
      if (more) ws_.charge_size_readback(dev_, repr);
    }
  }

 private:
  simt::Device& dev_;
  const Workset& ws_;
  std::uint32_t tpb_;
  bool fused_ = false;
};

}  // namespace gg
