#include "gpu_graph/cc_engine.h"

#include <algorithm>
#include <numeric>

#include "gpu_graph/generic_engine.h"

namespace gg {
namespace {

constexpr simt::Site kNodeLabel{0, "cc.node-label"};
constexpr simt::Site kRowOffsets{1, "cc.row-offsets"};
constexpr simt::Site kNodeOps{2, "cc.node-ops"};
constexpr simt::Site kEdgeLoad{3, "cc.edge-load"};
constexpr simt::Site kEdgeOps{4, "cc.edge-ops"};
constexpr simt::Site kPropagate{5, "cc.propagate-atomic"};
constexpr simt::Site kUpdateLoad{6, "cc.update-load"};
constexpr simt::Site kUpdateStore{7, "cc.update-store"};
constexpr simt::Site kQueueLoad{8, "cc.queue-load"};
constexpr simt::Site kBitmapClear{9, "cc.bitmap-clear"};
constexpr simt::Site kJumpLoad{10, "cc.jump-load"};
constexpr simt::Site kJumpAtomic{11, "cc.jump-atomic"};

// Pushes the node's label to its neighbours, shortcut by one pointer jump:
// when label[id] = c names another node, label[c] also reaches id (labels are
// ids of nodes that reach the labelled node), so the lane at offset 0 lowers
// label[id] to it and every lane pushes the jumped label. The jump needs no
// re-entry into the working set: lanes run in lane order, so the others read
// the lowered label and push a value no larger than it. Label 0 is always
// its own label, so it skips the dependent load; on graphs whose largest
// component holds node 0 that is most active nodes after the first sweep.
struct CcOp {
  static constexpr const char* kAlgo = "cc";
  static constexpr MappedKernels kKernels{GG_KERNEL_NAMES("cc.compute"),
                                          kQueueLoad, kBitmapClear};

  const DeviceGraph& dg;
  GpuCcResult& out;
  simt::DeviceBuffer<std::uint32_t> label{};

  // label[v] = v (device-side iota, charged as one uniform kernel); every
  // node starts in the working set.
  std::vector<std::uint32_t> start(simt::Device& dev) {
    label = dev.alloc<std::uint32_t>(dg.num_nodes, "cc.label");
    std::iota(label.host_view().begin(), label.host_view().end(), 0u);
    simt::UniformThreadCost cost;
    cost.ops = 2;
    cost.mem_instrs = 1;
    cost.transactions_per_warp = simt::kWarpSize * 4 / dev.timing().segment_bytes;
    dev.account_kernel(simt::estimate_uniform_kernel(
        dev.props(), dev.timing(), "cc.init_labels", dg.num_nodes, 256, cost));
    std::vector<std::uint32_t> all(dg.num_nodes);
    std::iota(all.begin(), all.end(), 0u);
    return all;
  }

  void element(simt::ThreadCtx& ctx, Frontier& fr, std::uint32_t id,
               std::uint32_t offset, std::uint32_t step) {
    std::uint32_t c = ctx.load(label, id, kNodeLabel);
    if (c != id && c != 0) {
      const std::uint32_t cc = ctx.load(label, c, kJumpLoad);
      if (cc < c) {
        if (offset == 0) ctx.atomic_min(label, id, cc, kJumpAtomic);
        c = cc;
      }
    }
    const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRowOffsets);
    const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRowOffsets);
    ctx.compute(4, kNodeOps);
    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(dg.col_indices, e, kEdgeLoad);
      ctx.compute(2, kEdgeOps);
      const std::uint32_t old = ctx.atomic_min(label, t, c, kPropagate);
      if (c < old) fr.mark(ctx, t, kUpdateLoad, kUpdateStore);
    }
  }

  void finish(simt::Device& dev, bool) {
    out.component.resize(dg.num_nodes);
    dev.memcpy_d2h(std::span<std::uint32_t>(out.component), label);
    for (std::uint32_t v = 0; v < dg.num_nodes; ++v) {
      if (out.component[v] == v) ++out.num_components;
    }
    dev.free(label);
  }
};

}  // namespace

GpuCcResult run_cc(simt::Device& dev, const graph::Csr& g,
                   const VariantSelector& selector, const EngineOptions& opts) {
  return run_uploaded(dev, g, opts.stream, /*with_weights=*/false,
                      [&](DeviceGraph& dg) {
                        return run_cc(dev, dg, g, selector, opts);
                      });
}

GpuCcResult run_cc(simt::Device& dev, DeviceGraph& dg, const graph::Csr& g,
                   const VariantSelector& selector, const EngineOptions& opts) {
  simt::StreamGuard sguard(dev, opts.stream);
  GpuCcResult result;
  CcOp op{dg, result};
  result.metrics = drive_frontier(dev, dg, g, op, selector, opts);
  return result;
}

}  // namespace gg
