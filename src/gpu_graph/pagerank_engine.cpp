#include "gpu_graph/pagerank_engine.h"

#include <algorithm>
#include <numeric>

#include "gpu_graph/generic_engine.h"

namespace gg {
namespace {

constexpr simt::Site kResidual{0, "pr.residual"};
constexpr simt::Site kRankStore{1, "pr.rank"};
constexpr simt::Site kRowOffsets{2, "pr.row-offsets"};
constexpr simt::Site kNodeOps{3, "pr.node-ops"};
constexpr simt::Site kEdgeLoad{4, "pr.edge-load"};
constexpr simt::Site kEdgeOps{5, "pr.edge-ops"};
constexpr simt::Site kPush{6, "pr.push-atomic"};
constexpr simt::Site kUpdateLoad{7, "pr.update-load"};
constexpr simt::Site kUpdateStore{8, "pr.update-store"};
constexpr simt::Site kQueueLoad{9, "pr.queue-load"};
constexpr simt::Site kBitmapClear{10, "pr.bitmap-clear"};

// Folds the node's residual into its rank and pushes damped shares. The
// residual is consumed by the element's *owner* lane (thread mapping) or
// lane 0 (block/warp mapping); pushes are strided like the other engines.
struct PageRankOp {
  static constexpr const char* kAlgo = "pagerank";
  static constexpr MappedKernels kKernels{GG_KERNEL_NAMES("pr.compute"),
                                          kQueueLoad, kBitmapClear};

  const DeviceGraph& dg;
  const PageRankOptions& opts;
  std::vector<float>& out;
  simt::DeviceBuffer<float> rank{};
  simt::DeviceBuffer<float> residual{};
  // Residuals of the frontier as of kernel launch, indexed by node id. On
  // real hardware every lane of an element's warp reads r[id] in lockstep
  // before the owner clears it; the sequential lane emulation reproduces
  // that by snapshotting at launch. Pushes that land on a frontier node
  // *during* the kernel stay in its residual for the next round.
  std::vector<float> snapshot{};
  float damping = static_cast<float>(opts.damping);
  // The re-entry threshold scales with the per-node teleport mass so that
  // accuracy is independent of the graph size.
  float push_tolerance = static_cast<float>(
      opts.push_tolerance * (1.0 - opts.damping) / dg.num_nodes);

  // Every node starts active with the teleport mass as its residual.
  std::vector<std::uint32_t> start(simt::Device& dev) {
    const std::uint32_t n = dg.num_nodes;
    rank = dev.alloc<float>(n, "pr.rank");
    residual = dev.alloc<float>(n, "pr.residual");
    dev.fill(rank, 0.0f);
    dev.fill(residual, static_cast<float>((1.0 - opts.damping) / n));
    snapshot.assign(n, 0.0f);
    std::vector<std::uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    return all;
  }
  void begin_iteration(std::uint32_t, std::span<const std::uint32_t> frontier) {
    for (const std::uint32_t v : frontier) {
      snapshot[v] = residual.host_view()[v];
    }
  }

  void element(simt::ThreadCtx& ctx, Frontier& fr, std::uint32_t id,
               std::uint32_t offset, std::uint32_t step) {
    const float now = ctx.load(residual, id, kResidual);
    const float res = snapshot[id];  // lockstep read-before-clear value
    const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRowOffsets);
    const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRowOffsets);
    ctx.compute(6, kNodeOps);
    if (offset == 0) {
      // Claim the snapshot residual: fold into the rank, leave any mass that
      // arrived during this kernel for the next round.
      const float r = ctx.load(rank, id, kRankStore);
      ctx.store(rank, id, r + res, kRankStore);
      ctx.store(residual, id, now - res, kResidual);
    }
    const std::uint32_t deg = end - begin;
    if (deg == 0) return;  // dangling: mass absorbed
    const float share = damping * res / static_cast<float>(deg);

    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(dg.col_indices, e, kEdgeLoad);
      ctx.compute(3, kEdgeOps);
      const float before = ctx.atomic_add(residual, t, share, kPush);
      if (before + share >= push_tolerance) {
        fr.mark(ctx, t, kUpdateLoad, kUpdateStore);
      }
    }
  }

  // Fold unconverged residual mass in (bounded by n * push_tolerance).
  void finish(simt::Device& dev, bool) {
    out.resize(dg.num_nodes);
    dev.memcpy_d2h(std::span<float>(out), rank);
    for (std::uint32_t v = 0; v < dg.num_nodes; ++v) {
      out[v] += residual.host_view()[v];
    }
    dev.free(rank);
    dev.free(residual);
  }
};

}  // namespace

GpuPageRankResult run_pagerank(simt::Device& dev, const graph::Csr& g,
                               const VariantSelector& selector,
                               const PageRankOptions& opts) {
  return run_uploaded(dev, g, opts.engine.stream, /*with_weights=*/false,
                      [&](DeviceGraph& dg) {
                        return run_pagerank(dev, dg, g, selector, opts);
                      });
}

GpuPageRankResult run_pagerank(simt::Device& dev, DeviceGraph& dg,
                               const graph::Csr& g,
                               const VariantSelector& selector,
                               const PageRankOptions& opts) {
  AGG_CHECK(g.num_nodes > 0);
  AGG_CHECK(opts.damping > 0.0 && opts.damping < 1.0);
  simt::StreamGuard sguard(dev, opts.engine.stream);
  GpuPageRankResult result;
  PageRankOp op{dg, opts, result.rank};
  result.metrics = drive_frontier(dev, dg, g, op, selector, opts.engine);
  return result;
}

}  // namespace gg
