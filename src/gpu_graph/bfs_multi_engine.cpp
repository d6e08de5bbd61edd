#include "gpu_graph/bfs_multi_engine.h"

#include <algorithm>
#include <bit>

#include "gpu_graph/generic_engine.h"

namespace gg {
namespace {

// Static access sites of the fused computation kernel.
constexpr simt::Site kFrontierMask{0, "msbfs.frontier-mask"};
constexpr simt::Site kRowOffsets{1, "msbfs.row-offsets"};
constexpr simt::Site kNodeOps{2, "msbfs.node-ops"};
constexpr simt::Site kEdgeLoad{3, "msbfs.edge-load"};
constexpr simt::Site kEdgeOps{4, "msbfs.edge-ops"};
constexpr simt::Site kVisited{5, "msbfs.visited"};
constexpr simt::Site kNextMask{6, "msbfs.next-mask"};
constexpr simt::Site kLevelStore{7, "msbfs.level-store"};
constexpr simt::Site kUpdateLoad{8, "msbfs.update-load"};
constexpr simt::Site kUpdateStore{9, "msbfs.update-store"};
constexpr simt::Site kQueueLoad{10, "msbfs.queue-load"};
constexpr simt::Site kBitmapClear{11, "msbfs.bitmap-clear"};
constexpr simt::Site kBitOps{12, "msbfs.bit-ops"};

// Each node carries its pending searches as one mask word. Mask buffers are
// never cleared: a stale bit is, by construction, one the node already
// expanded the last time it sat in the working set, so every neighbor's
// visited word already contains it and `fresh` masks it out. Frontier
// membership comes from the working set, not from the mask words.
struct MultiOp {
  static constexpr const char* kAlgo = "msbfs";
  static constexpr MappedKernels kKernels{GG_KERNEL_NAMES("msbfs.compute"),
                                          kQueueLoad, kBitmapClear};

  const DeviceGraph& dg;
  std::span<const graph::NodeId> sources;
  std::vector<std::uint32_t>& out;
  std::uint32_t k = static_cast<std::uint32_t>(sources.size());  // batch width
  simt::DeviceBuffer<std::uint32_t> frontier_mask{};
  simt::DeviceBuffer<std::uint32_t> visited{};
  simt::DeviceBuffer<std::uint32_t> next_mask{};
  simt::DeviceBuffer<std::uint32_t> levels{};  // n * k
  std::uint32_t depth = 0;  // current iteration = level being set

  // Distinct source nodes form the initial frontier; a node hosting several
  // batched sources simply starts with several bits.
  std::vector<std::uint32_t> start(simt::Device& dev) {
    const std::uint32_t n = dg.num_nodes;
    frontier_mask = dev.alloc<std::uint32_t>(n, "msbfs.frontier_mask");
    visited = dev.alloc<std::uint32_t>(n, "msbfs.visited");
    next_mask = dev.alloc<std::uint32_t>(n, "msbfs.next_mask");
    levels = dev.alloc<std::uint32_t>(static_cast<std::size_t>(n) * k,
                                      "msbfs.levels");
    dev.fill(frontier_mask, 0u);
    dev.fill(visited, 0u);
    dev.fill(next_mask, 0u);
    dev.fill(levels, graph::kInfinity);
    std::vector<std::uint32_t> frontier(sources.begin(), sources.end());
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
    return frontier;
  }
  // Each source's bit, visited bit and level 0.
  void initialize(simt::Device& dev) {
    for (std::uint32_t s = 0; s < k; ++s) {
      const std::uint32_t v = sources[s];
      dev.write_scalar(frontier_mask, v,
                       frontier_mask.host_view()[v] | (1u << s));
      dev.write_scalar(visited, v, visited.host_view()[v] | (1u << s));
      dev.write_scalar(levels, static_cast<std::size_t>(v) * k + s, 0u);
    }
  }
  // The initial working set's update flags are written from the host.
  void seed(simt::Device& dev, Frontier& fr, Variant first,
            Workset::GenMethod gen) {
    for (const std::uint32_t v : fr.current) {
      dev.write_scalar(fr.ws.update(), v, std::uint8_t{1});
    }
    fr.ws.generate(dev, first.repr, fr.current, gen);
  }
  // Each iteration accumulates into the other mask buffer: the last one's
  // targets are this one's frontier.
  void begin_iteration(std::uint32_t iteration,
                       std::span<const std::uint32_t>) {
    if (iteration > 1) std::swap(frontier_mask, next_mask);
    depth = iteration;
  }

  void element(simt::ThreadCtx& ctx, Frontier& fr, std::uint32_t id,
               std::uint32_t offset, std::uint32_t step) {
    const std::uint32_t fm = ctx.load(frontier_mask, id, kFrontierMask);
    const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRowOffsets);
    const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRowOffsets);
    ctx.compute(4, kNodeOps);

    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(dg.col_indices, e, kEdgeLoad);
      ctx.compute(3, kEdgeOps);
      const std::uint32_t vis = ctx.load(visited, t, kVisited);
      std::uint32_t fresh = fm & ~vis;
      if (fresh == 0) continue;
      // All blocks run under LaunchPolicy::serial (the functional result
      // depends on block order through the update-flag claim below), so the
      // read-modify-write pair models atomicOr's cost without needing one.
      ctx.store(visited, t, vis | fresh, kVisited);
      const std::uint32_t nm = ctx.load(next_mask, t, kNextMask);
      ctx.store(next_mask, t, nm | fresh, kNextMask);
      // One level store per search that just reached t; lockstep advance
      // makes the level exactly the current depth for every fresh bit.
      while (fresh != 0) {
        const auto s = static_cast<std::uint32_t>(std::countr_zero(fresh));
        ctx.compute(3, kBitOps);  // ctz + clear-lowest + index arithmetic
        ctx.store(levels, static_cast<std::size_t>(t) * k + s, depth,
                  kLevelStore);
        fresh &= fresh - 1;
      }
      fr.mark(ctx, t, kUpdateLoad, kUpdateStore);
    }
  }

  // Download the full levels matrix (n x k): the batch's entire answer.
  void finish(simt::Device& dev, bool) {
    out.resize(levels.size());
    dev.memcpy_d2h(std::span<std::uint32_t>(out), levels);
    dev.free(frontier_mask);
    dev.free(visited);
    dev.free(next_mask);
    dev.free(levels);
  }
};

}  // namespace

GpuBfsMultiResult run_bfs_multi(simt::Device& dev, const graph::Csr& g,
                                std::span<const graph::NodeId> sources,
                                const VariantSelector& selector,
                                const EngineOptions& opts) {
  return run_uploaded(dev, g, opts.stream, /*with_weights=*/false,
                      [&](DeviceGraph& dg) {
                        return run_bfs_multi(dev, dg, g, sources, selector, opts);
                      });
}

GpuBfsMultiResult run_bfs_multi(simt::Device& dev, DeviceGraph& dg,
                                const graph::Csr& g,
                                std::span<const graph::NodeId> sources,
                                const VariantSelector& selector,
                                const EngineOptions& opts) {
  AGG_CHECK_MSG(!sources.empty() && sources.size() <= kMaxBatchedSources,
                "batch of 1..32 sources required");
  for (const graph::NodeId s : sources) AGG_CHECK(s < g.num_nodes);
  simt::StreamGuard sguard(dev, opts.stream);
  GpuBfsMultiResult result;
  result.num_sources = static_cast<std::uint32_t>(sources.size());
  MultiOp op{dg, sources, result.levels};
  result.metrics = drive_frontier(dev, dg, g, op, selector, opts);
  return result;
}

}  // namespace gg
