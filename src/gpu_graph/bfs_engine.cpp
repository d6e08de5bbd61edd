#include "gpu_graph/bfs_engine.h"

#include <algorithm>
#include <cmath>

#include "gpu_graph/generic_engine.h"

namespace gg {
namespace {

// Static access sites of the CUDA_computation kernel (Fig. 9 top).
constexpr simt::Site kNodeLevel{0, "bfs.node-level"};
constexpr simt::Site kRowOffsets{1, "bfs.row-offsets"};
constexpr simt::Site kNodeOps{2, "bfs.node-ops"};
constexpr simt::Site kEdgeLoad{3, "bfs.edge-load"};
constexpr simt::Site kEdgeOps{4, "bfs.edge-ops"};
constexpr simt::Site kNbrLevel{5, "bfs.nbr-level"};
constexpr simt::Site kLevelStore{6, "bfs.level-store"};
constexpr simt::Site kUpdateLoad{7, "bfs.update-load"};
constexpr simt::Site kUpdateStore{8, "bfs.update-store"};
constexpr simt::Site kQueueLoad{9, "bfs.queue-load"};
constexpr simt::Site kBitmapClear{10, "bfs.bitmap-clear"};
constexpr simt::Site kPullRowOffsets{11, "bfs.pull-row-offsets"};
constexpr simt::Site kPullEdgeLoad{12, "bfs.pull-edge-load"};
constexpr simt::Site kPullFrontierTest{13, "bfs.pull-frontier-test"};

// Level-synchronous BFS (Fig. 4): the node's level plus one reaches each
// out-neighbor it improves. Ordered and unordered BFS differ only in the
// visited check (Fig. 4 line 8 vs 8').
struct BfsOp {
  static constexpr const char* kAlgo = "bfs";
  static constexpr MappedKernels kKernels{GG_KERNEL_NAMES("bfs.compute"),
                                          kQueueLoad, kBitmapClear};
  static constexpr bool kOrdered = true;

  DeviceGraph& dg;
  const graph::Csr& g;
  graph::NodeId source;
  const graph::Csr* csc;  // caller's host CSC for pull iterations, or null
  std::vector<std::uint32_t>& out;
  simt::DeviceBuffer<std::uint32_t> level{};
  bool ordered = false;
  std::optional<graph::Csr> csc_scratch{};

  // Fig. 8 lines 1-3: create, initialize and transfer the level array.
  std::vector<std::uint32_t> start(simt::Device& dev) {
    level = dev.alloc<std::uint32_t>(g.num_nodes, "bfs.level");
    dev.fill(level, graph::kInfinity);
    dev.write_scalar(level, source, 0u);
    return {source};
  }
  void seed(simt::Device& dev, Frontier& fr, Variant first,
            Workset::GenMethod) {
    fr.ws.init_source(dev, source, first.repr);
    ordered = first.ordering == Ordering::ordered;
  }

  void element(simt::ThreadCtx& ctx, Frontier& fr, std::uint32_t id,
               std::uint32_t offset, std::uint32_t step) {
    const std::uint32_t lvl = ctx.load(level, id, kNodeLevel);
    const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRowOffsets);
    const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRowOffsets);
    ctx.compute(4, kNodeOps);
    const std::uint32_t next = lvl + 1;

    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(dg.col_indices, e, kEdgeLoad);
      ctx.compute(3, kEdgeOps);
      const std::uint32_t tl = ctx.load(level, t, kNbrLevel);
      // Fig. 4: ordered processes a node once (undefined level); unordered
      // re-admits as long as the level decreases.
      const bool improves = ordered ? tl == graph::kInfinity : next < tl;
      if (improves) {
        ctx.store(level, t, next, kLevelStore);
        fr.mark(ctx, t, kUpdateLoad, kUpdateStore);
      }
    }
  }

  // Pull (gather) formulation, Beamer-style: a dense thread-per-vertex
  // kernel in which every *unvisited* vertex scans its in-neighbors (CSC)
  // for a frontier member, early-exiting on the first hit. Each thread
  // stores only to its own level/update cells, so there is no inter-thread
  // claim on the update flag, and the in-edge reads are the coalesced
  // gather the CSC exists for. The first pull iteration makes the CSC
  // resident (Session pins keep it across queries).
  void pull(simt::Device& dev, Frontier& fr, std::uint32_t thread_tpb) {
    ensure_csc_resident(dev, dg, g, csc, csc_scratch);
    const auto grid = simt::GridSpec::dense(g.num_nodes, thread_tpb);
    simt::launch(dev, "bfs.compute.T_PULL", grid, [&](simt::ThreadCtx& ctx) {
      const auto id = static_cast<std::uint32_t>(ctx.global_id());
      const std::uint32_t lvl = ctx.load(level, id, kNodeLevel);
      ctx.compute(1, kNodeOps);
      if (lvl != graph::kInfinity) return;  // visited: one load and out
      const std::uint32_t begin =
          ctx.load(dg.in_row_offsets, id, kPullRowOffsets);
      const std::uint32_t end =
          ctx.load(dg.in_row_offsets, id + 1, kPullRowOffsets);
      ctx.compute(2, kNodeOps);
      for (std::uint32_t e = begin; e < end; ++e) {
        const std::uint32_t u = ctx.load(dg.in_col_indices, e, kPullEdgeLoad);
        ctx.compute(2, kEdgeOps);
        if (ctx.load(fr.ws.bitmap(), u, kPullFrontierTest) == 0) continue;
        const std::uint32_t ul = ctx.load(level, u, kNbrLevel);
        ctx.store(level, id, ul + 1, kLevelStore);
        ctx.store(fr.ws.update(), id, std::uint8_t{1}, kUpdateStore);
        fr.next.push_back(id);
        break;  // first frontier in-neighbor wins; rest of the scan is skipped
      }
    });
  }

  // Hybrid host phase: the same relaxation as a serial loop.
  void host(Frontier& fr) {
    auto level_view = level.host_view();
    auto update_view = fr.ws.update().host_view();
    for (const std::uint32_t v : fr.current) {
      const std::uint32_t next_level = level_view[v] + 1;
      for (const graph::NodeId t : g.neighbors(v)) {
        const bool improves = ordered ? level_view[t] == graph::kInfinity
                                      : next_level < level_view[t];
        if (improves) {
          level_view[t] = next_level;
          if (update_view[t] == 0) {
            update_view[t] = 1;
            fr.next.push_back(t);
          }
        }
      }
    }
  }

  void finish(simt::Device& dev, bool host_resident) {
    out = download(dev, level, host_resident);
    dev.free(level);
  }
};

}  // namespace

std::uint32_t derive_block_tpb(double avg_outdegree) {
  const double rounded = std::round(avg_outdegree / simt::kWarpSize) *
                         simt::kWarpSize;
  return static_cast<std::uint32_t>(
      std::clamp(rounded, 32.0, 1024.0));
}

GpuBfsResult run_bfs(simt::Device& dev, const graph::Csr& g, graph::NodeId source,
                     const VariantSelector& selector, const EngineOptions& opts) {
  return run_uploaded(dev, g, opts.stream, /*with_weights=*/false,
                      [&](DeviceGraph& dg) {
                        return run_bfs(dev, dg, g, source, selector, opts);
                      });
}

GpuBfsResult run_bfs(simt::Device& dev, DeviceGraph& dg, const graph::Csr& g,
                     graph::NodeId source, const VariantSelector& selector,
                     const EngineOptions& opts) {
  AGG_CHECK(source < g.num_nodes);
  simt::StreamGuard sguard(dev, opts.stream);
  GpuBfsResult result;
  BfsOp op{dg, g, source, opts.csc, result.level};
  result.metrics = drive_frontier(dev, dg, g, op, selector, opts);
  return result;
}

}  // namespace gg
