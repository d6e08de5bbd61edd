// The adaptive runtime (paper Sec. VI): couples the graph inspector and the
// decision maker to the traversal engines, re-selecting the implementation
// among the four unordered variants at (sampled) decision points during the
// traversal. Variant switches cost nothing extra because every iteration
// regenerates the working set from the shared update vector. The graph
// layout is the exception: it is chosen once, at query start (run_bfs /
// run_sssp / run_cc below).
#pragma once

#include <optional>

#include "gpu_graph/bfs_engine.h"
#include "gpu_graph/bfs_multi_engine.h"
#include "gpu_graph/cc_engine.h"
#include "gpu_graph/mst_engine.h"
#include "gpu_graph/pagerank_engine.h"
#include "gpu_graph/sssp_engine.h"
#include "runtime/decision.h"
#include "runtime/inspector.h"

namespace rt {

struct AdaptiveOptions {
  // Default thresholds are derived from the device at run time; set
  // `thresholds_overridden` to pin explicit values (threshold sweeps).
  Thresholds thresholds;
  bool thresholds_overridden = false;
  std::uint32_t monitor_interval = 1;  // sampling rate R
  // Traversal direction for the unordered BFS engine:
  //  * push     — the paper's scatter formulation (default; unchanged);
  //  * pull     — force the gather (CSC) formulation every iteration;
  //  * adaptive — direction-optimizing: the controller flips push->pull when
  //    frontier_edges > do_alpha * (unexplored_edges + num_nodes) and back
  //    to push when the frontier drains below
  //    do_beta * (unexplored_edges + num_nodes) (Beamer hysteresis over the
  //    gather volume, see decide_direction; knobs on `thresholds`). SSSP,
  //    CC, MST, PageRank and the fused MS-BFS path have no gather kernel
  //    and always run push; run_sssp and run_cc accept every direction and
  //    run push.
  gg::Direction direction = gg::Direction::push;
  // Graph layout for BFS/SSSP/CC (DESIGN.md "Representation adaptivity",
  // the 5th adaptive dimension), chosen once at query start and kept for
  // the whole traversal:
  //  * plain      — the CSR as given (default; unchanged behavior);
  //  * relabelled — degree-relabelled CSR (graph::relabel_by_degree);
  //  * adaptive   — decide_representation picks one of the two.
  // Payloads are mapped back to original ids before they leave the runtime.
  // MST, PageRank and the fused MS-BFS path always run plain (their results
  // are not invariant under renumbering: FP summation order / in-place
  // contraction).
  gg::Representation representation = gg::Representation::plain;
  gg::EngineOptions engine;            // tpb knobs (monitor_interval is set here)
};

// Wraps the decision maker as an engine selector. The longer form
// additionally publishes a trace::DecisionEvent at every decision point
// (inputs, thresholds, chosen variant, whether the running variant switched,
// whether the next iteration is fused) when tracing is active; `interval` is
// the sampling rate R recorded in the event, `algo` labels the trace stream,
// and `representation` (the layout resolved at query start) is stamped on
// every chosen variant. With `fusion` set, every selection also carries the
// fused-loop rule (decide_fused) over those costs; unset, nothing is fused.
// Selector copies share the prev-variant state, so the switch flag stays
// correct however the engine stores the std::function.
gg::VariantSelector make_adaptive_selector(const Thresholds& thresholds);
gg::VariantSelector make_adaptive_selector(
    const Thresholds& thresholds, std::uint32_t interval, const char* algo,
    gg::Direction direction = gg::Direction::push,
    gg::Representation representation = gg::Representation::plain,
    std::optional<FusionCosts> fusion = std::nullopt);

// One BFS/SSSP/CC query through the layout-aware entry points below.
// `fixed` set runs that variant every iteration (no decision points, one
// launch per kernel); unset runs the adaptive selector over `options`, which
// fuses iterations into persistent kernels where decide_fused says so. The
// layout is the fixed variant's representation, else
// options.representation; `adaptive` resolves once, at query start, through
// decide_representation.
struct Query {
  std::optional<gg::Variant> fixed;
  AdaptiveOptions options;
  // The caller's cached relabelled view of the graph the query runs on
  // (adaptive::Graph keeps one); null = build one when the layout needs it.
  const graph::RelabeledGraph* rel = nullptr;
  // CC only: whether the input CSR holds the reverse of every arc. Callers
  // that have the answer cached pass it (adaptive::Graph does); unset, run_cc
  // checks when the query asks for a non-plain layout.
  std::optional<bool> symmetric;
};

// The one place layouts are handled: resolve the layout, run the engine on
// it, map the payload back to original ids (CC labels re-canonicalized to
// the smallest original id). CC on an asymmetric input always runs plain:
// its labels are min-reaching ids (cpu::min_reaching_ids), which a
// relabelled run would compute over the renumbered ids instead. `dg` null:
// one-shot — the engine uploads the CSR of the resolved layout only,
// charged to the query. Otherwise `dg` holds `g` resident on `dev`, and a
// relabelled run traverses the nested resident
// (DeviceGraph::ensure_rep_resident, billed on the query's stream), which
// stays pinned for later queries.
gg::GpuBfsResult run_bfs(simt::Device& dev, gg::DeviceGraph* dg,
                         const graph::Csr& g, graph::NodeId source,
                         const Query& q);
gg::GpuSsspResult run_sssp(simt::Device& dev, gg::DeviceGraph* dg,
                           const graph::Csr& g, graph::NodeId source,
                           const Query& q);
gg::GpuCcResult run_cc(simt::Device& dev, gg::DeviceGraph* dg,
                       const graph::Csr& g, const Query& q);

// Adaptive-policy shorthands for run_bfs/run_sssp/run_cc.
gg::GpuBfsResult adaptive_bfs(simt::Device& dev, const graph::Csr& g,
                              graph::NodeId source, const AdaptiveOptions& opts = {});

gg::GpuSsspResult adaptive_sssp(simt::Device& dev, const graph::Csr& g,
                                graph::NodeId source,
                                const AdaptiveOptions& opts = {});

// Connected components (extension algorithm); on an asymmetric graph the
// labels are min-reaching ids (see run_cc).
gg::GpuCcResult adaptive_cc(simt::Device& dev, const graph::Csr& g,
                            const AdaptiveOptions& opts = {});

// Minimum spanning forest by Boruvka (extension algorithm); the graph must
// be symmetric and weighted.
gg::GpuMstResult adaptive_mst(simt::Device& dev, const graph::Csr& g,
                              const AdaptiveOptions& opts = {});

// PageRank by residual push (extension algorithm).
gg::GpuPageRankResult adaptive_pagerank(simt::Device& dev, const graph::Csr& g,
                                        const gg::PageRankOptions& pr = {},
                                        const AdaptiveOptions& opts = {});

// Resident-graph forms (see bfs_engine.h): the caller keeps `dg` uploaded
// across queries (Session / the serving layer), so no upload is charged and
// opts.engine.stream places the whole traversal on a simt stream.
gg::GpuBfsResult adaptive_bfs(simt::Device& dev, gg::DeviceGraph& dg,
                              const graph::Csr& g, graph::NodeId source,
                              const AdaptiveOptions& opts = {});
gg::GpuSsspResult adaptive_sssp(simt::Device& dev, gg::DeviceGraph& dg,
                                const graph::Csr& g, graph::NodeId source,
                                const AdaptiveOptions& opts = {});
gg::GpuCcResult adaptive_cc(simt::Device& dev, gg::DeviceGraph& dg,
                            const graph::Csr& g,
                            const AdaptiveOptions& opts = {});
gg::GpuPageRankResult adaptive_pagerank(simt::Device& dev, gg::DeviceGraph& dg,
                                        const graph::Csr& g,
                                        const gg::PageRankOptions& pr = {},
                                        const AdaptiveOptions& opts = {});

// Batched multi-source BFS with adaptive selection over the fused traversal
// (the serving layer's coalesced same-graph BFS path).
gg::GpuBfsMultiResult adaptive_bfs_multi(simt::Device& dev, gg::DeviceGraph& dg,
                                         const graph::Csr& g,
                                         std::span<const graph::NodeId> sources,
                                         const AdaptiveOptions& opts = {});

}  // namespace rt
