// GPU connected components — the first "other graph algorithm" the paper
// projects its framework onto ("we believe that our analysis can be extended
// to many other graph algorithms, which can be expressed as a sequence of
// iterative steps, each step processing a set of elements").
//
// Algorithm: unordered min-label propagation with pointer jumping. Every
// node starts in the working set with its own id as label; each iteration
// first shortcuts an active node's label c to label[c] (one dependent load),
// then pushes it along edges with atomic min, and nodes whose label dropped
// re-enter the working set. Plain propagation needs one sweep per hop of
// component diameter; the jump lets a label cross many hops per sweep (a
// road lattice with 115 BFS levels converges in 10 sweeps). The same
// two-kernel framework, dual working set, mapping granularities (including
// the warp-centric extension) and adaptive selection apply unchanged.
//
// The input graph must be symmetric (both arcs stored) for the result to be
// the weakly-connected components; use graph::symmetrize() otherwise. On a
// directed graph label[v] is the smallest id that reaches v along arcs: the
// jump keeps that, because label[c] reaches c and c reaches v.
#pragma once

#include <vector>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/engine_common.h"
#include "gpu_graph/metrics.h"
#include "graph/csr.h"
#include "simt/device.h"

namespace gg {

struct GpuCcResult {
  // component[v] = smallest node id in v's component.
  std::vector<std::uint32_t> component;
  std::uint32_t num_components = 0;
  TraversalMetrics metrics;
};

// Ordering is ignored (label propagation is inherently unordered); mapping
// and representation follow the selector per decision point. There is no
// gather (pull) kernel: every iteration scatters, and rt::run_cc resolves
// any requested direction to push before it builds the selector, so the
// logged variants are the ones that run (DESIGN.md "Direction optimization").
GpuCcResult run_cc(simt::Device& dev, const graph::Csr& g,
                   const VariantSelector& selector, const EngineOptions& opts = {});

// Resident-graph form (see bfs_engine.h): `dg` must have been uploaded from
// `g` (a symmetric graph); no upload is charged to the metrics.
GpuCcResult run_cc(simt::Device& dev, DeviceGraph& dg, const graph::Csr& g,
                   const VariantSelector& selector, const EngineOptions& opts = {});

inline GpuCcResult run_cc(simt::Device& dev, const graph::Csr& g, Variant variant,
                          const EngineOptions& opts = {}) {
  return run_cc(dev, g, fixed_variant(variant), opts);
}

}  // namespace gg
