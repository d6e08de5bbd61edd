// Serial connected components via union-find (weighted union + path
// compression): the CPU baseline and correctness oracle for the GPU label
// propagation. Edges are treated as undirected regardless of direction.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.h"

namespace cpu {

struct CcCounts {
  std::uint64_t edges_scanned = 0;
  std::uint64_t find_steps = 0;  // parent-chain hops (work of the finds)
};

struct CcResult {
  // component[v] = smallest node id in v's component.
  std::vector<std::uint32_t> component;
  std::uint32_t num_components = 0;
  CcCounts counts;
  double wall_ms = 0;
};

CcResult connected_components(const graph::Csr& g);

// CC labels that follow arc direction, the GPU engines' answer on an
// asymmetric graph: component[v] = the smallest id u with a directed path
// u -> v (v itself included). One O(n + m) sweep: sources in increasing id,
// each expanding only still-unlabelled nodes, since a node reached through
// a labelled one already carries a smaller reaching id. On a symmetric graph
// it equals connected_components(g).component. num_components counts the
// nodes that are their own label; counts.edges_scanned the arcs scanned.
CcResult min_reaching_ids(const graph::Csr& g);

}  // namespace cpu
