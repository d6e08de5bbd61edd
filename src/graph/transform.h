// Graph transformations: preprocessing utilities commonly applied before GPU
// traversal (relabeling, deduplication) plus structural predicates.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.h"

namespace graph {

// True iff for every arc (u,v) the reverse arc (v,u) exists (multiplicity
// counted): the precondition of connected components. Weights are NOT
// consulted — a structurally symmetric graph may still carry asymmetric
// weights; use is_weight_symmetric when the weighted view matters.
bool is_symmetric(const Csr& g);

// True iff for every arc (u,v) with weight w the reverse arc (v,u) exists
// with the SAME weight (multiplicity counted). Equals is_symmetric on
// unweighted graphs. This is the predicate that decides whether a weighted
// CSR may alias its CSC: transposing a weight-asymmetric graph permutes
// weights even when the structure is symmetric (PR 6 follow-up).
bool is_weight_symmetric(const Csr& g);

struct RelabeledGraph {
  Csr csr;
  // new_id[old] = position of the old node in the new numbering.
  std::vector<NodeId> new_id;
  // old_id[new] = inverse mapping.
  std::vector<NodeId> old_id;
};

// Renumbers nodes by outdegree (descending by default): a standard GPU
// preprocessing step that groups heavy nodes together, so thread-mapped
// warps see more uniform per-lane work and bitmap frontiers of hubs stay
// dense. Weights follow their edges.
RelabeledGraph relabel_by_degree(const Csr& g, bool descending = true);

// Applies an arbitrary permutation (new_id[old] = new position).
RelabeledGraph relabel(const Csr& g, std::span<const NodeId> new_id);

// The subgraph induced by `nodes` (need not be sorted; must be unique).
// Nodes are renumbered 0..k-1 in the given order; old_id maps back.
RelabeledGraph induced_subgraph(const Csr& g, std::span<const NodeId> nodes);

// Removes parallel edges; for weighted graphs the minimum weight survives
// (the only one shortest paths can use). Self loops are preserved (deduped).
Csr dedup_edges(const Csr& g);

// The CSC (compressed sparse column) view of g, materialized as the CSR of
// the transposed graph: row v lists the in-neighbors of v, weights follow
// their edges. This is what the pull (gather) traversal kernels read; for
// a symmetric graph it equals g itself, so callers holding the symmetrized
// closure can reuse it instead.
Csr build_csc(const Csr& g);

}  // namespace graph
