#include "graph/transform.h"

#include <algorithm>
#include <map>
#include <numeric>

namespace graph {

namespace {

// Symmetric iff every row's out-arcs, self loops dropped, equal its in-arcs
// as multisets. Keys pack `neighbor << 32 | weight-or-0`, so with weights an
// arc only matches a reverse arc of the same weight. A counting-sort
// transpose gathers each row's in-arc keys; both key lists of a row are then
// sorted and compared: O(m log d) with two flat arrays, no per-arc map.
bool rows_match_transpose(const Csr& g, bool with_weights) {
  const std::uint32_t n = g.num_nodes;
  auto key = [&](NodeId neighbor, std::uint32_t e) {
    return std::uint64_t{neighbor} << 32 | (with_weights ? g.weights[e] : 0u);
  };
  std::vector<std::uint32_t> in_begin(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (const NodeId t : g.neighbors(v)) {
      if (t != v) ++in_begin[t + 1];
    }
  }
  std::partial_sum(in_begin.begin(), in_begin.end(), in_begin.begin());
  std::vector<std::uint64_t> in_keys(in_begin[n]);
  std::vector<std::uint32_t> fill(in_begin.begin(), in_begin.end() - 1);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t e = g.row_offsets[v]; e < g.row_offsets[v + 1]; ++e) {
      const NodeId t = g.col_indices[e];
      if (t != v) in_keys[fill[t]++] = key(v, e);
    }
  }
  std::vector<std::uint64_t> out_keys;
  for (std::uint32_t v = 0; v < n; ++v) {
    out_keys.clear();
    for (std::uint32_t e = g.row_offsets[v]; e < g.row_offsets[v + 1]; ++e) {
      const NodeId t = g.col_indices[e];
      if (t != v) out_keys.push_back(key(t, e));
    }
    const auto in_first = in_keys.begin() + in_begin[v];
    const auto in_last = in_keys.begin() + in_begin[v + 1];
    if (out_keys.size() != static_cast<std::size_t>(in_last - in_first)) {
      return false;
    }
    std::sort(out_keys.begin(), out_keys.end());
    std::sort(in_first, in_last);
    if (!std::equal(out_keys.begin(), out_keys.end(), in_first)) return false;
  }
  return true;
}

}  // namespace

bool is_symmetric(const Csr& g) { return rows_match_transpose(g, false); }

bool is_weight_symmetric(const Csr& g) {
  return rows_match_transpose(g, g.has_weights());
}

RelabeledGraph relabel(const Csr& g, std::span<const NodeId> new_id) {
  AGG_CHECK(new_id.size() == g.num_nodes);
  RelabeledGraph out;
  out.new_id.assign(new_id.begin(), new_id.end());
  out.old_id.assign(g.num_nodes, 0);
  for (std::uint32_t old = 0; old < g.num_nodes; ++old) {
    AGG_CHECK(new_id[old] < g.num_nodes);
    out.old_id[new_id[old]] = old;
  }

  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  std::vector<std::uint32_t> weights;
  if (g.has_weights()) weights.reserve(g.num_edges());
  for (std::uint32_t nv = 0; nv < g.num_nodes; ++nv) {
    const std::uint32_t old = out.old_id[nv];
    const auto nbrs = g.neighbors(old);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      edges.push_back({nv, new_id[nbrs[i]]});
      if (g.has_weights()) weights.push_back(g.weights[g.row_offsets[old] + i]);
    }
  }
  out.csr = csr_from_edges(g.num_nodes, edges, weights);
  return out;
}

RelabeledGraph relabel_by_degree(const Csr& g, bool descending) {
  std::vector<NodeId> order(g.num_nodes);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return descending ? g.degree(a) > g.degree(b) : g.degree(a) < g.degree(b);
  });
  std::vector<NodeId> new_id(g.num_nodes);
  for (std::uint32_t pos = 0; pos < g.num_nodes; ++pos) new_id[order[pos]] = pos;
  return relabel(g, new_id);
}

RelabeledGraph induced_subgraph(const Csr& g, std::span<const NodeId> nodes) {
  RelabeledGraph out;
  out.old_id.assign(nodes.begin(), nodes.end());
  std::vector<NodeId> new_id(g.num_nodes, kInfinity);
  for (std::uint32_t pos = 0; pos < nodes.size(); ++pos) {
    AGG_CHECK(nodes[pos] < g.num_nodes);
    AGG_CHECK_MSG(new_id[nodes[pos]] == kInfinity, "duplicate node in selection");
    new_id[nodes[pos]] = pos;
  }
  out.new_id = new_id;

  std::vector<Edge> edges;
  std::vector<std::uint32_t> weights;
  for (std::uint32_t pos = 0; pos < nodes.size(); ++pos) {
    const NodeId old = nodes[pos];
    const auto nbrs = g.neighbors(old);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (new_id[nbrs[i]] == kInfinity) continue;
      edges.push_back({pos, new_id[nbrs[i]]});
      if (g.has_weights()) weights.push_back(g.weights[g.row_offsets[old] + i]);
    }
  }
  out.csr = csr_from_edges(static_cast<std::uint32_t>(nodes.size()), edges, weights);
  return out;
}

Csr dedup_edges(const Csr& g) {
  std::vector<Edge> edges;
  std::vector<std::uint32_t> weights;
  std::map<NodeId, std::uint32_t> best;  // per source: target -> min weight
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    best.clear();
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const std::uint32_t w =
          g.has_weights() ? g.weights[g.row_offsets[v] + i] : 1;
      const auto [it, inserted] = best.emplace(nbrs[i], w);
      if (!inserted) it->second = std::min(it->second, w);
    }
    for (const auto& [t, w] : best) {
      edges.push_back({v, t});
      if (g.has_weights()) weights.push_back(w);
    }
  }
  return csr_from_edges(g.num_nodes, edges,
                        g.has_weights() ? std::span<const std::uint32_t>(weights)
                                        : std::span<const std::uint32_t>{});
}

Csr build_csc(const Csr& g) { return transpose(g); }

}  // namespace graph
