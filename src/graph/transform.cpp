#include "graph/transform.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <tuple>

namespace graph {

bool is_symmetric(const Csr& g) {
  // Count-compare arc multisets in both directions via sorted (min,max) keys
  // is wrong for direction; instead compare per-pair directed multiplicities.
  std::map<std::pair<NodeId, NodeId>, std::int64_t> balance;
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    for (const NodeId t : g.neighbors(v)) {
      if (v == t) continue;  // self loops are their own reverse
      const auto key = std::minmax(v, t);
      balance[{key.first, key.second}] += v < t ? 1 : -1;
    }
  }
  for (const auto& [key, count] : balance) {
    if (count != 0) return false;
  }
  return true;
}

bool is_weight_symmetric(const Csr& g) {
  if (!g.has_weights()) return is_symmetric(g);
  // Same balance trick, but the key carries the weight: (u,v,w) must be
  // matched by (v,u,w), multiplicity counted. Self loops pair with
  // themselves.
  std::map<std::tuple<NodeId, NodeId, std::uint32_t>, std::int64_t> balance;
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId t = nbrs[i];
      if (v == t) continue;
      const std::uint32_t w = g.weights[g.row_offsets[v] + i];
      const auto key = std::minmax(v, t);
      balance[{key.first, key.second, w}] += v < t ? 1 : -1;
    }
  }
  for (const auto& [key, count] : balance) {
    if (count != 0) return false;
  }
  return true;
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
