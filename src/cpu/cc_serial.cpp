#include "cpu/cc_serial.h"

#include <algorithm>
#include <chrono>
#include <numeric>

namespace cpu {
namespace {

class UnionFind {
 public:
  explicit UnionFind(std::uint32_t n, CcCounts& counts)
      : parent_(n), rank_(n, 0), counts_(&counts) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  std::uint32_t find(std::uint32_t v) {
    while (parent_[v] != v) {
      ++counts_->find_steps;
      parent_[v] = parent_[parent_[v]];  // path halving
      v = parent_[v];
    }
    return v;
  }

  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  CcCounts* counts_;
};

}  // namespace

CcResult connected_components(const graph::Csr& g) {
  CcResult r;
  const auto t0 = std::chrono::steady_clock::now();
  UnionFind uf(g.num_nodes, r.counts);
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    for (const graph::NodeId t : g.neighbors(v)) {
      ++r.counts.edges_scanned;
      uf.unite(v, t);
    }
  }
  // Normalize labels to the smallest node id per component.
  r.component.assign(g.num_nodes, graph::kInfinity);
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    const std::uint32_t root = uf.find(v);
    r.component[root] = std::min(r.component[root], v);
  }
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    r.component[v] = r.component[uf.find(v)];
    if (r.component[v] == v) ++r.num_components;
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

CcResult min_reaching_ids(const graph::Csr& g) {
  CcResult r;
  const auto t0 = std::chrono::steady_clock::now();
  r.component.assign(g.num_nodes, graph::kInfinity);
  std::vector<std::uint32_t> stack;
  for (std::uint32_t s = 0; s < g.num_nodes; ++s) {
    if (r.component[s] != graph::kInfinity) continue;
    r.component[s] = s;
    ++r.num_components;
    stack.push_back(s);
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      for (const graph::NodeId t : g.neighbors(u)) {
        ++r.counts.edges_scanned;
        if (r.component[t] == graph::kInfinity) {
          r.component[t] = s;
          stack.push_back(t);
        }
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

}  // namespace cpu
