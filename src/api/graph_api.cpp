#include "api/graph_api.h"

#include <atomic>
#include <utility>
#include <vector>

#include "graph/io.h"
#include "graph/transform.h"

namespace adaptive {

Graph::Graph(graph::Csr csr) : csr_(std::move(csr)) { csr_.validate(); }

std::uint64_t Graph::next_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Graph::Graph(const Graph& other)
    : csr_(other.csr_),
      version_(other.version_),
      stats_(other.stats_),
      symmetric_(other.symmetric_),
      weight_symmetric_(other.weight_symmetric_),
      symmetrized_(other.symmetrized_),
      csc_(other.csc_),
      relabelled_(other.relabelled_) {}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  csr_ = other.csr_;
  version_ = other.version_;
  stats_ = other.stats_;
  symmetric_ = other.symmetric_;
  weight_symmetric_ = other.weight_symmetric_;
  symmetrized_ = other.symmetrized_;
  csc_ = other.csc_;
  relabelled_ = other.relabelled_;
  // Assignment replaces this object's contents wholesale: it is a new
  // registrable identity, exactly like a copy construction.
  uid_ = next_uid();
  return *this;
}

Graph Graph::from_csr(graph::Csr csr) { return Graph(std::move(csr)); }

Graph Graph::from_edges(std::uint32_t num_nodes,
                        std::initializer_list<graph::Edge> edges) {
  const std::vector<graph::Edge> list(edges);
  return Graph(graph::csr_from_edges(num_nodes, list));
}

Graph Graph::from_builder(const graph::GraphBuilder& builder) {
  return Graph(builder.build());
}

Graph Graph::load_dimacs(const std::string& path) {
  return Graph(graph::read_dimacs(path));
}

Graph Graph::load_snap(const std::string& path) {
  return Graph(graph::read_snap_edgelist(path));
}

Graph Graph::load_binary(const std::string& path) {
  return Graph(graph::read_binary(path));
}

const graph::GraphStats& Graph::stats() const {
  if (!stats_) stats_ = graph::GraphStats::compute(csr_);
  return *stats_;
}

bool Graph::is_symmetric() const {
  if (!symmetric_) symmetric_ = graph::is_symmetric(csr_);
  return *symmetric_;
}

bool Graph::is_weight_symmetric() const {
  if (!weight_symmetric_) {
    weight_symmetric_ =
        csr_.has_weights() ? graph::is_weight_symmetric(csr_) : is_symmetric();
  }
  return *weight_symmetric_;
}

const graph::Csr& Graph::symmetrized() const {
  if (is_symmetric()) return csr_;
  if (!symmetrized_) symmetrized_ = graph::symmetrize(csr_);
  return *symmetrized_;
}

const graph::Csr& Graph::csc() const {
  // A structurally symmetric graph is its own transpose only when the
  // weights agree arc-for-arc too: is_symmetric() ignores weights, and
  // transposing a weight-asymmetric graph permutes them. The explicit
  // weighted predicate makes the aliasing decision exact instead of
  // conservatively copying every weighted graph.
  if (is_weight_symmetric()) return csr_;
  if (!csc_) csc_ = graph::build_csc(csr_);
  return *csc_;
}

const graph::RelabeledGraph& Graph::relabelled_view(bool of_symmetrized) const {
  auto& slot = relabelled_[of_symmetrized ? 1 : 0];
  if (!slot) {
    slot = graph::relabel_by_degree(of_symmetrized ? symmetrized() : csr_);
  }
  return *slot;
}

void Graph::set_uniform_weights(std::uint32_t lo, std::uint32_t hi,
                                std::uint64_t seed) {
  graph::assign_uniform_weights(csr_, lo, hi, seed);
  ++version_;
  stats_.reset();
  symmetric_.reset();
  weight_symmetric_.reset();
  symmetrized_.reset();
  csc_.reset();
  for (auto& r : relabelled_) r.reset();
}

void Graph::apply_delta(const graph::EdgeDelta& delta) {
  csr_ = graph::apply_delta(csr_, delta);
  ++version_;
  stats_.reset();
  symmetric_.reset();
  weight_symmetric_.reset();
  symmetrized_.reset();
  csc_.reset();
  for (auto& r : relabelled_) r.reset();
}

void Graph::save_binary(const std::string& path) const {
  graph::write_binary(csr_, path);
}

}  // namespace adaptive
