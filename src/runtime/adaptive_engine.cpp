#include "runtime/adaptive_engine.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph_stats.h"
#include "graph/transform.h"
#include "trace/trace_sink.h"

namespace rt {
namespace {

gg::EngineOptions engine_opts(const AdaptiveOptions& opts) {
  gg::EngineOptions eo = opts.engine;
  eo.monitor_interval = opts.monitor_interval == 0 ? 1 : opts.monitor_interval;
  return eo;
}

Thresholds effective_thresholds(simt::Device& dev, const AdaptiveOptions& opts) {
  if (opts.thresholds_overridden) return opts.thresholds;
  Thresholds t = Thresholds::for_device(dev.props(), opts.engine.thread_tpb,
                                        opts.thresholds.t3_fraction);
  // The direction and representation knobs are not device-derived; they
  // always flow from the caller so --do-alpha/--do-beta (and the rep
  // thresholds) work without pinning T1/T2.
  t.do_alpha = opts.thresholds.do_alpha;
  t.do_beta = opts.thresholds.do_beta;
  t.rep_cv = opts.thresholds.rep_cv;
  t.rep_hub = opts.thresholds.rep_hub;
  t.rep_min_nodes = opts.thresholds.rep_min_nodes;
  return t;
}

// Cold path of the selector's trace::active() branch: one DecisionEvent per
// decision point, stamped with the modeled-clock high-water mark (the
// selector has no Device handle).
void emit_decision(const Thresholds& t, std::uint32_t interval,
                   const char* algo, const gg::SelectorInput& in,
                   const gg::Selection& chosen, std::string& prev_variant) {
  auto& tracer = trace::Tracer::instance();
  std::string name = gg::variant_name(chosen.variant);
  if (tracer.has_sinks()) {
    trace::DecisionEvent ev;
    ev.algo = algo;
    ev.iteration = in.iteration;
    ev.ws_size = in.ws_size;
    ev.avg_outdegree = in.avg_outdegree;
    ev.outdeg_stddev = in.outdeg_stddev;
    ev.num_nodes = in.num_nodes;
    ev.t1 = t.t1_avg_outdegree;
    ev.t2 = t.t2_ws_size;
    ev.t3_fraction = t.t3_fraction;
    ev.t3 = static_cast<std::uint64_t>(t.t3_fraction * in.num_nodes);
    ev.skew_weight = t.skew_weight;
    ev.direction = gg::direction_name(chosen.variant.direction);
    ev.representation = gg::representation_name(chosen.variant.representation);
    ev.frontier_edges = in.frontier_edges;
    ev.unexplored_edges = in.unexplored_edges;
    ev.do_alpha = t.do_alpha;
    ev.do_beta = t.do_beta;
    ev.interval = interval;
    ev.prev_variant = prev_variant;
    ev.variant = name;
    ev.switched = !prev_variant.empty() && prev_variant != name;
    ev.fused = chosen.fused;
    ev.ts_us = tracer.time_us();
    tracer.decision(std::move(ev));
  }
  prev_variant = std::move(name);
}

// Query-start layout resolution (decide_representation) on the stats of the
// resident graph, or of the host CSR on a one-shot path.
gg::Representation resolve_representation(const Thresholds& t,
                                          const graph::Csr& g,
                                          const gg::DeviceGraph* dg) {
  if (dg == nullptr) {
    const graph::GraphStats s = graph::GraphStats::compute(g);
    return decide_representation(t, g.num_nodes, s.outdeg_avg,
                                 s.outdeg_stddev, s.outdeg_max);
  }
  std::uint32_t max_outdegree = 0;
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    max_outdegree = std::max(max_outdegree, g.degree(v));
  }
  return decide_representation(t, g.num_nodes, dg->avg_outdegree,
                               dg->outdeg_stddev, max_outdegree);
}

// payload_orig[v] = payload_layout[new_id[v]].
void to_original(std::vector<std::uint32_t>& payload,
                 const graph::RelabeledGraph& view) {
  std::vector<std::uint32_t> orig(view.new_id.size());
  for (std::uint32_t v = 0; v < orig.size(); ++v) {
    orig[v] = payload[view.new_id[v]];
  }
  payload.swap(orig);
}

// CC labels are "smallest id in the component" in the layout's id space;
// canonicalize to the smallest ORIGINAL id.
void canonicalize_cc(gg::GpuCcResult& r, const graph::RelabeledGraph& view) {
  const auto n = static_cast<std::uint32_t>(view.new_id.size());
  std::vector<std::uint32_t> min_orig(n, graph::kInfinity);
  for (std::uint32_t v = 0; v < n; ++v) {
    std::uint32_t& label = min_orig[r.component[view.new_id[v]]];
    label = std::min(label, v);
  }
  std::vector<std::uint32_t> orig(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    orig[v] = min_orig[r.component[view.new_id[v]]];
  }
  r.component.swap(orig);
}

Query adaptive_query(const AdaptiveOptions& opts) {
  Query q;
  q.options = opts;
  return q;
}

// SSSP and CC always scatter: neither min-fold has BFS's first-hit early
// exit, so their gathers lost on every graph measured (DESIGN.md "Direction
// optimization"). Resolving the direction before the selector is built
// keeps the decision log and the iteration records equal to what runs.
Query push_only(Query q) {
  q.options.direction = gg::Direction::push;
  if (q.fixed) q.fixed->direction = gg::Direction::push;
  return q;
}

// The layout a query runs in, as handed to the engine call.
struct Layout {
  gg::DeviceGraph* dg;  // resident graph in this layout; null = one-shot
  const graph::Csr& csr;
  const graph::RelabeledGraph* view;  // null = plain (original ids)
  gg::VariantSelector selector;
  gg::EngineOptions eo;

  graph::NodeId to_layout(graph::NodeId v) const {
    return view ? view->new_id[v] : v;
  }
};

template <class Engine>
auto run_in_layout(simt::Device& dev, gg::DeviceGraph* dg,
                   const graph::Csr& g, const Query& q, const char* algo,
                   bool with_weights, Engine&& engine) {
  const AdaptiveOptions& o = q.options;
  const Thresholds t = effective_thresholds(dev, o);
  gg::Representation kind =
      q.fixed ? q.fixed->representation : o.representation;
  if (kind == gg::Representation::adaptive) {
    kind = resolve_representation(t, g, dg);
  }
  gg::EngineOptions eo = q.fixed ? o.engine : engine_opts(o);
  gg::VariantSelector selector;
  if (q.fixed) {
    gg::Variant v = *q.fixed;
    v.representation = kind;
    selector = gg::fixed_variant(v);
  } else {
    selector = make_adaptive_selector(t, eo.monitor_interval, algo,
                                      o.direction, kind,
                                      FusionCosts::of(dev, eo.thread_tpb));
  }
  if (kind == gg::Representation::plain) {
    return engine(Layout{dg, g, nullptr, std::move(selector), eo});
  }
  std::optional<graph::RelabeledGraph> scratch;
  const graph::RelabeledGraph& view =
      q.rel ? *q.rel : scratch.emplace(graph::relabel_by_degree(g));
  // The caller's CSC is of the plain layout; pull iterations transpose the
  // relabelled CSR themselves.
  eo.csc = nullptr;
  gg::DeviceGraph* rdg = nullptr;
  if (dg != nullptr) {
    simt::StreamGuard sguard(dev, eo.stream);
    rdg = &dg->ensure_rep_resident(dev, view, with_weights);
  }
  return engine(Layout{rdg, view.csr, &view, std::move(selector), eo});
}

}  // namespace

gg::GpuBfsResult run_bfs(simt::Device& dev, gg::DeviceGraph* dg,
                         const graph::Csr& g, graph::NodeId source,
                         const Query& q) {
  AGG_CHECK(source < g.num_nodes);
  return run_in_layout(
      dev, dg, g, q, "bfs", /*with_weights=*/false, [&](const Layout& l) {
        const graph::NodeId s = l.to_layout(source);
        gg::GpuBfsResult r =
            l.dg ? gg::run_bfs(dev, *l.dg, l.csr, s, l.selector, l.eo)
                 : gg::run_bfs(dev, l.csr, s, l.selector, l.eo);
        if (l.view) to_original(r.level, *l.view);
        return r;
      });
}

gg::GpuSsspResult run_sssp(simt::Device& dev, gg::DeviceGraph* dg,
                           const graph::Csr& g, graph::NodeId source,
                           const Query& query) {
  AGG_CHECK(source < g.num_nodes);
  const Query q = push_only(query);
  return run_in_layout(
      dev, dg, g, q, "sssp", /*with_weights=*/true, [&](const Layout& l) {
        const graph::NodeId s = l.to_layout(source);
        gg::GpuSsspResult r =
            l.dg ? gg::run_sssp(dev, *l.dg, l.csr, s, l.selector, l.eo)
                 : gg::run_sssp(dev, l.csr, s, l.selector, l.eo);
        if (l.view) to_original(r.dist, *l.view);
        return r;
      });
}

gg::GpuCcResult run_cc(simt::Device& dev, gg::DeviceGraph* dg,
                       const graph::Csr& g, const Query& query) {
  Query q = push_only(query);
  // A directed input keeps its ids: canonicalize_cc maps symmetric
  // components back, not min-reaching ids.
  const gg::Representation asked =
      q.fixed ? q.fixed->representation : q.options.representation;
  if (asked != gg::Representation::plain &&
      !(q.symmetric ? *q.symmetric : graph::is_symmetric(g))) {
    q.options.representation = gg::Representation::plain;
    if (q.fixed) q.fixed->representation = gg::Representation::plain;
    q.rel = nullptr;
  }
  return run_in_layout(
      dev, dg, g, q, "cc", /*with_weights=*/false, [&](const Layout& l) {
        gg::GpuCcResult r = l.dg ? gg::run_cc(dev, *l.dg, l.csr, l.selector, l.eo)
                                 : gg::run_cc(dev, l.csr, l.selector, l.eo);
        if (l.view) canonicalize_cc(r, *l.view);
        return r;
      });
}

gg::VariantSelector make_adaptive_selector(const Thresholds& thresholds) {
  return make_adaptive_selector(thresholds, 1, "adaptive");
}

gg::VariantSelector make_adaptive_selector(const Thresholds& thresholds,
                                           std::uint32_t interval,
                                           const char* algo,
                                           gg::Direction direction,
                                           gg::Representation representation,
                                           std::optional<FusionCosts> fusion) {
  // The engine copies the selector; the prev-variant state is shared across
  // copies so the switch flag tracks the single underlying traversal.
  auto prev = std::make_shared<std::string>();
  return [thresholds, interval, algo, direction, representation, fusion,
          prev](const gg::SelectorInput& in) {
    gg::Variant v = decide(thresholds, in.ws_size, in.avg_outdegree,
                           in.num_nodes, in.outdeg_stddev);
    if (direction == gg::Direction::adaptive) {
      // Direction-optimizing controller: pure hysteresis over the engine's
      // own frontier bookkeeping (in.direction is what is currently running,
      // so the state round-trips through the engine, not the selector).
      v.direction = decide_direction(thresholds, in.direction,
                                     in.frontier_edges, in.unexplored_edges,
                                     in.num_nodes);
    } else {
      v.direction = direction;
    }
    v.representation = representation;
    // Canonicalize before tracing so the logged variant is what executes.
    v = gg::normalize_direction(v);
    const bool host_step =
        in.host_phase || (v.direction == gg::Direction::pull && !in.csc_resident);
    const gg::Selection chosen(v, fusion && decide_fused(*fusion, host_step));
    if (trace::active()) {
      emit_decision(thresholds, interval, algo, in, chosen, *prev);
    }
    return chosen;
  };
}

gg::GpuBfsResult adaptive_bfs(simt::Device& dev, const graph::Csr& g,
                              graph::NodeId source, const AdaptiveOptions& opts) {
  return run_bfs(dev, nullptr, g, source, adaptive_query(opts));
}

gg::GpuSsspResult adaptive_sssp(simt::Device& dev, const graph::Csr& g,
                                graph::NodeId source, const AdaptiveOptions& opts) {
  return run_sssp(dev, nullptr, g, source, adaptive_query(opts));
}

gg::GpuCcResult adaptive_cc(simt::Device& dev, const graph::Csr& g,
                            const AdaptiveOptions& opts) {
  return run_cc(dev, nullptr, g, adaptive_query(opts));
}

gg::GpuMstResult adaptive_mst(simt::Device& dev, const graph::Csr& g,
                              const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  const gg::EngineOptions eo = engine_opts(opts);
  return gg::run_mst(dev, g, make_adaptive_selector(t, eo.monitor_interval, "mst"),
                     eo);
}

gg::GpuPageRankResult adaptive_pagerank(simt::Device& dev, const graph::Csr& g,
                                        const gg::PageRankOptions& pr,
                                        const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  gg::PageRankOptions options = pr;
  options.engine = engine_opts(opts);
  return gg::run_pagerank(
      dev, g,
      make_adaptive_selector(t, options.engine.monitor_interval, "pagerank"),
      options);
}

gg::GpuBfsResult adaptive_bfs(simt::Device& dev, gg::DeviceGraph& dg,
                              const graph::Csr& g, graph::NodeId source,
                              const AdaptiveOptions& opts) {
  return run_bfs(dev, &dg, g, source, adaptive_query(opts));
}

gg::GpuSsspResult adaptive_sssp(simt::Device& dev, gg::DeviceGraph& dg,
                                const graph::Csr& g, graph::NodeId source,
                                const AdaptiveOptions& opts) {
  return run_sssp(dev, &dg, g, source, adaptive_query(opts));
}

gg::GpuCcResult adaptive_cc(simt::Device& dev, gg::DeviceGraph& dg,
                            const graph::Csr& g, const AdaptiveOptions& opts) {
  return run_cc(dev, &dg, g, adaptive_query(opts));
}

gg::GpuPageRankResult adaptive_pagerank(simt::Device& dev, gg::DeviceGraph& dg,
                                        const graph::Csr& g,
                                        const gg::PageRankOptions& pr,
                                        const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  gg::PageRankOptions options = pr;
  options.engine = engine_opts(opts);
  return gg::run_pagerank(
      dev, dg, g,
      make_adaptive_selector(t, options.engine.monitor_interval, "pagerank"),
      options);
}

gg::GpuBfsMultiResult adaptive_bfs_multi(simt::Device& dev, gg::DeviceGraph& dg,
                                         const graph::Csr& g,
                                         std::span<const graph::NodeId> sources,
                                         const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  const gg::EngineOptions eo = engine_opts(opts);
  return gg::run_bfs_multi(
      dev, dg, g, sources,
      make_adaptive_selector(t, eo.monitor_interval, "msbfs"), eo);
}

}  // namespace rt
