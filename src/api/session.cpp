#include "api/session.h"

#include "trace/counters.h"
#include "trace/trace_sink.h"

namespace adaptive {
namespace {

// Shared by Session and the free cc()/mst() in algorithms.cpp: resolve the
// CSR an arc-closure algorithm should run on under `policy.symmetrize`.
const graph::Csr& resolve_symmetric(const Graph& g, const Policy& policy) {
  switch (policy.symmetrize) {
    case Symmetrize::never:
      return g.csr();
    case Symmetrize::always:
      return g.symmetrized();
    case Symmetrize::auto_detect:
      return g.is_symmetric() ? g.csr() : g.symmetrized();
  }
  AGG_CHECK(false);
  return g.csr();
}

void bump(std::string_view name, double d = 1) {
  auto& reg = trace::CounterRegistry::instance();
  if (reg.enabled()) reg.counter(name).add(d);
}

void gauge_max(const char* name, double v) {
  auto& reg = trace::CounterRegistry::instance();
  if (reg.enabled()) reg.gauge(name).set_max(v);
}

}  // namespace

namespace detail {
const graph::Csr& resolve_symmetric_csr(const Graph& g, const Policy& policy) {
  return resolve_symmetric(g, policy);
}
}  // namespace detail

Session::Session(const simt::ClusterSpec& spec) : fleet_(spec) {}

Session::Session(const simt::DeviceProps& props, simt::TimingModel tm)
    : Session(simt::ClusterSpec::single(props, tm)) {}

Session::~Session() {
  for (auto& [id, reg] : regs_) {
    for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
      release_pin(d, reg.pins[d]);
    }
  }
}

Session::Registration* Session::find_reg(const Graph& g) {
  auto it = by_uid_.find(g.uid());
  if (it == by_uid_.end()) return nullptr;
  return &regs_.at(it->second);
}

const Session::Registration* Session::find_reg(const Graph& g) const {
  auto it = by_uid_.find(g.uid());
  if (it == by_uid_.end()) return nullptr;
  return &regs_.at(it->second);
}

const Graph& Session::graph_for(GraphId id) const {
  auto it = regs_.find(id);
  AGG_CHECK_MSG(it != regs_.end(), "unknown GraphId");
  return *it->second.g;
}

simt::DeviceIndex Session::route_device() const {
  simt::DeviceIndex best = kNoDevice;
  double best_ready = 0;
  for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
    if (!fleet_.device(d).healthy()) continue;
    const double ready = fleet_.device(d).stream_ready_us(0);
    if (best == kNoDevice || ready < best_ready) {
      best = d;
      best_ready = ready;
    }
  }
  return best;
}

void Session::release_pin(simt::DeviceIndex d, Pin& pin) {
  simt::Device& dev = fleet_.device(d);
  if (pin.resident) {
    pin.dg.release(dev);
    pin.resident = false;
  }
  if (pin.sym_dg) {
    pin.sym_dg->release(dev);
    pin.sym_dg.reset();
  }
}

Session::Pin& Session::ensure_fresh(Registration& reg, simt::DeviceIndex d,
                                    bool with_weights) {
  Pin& pin = reg.pins[d];
  const Graph& g = *reg.g;
  if (!pin.resident || pin.version != g.version() ||
      (with_weights && !pin.with_weights)) {
    // Stale upload (graph mutated since registration), evicted pin, or
    // weights appeared: refresh transparently, charged to the current query.
    simt::Device& dev = fleet_.device(d);
    if (pin.resident) {
      pin.dg.release(dev);
      pin.resident = false;
    }
    if (pin.sym_dg) {
      // The closure of a mutated graph is stale too; drop it so cc()
      // re-derives on demand.
      pin.sym_dg->release(dev);
      pin.sym_dg.reset();
    }
    pin.dg = gg::DeviceGraph::upload(dev, g.csr(),
                                     with_weights || g.is_weighted());
    pin.with_weights = with_weights || g.is_weighted();
    pin.version = g.version();
    pin.resident = true;
  }
  return pin;
}

gg::DeviceGraph& Session::ensure_sym(Registration& reg, simt::DeviceIndex d,
                                     const graph::Csr& target) {
  Pin& pin = reg.pins[d];
  const Graph& g = *reg.g;
  if (pin.sym_dg && pin.sym_version == g.version()) return *pin.sym_dg;
  simt::Device& dev = fleet_.device(d);
  if (pin.sym_dg) {
    pin.sym_dg->release(dev);
    pin.sym_dg.reset();
  }
  pin.sym_dg = gg::DeviceGraph::upload(dev, target, /*with_weights=*/false);
  pin.sym_version = g.version();
  return *pin.sym_dg;
}

GraphId Session::register_graph(const Graph& g) {
  if (Registration* reg = find_reg(g)) {
    // Idempotent: refresh every device's replica and return the existing id.
    for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
      if (fleet_.device(d).healthy()) ensure_fresh(*reg, d, g.is_weighted());
    }
    return by_uid_.at(g.uid());
  }
  Registration reg;
  reg.g = &g;
  reg.uid = g.uid();
  reg.pins.resize(fleet_.size());
  for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
    Pin& pin = reg.pins[d];
    if (!fleet_.device(d).healthy()) {
      // A dead device takes no replica; queries route around it.
      pin.resident = false;
      continue;
    }
    pin.dg = gg::DeviceGraph::upload(fleet_.device(d), g.csr(),
                                     g.is_weighted());
    pin.with_weights = g.is_weighted();
    pin.version = g.version();
  }
  const GraphId id = next_graph_id_++;
  by_uid_[g.uid()] = id;
  regs_.emplace(id, std::move(reg));
  return id;
}

GraphId Session::register_graph(Graph& g) {
  const GraphId id = register_graph(static_cast<const Graph&>(g));
  regs_.at(id).mutable_g = &g;
  return id;
}

void Session::mutate_graph(Graph& g, const graph::EdgeDelta& delta) {
  auto it = by_uid_.find(g.uid());
  AGG_CHECK_MSG(it != by_uid_.end(), "mutate_graph: graph not registered");
  mutate_graph(it->second, delta);
}

void Session::mutate_graph(GraphId id, const graph::EdgeDelta& delta) {
  auto rit = regs_.find(id);
  AGG_CHECK_MSG(rit != regs_.end(), "unknown GraphId");
  Registration& reg = rit->second;
  AGG_CHECK_MSG(reg.mutable_g != nullptr,
                "mutate_graph: graph was registered const; use the mutable "
                "register_graph overload");
  Graph& g = *reg.mutable_g;
  const std::string err = graph::delta_error(g.csr(), delta);
  AGG_CHECK_MSG(err.empty(), err.c_str());
  if (delta.empty()) return;

  // Old-component view (pre-delta) drives the delta-aware invalidation.
  if (!reg.inc_cc) reg.inc_cc = graph::IncrementalCc(g.csr());
  const std::vector<std::uint32_t> affected =
      svc::affected_components(reg.inc_cc->labels(), delta);
  std::vector<std::uint32_t> old_labels;
  if (rcache_.enabled()) old_labels = reg.inc_cc->labels();

  g.apply_delta(delta);
  reg.inc_cc->apply(g.csr(), delta);

  bump("svc.mutate");
  bump("svc.mutate.edges", static_cast<double>(delta.num_ops()));

  // Incrementally patch every healthy resident replica; the version written
  // into the pin stops ensure_fresh from re-uploading wholesale.
  for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
    Pin& pin = reg.pins[d];
    if (!pin.resident || !fleet_.device(d).healthy()) continue;
    simt::Device& dev = fleet_.device(d);
    try {
      const auto ps = pin.dg.patch(dev, g.csr(), pin.with_weights);
      bump(ps.rebuilt ? "svc.mutate.rebuild" : "svc.mutate.patch");
      bump("svc.mutate.bytes", static_cast<double>(ps.bytes_sent));
      pin.version = g.version();
      if (pin.sym_dg) {
        // The symmetrized closure is stale; drop it per-structure (cc()
        // re-derives on demand).
        pin.sym_dg->release(dev);
        pin.sym_dg.reset();
      }
    } catch (const simt::DeviceFault&) {
      // A fault mid-patch leaves the replica inconsistent: drop residency;
      // the next query against this device re-uploads from scratch.
      release_pin(d, pin);
    }
  }

  if (rcache_.enabled()) {
    const auto res = rcache_.delta_invalidate(
        id, g.version(), [&](const svc::CacheKey& k) {
          return svc::entry_survives_delta(k, old_labels, affected);
        });
    rcache_versions_[reg.uid] = g.version();
    if (res.kept > 0) bump("svc.cache.delta_keep", static_cast<double>(res.kept));
    if (res.dropped > 0) {
      bump("svc.cache.invalidate", static_cast<double>(res.dropped));
    }
    if (trace::active()) {
      trace::ServiceEvent ev;
      ev.action = "cache_delta";
      ev.graph = id;
      ev.version = g.version();
      ev.bytes = res.kept;
      ev.ts_us = fleet_.device(0).now_us();
      trace::Tracer::instance().service(ev);
    }
  }
}

const graph::IncrementalCc& Session::incremental_cc(GraphId id) {
  auto it = regs_.find(id);
  AGG_CHECK_MSG(it != regs_.end(), "unknown GraphId");
  Registration& reg = it->second;
  if (!reg.inc_cc) reg.inc_cc = graph::IncrementalCc(reg.g->csr());
  return *reg.inc_cc;
}

void Session::unregister_graph(const Graph& g) {
  auto it = by_uid_.find(g.uid());
  if (it == by_uid_.end()) return;
  unregister_graph(it->second);
}

void Session::unregister_graph(GraphId id) {
  auto it = regs_.find(id);
  if (it == regs_.end()) return;
  Registration& reg = it->second;
  for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
    release_pin(d, reg.pins[d]);
  }
  // Cached answers are only served to registered graphs; drop them so their
  // bytes return to the budget.
  if (rcache_.enabled()) rcache_.invalidate_graph(id);
  rcache_versions_.erase(reg.uid);
  by_uid_.erase(reg.uid);
  regs_.erase(it);
}

bool Session::is_registered(const Graph& g) const {
  return by_uid_.count(g.uid()) > 0;
}

GraphId Session::graph_id(const Graph& g) const {
  auto it = by_uid_.find(g.uid());
  return it == by_uid_.end() ? 0 : it->second;
}

void Session::evict(const Graph& g) {
  auto it = by_uid_.find(g.uid());
  if (it != by_uid_.end()) evict(it->second);
}

void Session::evict(GraphId id) {
  auto it = regs_.find(id);
  if (it == regs_.end()) return;
  for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
    release_pin(d, it->second.pins[d]);
  }
}

void Session::evict_all() {
  for (auto& [id, reg] : regs_) {
    for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
      release_pin(d, reg.pins[d]);
    }
  }
}

bool Session::is_resident(const Graph& g) const {
  const Registration* reg = find_reg(g);
  if (reg == nullptr) return false;
  for (const Pin& pin : reg->pins) {
    if (pin.resident) return true;
  }
  return false;
}

void Session::enable_result_cache(std::size_t capacity_bytes) {
  rcache_.set_capacity(capacity_bytes);
  if (capacity_bytes == 0) {
    rcache_.clear();
    rcache_versions_.clear();
  }
}

std::uint64_t Session::rcache_graph_key(const Graph& g) const {
  const GraphId id = graph_id(g);
  return id != 0 ? id : g.uid();
}

void Session::rcache_refresh_version(const Graph& g) {
  auto [it, inserted] = rcache_versions_.try_emplace(g.uid(), g.version());
  if (inserted || it->second == g.version()) return;
  // The graph mutated since the last query: every cached answer for it is
  // stale. The version in the key already guarantees no hit; dropping them
  // eagerly returns their bytes to the budget.
  const std::size_t dropped = rcache_.invalidate_graph(rcache_graph_key(g));
  it->second = g.version();
  if (dropped > 0) {
    bump("svc.cache.invalidate", static_cast<double>(dropped));
    if (trace::active()) {
      trace::ServiceEvent ev;
      ev.action = "cache_invalidate";
      ev.graph = rcache_graph_key(g);
      ev.version = g.version();
      ev.bytes = dropped;  // entry count; their bytes are already released
      ev.ts_us = fleet_.device(0).now_us();
      trace::Tracer::instance().service(ev);
    }
  }
}

const svc::Payload* Session::rcache_lookup(const Graph& g, svc::Algo algo,
                                           NodeId source, double damping,
                                           const Policy& policy) {
  if (!rcache_.enabled() || !is_registered(g)) return nullptr;
  rcache_refresh_version(g);
  const svc::CacheKey key = svc::make_cache_key(
      rcache_graph_key(g), g.version(), algo, source, damping, policy);
  const auto* e = rcache_.lookup(key);
  if (e == nullptr) {
    bump("svc.cache.miss");
    return nullptr;
  }
  // Serve from host memory at modeled copy cost; no kernel, no transfer.
  // Charged to device 0 — cache hits keep the single-device clock semantics
  // regardless of fleet size.
  fleet_.device(0).account_host_compute(rcache_cost_.hit_us(e->bytes));
  bump("svc.cache.hit");
  if (trace::active()) {
    trace::ServiceEvent ev;
    ev.action = "cache_hit";
    ev.algo = svc::algo_name(algo);
    ev.graph = rcache_graph_key(g);
    ev.version = g.version();
    ev.source = source;
    ev.bytes = e->bytes;
    ev.ts_us = fleet_.device(0).now_us();
    trace::Tracer::instance().service(ev);
  }
  return &e->value;
}

void Session::rcache_store(const Graph& g, svc::Algo algo, NodeId source,
                           double damping, const Policy& policy,
                           svc::Payload payload) {
  if (!rcache_.enabled() || !is_registered(g)) return;
  rcache_refresh_version(g);
  const svc::CacheKey key = svc::make_cache_key(
      rcache_graph_key(g), g.version(), algo, source, damping, policy);
  const std::size_t bytes = svc::payload_bytes(payload);
  const std::size_t before = rcache_.entries();
  const std::size_t evicted = rcache_.insert(key, std::move(payload), bytes);
  if (evicted > 0) bump("svc.cache.evict", static_cast<double>(evicted));
  if (rcache_.entries() > before - evicted) {
    bump("svc.cache.insert");
    gauge_max("svc.cache.bytes", static_cast<double>(rcache_.bytes_in_use()));
    if (trace::active()) {
      trace::ServiceEvent ev;
      ev.action = "cache_insert";
      ev.algo = svc::algo_name(algo);
      ev.graph = rcache_graph_key(g);
      ev.version = g.version();
      ev.source = source;
      ev.bytes = bytes;
      ev.ts_us = fleet_.device(0).now_us();
      trace::Tracer::instance().service(ev);
    }
  }
}

BfsResult Session::bfs_on(simt::DeviceIndex d, const Graph& g, NodeId source,
                          const Policy& policy) {
  simt::Device& dev = fleet_.device(d);
  Registration* reg = find_reg(g);
  if (reg == nullptr) return adaptive::bfs(dev, g, source, policy);
  if (const char* why = detail::sourced_query_error(g, source, false)) {
    return detail::invalid_argument_result<BfsResult>(why);
  }
  return detail::run_guarded<BfsResult>(dev, [&] {
    // The relabelled layout and the CSC nest in this pin and stay resident
    // across queries.
    Pin& pin = ensure_fresh(*reg, d, false);
    gg::GpuBfsResult gr = rt::run_bfs(dev, &pin.dg, g.csr(), source,
                                      detail::runtime_query(g, policy));
    BfsResult r;
    r.level = std::move(gr.level);
    r.metrics = std::move(gr.metrics);
    return r;
  });
}

SsspResult Session::sssp_on(simt::DeviceIndex d, const Graph& g, NodeId source,
                            const Policy& policy) {
  simt::Device& dev = fleet_.device(d);
  Registration* reg = find_reg(g);
  if (reg == nullptr) return adaptive::sssp(dev, g, source, policy);
  if (const char* why = detail::sourced_query_error(g, source, true)) {
    return detail::invalid_argument_result<SsspResult>(why);
  }
  return detail::run_guarded<SsspResult>(dev, [&] {
    Pin& pin = ensure_fresh(*reg, d, true);
    gg::GpuSsspResult gr =
        rt::run_sssp(dev, &pin.dg, g.csr(), source,
                     detail::runtime_query(g, policy, /*gathers=*/false));
    SsspResult r;
    r.dist = std::move(gr.dist);
    r.metrics = std::move(gr.metrics);
    return r;
  });
}

CcResult Session::cc_on(simt::DeviceIndex d, const Graph& g,
                        const Policy& policy) {
  simt::Device& dev = fleet_.device(d);
  Registration* reg = find_reg(g);
  if (reg == nullptr) return adaptive::cc(dev, g, policy);
  const graph::Csr& target = resolve_symmetric(g, policy);
  return detail::run_guarded<CcResult>(dev, [&] {
    gg::DeviceGraph* dg;
    if (&target == &g.csr()) {
      dg = &ensure_fresh(*reg, d, false).dg;
    } else {
      // First cc() on a registered directed graph: keep the symmetrized CSR
      // resident too, so repeat queries skip the upload.
      ensure_fresh(*reg, d, false);
      dg = &ensure_sym(*reg, d, target);
    }
    gg::GpuCcResult gr = rt::run_cc(
        dev, dg, target,
        detail::cc_query(g, policy, /*of_symmetrized=*/&target != &g.csr()));
    CcResult r;
    r.component = std::move(gr.component);
    r.num_components = gr.num_components;
    r.metrics = std::move(gr.metrics);
    return r;
  });
}

PageRankResult Session::pagerank_on(simt::DeviceIndex d, const Graph& g,
                                    double damping, const Policy& policy) {
  simt::Device& dev = fleet_.device(d);
  Registration* reg = find_reg(g);
  if (reg == nullptr) return adaptive::pagerank(dev, g, damping, policy);
  return detail::run_guarded<PageRankResult>(dev, [&] {
    Pin& pin = ensure_fresh(*reg, d, false);
    PageRankResult r;
    gg::PageRankOptions po;
    po.damping = damping;
    gg::GpuPageRankResult gr;
    if (policy.mode == Policy::Mode::fixed_variant) {
      po.engine = policy.options.engine;
      gr = gg::run_pagerank(dev, pin.dg, g.csr(),
                            gg::fixed_variant(policy.variant), po);
    } else {
      gr = rt::adaptive_pagerank(dev, pin.dg, g.csr(), po, policy.options);
    }
    r.rank.assign(gr.rank.begin(), gr.rank.end());
    r.metrics = std::move(gr.metrics);
    return r;
  });
}

BfsResult Session::bfs(const Graph& g, NodeId source, const Policy& policy) {
  if (policy.mode == Policy::Mode::cpu_serial) {
    return adaptive::bfs(fleet_.device(0), g, source, policy);
  }
  if (const svc::Payload* hit =
          rcache_lookup(g, svc::Algo::bfs, source, 0.0, policy)) {
    return std::get<BfsResult>(*hit);
  }
  simt::DeviceIndex d = route_device();
  BfsResult out;
  if (d != kNoDevice) {
    out = bfs_on(d, g, source, policy);
    // Failover: a permanent fault killed the routed device mid-query; the
    // next healthy device re-runs it. Transient faults surface as before.
    while (!out.ok() && out.code == ErrorCode::device_lost &&
           (d = route_device()) != kNoDevice) {
      out = bfs_on(d, g, source, policy);
    }
  }
  if (d == kNoDevice || (!out.ok() && out.code == ErrorCode::device_lost)) {
    // No healthy device remains: the serial CPU oracle answers, exactly.
    out = adaptive::bfs(fleet_.device(0), g, source, Policy::cpu());
    out.degraded = true;
  }
  if (out.ok()) {
    rcache_store(g, svc::Algo::bfs, source, 0.0, policy, svc::Payload(out));
  }
  return out;
}

SsspResult Session::sssp(const Graph& g, NodeId source, const Policy& policy) {
  if (policy.mode == Policy::Mode::cpu_serial) {
    return adaptive::sssp(fleet_.device(0), g, source, policy);
  }
  if (const svc::Payload* hit =
          rcache_lookup(g, svc::Algo::sssp, source, 0.0, policy)) {
    return std::get<SsspResult>(*hit);
  }
  simt::DeviceIndex d = route_device();
  SsspResult out;
  if (d != kNoDevice) {
    out = sssp_on(d, g, source, policy);
    while (!out.ok() && out.code == ErrorCode::device_lost &&
           (d = route_device()) != kNoDevice) {
      out = sssp_on(d, g, source, policy);
    }
  }
  if (d == kNoDevice || (!out.ok() && out.code == ErrorCode::device_lost)) {
    out = adaptive::sssp(fleet_.device(0), g, source, Policy::cpu());
    out.degraded = true;
  }
  if (out.ok()) {
    rcache_store(g, svc::Algo::sssp, source, 0.0, policy, svc::Payload(out));
  }
  return out;
}

CcResult Session::cc(const Graph& g, const Policy& policy) {
  if (policy.mode == Policy::Mode::cpu_serial) {
    return adaptive::cc(fleet_.device(0), g, policy);
  }
  if (const svc::Payload* hit =
          rcache_lookup(g, svc::Algo::cc, 0, 0.0, policy)) {
    return std::get<CcResult>(*hit);
  }
  simt::DeviceIndex d = route_device();
  CcResult out;
  if (d != kNoDevice) {
    out = cc_on(d, g, policy);
    while (!out.ok() && out.code == ErrorCode::device_lost &&
           (d = route_device()) != kNoDevice) {
      out = cc_on(d, g, policy);
    }
  }
  if (d == kNoDevice || (!out.ok() && out.code == ErrorCode::device_lost)) {
    out = adaptive::cc(fleet_.device(0), g,
                       Policy::cpu().with_symmetrize(policy.symmetrize));
    out.degraded = true;
  }
  if (out.ok()) {
    rcache_store(g, svc::Algo::cc, 0, 0.0, policy, svc::Payload(out));
  }
  return out;
}

MstResult Session::mst(const Graph& g, const Policy& policy) {
  if (policy.mode == Policy::Mode::cpu_serial) {
    return adaptive::mst(fleet_.device(0), g, policy);
  }
  simt::DeviceIndex d = route_device();
  MstResult out;
  if (d != kNoDevice) {
    out = adaptive::mst(fleet_.device(d), g, policy);
    while (!out.ok() && out.code == ErrorCode::device_lost &&
           (d = route_device()) != kNoDevice) {
      out = adaptive::mst(fleet_.device(d), g, policy);
    }
  }
  if (d == kNoDevice || (!out.ok() && out.code == ErrorCode::device_lost)) {
    out = adaptive::mst(fleet_.device(0), g,
                        Policy::cpu().with_symmetrize(policy.symmetrize));
    out.degraded = true;
  }
  return out;
}

PageRankResult Session::pagerank(const Graph& g, double damping,
                                 const Policy& policy) {
  if (policy.mode == Policy::Mode::cpu_serial) {
    return adaptive::pagerank(fleet_.device(0), g, damping, policy);
  }
  if (const svc::Payload* hit =
          rcache_lookup(g, svc::Algo::pagerank, 0, damping, policy)) {
    return std::get<PageRankResult>(*hit);
  }
  simt::DeviceIndex d = route_device();
  PageRankResult out;
  if (d != kNoDevice) {
    out = pagerank_on(d, g, damping, policy);
    while (!out.ok() && out.code == ErrorCode::device_lost &&
           (d = route_device()) != kNoDevice) {
      out = pagerank_on(d, g, damping, policy);
    }
  }
  if (d == kNoDevice || (!out.ok() && out.code == ErrorCode::device_lost)) {
    out = adaptive::pagerank(fleet_.device(0), g, damping, Policy::cpu());
    out.degraded = true;
  }
  if (out.ok()) {
    rcache_store(g, svc::Algo::pagerank, 0, damping, policy,
                 svc::Payload(out));
  }
  return out;
}

BfsResult Session::bfs(GraphId id, NodeId source, const Policy& policy) {
  return bfs(graph_for(id), source, policy);
}

SsspResult Session::sssp(GraphId id, NodeId source, const Policy& policy) {
  return sssp(graph_for(id), source, policy);
}

CcResult Session::cc(GraphId id, const Policy& policy) {
  return cc(graph_for(id), policy);
}

PageRankResult Session::pagerank(GraphId id, double damping,
                                 const Policy& policy) {
  return pagerank(graph_for(id), damping, policy);
}

Session& Session::default_session() {
  thread_local Session session;
  return session;
}

}  // namespace adaptive
