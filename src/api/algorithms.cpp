#include "api/algorithms.h"

#include "api/session.h"
#include "cpu/bfs_serial.h"
#include "cpu/cc_serial.h"
#include "cpu/mst_serial.h"
#include "cpu/pagerank_serial.h"
#include "cpu/sssp_serial.h"
#include "gpu_graph/bfs_engine.h"
#include "gpu_graph/cc_engine.h"
#include "gpu_graph/mst_engine.h"
#include "gpu_graph/pagerank_engine.h"
#include "gpu_graph/sssp_engine.h"

namespace adaptive {

namespace detail {
// Defined in session.cpp; shared symmetrize-policy resolution.
const graph::Csr& resolve_symmetric_csr(const Graph& g, const Policy& policy);

ErrorCode fault_code(const simt::DeviceFault& f) {
  if (f.permanent()) return ErrorCode::device_lost;
  switch (f.kind()) {
    case simt::FaultKind::alloc:
      return ErrorCode::device_oom;
    case simt::FaultKind::transfer:
      return ErrorCode::transfer_failed;
    case simt::FaultKind::kernel:
      return ErrorCode::kernel_fault;
  }
  return ErrorCode::internal;
}

const char* sourced_query_error(const Graph& g, NodeId source,
                                bool needs_weights) {
  if (needs_weights && !g.is_weighted()) return "sssp requires edge weights";
  if (source >= g.num_nodes()) return "source out of range";
  return nullptr;
}

namespace {

rt::Query policy_query(const Policy& policy) {
  rt::Query q;
  if (policy.mode == Policy::Mode::fixed_variant) q.fixed = policy.variant;
  q.options = policy.options;
  return q;
}

}  // namespace

rt::Query cc_query(const Graph& g, const Policy& policy, bool of_symmetrized) {
  rt::Query q = policy_query(policy);
  if (policy.wants_rep()) {
    // CC on a digraph runs plain (rt::run_cc): no relabelled view to build.
    q.symmetric = of_symmetrized || g.is_symmetric();
    if (*q.symmetric) q.rel = &g.relabelled_view(of_symmetrized);
  }
  return q;
}

rt::Query runtime_query(const Graph& g, const Policy& policy, bool gathers) {
  rt::Query q = policy_query(policy);
  if (policy.wants_rep()) q.rel = &g.relabelled_view();
  // Pull iterations gather over the CSC; the Graph's cached host copy saves
  // the engine a transpose per query.
  if (gathers && policy.wants_pull()) q.options.engine.csc = &g.csc();
  return q;
}

cpu::CcResult cpu_cc(const Graph& g, const graph::Csr& csr) {
  return &csr != &g.csr() || g.is_symmetric() ? cpu::connected_components(csr)
                                               : cpu::min_reaching_ids(csr);
}

}  // namespace detail

ParsedPolicy parse_policy(const std::string& name) {
  ParsedPolicy out;
  if (name == "adaptive") {
    out.policy = Policy::adapt();
    return out;
  }
  if (name == "cpu") {
    out.policy = Policy::cpu();
    return out;
  }
  if (const std::optional<gg::Variant> v = gg::try_parse_variant(name)) {
    if (v->direction == gg::Direction::adaptive) {
      // A fixed variant cannot host the direction controller (its selector
      // never re-decides); steer the caller to the adaptive policy.
      out.status = Status::error;
      out.code = ErrorCode::invalid_argument;
      out.error = "policy '" + name +
                  "': the _DO (direction-optimizing) suffix requires the "
                  "adaptive policy; use --policy=adaptive --direction=adaptive";
      return out;
    }
    if (v->representation == gg::Representation::adaptive) {
      // _AREP likewise belongs to the adaptive policy; a fixed variant names
      // its layout outright (_REL, or no suffix for plain).
      out.status = Status::error;
      out.code = ErrorCode::invalid_argument;
      out.error =
          "policy '" + name +
          "': the _AREP (adaptive-representation) suffix requires the "
          "adaptive policy; use --policy=adaptive --representation=adaptive";
      return out;
    }
    out.policy = Policy::fixed(*v);
    return out;
  }
  out.status = Status::error;
  out.code = ErrorCode::invalid_argument;
  out.error = "unknown policy '" + name +
              "': expected adaptive, cpu, or a variant name like U_T_BM "
              "(optionally suffixed _PULL, then _REL)";
  return out;
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::none:
      return "none";
    case ErrorCode::device_oom:
      return "device_oom";
    case ErrorCode::transfer_failed:
      return "transfer_failed";
    case ErrorCode::kernel_fault:
      return "kernel_fault";
    case ErrorCode::device_lost:
      return "device_lost";
    case ErrorCode::deadline_exceeded:
      return "deadline_exceeded";
    case ErrorCode::queue_full:
      return "queue_full";
    case ErrorCode::invalid_argument:
      return "invalid_argument";
    case ErrorCode::io_error:
      return "io_error";
    case ErrorCode::internal:
      return "internal";
  }
  return "?";
}

const char* error_code_message(ErrorCode code) {
  switch (code) {
    case ErrorCode::none:
      return "no error";
    case ErrorCode::device_oom:
      return "simulated device memory exhausted";
    case ErrorCode::transfer_failed:
      return "host<->device transfer failed";
    case ErrorCode::kernel_fault:
      return "kernel launch failed";
    case ErrorCode::device_lost:
      return "device permanently lost";
    case ErrorCode::deadline_exceeded:
      return "modeled deadline exceeded";
    case ErrorCode::queue_full:
      return "admission queue full";
    case ErrorCode::invalid_argument:
      return "invalid argument";
    case ErrorCode::io_error:
      return "graph io failure";
    case ErrorCode::internal:
      return "internal error";
  }
  return "?";
}

BfsResult bfs(simt::Device& dev, const Graph& g, NodeId source,
              const Policy& policy) {
  if (const char* why = detail::sourced_query_error(g, source, false)) {
    return detail::invalid_argument_result<BfsResult>(why);
  }
  return detail::run_guarded<BfsResult>(dev, [&] {
  BfsResult out;
  switch (policy.mode) {
    case Policy::Mode::cpu_serial: {
      cpu::BfsResult r = cpu::bfs(g.csr(), source);
      out.level = std::move(r.level);
      out.cpu_wall_ms = r.wall_ms;
      return out;
    }
    case Policy::Mode::fixed_variant:
    case Policy::Mode::adaptive: {
      gg::GpuBfsResult r = rt::run_bfs(dev, nullptr, g.csr(), source,
                                       detail::runtime_query(g, policy));
      out.level = std::move(r.level);
      out.metrics = std::move(r.metrics);
      return out;
    }
  }
  AGG_CHECK(false);
  return out;
  });
}

SsspResult sssp(simt::Device& dev, const Graph& g, NodeId source,
                const Policy& policy) {
  if (const char* why = detail::sourced_query_error(g, source, true)) {
    return detail::invalid_argument_result<SsspResult>(why);
  }
  return detail::run_guarded<SsspResult>(dev, [&] {
  SsspResult out;
  switch (policy.mode) {
    case Policy::Mode::cpu_serial: {
      cpu::SsspResult r = cpu::dijkstra(g.csr(), source);
      out.dist = std::move(r.dist);
      out.cpu_wall_ms = r.wall_ms;
      return out;
    }
    case Policy::Mode::fixed_variant:
    case Policy::Mode::adaptive: {
      gg::GpuSsspResult r = rt::run_sssp(
          dev, nullptr, g.csr(), source,
          detail::runtime_query(g, policy, /*gathers=*/false));
      out.dist = std::move(r.dist);
      out.metrics = std::move(r.metrics);
      return out;
    }
  }
  AGG_CHECK(false);
  return out;
  });
}

CcResult cc(simt::Device& dev, const Graph& g, const Policy& policy) {
  const graph::Csr& csr = detail::resolve_symmetric_csr(g, policy);
  return detail::run_guarded<CcResult>(dev, [&] {
  CcResult out;
  switch (policy.mode) {
    case Policy::Mode::cpu_serial: {
      cpu::CcResult r = detail::cpu_cc(g, csr);
      out.component = std::move(r.component);
      out.num_components = r.num_components;
      out.cpu_wall_ms = r.wall_ms;
      return out;
    }
    case Policy::Mode::fixed_variant:
    case Policy::Mode::adaptive: {
      gg::GpuCcResult r = rt::run_cc(
          dev, nullptr, csr,
          detail::cc_query(g, policy, /*of_symmetrized=*/&csr != &g.csr()));
      out.component = std::move(r.component);
      out.num_components = r.num_components;
      out.metrics = std::move(r.metrics);
      return out;
    }
  }
  AGG_CHECK(false);
  return out;
  });
}

MstResult mst(simt::Device& dev, const Graph& g, const Policy& policy) {
  if (!g.is_weighted()) {
    return detail::invalid_argument_result<MstResult>("mst requires edge weights");
  }
  const graph::Csr& csr = detail::resolve_symmetric_csr(g, policy);
  return detail::run_guarded<MstResult>(dev, [&] {
  MstResult out;
  switch (policy.mode) {
    case Policy::Mode::cpu_serial: {
      cpu::MstResult r = cpu::minimum_spanning_forest(csr);
      out.total_weight = r.total_weight;
      out.num_trees = r.num_trees;
      out.edges_in_forest = r.edges_in_forest;
      out.cpu_wall_ms = r.wall_ms;
      return out;
    }
    case Policy::Mode::fixed_variant: {
      gg::GpuMstResult r = gg::run_mst(dev, csr, policy.variant,
                                       policy.options.engine);
      out.total_weight = r.total_weight;
      out.num_trees = r.num_trees;
      out.edges_in_forest = r.edges_in_forest;
      out.metrics = std::move(r.metrics);
      return out;
    }
    case Policy::Mode::adaptive: {
      gg::GpuMstResult r = rt::adaptive_mst(dev, csr, policy.options);
      out.total_weight = r.total_weight;
      out.num_trees = r.num_trees;
      out.edges_in_forest = r.edges_in_forest;
      out.metrics = std::move(r.metrics);
      return out;
    }
  }
  AGG_CHECK(false);
  return out;
  });
}

PageRankResult pagerank(simt::Device& dev, const Graph& g, double damping,
                        const Policy& policy) {
  return detail::run_guarded<PageRankResult>(dev, [&] {
  PageRankResult out;
  switch (policy.mode) {
    case Policy::Mode::cpu_serial: {
      cpu::PageRankOptions po;
      po.damping = damping;
      cpu::PageRankResult r = cpu::pagerank(g.csr(), po);
      out.rank = std::move(r.rank);
      out.cpu_wall_ms = r.wall_ms;
      return out;
    }
    case Policy::Mode::fixed_variant: {
      gg::PageRankOptions po;
      po.damping = damping;
      po.engine = policy.options.engine;
      gg::GpuPageRankResult r = gg::run_pagerank(dev, g.csr(), policy.variant, po);
      out.rank.assign(r.rank.begin(), r.rank.end());
      out.metrics = std::move(r.metrics);
      return out;
    }
    case Policy::Mode::adaptive: {
      gg::PageRankOptions po;
      po.damping = damping;
      gg::GpuPageRankResult r =
          rt::adaptive_pagerank(dev, g.csr(), po, policy.options);
      out.rank.assign(r.rank.begin(), r.rank.end());
      out.metrics = std::move(r.metrics);
      return out;
    }
  }
  AGG_CHECK(false);
  return out;
  });
}

// Device-less convenience overloads: route through the thread's default
// Session so repeated calls share one device (api/session.h).
BfsResult bfs(const Graph& g, NodeId source, const Policy& policy) {
  return Session::default_session().bfs(g, source, policy);
}

SsspResult sssp(const Graph& g, NodeId source, const Policy& policy) {
  return Session::default_session().sssp(g, source, policy);
}

CcResult cc(const Graph& g, const Policy& policy) {
  return Session::default_session().cc(g, policy);
}

MstResult mst(const Graph& g, const Policy& policy) {
  return Session::default_session().mst(g, policy);
}

PageRankResult pagerank(const Graph& g, double damping, const Policy& policy) {
  return Session::default_session().pagerank(g, damping, policy);
}

}  // namespace adaptive
