// The frontier driver: the paper's two-kernel iteration (Fig. 8) written
// once, and the reusable "algorithm pattern" of its graph API (Sec. II: "we
// provide to the user a graph API including some algorithm patterns that
// can be reused in the context of more complex applications").
//
// An algorithm is an operator: a per-element function plus what it needs
// around it. The driver supplies everything the algorithms share — the
// T/B/W x BM/QU launch schedules (launch_mapped), the dual bitmap/queue
// working set, variant selection every R iterations, the fused loop's
// persistent-kernel phases, size readbacks, working-set generation, the
// direction controller's inputs, the hybrid host branch and the metrics
// (DESIGN.md "Iteration driver"). BFS, unordered SSSP, CC, MS-BFS,
// PageRank and user operators (run_frontier) all run on drive_frontier;
// ordered SSSP and Boruvka MST keep their own loops.
//
// User operators have the signature
//
//   void op(simt::ThreadCtx& ctx, std::uint32_t id,
//           std::uint32_t offset, std::uint32_t step, gg::Push& push);
//
// and must visit the element's adjacency as `for (e = begin+offset; e < end;
// e += step)` so every mapping granularity partitions the work correctly.
// Algorithm state lives in user-allocated DeviceBuffers accessed through
// `ctx` with user site ids 0..13 (14-17 are reserved by the engine).
// Calling `push.mark(t)` admits node t into the next working set
// (deduplicated through the shared update vector).
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/engine_common.h"
#include "gpu_graph/metrics.h"
#include "gpu_graph/workset.h"
#include "simt/launch.h"

namespace gg {

// ---------------------------------------------------------------------------
// One mapped launch.
// ---------------------------------------------------------------------------

// An operator's compute kernel under the six mapping x working-set
// schedules: its kernel names (written with GG_KERNEL_NAMES) and its sites
// for the two accesses the schedules add to the element function.
struct MappedKernels {
  const char* t_bm;
  const char* t_qu;
  const char* b_bm;
  const char* b_qu;
  const char* w_bm;
  const char* w_qu;
  simt::Site queue_load;
  simt::Site bitmap_clear;
};

// The six kernel names of `prefix`, e.g. "bfs.compute.T_BM".
#define GG_KERNEL_NAMES(prefix)                                          \
  prefix ".T_BM", prefix ".T_QU", prefix ".B_BM", prefix ".B_QU",        \
      prefix ".W_BM", prefix ".W_QU"

// Launches `body(ctx, id, offset, step)` once per working-set element under
// variant `v`'s schedule. Thread mapping gives an element one lane (offset
// 0, step 1); block mapping strides its adjacency across a block of
// `block_tpb` lanes; the warp-centric extension (Hong et al. [12]) across
// the 32 lanes of a virtual warp — one-warp blocks over the node range in
// bitmap form, thread_tpb/32 warps per block in queue form. Bitmap
// schedules clear the element's bit as they claim it.
//
// Every schedule keeps the default LaunchPolicy::serial: operator bodies
// branch on atomic returns and update-flag claims and record into host-side
// lists, so the functional result depends on the order blocks run.
template <typename Body>
void launch_mapped(simt::Device& dev, Variant v, const MappedKernels& k,
                   Workset& ws, std::span<const std::uint32_t> frontier,
                   std::uint32_t thread_tpb, std::uint32_t block_tpb,
                   Body&& body) {
  const std::uint32_t n = ws.num_nodes();
  simt::Predicate pred;
  pred.base_addr = ws.bitmap().base_addr();
  pred.stride = 1;
  pred.ops = 2;

  switch (v.mapping) {
    case Mapping::thread:
      if (v.repr == WorksetRepr::bitmap) {
        simt::launch(dev, k.t_bm,
                     simt::GridSpec::over_threads(n, thread_tpb, frontier, pred),
                     [&](simt::ThreadCtx& ctx) {
                       const auto id = static_cast<std::uint32_t>(ctx.global_id());
                       ctx.store(ws.bitmap(), id, std::uint8_t{0}, k.bitmap_clear);
                       body(ctx, id, 0, 1);
                     });
      } else {
        simt::launch(dev, k.t_qu,
                     simt::GridSpec::dense(frontier.size(), thread_tpb),
                     [&](simt::ThreadCtx& ctx) {
                       const std::uint32_t id =
                           ctx.load(ws.queue(), ctx.global_id(), k.queue_load);
                       body(ctx, id, 0, 1);
                     });
      }
      return;
    case Mapping::block:
      if (v.repr == WorksetRepr::bitmap) {
        simt::launch(dev, k.b_bm,
                     simt::GridSpec::over_blocks(n, block_tpb, frontier, pred),
                     [&](simt::ThreadCtx& ctx) {
                       const auto id = static_cast<std::uint32_t>(ctx.block_idx());
                       if (ctx.thread_in_block() == 0) {
                         ctx.store(ws.bitmap(), id, std::uint8_t{0}, k.bitmap_clear);
                       }
                       body(ctx, id, ctx.thread_in_block(), ctx.block_dim());
                     });
      } else {
        simt::launch(dev, k.b_qu,
                     simt::GridSpec::dense(frontier.size() * block_tpb, block_tpb),
                     [&](simt::ThreadCtx& ctx) {
                       const std::uint32_t id =
                           ctx.load(ws.queue(), ctx.block_idx(), k.queue_load);
                       body(ctx, id, ctx.thread_in_block(), ctx.block_dim());
                     });
      }
      return;
    case Mapping::warp:
      if (v.repr == WorksetRepr::bitmap) {
        simt::launch(dev, k.w_bm,
                     simt::GridSpec::over_blocks(n, simt::kWarpSize, frontier, pred),
                     [&](simt::ThreadCtx& ctx) {
                       const auto id = static_cast<std::uint32_t>(ctx.block_idx());
                       if (ctx.thread_in_block() == 0) {
                         ctx.store(ws.bitmap(), id, std::uint8_t{0}, k.bitmap_clear);
                       }
                       body(ctx, id, ctx.thread_in_block(), simt::kWarpSize);
                     });
      } else {
        simt::launch(dev, k.w_qu,
                     simt::GridSpec::dense(frontier.size() * simt::kWarpSize,
                                           thread_tpb),
                     [&](simt::ThreadCtx& ctx) {
                       const auto wid = static_cast<std::uint32_t>(
                           ctx.global_id() / simt::kWarpSize);
                       const std::uint32_t id =
                           ctx.load(ws.queue(), wid, k.queue_load);
                       body(ctx, id,
                            static_cast<std::uint32_t>(ctx.global_id() %
                                                       simt::kWarpSize),
                            simt::kWarpSize);
                     });
      }
      return;
  }
}

// ---------------------------------------------------------------------------
// One iteration loop.
// ---------------------------------------------------------------------------

// The working set of one traversal: the device Workset plus the host
// shadows the simulation keeps of it — the sorted ids processed this
// iteration and the ids whose update flag the compute kernel claimed.
struct Frontier {
  Frontier(simt::Device& dev, std::uint32_t num_nodes,
           std::vector<std::uint32_t> initial)
      : ws(dev, num_nodes), current(std::move(initial)) {}

  // Fig. 9's update-flag claim: admits `t` to the next working set once.
  void mark(simt::ThreadCtx& ctx, std::uint32_t t, simt::Site load,
            simt::Site store) {
    if (ctx.load(ws.update(), t, load) == 0) {
      ctx.store(ws.update(), t, std::uint8_t{1}, store);
      next.push_back(t);
    }
  }

  Workset ws;
  std::vector<std::uint32_t> current;
  std::vector<std::uint32_t> next;
};

// The selector's input at iteration 0 of a traversal whose working set
// starts with `ws_size` ids. `host_form`: the operator can run hybrid host
// phases, so a small enough start is one.
inline SelectorInput initial_selector_input(const DeviceGraph& dg,
                                            std::uint64_t ws_size,
                                            const EngineOptions& opts,
                                            bool host_form) {
  SelectorInput sel;
  sel.ws_size = ws_size;
  sel.avg_outdegree = dg.avg_outdegree;
  sel.outdeg_stddev = dg.outdeg_stddev;
  sel.num_nodes = dg.num_nodes;
  sel.host_phase = host_form && ws_size < opts.hybrid_cpu_threshold;
  return sel;
}

// The payload array at the end of a traversal: downloaded (the download is
// part of the measured time, as in the paper), or read in place when a
// hybrid run ended in a host phase and the array is already host resident.
inline std::vector<std::uint32_t> download(
    simt::Device& dev, simt::DeviceBuffer<std::uint32_t>& buf,
    bool host_resident) {
  std::vector<std::uint32_t> out(buf.size());
  if (host_resident) {
    std::copy(buf.host_view().begin(), buf.host_view().end(), out.begin());
  } else {
    dev.memcpy_d2h(std::span<std::uint32_t>(out), buf);
  }
  return out;
}

// Runs operator `op` to a fixpoint on the resident graph `dg` (uploaded
// from `g`) and returns the traversal's metrics. The operator supplies:
//
//   static constexpr const char* kAlgo;       iteration records' algo name
//   static constexpr MappedKernels kKernels;  its kernel names and sites
//   std::vector<std::uint32_t> start(dev);    allocates its state; returns
//                                             the initial working set
//                                             (sorted, unique)
//   void element(ctx, Frontier&, id, offset, step);
//   void finish(dev, bool host_resident);     downloads its payload, frees
//                                             its state
//
// and optionally:
//
//   static constexpr bool kOrdered = true;    the first selection's ordering
//                                             holds for the traversal (BFS;
//                                             otherwise all run unordered)
//   void initialize(dev);                     state set up once the working
//                                             set is allocated (MS-BFS)
//   void seed(dev, Frontier&, Variant first, Workset::GenMethod);
//                                             materializes the initial
//                                             working set in first.repr
//                                             (default: flag it host side
//                                             and generate)
//   void begin_iteration(iteration, frontier);  per-iteration host state
//   void pull(dev, Frontier&, thread_tpb);    gather form: one dense pull
//                                             kernel over the bitmap
//                                             frontier (BFS)
//   void host(Frontier&);                     serial host form for the
//                                             hybrid (BFS, SSSP)
//
// `first` is iteration 0's selection when the caller already made it
// (run_sssp asks once, before choosing ordered or unordered SSSP).
template <typename Op>
TraversalMetrics drive_frontier(simt::Device& dev, const DeviceGraph& dg,
                                const graph::Csr& g, Op& op,
                                const VariantSelector& selector,
                                const EngineOptions& opts,
                                std::optional<Selection> first = std::nullopt) {
  constexpr bool kOrdered = requires { requires Op::kOrdered; };
  constexpr bool kPull = requires(Op& o, simt::Device& d, Frontier& f) {
    o.pull(d, f, std::uint32_t{0});
  };
  constexpr bool kHost = requires(Op& o, Frontier& f) { o.host(f); };
  const simt::DeviceStats stats_before = dev.stats();
  const double t_begin = dev.now_us();
  TraversalMetrics m;
  const std::uint32_t n = g.num_nodes;
  const std::uint32_t block_tpb =
      opts.block_tpb ? opts.block_tpb : derive_block_tpb(dg.avg_outdegree);
  const Workset::GenMethod gen =
      opts.scan_queue_gen ? Workset::GenMethod::scan : Workset::GenMethod::atomic;
  const std::uint64_t max_iters =
      opts.max_iterations ? opts.max_iterations : 64ull * n + 4096;

  Frontier fr(dev, n, op.start(dev));
  if constexpr (requires { op.initialize(dev); }) op.initialize(dev);
  SelectorInput sel =
      initial_selector_input(dg, fr.current.size(), opts, kHost);

  // Direction inputs (Beamer-style, host side): the frontier's out-edges and
  // those of vertices the traversal has not touched yet, kept by first-touch
  // accounting over the generated working sets.
  std::vector<std::uint8_t> seen;
  std::uint64_t unexplored_edges = 0;
  if constexpr (kPull) {
    seen.assign(n, 0);
    unexplored_edges = dg.num_edges;
    for (const std::uint32_t v : fr.current) {
      seen[v] = 1;
      unexplored_edges -= g.degree(v);
      sel.frontier_edges += g.degree(v);
    }
    sel.unexplored_edges = unexplored_edges;
    sel.csc_resident = dg.csc_resident();
  }
  // Canonicalizes a selection for execution: only a pull-capable operator
  // runs a gather, and ordering is fixed per traversal.
  auto canonical = [](Variant v) {
    if constexpr (kPull) v = normalize_direction(v);
    if constexpr (!kOrdered) v.ordering = Ordering::unordered;
    return v;
  };

  const Selection chosen = first ? *first : selector(sel);
  Variant variant = canonical(chosen.variant);
  bool fused = chosen.fused;
  if constexpr (requires { op.seed(dev, fr, variant, gen); }) {
    op.seed(dev, fr, variant, gen);
  } else {
    for (const std::uint32_t v : fr.current) fr.ws.update().host_view()[v] = 1;
    fr.ws.generate(dev, variant.repr, fr.current, gen);
  }

  // Hybrid CPU/GPU execution (cf. Hong et al. [13]): working sets smaller
  // than hybrid_cpu_threshold run serially on the host, and every switch
  // between host and device syncs the state array across PCIe.
  const bool hybrid = kHost && opts.hybrid_cpu_threshold > 0;
  bool on_cpu = sel.host_phase;
  FusedLoop loop(dev, fr.ws, opts.thread_tpb);
  if (on_cpu) dev.account_transfer(4ull * n, /*to_device=*/false);

  std::uint32_t iteration = 0;
  while (!fr.current.empty()) {
    ++iteration;
    AGG_CHECK_MSG(iteration <= max_iters, "frontier traversal failed to converge");
    const double t_iter = dev.now_us();
    loop.begin(fused && !on_cpu);
    if constexpr (requires { op.begin_iteration(iteration, fr.current); }) {
      op.begin_iteration(iteration, fr.current);
    }
    std::uint64_t frontier_edges = 0;
    for (const std::uint32_t v : fr.current) frontier_edges += g.degree(v);
    m.edges_processed += frontier_edges;

    if (on_cpu) {
      if constexpr (kHost) {
        // No kernel launches, no readbacks: the hybrid's whole advantage
        // on high-diameter graphs.
        op.host(fr);
        dev.account_host_compute(
            host_phase_us(fr.current.size(), frontier_edges));
      }
    } else if (kPull && variant.direction == Direction::pull) {
      if constexpr (kPull) {
        // Gather kernels read the frontier bitmap from every in-edge scan,
        // so the consumed frontier is wiped afterwards instead of in-kernel.
        op.pull(dev, fr, opts.thread_tpb);
        loop.readback(WorksetRepr::bitmap);
        fr.ws.clear_frontier_bitmap(dev, fr.current);
      }
    } else {
      launch_mapped(dev, variant, Op::kKernels, fr.ws, fr.current,
                    opts.thread_tpb, block_tpb,
                    [&](simt::ThreadCtx& ctx, std::uint32_t id,
                        std::uint32_t offset, std::uint32_t step) {
                      op.element(ctx, fr, id, offset, step);
                    });
      // Per-iteration termination signal (Fig. 8 line 4).
      loop.readback(variant.repr);
    }
    std::sort(fr.next.begin(), fr.next.end());

    std::uint64_t next_frontier_edges = 0;
    if constexpr (kPull) {
      for (const std::uint32_t v : fr.next) {
        const std::uint64_t d = g.degree(v);
        next_frontier_edges += d;
        if (!seen[v]) {
          seen[v] = 1;
          unexplored_edges -= d;
        }
      }
    }
    const bool next_on_cpu = hybrid && fr.next.size() < opts.hybrid_cpu_threshold;

    // Decision point (Sec. VI.E): sampled working-set monitoring + selector.
    Variant next = variant;
    bool next_fused = fused;
    if (opts.monitor_interval > 0 && iteration % opts.monitor_interval == 0) {
      if (!on_cpu && variant.repr == WorksetRepr::bitmap) {
        fr.ws.charge_bitmap_count_kernel(dev);  // queue mode: size known from tail
      }
      sel.iteration = iteration;
      sel.ws_size = fr.next.size();
      if constexpr (kPull) {
        sel.frontier_edges = next_frontier_edges;
        sel.unexplored_edges = unexplored_edges;
        sel.direction = variant.direction;
        sel.csc_resident = dg.csc_resident();
      }
      sel.host_phase = next_on_cpu;
      ++m.decisions;
      const Selection picked = selector(sel);
      next = canonical(picked.variant);
      next.ordering = variant.ordering;
      next_fused = picked.fused;
      if (!on_cpu && next != variant) ++m.switches;
    }

    // Host phases are scalar scatter loops; direction only applies on device.
    if (next_on_cpu) next.direction = Direction::push;
    if (on_cpu != next_on_cpu) {
      if (next_on_cpu) {
        dev.account_transfer(4ull * n, /*to_device=*/false);
      } else {
        dev.account_transfer(4ull * n, /*to_device=*/true);
        // Re-materialize the device update vector before generation.
        dev.account_transfer(n, /*to_device=*/true);
      }
    }

    if (!fr.next.empty() && !next_on_cpu) {
      fr.ws.generate(dev, next.repr, fr.next, gen);
    } else if (!fr.next.empty()) {
      // Host phase next: clear the flags functionally (the host owns them).
      for (const std::uint32_t v : fr.next) fr.ws.update().host_view()[v] = 0;
    }
    loop.end(next_fused && !next_on_cpu, !fr.next.empty(), next.repr);

    record_iteration(m, Op::kAlgo,
                     {iteration, fr.current.size(), variant,
                      dev.now_us() - t_iter, on_cpu, loop.fused()},
                     dev.now_us());
    fr.current.swap(fr.next);
    fr.next.clear();
    variant = next;
    fused = next_fused;
    on_cpu = next_on_cpu;
  }

  op.finish(dev, on_cpu);
  fr.ws.release(dev);
  fill_from_device_delta(m, stats_before, dev.stats(), t_begin, dev.now_us());
  return m;
}

// One-shot form of a resident-graph engine entry: uploads `g`, runs
// `run(dg)`, releases the upload, and folds it (Fig. 8 lines 1-3) into the
// reported totals on top of the resident-form metrics.
template <typename Run>
auto run_uploaded(simt::Device& dev, const graph::Csr& g,
                  simt::StreamId stream, bool with_weights, Run&& run) {
  simt::StreamGuard sguard(dev, stream);
  const simt::DeviceStats stats_before = dev.stats();
  const double t_begin = dev.now_us();
  DeviceGraph dg = DeviceGraph::upload(dev, g, with_weights);
  auto result = run(dg);
  dg.release(dev);
  result.metrics.total_us = dev.now_us() - t_begin;
  result.metrics.transfer_us =
      dev.stats().transfer_time_us - stats_before.transfer_time_us;
  return result;
}

// ---------------------------------------------------------------------------
// User operators.
// ---------------------------------------------------------------------------

namespace generic_detail {
inline constexpr simt::Site kUpdateLoad{14, "generic.update-load"};
inline constexpr simt::Site kUpdateStore{15, "generic.update-store"};
inline constexpr simt::Site kQueueLoad{16, "generic.queue-load"};
inline constexpr simt::Site kBitmapClear{17, "generic.bitmap-clear"};
}  // namespace generic_detail

// Handle through which an operator admits nodes to the next working set.
class Push {
 public:
  Push(simt::ThreadCtx& ctx, Frontier& fr) : ctx_(&ctx), fr_(&fr) {}

  void mark(std::uint32_t node) {
    fr_->mark(*ctx_, node, generic_detail::kUpdateLoad,
              generic_detail::kUpdateStore);
  }

 private:
  simt::ThreadCtx* ctx_;
  Frontier* fr_;
};

struct GenericResult {
  TraversalMetrics metrics;
};

namespace generic_detail {

template <typename Op>
struct UserOperator {
  static constexpr const char* kAlgo = "generic";
  static constexpr MappedKernels kKernels{GG_KERNEL_NAMES("generic"),
                                          kQueueLoad, kBitmapClear};
  Op& op;
  std::vector<std::uint32_t> initial;

  std::vector<std::uint32_t> start(simt::Device&) {
    std::sort(initial.begin(), initial.end());
    return std::move(initial);
  }
  void element(simt::ThreadCtx& ctx, Frontier& fr, std::uint32_t id,
               std::uint32_t offset, std::uint32_t step) {
    Push push(ctx, fr);
    op(ctx, id, offset, step, push);
  }
  void finish(simt::Device&, bool) {}
};

}  // namespace generic_detail

// Runs the operator to a fixpoint starting from `initial` (unique node
// ids). The DeviceGraph is supplied by the caller so the operator can
// capture it (and its own state buffers) directly.
template <typename Op>
GenericResult run_frontier(simt::Device& dev, const graph::Csr& g,
                           const DeviceGraph& dg,
                           std::vector<std::uint32_t> initial, Op&& op,
                           const VariantSelector& selector,
                           const EngineOptions& opts = {}) {
  generic_detail::UserOperator<std::remove_reference_t<Op>> user{
      op, std::move(initial)};
  return {drive_frontier(dev, dg, g, user, selector, opts)};
}

}  // namespace gg
