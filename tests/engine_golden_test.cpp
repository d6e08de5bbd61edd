// Pins the modeled cost of every frontier engine exactly. Each case runs one
// algorithm under one fixed variant (or the adaptive runtime) on a fresh
// device and prints one line: the modeled total time as a hex float, the
// device's kernel, warp, transaction, atomic and grid-barrier counts, the
// edges the engine visited, its decision and switch counts, and FNV-1a
// hashes of its per-iteration records and of the payload. The lines
// must equal tests/golden/engine_golden.txt byte for byte, so any change in
// what an engine launches, touches or answers shows up as an exact diff.
//
// After an intended change of modeled behaviour, the test writes the lines
// it computed to engine_golden.actual in its working directory; review the
// diff against the fixture and copy the file over it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gpu_graph/generic_engine.h"
#include "graph/csr.h"
#include "graph/gen/generators.h"
#include "runtime/adaptive_engine.h"
#include "simt/device.h"

namespace {

struct GoldenGraph {
  std::string name;
  graph::Csr csr;  // weighted, as generated (directed for rmat and er)
  graph::Csr sym;  // symmetric closure with symmetric weights (CC, MST)
};

std::vector<GoldenGraph> golden_graphs() {
  graph::gen::RmatParams rm;
  rm.scale = 10;
  rm.edges_per_node = 8;
  rm.seed = 4;
  std::vector<GoldenGraph> out;
  out.push_back({"road", graph::gen::road_network(900, 2), {}});
  out.push_back({"rmat10", graph::gen::rmat(rm), {}});
  out.push_back({"er", graph::gen::erdos_renyi(800, 4000, 9), {}});
  for (GoldenGraph& gr : out) {
    graph::assign_uniform_weights(gr.csr, 1, 63, 11);
    gr.sym = graph::symmetrize(gr.csr);
    graph::assign_symmetric_uniform_weights(gr.sym, 1, 63, 12);
  }
  return out;
}

std::vector<gg::Variant> fixed_variants() {
  std::vector<gg::Variant> out;
  for (const gg::Variant v : gg::all_variants()) out.push_back(v);
  for (const gg::Variant v : gg::warp_centric_variants()) out.push_back(v);
  return out;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t hash_of(const std::vector<T>& v) {
  return fnv1a(v.data(), v.size() * sizeof(T));
}

std::string hexfloat(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

// Hash of the per-iteration records: variant, working-set size and whether
// the iteration ran on the host or inside the fused loop.
std::uint64_t iterations_hash(const gg::TraversalMetrics& m) {
  std::string s;
  for (const gg::IterationRecord& it : m.iterations) {
    s += gg::variant_name(it.variant) + ':' + std::to_string(it.ws_size) +
         (it.on_cpu ? ":cpu" : "") + (it.fused ? ":fused" : "") + ';';
  }
  return fnv1a(s.data(), s.size());
}

std::string line(const std::string& where, const gg::TraversalMetrics& m,
                 const simt::DeviceStats& s, std::uint64_t payload) {
  std::ostringstream os;
  os << where << " total_us=" << hexfloat(m.total_us)
     << " kernels=" << s.kernels_launched
     << " warps_executed=" << s.warps_executed
     << " transactions=" << hexfloat(s.transactions)
     << " atomics=" << hexfloat(s.atomics)
     << " grid_barriers=" << s.grid_barriers
     << " edges_processed=" << m.edges_processed
     << " decisions=" << m.decisions << " switches=" << m.switches
     << std::hex << " iterations=" << iterations_hash(m)
     << " payload=" << payload;
  return os.str();
}

// The user operator of the run_frontier cases: hop counts, as in
// examples/custom_operator.cpp but without a hop budget.
constexpr simt::Site kHopLoad{0, "golden.hop-load"};
constexpr simt::Site kRowLoad{1, "golden.rows"};
constexpr simt::Site kEdgeLoad{2, "golden.edges"};
constexpr simt::Site kHopMin{3, "golden.relax"};
constexpr simt::Site kOps{4, "golden.ops"};

gg::TraversalMetrics run_hops(simt::Device& dev, const graph::Csr& g,
                              graph::NodeId source,
                              const gg::VariantSelector& selector,
                              const gg::EngineOptions& opts,
                              std::vector<std::uint32_t>& hops_out) {
  gg::DeviceGraph dg = gg::DeviceGraph::upload(dev, g, /*with_weights=*/false);
  auto hops = dev.alloc<std::uint32_t>(g.num_nodes, "golden.hops");
  dev.fill(hops, graph::kInfinity);
  dev.write_scalar(hops, source, 0u);
  auto op = [&](simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
                std::uint32_t step, gg::Push& push) {
    const std::uint32_t h = ctx.load(hops, id, kHopLoad);
    const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRowLoad);
    const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRowLoad);
    ctx.compute(4, kOps);
    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(dg.col_indices, e, kEdgeLoad);
      ctx.compute(2, kOps);
      const std::uint32_t old = ctx.atomic_min(hops, t, h + 1, kHopMin);
      if (h + 1 < old) push.mark(t);
    }
  };
  gg::GenericResult r =
      gg::run_frontier(dev, g, dg, {source}, op, selector, opts);
  hops_out.assign(hops.host_view().begin(), hops.host_view().end());
  dev.free(hops);
  dg.release(dev);
  return r.metrics;
}

std::vector<std::string> golden_lines() {
  std::vector<std::string> out;
  const std::vector<gg::Variant> variants = fixed_variants();
  for (const GoldenGraph& gr : golden_graphs()) {
    const graph::Csr& g = gr.csr;
    const graph::NodeId src = graph::suggest_source(g);
    std::vector<graph::NodeId> sources;
    for (std::uint32_t i = 0; i < 8; ++i) {
      sources.push_back(static_cast<graph::NodeId>(
          (src + i * 97ull) % g.num_nodes));
    }
    auto emit = [&](const std::string& what, const gg::TraversalMetrics& m,
                    const simt::Device& dev, std::uint64_t payload) {
      out.push_back(line(gr.name + " " + what, m, dev.stats(), payload));
    };

    rt::AdaptiveOptions dopt;
    dopt.direction = gg::Direction::adaptive;
    rt::AdaptiveOptions hybrid;
    hybrid.engine.hybrid_cpu_threshold = 64;

    // BFS: every fixed variant, the gather, adaptive, DO and the hybrid.
    for (const gg::Variant v : variants) {
      simt::Device dev;
      const auto r = gg::run_bfs(dev, g, src, v);
      emit("bfs " + gg::variant_name(v), r.metrics, dev, hash_of(r.level));
    }
    {
      simt::Device dev;
      const auto r = gg::run_bfs(dev, g, src, gg::parse_variant("U_T_BM_PULL"));
      emit("bfs U_T_BM_PULL", r.metrics, dev, hash_of(r.level));
    }
    for (const auto& [name, opts] :
         {std::pair{"adaptive", rt::AdaptiveOptions{}},
          std::pair{"adaptive-do", dopt}, std::pair{"adaptive-hybrid", hybrid}}) {
      simt::Device dev;
      const auto r = rt::adaptive_bfs(dev, g, src, opts);
      emit(std::string("bfs ") + name, r.metrics, dev, hash_of(r.level));
    }

    // SSSP: ordered and unordered fixed variants, adaptive, DO, hybrid.
    for (const gg::Variant v : variants) {
      simt::Device dev;
      const auto r = gg::run_sssp(dev, g, src, v);
      emit("sssp " + gg::variant_name(v), r.metrics, dev, hash_of(r.dist));
    }
    for (const auto& [name, opts] :
         {std::pair{"adaptive", rt::AdaptiveOptions{}},
          std::pair{"adaptive-do", dopt}, std::pair{"adaptive-hybrid", hybrid}}) {
      simt::Device dev;
      const auto r = rt::adaptive_sssp(dev, g, src, opts);
      emit(std::string("sssp ") + name, r.metrics, dev, hash_of(r.dist));
    }

    // CC on the symmetric closure.
    for (const gg::Variant v : variants) {
      simt::Device dev;
      const auto r = gg::run_cc(dev, gr.sym, v);
      emit("cc " + gg::variant_name(v), r.metrics, dev, hash_of(r.component));
    }
    {
      simt::Device dev;
      const auto r = rt::adaptive_cc(dev, gr.sym);
      emit("cc adaptive", r.metrics, dev, hash_of(r.component));
    }

    // MS-BFS, 8 sources.
    for (const gg::Variant v : variants) {
      simt::Device dev;
      const auto r = gg::run_bfs_multi(dev, g, sources, gg::fixed_variant(v));
      emit("msbfs " + gg::variant_name(v), r.metrics, dev, hash_of(r.levels));
    }
    {
      simt::Device dev;
      gg::DeviceGraph dg = gg::DeviceGraph::upload(dev, g, false);
      const auto r = rt::adaptive_bfs_multi(dev, dg, g, sources);
      dg.release(dev);
      emit("msbfs adaptive", r.metrics, dev, hash_of(r.levels));
    }

    // PageRank.
    for (const gg::Variant v : variants) {
      simt::Device dev;
      const auto r = gg::run_pagerank(dev, g, v);
      emit("pagerank " + gg::variant_name(v), r.metrics, dev, hash_of(r.rank));
    }
    {
      simt::Device dev;
      const auto r = rt::adaptive_pagerank(dev, g);
      emit("pagerank adaptive", r.metrics, dev, hash_of(r.rank));
    }

    // MST on the symmetric closure.
    auto mst_hash = [](const gg::GpuMstResult& r) {
      const std::uint64_t fields[] = {r.total_weight, r.num_trees,
                                      r.edges_in_forest};
      return fnv1a(r.component.data(),
                   r.component.size() * sizeof(std::uint32_t),
                   fnv1a(fields, sizeof fields));
    };
    for (const gg::Variant v : variants) {
      simt::Device dev;
      const auto r = gg::run_mst(dev, gr.sym, v);
      emit("mst " + gg::variant_name(v), r.metrics, dev, mst_hash(r));
    }
    {
      simt::Device dev;
      const auto r = rt::adaptive_mst(dev, gr.sym);
      emit("mst adaptive", r.metrics, dev, mst_hash(r));
    }

    // A run_frontier user operator.
    for (const gg::Variant v : variants) {
      simt::Device dev;
      std::vector<std::uint32_t> hops;
      const auto m = run_hops(dev, g, src, gg::fixed_variant(v), {}, hops);
      emit("frontier " + gg::variant_name(v), m, dev, hash_of(hops));
    }
    {
      simt::Device dev;
      gg::EngineOptions opts;
      opts.monitor_interval = 1;
      std::vector<std::uint32_t> hops;
      const auto m = run_hops(
          dev, g, src,
          rt::make_adaptive_selector(rt::Thresholds::for_device(dev.props())),
          opts, hops);
      emit("frontier adaptive", m, dev, hash_of(hops));
    }
  }
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream f(path);
  for (std::string l; std::getline(f, l);) out.push_back(l);
  return out;
}

TEST(EngineGolden, ModeledCostsMatchTheFixture) {
  const std::vector<std::string> want =
      read_lines(std::string(AGG_GOLDEN_DIR) + "/engine_golden.txt");
  const std::vector<std::string> got = golden_lines();
  if (got != want) {
    std::ofstream actual("engine_golden.actual", std::ios::trunc);
    for (const std::string& l : got) actual << l << '\n';
  }
  ASSERT_EQ(got.size(), want.size()) << "case list changed";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "line " << i + 1;
  }
}

}  // namespace
