#include "workloads.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

#include "api/session.h"
#include "common/prng.h"
#include "cpu/bfs_serial.h"
#include "cpu/cc_serial.h"
#include "cpu/sssp_serial.h"
#include "graph/delta.h"
#include "graph/gen/generators.h"
#include "service/graph_service.h"

namespace perfbench {
namespace {

using Answer = std::vector<std::uint32_t>;

// The graphs are fixed datasets, like the paper's; the benchmark seed drives
// only the query and mutation streams. Seed-to-seed differences then come
// from the queries asked, not from re-drawn topologies (road diameter and
// RMAT skew move modeled latency far more than the choice of sources).
constexpr std::uint64_t kGraphSeed = 2013;

// Independent sub-seed `salt` of a seed.
std::uint64_t subseed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed * 0x100000001b3ull + salt;
  return agg::splitmix64(s);
}

// `n` uniforms in [0, 1), one in each stratum [j/n, (j+1)/n), with the
// strata in a fixed golden-ratio interleave (hot and cold sources
// alternate). Inverse-CDF draws from them keep every marginal exact while
// each wave's mix and order of cheap and costly sources stay close to the
// distribution, so seed-to-seed spread reflects the program rather than
// the luck of the draw.
std::vector<double> stratified(agg::Prng& prng, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t j = 0; j < n; ++j) order[j] = j;
  auto key = [](std::size_t j) {
    const double x = static_cast<double>(j) * 0.6180339887498949;
    return x - static_cast<double>(static_cast<std::uint64_t>(x));
  };
  std::sort(order.begin(), order.end(),
            [&key](std::size_t a, std::size_t b) { return key(a) < key(b); });
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = (static_cast<double>(order[i]) + prng.uniform01()) /
           static_cast<double>(n);
  }
  return u;
}

// A run's worth of stratified uniforms, handed out in order. Stratifying
// over the whole run (not per wave) also fixes how often each hot source
// repeats, which is what the result cache feeds on.
class Draws {
 public:
  Draws(agg::Prng& prng, std::size_t n) : u_(stratified(prng, n)) {}
  double next() { return u_.at(next_++); }

 private:
  std::vector<double> u_;
  std::size_t next_ = 0;
};

// Zipf(1.0) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  explicit Zipf(std::uint32_t n) : cdf_(n) {
    double sum = 0;
    for (std::uint32_t k = 0; k < n; ++k) cdf_[k] = sum += 1.0 / (k + 1);
    for (double& c : cdf_) c /= sum;
  }
  std::uint32_t rank(double u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

std::uint64_t digest(svc::Algo algo, graph::NodeId source, const Answer& a) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(algo));
  mix(source);
  for (const std::uint32_t x : a) mix(x);
  return h;
}

Answer oracle(const graph::Csr& g, svc::Algo algo, graph::NodeId source) {
  switch (algo) {
    case svc::Algo::bfs:
      return cpu::bfs(g, source).level;
    case svc::Algo::sssp:
      return cpu::dijkstra(g, source).dist;
    case svc::Algo::cc:
      return cpu::connected_components(g).component;
    case svc::Algo::pagerank:
      break;
  }
  throw std::logic_error("no oracle for this algorithm");
}

const Answer* payload_answer(const svc::Payload& p) {
  if (const auto* r = std::get_if<adaptive::BfsResult>(&p)) return &r->level;
  if (const auto* r = std::get_if<adaptive::SsspResult>(&p)) return &r->dist;
  if (const auto* r = std::get_if<adaptive::CcResult>(&p)) return &r->component;
  return nullptr;
}

bool payload_ok(const svc::Payload& p) {
  return std::visit(
      [](const auto& r) {
        if constexpr (std::is_same_v<std::decay_t<decltype(r)>,
                                     std::monostate>) {
          return false;
        } else {
          return r.ok();
        }
      },
      p);
}

const gg::TraversalMetrics* payload_metrics(const svc::Payload& p) {
  if (const auto* r = std::get_if<adaptive::BfsResult>(&p)) return &r->metrics;
  if (const auto* r = std::get_if<adaptive::SsspResult>(&p)) return &r->metrics;
  if (const auto* r = std::get_if<adaptive::CcResult>(&p)) return &r->metrics;
  return nullptr;
}

void add_engine(EngineTotals& e, const gg::TraversalMetrics& m) {
  e.transfer_us += m.transfer_us;
  e.total_us += m.total_us;
  e.iterations += m.iterations.size();
  e.edges_processed += m.edges_processed;
}

GraphInfo info(std::string name, const graph::Csr& g) {
  return {std::move(name), g.num_nodes, g.num_edges()};
}

// ---------------------------------------------------------------------------
// traverse: one closed-loop caller on a single-device Session.

class Traverse final : public Workload {
 public:
  Traverse(std::uint64_t seed, std::size_t waves)
      : prng_(subseed(seed, 1)),
        draws_{Draws(prng_, waves * kSourcedPerGraph),
               Draws(prng_, waves * kSourcedPerGraph)} {}

  void setup() override {
    graph::Csr road = graph::gen::road_network(12500, subseed(kGraphSeed, 2));
    graph::assign_symmetric_uniform_weights(road, 1, 100, subseed(kGraphSeed, 3));
    graph::gen::RmatParams rp;
    rp.scale = 14;
    rp.edges_per_node = 16;
    rp.seed = subseed(kGraphSeed, 4);
    graph::Csr rmat = graph::gen::rmat(rp);
    graph::assign_uniform_weights(rmat, 1, 100, subseed(kGraphSeed, 5));
    graphs_[0] = adaptive::Graph::from_csr(std::move(road));
    graphs_[1] = adaptive::Graph::from_csr(std::move(rmat));

    session_ = std::make_unique<adaptive::Session>();
    for (int k = 0; k < 2; ++k) {
      const adaptive::Graph& g = *graphs_[k];
      ids_[k] = session_->register_graph(g);
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        if (g.csr().degree(v) > 0) sources_[k].push_back(v);
      }
      // Builds the lazy CSC, relabelled and symmetric views.
      const graph::NodeId s = g.default_source();
      require(session_->bfs(ids_[k], s, policy_).ok());
      require(session_->sssp(ids_[k], s, policy_).ok());
      require(session_->cc(ids_[k], policy_).ok());
    }
  }

  WaveResult run_wave(SpanSink* sink, const Between& between) override {
    static constexpr svc::Algo kCycle[5] = {svc::Algo::bfs, svc::Algo::sssp,
                                            svc::Algo::bfs, svc::Algo::sssp,
                                            svc::Algo::cc};
    WaveResult w;
    for (std::size_t i = 0; i < kWave; ++i, ++next_query_) {
      const int k = static_cast<int>(next_query_ % 2);
      const svc::Algo algo = kCycle[next_query_ % 5];
      graph::NodeId source = 0;
      if (algo != svc::Algo::cc) {
        const auto& pool = sources_[k];
        source = pool[static_cast<std::size_t>(draws_[k].next() * pool.size())];
      }

      QueryRecord rec;
      rec.id = next_query_ + 1;
      if (sink) sink->begin_call(rec.id);
      const Clock::time_point t0 = Clock::now();
      svc::Payload p;
      switch (algo) {
        case svc::Algo::bfs:
          p = session_->bfs(ids_[k], source, policy_);
          break;
        case svc::Algo::sssp:
          p = session_->sssp(ids_[k], source, policy_);
          break;
        default:
          p = session_->cc(ids_[k], policy_);
          break;
      }
      const double call_s = seconds_since(t0);
      w.host_s += call_s;
      w.call_host_s.push_back(call_s);
      between(call_s);

      const gg::TraversalMetrics& m = *payload_metrics(p);
      rec.latency_us = m.total_us;
      add_engine(w.engine, m);
      const Answer* got = payload_answer(p);
      rec.ok = payload_ok(p) && got && *got == expected(k, algo, source);
      if (got) w.checksum += digest(algo, source, *got);
      w.records.push_back(rec);
    }
    return w;
  }

  FleetSnapshot fleet_snapshot() const override {
    return snapshot(session_->fleet(), session_->fleet().makespan_us());
  }

  std::vector<GraphInfo> graphs() const override {
    return {info("road", graphs_[0]->csr()), info("rmat14", graphs_[1]->csr())};
  }

 private:
  static constexpr std::size_t kWave = 10;
  // BFS, SSSP, BFS, SSSP, CC over alternating graphs: each graph gets four
  // sourced queries and one CC per wave.
  static constexpr std::size_t kSourcedPerGraph = 4;

  static void require(bool ok) {
    if (!ok) throw std::runtime_error("traverse: warm-up query failed");
  }

  Answer expected(int k, svc::Algo algo, graph::NodeId source) {
    if (algo != svc::Algo::cc) return oracle(graphs_[k]->csr(), algo, source);
    if (!cc_[k]) cc_[k] = oracle(graphs_[k]->csr(), algo, source);
    return *cc_[k];
  }

  agg::Prng prng_;
  Draws draws_[2];  // source positions in each graph's id range
  adaptive::Policy policy_ = adaptive::Policy::adapt()
                                 .with_direction(gg::Direction::adaptive)
                                 .with_representation(
                                     gg::Representation::adaptive);
  std::optional<adaptive::Graph> graphs_[2];
  adaptive::GraphId ids_[2] = {0, 0};
  std::vector<graph::NodeId> sources_[2];
  std::unique_ptr<adaptive::Session> session_;
  std::uint64_t next_query_ = 0;
  std::optional<Answer> cc_[2];  // the only answers that repeat
};

// ---------------------------------------------------------------------------
// Service workloads: closed-loop waves of submissions followed by drain().

struct Submission {
  std::optional<graph::EdgeDelta> delta;  // set: a mutation
  svc::QueryRequest req;
  const Answer* expect = nullptr;          // queries: the oracle answer
};

class ServiceWorkload : public Workload {
 public:
  WaveResult run_wave(SpanSink* sink, const Between& between) override {
    std::vector<Submission> subs = plan_wave();
    WaveResult w;
    std::map<svc::QueryId, std::size_t> by_id;

    if (sink) sink->begin_call(0);
    const std::size_t first_span = sink ? sink->spans().size() : 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < subs.size(); ++i) {
      Submission& s = subs[i];
      const std::optional<svc::QueryId> id =
          s.delta ? service_->submit_mutation(gid_, *s.delta)
                  : service_->submit(s.req);
      if (id) by_id[*id] = i;
    }
    const Clock::time_point t1 = Clock::now();
    std::vector<svc::QueryOutcome> outs = service_->drain();
    w.drain_host_s = seconds_since(t1);
    w.host_s = seconds_since(t0);
    w.call_host_s.push_back(w.host_s);
    between(w.host_s);

    std::vector<SpanSink::Slot> slots;
    for (const svc::QueryOutcome& o : outs) {
      QueryRecord rec;
      rec.id = o.id;
      rec.mutation = o.mutation;
      rec.latency_us = o.finish_us - o.submit_us;
      rec.queue_wait_us = o.start_us - o.submit_us;
      rec.exec_us = o.finish_us - o.start_us;
      rec.cached = o.cached;
      rec.collapsed = o.collapsed;
      rec.dispatched = o.stream != 0;
      rec.degraded = o.degraded;
      rec.rebuilt = o.rebuilt;
      rec.batch_size = o.batch_size;
      rec.device = o.device;
      rec.retries = o.retries;
      const auto it = by_id.find(o.id);
      if (it != by_id.end() && o.ok()) {
        const Submission& s = subs[it->second];
        if (s.delta) {
          rec.ok = o.mutation;
        } else {
          const Answer* got = payload_answer(o.payload);
          rec.ok = !o.mutation && got && *got == *s.expect;
          if (got) w.checksum += digest(s.req.algo, s.req.source, *got);
          const gg::TraversalMetrics* m = payload_metrics(o.payload);
          if (m && !o.cached && !o.collapsed) add_engine(w.engine, *m);
        }
      }
      if (rec.dispatched) {
        slots.push_back({o.id, o.device, o.stream, o.start_us, o.finish_us});
      }
      w.records.push_back(rec);
    }
    // A submission without an outcome still counts as attempted (and
    // failed).
    for (std::size_t i = outs.size(); i < subs.size(); ++i) {
      w.records.push_back(QueryRecord{});
    }
    if (sink) sink->attribute(first_span, slots);
    return w;
  }

  FleetSnapshot fleet_snapshot() const override {
    return snapshot(service_->fleet(), service_->makespan_us());
  }
  svc::CacheStats cache_stats() const override {
    return service_->result_cache().stats();
  }

 protected:
  static constexpr std::size_t kWave = 32;

  // Places `g` on a fresh service and runs one warm-up query per algorithm.
  void start_service(std::size_t devices, const graph::Csr& g,
                     std::initializer_list<svc::Algo> warm) {
    svc::ServiceOptions opts;
    opts.queue_capacity = 64;
    service_ = std::make_unique<svc::GraphService>(
        opts, simt::ClusterSpec::homogeneous(devices));
    gid_ = service_->add_graph(adaptive::Graph::from_csr(graph::Csr(g)));
    const graph::NodeId s = graph::suggest_source(g);
    for (const svc::Algo a : warm) {
      svc::QueryRequest req;
      req.graph = gid_;
      req.algo = a;
      req.source = s;
      if (!service_->submit(req)) throw std::runtime_error("warm-up rejected");
    }
    for (const auto& o : service_->drain()) {
      if (!o.ok()) throw std::runtime_error("warm-up failed: " + o.error_message());
    }
  }

  svc::QueryRequest request(svc::Algo algo, graph::NodeId source) const {
    svc::QueryRequest req;
    req.graph = gid_;
    req.algo = algo;
    req.source = algo == svc::Algo::cc ? 0 : source;
    return req;
  }

  virtual std::vector<Submission> plan_wave() = 0;

  std::unique_ptr<svc::GraphService> service_;
  svc::GraphId gid_ = 0;
};

// serve-zipf: 2-device replicated fleet, Zipf(1.0) sources on RMAT scale 15.
class ServeZipf final : public ServiceWorkload {
 public:
  ServeZipf(std::uint64_t seed, std::size_t waves)
      : prng_(subseed(seed, 11)), draws_(prng_, waves * kWave) {}

  void setup() override {
    graph::gen::RmatParams rp;
    rp.scale = 15;
    rp.edges_per_node = 16;
    rp.seed = subseed(kGraphSeed, 12);
    csr_ = graph::gen::rmat(rp);
    graph::assign_uniform_weights(csr_, 1, 100, subseed(kGraphSeed, 13));
    zipf_.emplace(csr_.num_nodes);
    // Popularity follows out-degree: Zipf rank r is the r-th highest-degree
    // node, so a source's cost is a smooth function of its rank.
    by_degree_.resize(csr_.num_nodes);
    for (graph::NodeId v = 0; v < csr_.num_nodes; ++v) by_degree_[v] = v;
    std::stable_sort(by_degree_.begin(), by_degree_.end(),
                     [this](graph::NodeId a, graph::NodeId b) {
                       return csr_.degree(a) > csr_.degree(b);
                     });
    start_service(2, csr_, {svc::Algo::bfs, svc::Algo::sssp});
  }

  std::vector<GraphInfo> graphs() const override {
    return {info("rmat15", csr_)};
  }

 private:
  std::vector<Submission> plan_wave() override {
    std::vector<Submission> subs(kWave);
    for (std::size_t i = 0; i < kWave; ++i) {
      // Two BFS to one SSSP.
      const svc::Algo algo = i % 3 == 2 ? svc::Algo::sssp : svc::Algo::bfs;
      const graph::NodeId source = by_degree_[zipf_->rank(draws_.next())];
      subs[i].req = request(algo, source);
      auto key = std::make_pair(static_cast<int>(algo), source);
      auto it = oracle_.find(key);
      if (it == oracle_.end()) {
        it = oracle_.emplace(key, oracle(csr_, algo, source)).first;
      }
      subs[i].expect = &it->second;
    }
    return subs;
  }

  agg::Prng prng_;
  Draws draws_;  // Zipf quantiles of the sources
  graph::Csr csr_;
  std::optional<Zipf> zipf_;
  std::vector<graph::NodeId> by_degree_;
  std::map<std::pair<int, graph::NodeId>, Answer> oracle_;
};

// serve-mutate: 1-device service over 16 disjoint communities, with 8-op
// edge deltas beside Zipf BFS/SSSP and CC reads.
class ServeMutate final : public ServiceWorkload {
 public:
  ServeMutate(std::uint64_t seed, std::size_t waves)
      : prng_(subseed(seed, 21)),
        draws_(prng_, waves * (kWave - kMutationsPerWave)) {}

  void setup() override {
    agg::Prng gen(subseed(kGraphSeed, 22));
    std::vector<graph::Edge> edges;
    for (std::uint32_t c = 0; c < kBlocks; ++c) {
      const graph::NodeId base = c * kBlockSize;
      // A ring plus random chords: connected, sparse, low diameter.
      for (graph::NodeId v = 0; v < kBlockSize; ++v) {
        edges.push_back({base + v, base + (v + 1) % kBlockSize});
        edges.push_back({base + (v + 1) % kBlockSize, base + v});
      }
      for (std::uint32_t i = 0; i < 3 * kBlockSize; ++i) {
        const auto u = static_cast<graph::NodeId>(gen.bounded(kBlockSize));
        const auto v = static_cast<graph::NodeId>(gen.bounded(kBlockSize));
        if (u != v) edges.push_back({base + u, base + v});
      }
    }
    mirror_ = graph::csr_from_edges(kBlocks * kBlockSize, edges);
    graph::assign_uniform_weights(mirror_, 1, 64, subseed(kGraphSeed, 23));
    zipf_.emplace(mirror_.num_nodes);
    start_service(1, mirror_, {svc::Algo::bfs, svc::Algo::sssp, svc::Algo::cc});
  }

  std::vector<GraphInfo> graphs() const override {
    return {info("communities16", mirror_)};
  }

 private:
  static constexpr std::uint32_t kBlocks = 16;
  static constexpr std::uint32_t kBlockSize = 4096;
  static constexpr std::size_t kMutationsPerWave = 3;
  static constexpr std::size_t kOpsPerDelta = 8;

  std::vector<Submission> plan_wave() override {
    std::vector<Submission> subs(kWave);
    std::set<std::size_t> mutation_slots;
    while (mutation_slots.size() < kMutationsPerWave) {
      mutation_slots.insert(prng_.bounded(kWave));
    }
    // Answers for the previous wave's graph versions are no longer needed.
    oracle_.clear();
    for (std::size_t i = 0; i < kWave; ++i) {
      if (mutation_slots.count(i)) {
        subs[i].delta = make_delta();
        mirror_ = graph::apply_delta(mirror_, *subs[i].delta);
        ++version_;
        continue;
      }
      const svc::Algo algo = next_read_ % 10 == 9 ? svc::Algo::cc
                             : next_read_ % 2 == 0 ? svc::Algo::bfs
                                                   : svc::Algo::sssp;
      ++next_read_;
      // An odd multiplier permutes the 2^16 ids, spreading Zipf ranks over
      // the communities.
      const std::uint32_t rank = zipf_->rank(draws_.next());
      const auto source =
          static_cast<graph::NodeId>((rank * 40503u) % mirror_.num_nodes);
      subs[i].req = request(algo, source);
      auto key = std::make_tuple(version_, static_cast<int>(algo),
                                 subs[i].req.source);
      auto it = oracle_.find(key);
      if (it == oracle_.end()) {
        it = oracle_.emplace(key, oracle(mirror_, algo, source)).first;
      }
      subs[i].expect = &it->second;
    }
    return subs;
  }

  // Half deletes of distinct existing arcs, half inserts, all inside one
  // random community.
  graph::EdgeDelta make_delta() {
    graph::EdgeDelta d;
    const graph::NodeId base =
        static_cast<graph::NodeId>(prng_.bounded(kBlocks)) * kBlockSize;
    std::set<std::pair<graph::NodeId, graph::NodeId>> chosen;
    while (d.deletes.size() < kOpsPerDelta / 2) {
      const graph::NodeId u = base + static_cast<graph::NodeId>(
                                         prng_.bounded(kBlockSize));
      const std::uint32_t deg = mirror_.degree(u);
      if (deg == 0) continue;
      const graph::NodeId v =
          mirror_.col_indices[mirror_.row_offsets[u] + prng_.bounded(deg)];
      if (chosen.insert({u, v}).second) d.deletes.push_back({u, v});
    }
    while (d.inserts.size() < kOpsPerDelta / 2) {
      const auto a = static_cast<graph::NodeId>(prng_.bounded(kBlockSize));
      const auto b = static_cast<graph::NodeId>(prng_.bounded(kBlockSize));
      if (a == b) continue;
      d.inserts.push_back({base + a, base + b});
      d.insert_weights.push_back(
          static_cast<std::uint32_t>(1 + prng_.bounded(64)));
    }
    return d;
  }

  agg::Prng prng_;
  Draws draws_;  // Zipf quantiles of the read sources
  graph::Csr mirror_;
  std::uint64_t version_ = 0;
  std::uint64_t next_read_ = 0;
  std::optional<Zipf> zipf_;
  std::map<std::tuple<std::uint64_t, int, graph::NodeId>, Answer> oracle_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, std::size_t waves) {
  if (name == "traverse") return std::make_unique<Traverse>(seed, waves);
  if (name == "serve-zipf") return std::make_unique<ServeZipf>(seed, waves);
  if (name == "serve-mutate") return std::make_unique<ServeMutate>(seed, waves);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
