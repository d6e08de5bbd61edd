// Fault injection and resilience: typed error surfacing at the api layer,
// retry/backoff/degradation in the serving layer, fault observability
// (counters + trace events), and bit-identical fault replay across host
// worker counts (DESIGN.md "Fault model & resilience").
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/algorithms.h"
#include "api/session.h"
#include "cpu/bfs_serial.h"
#include "cpu/cc_serial.h"
#include "cpu/sssp_serial.h"
#include "graph/gen/generators.h"
#include "service/graph_service.h"
#include "simt/exec_pool.h"
#include "simt/fault.h"
#include "trace/counters.h"
#include "trace/jsonl_trace.h"
#include "trace/trace_sink.h"

namespace {

adaptive::Graph make_graph(std::uint32_t n = 1500, std::uint32_t m = 4500,
                           std::uint64_t seed = 7) {
  return adaptive::Graph::from_csr(graph::gen::erdos_renyi(n, m, seed));
}

svc::QueryRequest bfs_req(svc::GraphId gid, graph::NodeId source) {
  svc::QueryRequest req;
  req.algo = svc::Algo::bfs;
  req.graph = gid;
  req.source = source;
  return req;
}

simt::FaultPlan plan(const std::string& spec) {
  return simt::FaultPlan::parse(spec);
}

// ---- plan parsing & injector determinism -------------------------------------

TEST(FaultPlan, ParseRoundTripsTheGrammar) {
  const auto p = plan(
      "seed=99, kernel.p=0.5, transfer.p=0.25, alloc.at=3, kernel.at=0, "
      "kernel.at=7, dead.after=100");
  EXPECT_EQ(p.seed, 99u);
  EXPECT_DOUBLE_EQ(p.p_kernel, 0.5);
  EXPECT_DOUBLE_EQ(p.p_transfer, 0.25);
  ASSERT_EQ(p.alloc_at.size(), 1u);
  EXPECT_EQ(p.alloc_at[0], 3u);
  ASSERT_EQ(p.kernel_at.size(), 2u);
  EXPECT_EQ(p.dead_after, 100u);
  EXPECT_FALSE(p.empty());
  EXPECT_FALSE(p.summary().empty());
  EXPECT_TRUE(simt::FaultPlan::parse("").empty());
}

TEST(FaultPlan, MalformedSpecAborts) {
  EXPECT_DEATH(simt::FaultPlan::parse("kernel.p=not_a_number"), "");
  EXPECT_DEATH(simt::FaultPlan::parse("bogus.key=1"), "");
}

TEST(FaultInjector, DecisionsAreAPureFunctionOfSeedAndIndex) {
  auto roll = [](std::uint64_t seed) {
    simt::FaultInjector inj;
    simt::FaultPlan p;
    p.seed = seed;
    p.p_kernel = 0.3;
    inj.install(p);
    std::vector<bool> fates;
    for (int i = 0; i < 64; ++i) fates.push_back(inj.next(simt::FaultKind::kernel).fail);
    return fates;
  };
  EXPECT_EQ(roll(1), roll(1));         // replayable
  EXPECT_NE(roll(1), roll(2));         // seed-sensitive
}

TEST(FaultInjector, DeadAfterKillsEveryLaterOp) {
  simt::FaultInjector inj;
  simt::FaultPlan p;
  p.dead_after = 2;
  inj.install(p);
  EXPECT_FALSE(inj.next(simt::FaultKind::kernel).fail);
  EXPECT_FALSE(inj.next(simt::FaultKind::transfer).fail);
  const auto d = inj.next(simt::FaultKind::alloc);
  EXPECT_TRUE(d.fail);
  EXPECT_TRUE(d.permanent);
  EXPECT_TRUE(inj.device_dead());
  EXPECT_TRUE(inj.next(simt::FaultKind::kernel).permanent);
}

// ---- api layer: faults become typed error Results ----------------------------

TEST(ApiResilience, KernelFaultReturnsTypedErrorAndReclaimsMemory) {
  simt::Device dev;
  const auto g = make_graph();
  dev.set_fault_plan(plan("kernel.at=0"));
  const std::uint64_t before = dev.mem_mark();
  const auto out = adaptive::bfs(dev, g, 0);
  EXPECT_EQ(out.status, adaptive::Status::error);
  EXPECT_EQ(out.code, adaptive::ErrorCode::kernel_fault);
  EXPECT_FALSE(out.error.empty());
  // The failed attempt's device allocations were reclaimed.
  EXPECT_EQ(dev.mem_mark(), before);
  // The device survives a transient fault: the op index has advanced past
  // the planned failure, so the same call now succeeds.
  EXPECT_TRUE(dev.healthy());
  const auto retry = adaptive::bfs(dev, g, 0);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.level, cpu::bfs(g.csr(), 0).level);
}

TEST(ApiResilience, PermanentFaultMapsToDeviceLost) {
  simt::Device dev;
  const auto g = make_graph();
  dev.set_fault_plan(plan("dead.after=1"));
  const auto out = adaptive::bfs(dev, g, 0);
  EXPECT_EQ(out.status, adaptive::Status::error);
  EXPECT_EQ(out.code, adaptive::ErrorCode::device_lost);
  EXPECT_FALSE(dev.healthy());
}

TEST(ApiResilience, SessionDegradesToCpuWhenDeviceDead) {
  adaptive::Session ses;
  auto g = make_graph();
  g.set_uniform_weights(1, 20);
  ses.register_graph(g);
  ses.device().set_fault_plan(plan("dead.after=1"));
  // Kill the device with one doomed query.
  (void)ses.bfs(g, 0);
  ASSERT_FALSE(ses.device().healthy());
  // Every algorithm still answers, exactly, via the CPU oracle.
  const auto b = ses.bfs(g, 3);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b.degraded);
  EXPECT_EQ(b.level, cpu::bfs(g.csr(), 3).level);
  const auto s = ses.sssp(g, 5);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.degraded);
  EXPECT_EQ(s.dist, cpu::dijkstra(g.csr(), 5).dist);
  const auto c = ses.cc(g);
  EXPECT_TRUE(c.ok());
  EXPECT_TRUE(c.degraded);
  ses.unregister_graph(g);
}

// A CC that must not symmetrize a digraph has one meaning on every path:
// min-reaching-id labels, whether the device answers or the CPU does
// because the device is dead, in Session and in GraphService alike.
TEST(ApiResilience, DegradedDirectedCcKeepsTheDeviceAnswer) {
  const auto g = make_graph(1500, 2000, 3);
  ASSERT_FALSE(g.is_symmetric());
  const auto never =
      adaptive::Policy::adapt().with_symmetrize(adaptive::Symmetrize::never);
  simt::Device healthy;
  const auto want = adaptive::cc(healthy, g, never);
  ASSERT_TRUE(want.ok());
  ASSERT_FALSE(want.degraded);
  EXPECT_EQ(want.component, cpu::min_reaching_ids(g.csr()).component);

  adaptive::Session ses;
  ses.register_graph(g);
  ses.device().set_fault_plan(plan("dead.after=1"));
  (void)ses.bfs(g, 0);
  ASSERT_FALSE(ses.device().healthy());
  const auto c = ses.cc(g, never);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c.degraded);
  EXPECT_EQ(c.component, want.component);
  EXPECT_EQ(c.num_components, want.num_components);
  ses.unregister_graph(g);

  svc::GraphService service;
  const auto gid = service.add_graph(make_graph(1500, 2000, 3));
  service.set_fault_plan(plan("dead.after=1"));
  svc::QueryRequest req;
  req.algo = svc::Algo::cc;
  req.graph = gid;
  req.policy = never;
  service.submit(bfs_req(gid, 0));
  service.submit(req);
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[1].ok());
  EXPECT_TRUE(outcomes[1].degraded);
  EXPECT_EQ(outcomes[1].cc().component, want.component);
}

// ---- serving layer: retry, degradation, typed rejection ----------------------

TEST(ServiceResilience, TransientFaultIsRetriedToSuccess) {
  svc::ServiceOptions opts;
  opts.batch_bfs = false;
  svc::GraphService service(opts);
  const auto gid = service.add_graph(make_graph());
  const graph::Csr csr = service.graph(gid).csr();
  service.set_fault_plan(plan("kernel.at=0"));
  service.submit(bfs_req(gid, 2));
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok());
  EXPECT_EQ(outcomes[0].retries, 1u);
  EXPECT_FALSE(outcomes[0].degraded);
  EXPECT_EQ(outcomes[0].bfs().level, cpu::bfs(csr, 2).level);
  // The retry consumed modeled backoff time, not wall-clock.
  EXPECT_GT(outcomes[0].finish_us, 0.0);
}

TEST(ServiceResilience, ExhaustedRetriesDegradeToExactCpuAnswer) {
  svc::ServiceOptions opts;
  opts.batch_bfs = false;
  svc::GraphService service(opts);
  const auto gid = service.add_graph(make_graph());
  const graph::Csr csr = service.graph(gid).csr();
  service.set_fault_plan(plan("kernel.p=1"));  // every attempt faults
  service.submit(bfs_req(gid, 4));
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok());
  EXPECT_TRUE(outcomes[0].degraded);
  EXPECT_EQ(outcomes[0].retries, service.options().resilience.max_retries);
  EXPECT_EQ(outcomes[0].bfs().level, cpu::bfs(csr, 4).level);
  EXPECT_TRUE(service.device_healthy());  // transient faults don't kill it
}

TEST(ServiceResilience, DegradationOffSurfacesTypedFailure) {
  struct Case {
    const char* spec;
    adaptive::ErrorCode code;
  };
  const Case cases[] = {
      {"kernel.p=1", adaptive::ErrorCode::kernel_fault},
      {"transfer.p=1", adaptive::ErrorCode::transfer_failed},
      {"alloc.p=1", adaptive::ErrorCode::device_oom},
      {"dead.after=1", adaptive::ErrorCode::device_lost},
  };
  for (const Case& c : cases) {
    svc::ServiceOptions opts;
    opts.batch_bfs = false;
    opts.resilience.degrade_to_cpu = false;
    opts.resilience.max_retries = 0;
    svc::GraphService service(opts);
    const auto gid = service.add_graph(make_graph());
    service.set_fault_plan(plan(c.spec));
    service.submit(bfs_req(gid, 1));
    const auto outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u) << c.spec;
    EXPECT_EQ(outcomes[0].status, adaptive::Status::error) << c.spec;
    EXPECT_EQ(outcomes[0].code, c.code)
        << c.spec << " -> " << adaptive::error_code_name(outcomes[0].code);
    EXPECT_FALSE(outcomes[0].error.empty());
  }
}

TEST(ServiceResilience, DeadDeviceAnswersEveryQueryDegraded) {
  svc::ServiceOptions opts;
  opts.batch_bfs = false;
  svc::GraphService service(opts);
  const auto gid = service.add_graph(make_graph());
  const graph::Csr csr = service.graph(gid).csr();
  service.set_fault_plan(plan("dead.after=1"));
  for (graph::NodeId s = 0; s < 6; ++s) service.submit(bfs_req(gid, s));
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 6u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << "query " << i;
    EXPECT_TRUE(outcomes[i].degraded) << "query " << i;
    EXPECT_EQ(outcomes[i].bfs().level,
              cpu::bfs(csr, static_cast<graph::NodeId>(i)).level);
  }
  EXPECT_FALSE(service.device_healthy());
  // Degraded queries serialize on the modeled single host core: finish
  // times are strictly increasing.
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_GT(outcomes[i].finish_us, outcomes[i - 1].finish_us);
  }
}

TEST(ServiceResilience, BatchFaultFallsBackToSingleQueries) {
  svc::ServiceOptions opts;
  opts.concurrency = 1;  // one stream => the whole prefix batches
  svc::GraphService service(opts);
  const auto gid = service.add_graph(make_graph());
  const graph::Csr csr = service.graph(gid).csr();
  service.set_fault_plan(plan("kernel.at=0"));  // first fused launch faults
  for (graph::NodeId s = 0; s < 8; ++s) service.submit(bfs_req(gid, s));
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 8u);
  for (const auto& out : outcomes) {
    ASSERT_TRUE(out.ok());
    // Query ids are issued 1..8 in submit order for sources 0..7.
    const auto src = static_cast<graph::NodeId>(out.id - 1);
    EXPECT_EQ(out.bfs().level, cpu::bfs(csr, src).level);
  }
}

TEST(ServiceResilience, TypedRejectionCodes) {
  svc::ServiceOptions opts;
  opts.queue_capacity = 1;
  opts.batch_bfs = false;
  svc::GraphService service(opts);
  auto g = make_graph();
  // Unweighted on purpose: sssp must be refused as invalid_argument.
  const auto gid = service.add_graph(std::move(g));

  service.submit(bfs_req(gid, 0));
  service.submit(bfs_req(gid, 1));  // over capacity
  auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  std::size_t rejected = 0;
  for (const auto& out : outcomes) {
    if (out.status == adaptive::Status::rejected) {
      ++rejected;
      EXPECT_EQ(out.code, adaptive::ErrorCode::queue_full);
    }
  }
  EXPECT_EQ(rejected, 1u);

  svc::GraphService roomy;  // default capacity: all three fit the queue
  const auto gid_r = roomy.add_graph(make_graph());
  svc::QueryRequest cpu_req = bfs_req(gid_r, 0);
  cpu_req.policy = adaptive::Policy::cpu();
  roomy.submit(cpu_req);
  svc::QueryRequest sssp_req;
  sssp_req.algo = svc::Algo::sssp;
  sssp_req.graph = gid_r;
  roomy.submit(sssp_req);
  svc::QueryRequest oob = bfs_req(gid_r, 1u << 30);
  roomy.submit(oob);
  outcomes = roomy.drain();
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& out : outcomes) {
    EXPECT_EQ(out.status, adaptive::Status::error);
    EXPECT_EQ(out.code, adaptive::ErrorCode::invalid_argument);
  }

  auto late = bfs_req(gid, 2);
  late.deadline_us = 1e-3;
  svc::ServiceOptions strict = opts;
  strict.resilience.degrade_to_cpu = false;
  svc::GraphService strict_service(strict);
  const auto gid2 = strict_service.add_graph(make_graph());
  late.graph = gid2;
  strict_service.submit(late);
  outcomes = strict_service.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, adaptive::Status::timed_out);
  EXPECT_EQ(outcomes[0].code, adaptive::ErrorCode::deadline_exceeded);
}

// ---- observability: counters and trace events --------------------------------

TEST(ServiceResilience, FaultCountersTrackRetryAndDegradation) {
  auto& reg = trace::CounterRegistry::instance();
  reg.set_enabled(true);
  reg.reset();
  {
    svc::ServiceOptions opts;
    opts.batch_bfs = false;
    svc::GraphService service(opts);
    const auto gid = service.add_graph(make_graph());
    service.set_fault_plan(plan("kernel.p=1"));
    service.submit(bfs_req(gid, 0));
    service.drain();
    const auto& res = service.options().resilience;
    EXPECT_EQ(reg.counter_value("svc.fault"), res.max_retries + 1);
    EXPECT_EQ(reg.counter_value("svc.fault.kernel"), res.max_retries + 1);
    EXPECT_EQ(reg.counter_value("svc.retry"), res.max_retries);
    EXPECT_GT(reg.counter_value("svc.retry.backoff_us"), 0);
    EXPECT_EQ(reg.counter_value("svc.degraded"), 1);
    EXPECT_EQ(reg.counter_value("svc.degraded.fault"), 1);
    EXPECT_EQ(reg.counter_value("svc.completed"), 1);
    EXPECT_EQ(reg.counter_value("simt.fault.injected"),
              reg.counter_value("svc.fault"));
  }
  reg.set_enabled(false);
  reg.reset();
}

TEST(ServiceResilience, FaultEventsAppearInTrace) {
  auto& tracer = trace::Tracer::instance();
  tracer.clear();
  auto* sink = static_cast<trace::JsonlDecisionSink*>(
      tracer.attach(std::make_unique<trace::JsonlDecisionSink>()));
  {
    svc::ServiceOptions opts;
    opts.batch_bfs = false;
    svc::GraphService service(opts);
    const auto gid = service.add_graph(make_graph());
    service.set_fault_plan(plan("kernel.at=0"));
    service.submit(bfs_req(gid, 0));
    service.drain();
  }
  EXPECT_EQ(sink->faults(), 1u);
  EXPECT_NE(sink->data().find("\"kind\":\"fault\""), std::string::npos);
  EXPECT_NE(sink->data().find("\"fault\":\"kernel\""), std::string::npos);
  tracer.clear();
}

// ---- determinism: the fault schedule replays bit-identically -----------------

TEST(ServiceResilience, FaultReplayIsIdenticalAcrossSimThreads) {
  auto run = [] {
    auto& tracer = trace::Tracer::instance();
    tracer.clear();
    auto* sink = static_cast<trace::JsonlDecisionSink*>(
        tracer.attach(std::make_unique<trace::JsonlDecisionSink>()));
    svc::ServiceOptions opts;
    opts.concurrency = 3;
    svc::GraphService service(opts);
    auto g = make_graph(1800, 5400, 11);
    g.set_uniform_weights(1, 25);
    const auto gid = service.add_graph(std::move(g));
    service.set_fault_plan(plan("seed=42, kernel.p=0.2, transfer.p=0.05"));
    for (graph::NodeId i = 0; i < 12; ++i) {
      svc::QueryRequest req = bfs_req(gid, i * 5);
      if (i % 3 == 2) req.algo = svc::Algo::sssp;
      service.submit(req);
    }
    auto outcomes = service.drain();
    std::string trace_bytes = sink->data();
    const double makespan = service.makespan_us();
    tracer.clear();
    return std::make_tuple(std::move(outcomes), std::move(trace_bytes),
                           makespan);
  };

  simt::ExecPool::set_threads(1);
  const auto [a, trace_a, makespan_a] = run();
  simt::ExecPool::set_threads(4);
  const auto [b, trace_b, makespan_b] = run();
  simt::ExecPool::set_threads(0);  // restore default

  // The full fault/retry/degradation schedule — trace artifact included —
  // is byte-identical for any host worker count.
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_DOUBLE_EQ(makespan_a, makespan_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << i;
    EXPECT_EQ(a[i].code, b[i].code) << i;
    EXPECT_EQ(a[i].retries, b[i].retries) << i;
    EXPECT_EQ(a[i].degraded, b[i].degraded) << i;
    EXPECT_EQ(a[i].stream, b[i].stream) << i;
    EXPECT_DOUBLE_EQ(a[i].start_us, b[i].start_us) << i;
    EXPECT_DOUBLE_EQ(a[i].finish_us, b[i].finish_us) << i;
    ASSERT_EQ(a[i].payload.index(), b[i].payload.index()) << i;
    if (std::holds_alternative<adaptive::BfsResult>(a[i].payload)) {
      EXPECT_EQ(a[i].bfs().level, b[i].bfs().level) << i;
    } else if (std::holds_alternative<adaptive::SsspResult>(a[i].payload)) {
      EXPECT_EQ(a[i].sssp().dist, b[i].sssp().dist) << i;
    }
  }
}

}  // namespace
