// Net-layer observability: NetRunStats exported through pq::obs as
// deterministic pq_net_* counters, the per-pass wall times timing-tagged
// (out of the IncludeTimings::kNo view), and the merged network registry's
// deterministic view independent of the switch-level pool size.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "net/network_engine.h"
#include "net/topology.h"
#include "traffic/net_scenarios.h"

namespace pq {
namespace {

std::unique_ptr<net::NetworkEngine> run_incast(unsigned threads) {
  net::LeafSpineParams lsp;
  lsp.leaves = 2;
  lsp.spines = 1;
  lsp.hosts_per_leaf = 4;
  net::NetworkConfig cfg;
  cfg.topology = net::make_leaf_spine(lsp);
  traffic::CrossRackIncastConfig ic;
  ic.receiver_host = 0;
  traffic::NetScenario sc = traffic::cross_rack_incast(cfg.topology, ic);
  auto engine = std::make_unique<net::NetworkEngine>(cfg);
  engine->run(std::move(sc.injections), threads, /*batch=*/16);
  return engine;
}

#if PQ_METRICS_ENABLED

TEST(NetMetrics, CountersMirrorRunStats) {
  const auto engine = run_incast(2);
  const net::NetRunStats& st = engine->stats();
  obs::MetricsRegistry reg;
  net::export_network_metrics(reg, *engine);
  EXPECT_EQ(reg.counter_value("pq_net_packets_injected_total"), st.injected);
  EXPECT_EQ(reg.counter_value("pq_net_packets_delivered_total"),
            st.delivered);
  EXPECT_EQ(reg.counter_value("pq_net_packets_dropped_total"), st.dropped);
  EXPECT_EQ(reg.counter_value("pq_net_ttl_exceeded_total"), st.ttl_exceeded);
  EXPECT_EQ(reg.counter_value("pq_net_unroutable_total"), st.unroutable);
  EXPECT_EQ(reg.counter_value("pq_net_transport_epochs_total"),
            st.transport_epochs);
  EXPECT_EQ(reg.counter_value("pq_net_idle_fast_forwards_total"),
            st.idle_fast_forwards);
  EXPECT_EQ(reg.counter_value("pq_net_hops_total"), st.total_hops);
  EXPECT_GT(st.transport_epochs, 0u);
  EXPECT_GT(st.idle_fast_forwards, 0u);
  EXPECT_LE(st.idle_fast_forwards, st.transport_epochs);
  EXPECT_GT(reg.counter_value("pq_net_transport_ns"), 0u);
  EXPECT_GT(reg.counter_value("pq_net_telemetry_ns"), 0u);
}

TEST(NetMetrics, PassTimingsStayOutOfTheDeterministicView) {
  const auto engine = run_incast(2);
  const obs::MetricsRegistry reg = net::collect_network_metrics(*engine);
  const std::string timed = reg.to_json(obs::IncludeTimings::kYes);
  const std::string view = reg.to_json(obs::IncludeTimings::kNo);
  EXPECT_NE(timed.find("pq_net_transport_ns"), std::string::npos);
  EXPECT_NE(timed.find("pq_net_telemetry_ns"), std::string::npos);
  EXPECT_EQ(view.find("pq_net_transport_ns"), std::string::npos);
  EXPECT_EQ(view.find("pq_net_telemetry_ns"), std::string::npos);
  EXPECT_NE(view.find("pq_net_hops_total"), std::string::npos);
  // The merged node metrics ride along: every hop was one egress dequeue
  // somewhere in the fabric.
  EXPECT_EQ(reg.counter_value("pq_sim_packets_dequeued_total"),
            engine->stats().total_hops);
}

TEST(NetMetrics, DeterministicViewIndependentOfPoolSize) {
  const std::string base = net::collect_network_metrics(*run_incast(1))
                               .to_json(obs::IncludeTimings::kNo);
  for (const unsigned threads : {2u, 4u}) {
    EXPECT_EQ(net::collect_network_metrics(*run_incast(threads))
                  .to_json(obs::IncludeTimings::kNo),
              base)
        << "threads=" << threads;
  }
}

#else  // !PQ_METRICS_ENABLED

TEST(NetMetrics, CompiledOutExportsNothing) {
  const auto engine = run_incast(2);
  EXPECT_EQ(engine->transport_ns(), 0u);
  EXPECT_EQ(engine->telemetry_ns(), 0u);
  EXPECT_EQ(net::collect_network_metrics(*engine).size(), 0u);
}

#endif  // PQ_METRICS_ENABLED

}  // namespace
}  // namespace pq
