// The telemetry pass (NetworkEngine pass 2) runs the per-switch systems on
// a switch-level worker pool. Thread count and pinning are pure scheduling
// knobs: stats, induced traces, INT headers and every node's deterministic
// metrics view must not move with them, and a node whose hook throws must
// surface on the caller only after every other node has fully run.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "control/metrics_export.h"
#include "net/network_engine.h"
#include "net/topology.h"
#include "traffic/net_scenarios.h"
#include "transport_digest.h"

namespace pq {
namespace {

net::NetworkConfig pool_config(net::Topology topo) {
  net::NetworkConfig cfg;
  cfg.topology = std::move(topo);
  auto& w = cfg.node.pipeline.windows;
  w.m0 = 10;
  w.alpha = 1;
  w.k = 9;
  w.num_windows = 4;
  cfg.node.pipeline.monitor.max_depth_cells = 25000;
  cfg.node.pipeline.monitor.granularity_cells = 8;
  return cfg;
}

struct Scenario {
  net::Topology topo;
  traffic::NetScenario sc;
};

Scenario incast_scenario() {
  net::FatTreeParams ft;
  ft.k = 4;
  Scenario s{net::make_fat_tree(ft), {}};
  traffic::CrossRackIncastConfig ic;
  ic.receiver_host = 0;
  ic.duration_ns = 5'000'000;
  s.sc = traffic::cross_rack_incast(s.topo, ic);
  return s;
}

Scenario ecmp_scenario() {
  net::LeafSpineParams lsp;
  lsp.leaves = 2;
  lsp.spines = 2;
  lsp.hosts_per_leaf = 8;
  Scenario s{net::make_leaf_spine(lsp), {}};
  traffic::EcmpImbalanceConfig ec;
  ec.src_host = 0;
  ec.dst_host = static_cast<std::uint32_t>(s.topo.hosts.size() - 1);
  s.sc = traffic::ecmp_imbalance(s.topo, ec);
  return s;
}

std::string node_view(const control::ShardedSystem& sys) {
  return control::collect_system_metrics(sys).to_json(
      obs::IncludeTimings::kNo);
}

/// Everything a run decides that must not depend on scheduling.
struct RunView {
  std::uint64_t transport = 0;
  std::uint64_t idle_fast_forwards = 0;
  std::vector<std::string> nodes;
};

RunView run_view(const Scenario& s, unsigned threads, bool pin) {
  net::NetworkEngine engine(pool_config(s.topo));
  sim::ShardedEngine::RunOptions opts;
  opts.threads = threads;
  opts.batch = 16;
  opts.pin_threads = pin;
  engine.run(s.sc.injections, opts);
  RunView v;
  v.transport = net_test::transport_digest(engine);
  v.idle_fast_forwards = engine.stats().idle_fast_forwards;
  for (std::uint32_t sw = 0; sw < engine.num_nodes(); ++sw) {
    v.nodes.push_back(node_view(engine.node(sw)));
  }
  return v;
}

void expect_identical_across_pool_sizes(const Scenario& s) {
  const RunView base = run_view(s, 1, false);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const bool pin : {false, true}) {
      const RunView got = run_view(s, threads, pin);
      EXPECT_EQ(got.transport, base.transport)
          << "threads=" << threads << " pin=" << pin;
      EXPECT_EQ(got.idle_fast_forwards, base.idle_fast_forwards)
          << "threads=" << threads << " pin=" << pin;
      ASSERT_EQ(got.nodes.size(), base.nodes.size());
      for (std::size_t sw = 0; sw < base.nodes.size(); ++sw) {
        EXPECT_EQ(got.nodes[sw], base.nodes[sw])
            << "threads=" << threads << " pin=" << pin << " switch=" << sw;
      }
    }
  }
}

TEST(NetworkEngine, IncastIdenticalAcrossSwitchPoolSizes) {
  expect_identical_across_pool_sizes(incast_scenario());
}

TEST(NetworkEngine, EcmpIdenticalAcrossSwitchPoolSizes) {
  expect_identical_across_pool_sizes(ecmp_scenario());
}

// A hook that throws on one node's congested port: run() rethrows on the
// caller after the pool joins, and every other node still runs to
// completion — its deterministic view matches a clean run's.
TEST(NetworkEngine, NodeThrowIsRethrownAfterJoin) {
  const Scenario s = incast_scenario();
  const RunView clean = run_view(s, 1, false);

  struct Thrower : sim::EgressHook {
    std::uint64_t seen = 0;
    void on_egress(const sim::EgressContext&) override {
      if (++seen == 10) throw std::runtime_error("hook failed");
    }
  };
  const std::uint32_t bad = s.sc.expected_culprit_switch;
  for (const unsigned threads : {1u, 4u}) {
    Thrower thrower;
    net::NetworkEngine engine(pool_config(s.topo));
    engine.node(bad).engine().add_hook(s.sc.expected_culprit_port, &thrower);
    EXPECT_THROW(engine.run(s.sc.injections, threads, /*batch=*/16),
                 std::runtime_error)
        << "threads=" << threads;
    EXPECT_EQ(thrower.seen, 10u);
    for (std::uint32_t sw = 0; sw < engine.num_nodes(); ++sw) {
      if (sw == bad) continue;
      EXPECT_EQ(node_view(engine.node(sw)), clean.nodes[sw])
          << "threads=" << threads << " switch=" << sw;
    }
  }
}

}  // namespace
}  // namespace pq
