// Golden digests of the transport pass (NetworkEngine pass 1): the run
// stats, every switch's induced arrival trace and every packet's IntHeader
// (hops included) for three fabric runs, folded into one 64-bit digest
// each (transport_digest.h). The constants were recorded from the engine
// before its transport loop was rewritten around an active-port worklist;
// any change to the schedule — which packet arrives where, when, in what
// order, with which id and routed port — moves the digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/network_engine.h"
#include "net/topology.h"
#include "traffic/net_scenarios.h"
#include "transport_digest.h"

namespace pq {
namespace {

net::NetworkConfig golden_config(net::Topology topo) {
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

struct GoldenRun {
  std::uint64_t digest = 0;
  net::NetRunStats stats;
};

GoldenRun run_golden(const net::NetworkConfig& cfg,
                     std::vector<net::Injection> injections) {
  net::NetworkEngine engine(cfg);
  engine.run(std::move(injections), /*threads=*/1, /*batch=*/1);
  return {net_test::transport_digest(engine), engine.stats()};
}

TEST(TransportGolden, CrossRackIncastOnFatTreeK4) {
  net::FatTreeParams ft;
  ft.k = 4;
  const net::Topology topo = net::make_fat_tree(ft);
  traffic::CrossRackIncastConfig ic;
  ic.receiver_host = 0;
  ic.duration_ns = 20'000'000;
  ic.seed = 7;
  traffic::NetScenario sc = traffic::cross_rack_incast(topo, ic);

  const GoldenRun run =
      run_golden(golden_config(topo), std::move(sc.injections));
  const net::NetRunStats& st = run.stats;
  // The scenario must exercise the interesting paths: multi-hop transport,
  // tail drops at the oversubscribed downlink, and many GVT epochs.
  EXPECT_GT(st.total_hops, 3 * st.delivered / 2);
  EXPECT_GT(st.transport_epochs, 1000u);
  EXPECT_GT(st.dropped, 0u);
  EXPECT_EQ(run.digest, 0xba03bef4e17c28efull)
      << std::hex << "got 0x" << run.digest;
}

TEST(TransportGolden, EcmpImbalanceOnLeafSpine) {
  net::LeafSpineParams lsp;
  lsp.leaves = 2;
  lsp.spines = 2;
  lsp.hosts_per_leaf = 8;
  const net::Topology topo = net::make_leaf_spine(lsp);
  traffic::EcmpImbalanceConfig ec;
  ec.src_host = 0;
  ec.dst_host = static_cast<std::uint32_t>(topo.hosts.size() - 1);
  ec.seed = 7;
  traffic::NetScenario sc = traffic::ecmp_imbalance(topo, ec);

  const GoldenRun run =
      run_golden(golden_config(topo), std::move(sc.injections));
  const net::NetRunStats& st = run.stats;
  EXPECT_EQ(st.delivered + st.dropped, st.injected);
  EXPECT_EQ(run.digest, 0xc6d6aa2967fe464aull)
      << std::hex << "got 0x" << run.digest;
}

// The edge paths of the loop: unroutable injections (compacted out of the
// injection stream, interleaved in time with routable ones), GVT epochs
// shorter than the lookahead, and INT stacks overflowing their budget.
TEST(TransportGolden, UnroutableShortEpochsAndIntOverflow) {
  net::LeafSpineParams lsp;
  lsp.leaves = 2;
  lsp.spines = 2;
  lsp.hosts_per_leaf = 8;
  const net::Topology topo = net::make_leaf_spine(lsp);
  traffic::EcmpImbalanceConfig ec;
  ec.src_host = 0;
  ec.dst_host = static_cast<std::uint32_t>(topo.hosts.size() - 1);
  ec.duration_ns = 1'000'000;
  ec.seed = 11;
  traffic::NetScenario sc = traffic::ecmp_imbalance(topo, ec);
  net::Injection stray;
  stray.host = 3;
  for (std::uint32_t i = 0; i < 200; ++i) {
    Packet p;
    p.flow.src_ip = net::default_host_ip(3);
    p.flow.dst_ip = 0xdeadbeefu;  // owned by no host
    p.flow.src_port = 1000 + i;
    p.flow.dst_port = 80;
    p.flow.proto = 17;
    p.size_bytes = 200;
    p.arrival_ns = 100'000 + 4'000 * i;
    stray.packets.push_back(p);
  }
  sc.injections.push_back(std::move(stray));

  net::NetworkConfig cfg = golden_config(topo);
  cfg.gvt_epoch_ns = 250;
  cfg.int_max_hops = 2;
  const GoldenRun run = run_golden(cfg, std::move(sc.injections));
  const net::NetRunStats& st = run.stats;
  EXPECT_EQ(st.unroutable, 200u);
  EXPECT_EQ(st.delivered + st.dropped + st.unroutable, st.injected);
  EXPECT_EQ(run.digest, 0x7cfd3eca3281a774ull)
      << std::hex << "got 0x" << run.digest;
}

}  // namespace
}  // namespace pq
