// The network determinism contract (docs/NETWORK.md): a switch driven by
// the NetworkEngine is byte-identical to the same switch run standalone on
// the same trace. For a single-switch topology the induced arrival trace
// IS the injected workload (same packets, same merge_traces id
// assignment), so the full sharded-harness comparison surface — registers,
// query answers, DQ/fault streams, health, metrics, archive bytes — must
// match harness::run_once exactly, at every thread count, clean and under
// an active FaultPlan.
#include <gtest/gtest.h>

#include <vector>

#include "net/network_engine.h"
#include "net/topology.h"
#include "../integration/sharded_harness.h"

namespace pq {
namespace {

/// One switch whose 8 ports each attach a host, with direct routes — the
/// network embedding of the harness's 8-port standalone configuration.
net::Topology one_switch_topology() {
  net::Topology t;
  t.name = "single";
  net::SwitchConfig sw;
  sw.id = 0;
  sw.name = "s0";
  sw.ports.resize(harness::kPorts);
  for (std::uint32_t p = 0; p < harness::kPorts; ++p) {
    sw.ports[p].port_id = p;
    sw.ports[p].collect_depth_series = false;
  }
  t.switches.push_back(std::move(sw));
  for (std::uint32_t h = 0; h < harness::kPorts; ++h) {
    t.hosts.push_back({h, 0, h, net::default_host_ip(h)});
    t.routes.push_back({0, h, {h}});
  }
  return t;
}

/// The harness workload with each flow's dst_ip rewritten to the host on
/// its target port, so the topology's routing reproduces the original
/// egress hints.
std::vector<Packet> routed_workload() {
  auto packets = harness::workload();
  for (Packet& p : packets) {
    p.flow.dst_ip = net::default_host_ip(p.egress_hint);
  }
  return packets;
}

struct Sweep {
  bool with_faults;
  unsigned threads;
};

class NetworkDifferential : public ::testing::TestWithParam<Sweep> {};

TEST_P(NetworkDifferential, SingleNodeMatchesStandaloneByteForByte) {
  const Sweep sweep = GetParam();
  const auto packets = routed_workload();

  // Standalone oracle over the exact same packets and configuration.
  harness::RunSpec spec;
  spec.with_faults = sweep.with_faults;
  spec.threads = sweep.threads;
  const harness::RunResult oracle = harness::run_once(packets, spec);
  ASSERT_GT(oracle.packets_seen, 0u);
  ASSERT_FALSE(oracle.registers.empty());

  // The same switch as a one-node network.
  const auto scfg = harness::system_config(sweep.with_faults);
  net::NetworkConfig ncfg;
  ncfg.topology = one_switch_topology();
  ncfg.node.pipeline = scfg.pipeline;
  ncfg.node.analysis = scfg.analysis;
  ncfg.node.faults = scfg.faults;
  net::NetworkEngine engine(ncfg);

  const harness::TempDir archive_dir;
  store::Archive archive(
      harness::harness_archive_options(archive_dir.path()));
  archive.attach(engine.node(0).pipeline(), engine.node(0).analysis());

  net::Injection inj;
  inj.host = 0;  // all hosts share the switch; routing keys off dst_ip
  inj.packets = packets;
  engine.run({inj}, sweep.threads, /*batch=*/1);
  archive.close();

  // The induced trace must be the injected workload verbatim — same order,
  // same ids, same routed egress hints.
  const auto& induced = engine.induced_trace(0);
  ASSERT_EQ(induced.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(induced[i].arrival_ns, packets[i].arrival_ns) << "i=" << i;
    EXPECT_EQ(induced[i].egress_hint, packets[i].egress_hint) << "i=" << i;
    EXPECT_EQ(induced[i].id, packets[i].id) << "i=" << i;
    EXPECT_EQ(flow_signature(induced[i].flow),
              flow_signature(packets[i].flow))
        << "i=" << i;
    if (this->HasFailure()) break;
  }

  // Every packet got a one-hop header at its routed port.
  EXPECT_EQ(engine.stats().injected, packets.size());
  EXPECT_EQ(engine.stats().delivered + engine.stats().dropped,
            packets.size());
  EXPECT_EQ(engine.stats().total_hops, engine.stats().delivered);

  const harness::RunResult got =
      harness::collect_result(engine.node(0), archive_dir.path());
  EXPECT_EQ(oracle.registers, got.registers);
  EXPECT_EQ(oracle.answers, got.answers);
  EXPECT_EQ(oracle.fault_schedule, got.fault_schedule);
  EXPECT_EQ(oracle.dq_stream, got.dq_stream);
  EXPECT_EQ(oracle.health, got.health);
  EXPECT_EQ(oracle.packets_seen, got.packets_seen);
  EXPECT_EQ(oracle.dq_fired, got.dq_fired);
  EXPECT_EQ(oracle.metrics_json, got.metrics_json);
  EXPECT_EQ(oracle.archive_bytes, got.archive_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    CleanAndFaultedAcrossThreads, NetworkDifferential,
    ::testing::Values(Sweep{false, 1}, Sweep{false, 2}, Sweep{false, 8},
                      Sweep{true, 1}, Sweep{true, 2}, Sweep{true, 8}),
    [](const ::testing::TestParamInfo<Sweep>& tpi) {
      return std::string(tpi.param.with_faults ? "Faults" : "Clean") +
             "T" + std::to_string(tpi.param.threads);
    });

}  // namespace
}  // namespace pq
