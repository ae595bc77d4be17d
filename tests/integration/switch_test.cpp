// The wired switch, control::ShardedSystem (engine + per-port pipelines +
// control plane): configuration errors must surface from the switch as a
// whole, before any analysis state is built from a bad run.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "control/sharded_analysis.h"

namespace pq {
namespace {

control::ShardedSystem::Config two_port_config() {
  control::ShardedSystem::Config cfg;
  cfg.ports.resize(2);
  for (std::uint32_t p = 0; p < 2; ++p) cfg.ports[p].port_id = p;
  return cfg;
}

Packet pkt(std::uint32_t id, Timestamp t, std::uint32_t egress_hint) {
  Packet p;
  p.flow = make_flow(id);
  p.size_bytes = 500;
  p.arrival_ns = t;
  p.egress_hint = egress_hint;
  return p;
}

TEST(Switch, RejectsZeroPorts) {
  EXPECT_THROW(control::ShardedSystem{control::ShardedSystem::Config{}},
               std::invalid_argument);
}

// The system forwards by egress hint; a hint past the last port is a
// forwarding error, on the single-worker and the parallel drain alike.
TEST(Switch, InvalidForwardingThrows) {
  control::ShardedSystem single(two_port_config());
  EXPECT_THROW(single.run({pkt(1, 0, 99)}, 1), std::out_of_range);

  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < 64; ++i) pkts.push_back(pkt(i, i * 10, i % 2));
  pkts.push_back(pkt(64, 640, 99));
  control::ShardedSystem parallel(two_port_config());
  EXPECT_THROW(parallel.run(std::move(pkts), 2), std::out_of_range);
}

}  // namespace
}  // namespace pq
