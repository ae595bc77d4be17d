// INT stack semantics (src/net/int_header.h + the NetworkEngine that fills
// it): the per-packet hop stack is bounded to K entries with an explicit
// overflow marker while hop_count keeps counting, and a packet crossing a
// 3-switch chain records exactly its path with monotone timestamps.
#include "net/int_header.h"

#include <gtest/gtest.h>

#include "net/network_engine.h"
#include "net/topology.h"

namespace pq::net {
namespace {

TEST(IntHeader, PushHopBoundsStackAndMarksOverflow) {
  IntHeader h;
  for (std::uint32_t i = 0; i < 5; ++i) {
    IntHop hop;
    hop.switch_id = i;
    h.push_hop(hop, /*max_hops=*/3);
  }
  EXPECT_EQ(h.hop_count, 5u);      // the counter never saturates
  ASSERT_EQ(h.hops.size(), 3u);    // the stack does
  EXPECT_TRUE(h.overflow);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(h.hops[i].switch_id, i);  // oldest hops are kept
  }
}

TEST(IntHeader, NoOverflowAtExactCapacity) {
  IntHeader h;
  for (std::uint32_t i = 0; i < 3; ++i) h.push_hop({}, 3);
  EXPECT_EQ(h.hop_count, 3u);
  EXPECT_EQ(h.hops.size(), 3u);
  EXPECT_FALSE(h.overflow);
}

TEST(IntHop, QueueDelayIsDequeueMinusEnqueue) {
  IntHop hop;
  hop.enq_timestamp = 1000;
  hop.deq_timestamp = 4500;
  EXPECT_EQ(hop.queue_delay(), Duration{3500});
}

/// h0 -- s0 -- s1 -- s2 -- h1: the smallest topology with a multi-switch
/// path. Port 0 of s0/s2 is the host downlink; fabric ports carry the
/// chain.
Topology chain3() {
  Topology t;
  t.name = "chain3";
  for (std::uint32_t s = 0; s < 3; ++s) {
    SwitchConfig sw;
    sw.id = s;
    sw.name = "c";
    sw.name += std::to_string(s);
    sw.ports.resize(2);
    for (std::uint32_t p = 0; p < 2; ++p) sw.ports[p].port_id = p;
    t.switches.push_back(sw);
  }
  t.hosts.push_back({0, 0, 0, default_host_ip(0)});
  t.hosts.push_back({1, 2, 0, default_host_ip(1)});
  t.links.push_back({0, 1, 1, 700});  // s0 -> s1
  t.links.push_back({1, 1, 2, 700});  // s1 -> s2
  t.routes.push_back({0, 0, {0}});
  t.routes.push_back({0, 1, {1}});
  t.routes.push_back({1, 1, {1}});
  t.routes.push_back({2, 1, {0}});
  return t;
}

std::vector<Injection> chain_traffic(std::uint32_t packets) {
  FlowId f;
  f.src_ip = default_host_ip(0);
  f.dst_ip = default_host_ip(1);
  f.src_port = 4242;
  f.dst_port = 80;
  f.proto = 6;
  Injection inj;
  inj.host = 0;
  for (std::uint32_t i = 0; i < packets; ++i) {
    Packet p;
    p.flow = f;
    p.size_bytes = 1000;
    p.arrival_ns = 10'000 + static_cast<Timestamp>(i) * 2'000;
    inj.packets.push_back(p);
  }
  return {inj};
}

TEST(IntHeaderEngine, ThreeHopChainRecordsFullPath) {
  NetworkConfig cfg;
  cfg.topology = chain3();
  NetworkEngine net(cfg);
  net.run(chain_traffic(8));

  EXPECT_EQ(net.stats().injected, 8u);
  EXPECT_EQ(net.stats().delivered, 8u);
  EXPECT_EQ(net.stats().dropped, 0u);
  EXPECT_EQ(net.stats().total_hops, 24u);

  for (const IntHeader& h : net.headers()) {
    EXPECT_EQ(h.fate, PacketFate::kDelivered);
    EXPECT_FALSE(h.overflow);
    ASSERT_EQ(h.hops.size(), 3u);
    Timestamp prev_deq = 0;
    for (std::uint32_t i = 0; i < 3; ++i) {
      EXPECT_EQ(h.hops[i].switch_id, i);
      EXPECT_EQ(h.hops[i].egress_port, i == 2 ? 0u : 1u);
      EXPECT_GE(h.hops[i].enq_timestamp, prev_deq);
      // Queue delay excludes transmission: an uncongested hop dequeues at
      // its enqueue instant.
      EXPECT_GE(h.hops[i].deq_timestamp, h.hops[i].enq_timestamp);
      prev_deq = h.hops[i].deq_timestamp;
    }
    // Link delay separates consecutive hops.
    EXPECT_GE(h.hops[1].enq_timestamp, h.hops[0].deq_timestamp + 700);
    EXPECT_EQ(h.delivered_at, h.hops[2].deq_timestamp);
    EXPECT_GT(h.total_delay(), Duration{0});
  }
}

TEST(IntHeaderEngine, StackOverflowsAtConfiguredBudget) {
  NetworkConfig cfg;
  cfg.topology = chain3();
  cfg.int_max_hops = 2;  // path is 3 switches long
  NetworkEngine net(cfg);
  net.run(chain_traffic(3));

  EXPECT_EQ(net.stats().delivered, 3u);
  for (const IntHeader& h : net.headers()) {
    EXPECT_EQ(h.fate, PacketFate::kDelivered);  // overflow is not a drop
    EXPECT_TRUE(h.overflow);
    EXPECT_EQ(h.hop_count, 3u);
    ASSERT_EQ(h.hops.size(), 2u);
    EXPECT_EQ(h.hops[0].switch_id, 0u);
    EXPECT_EQ(h.hops[1].switch_id, 1u);
  }
}

TEST(IntHeaderEngine, TtlBackstopStopsForwarding) {
  NetworkConfig cfg;
  cfg.topology = chain3();
  cfg.max_ttl = 2;
  NetworkEngine net(cfg);
  net.run(chain_traffic(2));

  EXPECT_EQ(net.stats().delivered, 0u);
  EXPECT_EQ(net.stats().ttl_exceeded, 2u);
  for (const IntHeader& h : net.headers()) {
    EXPECT_EQ(h.fate, PacketFate::kTtlExceeded);
    EXPECT_EQ(h.hop_count, 2u);
  }
}

}  // namespace
}  // namespace pq::net
