#include "sim/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "traffic/distributions.h"
#include "traffic/trace_gen.h"

namespace pq::sim {
namespace {

Packet pkt(std::uint32_t flow, Timestamp t, std::uint32_t hint = 0) {
  Packet p;
  p.flow = make_flow(flow);
  p.size_bytes = 500;
  p.arrival_ns = t;
  p.egress_hint = hint;
  return p;
}

std::vector<PortConfig> ports(std::uint32_t n) {
  std::vector<PortConfig> cfgs(n);
  for (std::uint32_t i = 0; i < n; ++i) cfgs[i].port_id = i;
  return cfgs;
}

std::vector<Packet> workload(std::uint32_t n_ports, std::uint32_t n_pkts) {
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < n_pkts; ++i) {
    pkts.push_back(pkt(i, i * 120, i % n_ports));
  }
  return pkts;
}

TEST(ShardedEngine, RejectsZeroPorts) {
  EXPECT_THROW(ShardedEngine{std::vector<PortConfig>{}},
               std::invalid_argument);
}

TEST(ShardedEngine, PartitionPreservesPerPortArrivalOrder) {
  const auto pkts = workload(3, 300);
  const auto shards = ShardedEngine::partition(
      pkts, [](const Packet& p) { return p.egress_hint; }, 3);
  ASSERT_EQ(shards.size(), 3u);
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    total += shards[s].size();
    EXPECT_TRUE(std::is_sorted(shards[s].begin(), shards[s].end(),
                               [](const Packet& a, const Packet& b) {
                                 return a.arrival_ns < b.arrival_ns;
                               }));
    for (const auto& p : shards[s]) EXPECT_EQ(p.egress_hint, s);
  }
  EXPECT_EQ(total, 300u);
}

TEST(ShardedEngine, InvalidForwardingThrows) {
  ShardedEngine eng(ports(2));
  eng.set_forwarding([](const Packet&) { return 99u; });
  EXPECT_THROW(eng.run({pkt(1, 0)}, 1), std::out_of_range);
  ShardedEngine eng2(ports(2));
  eng2.set_forwarding([](const Packet&) { return 99u; });
  EXPECT_THROW(eng2.run(workload(2, 64), 2), std::out_of_range);
}

TEST(ShardedEngine, UnsortedInputIsSorted) {
  ShardedEngine eng(ports(1));
  eng.set_forwarding([](const Packet&) { return 0u; });
  std::vector<Packet> pkts = {pkt(1, 5000), pkt(2, 0), pkt(3, 2500)};
  eng.run(std::move(pkts), 1);
  EXPECT_EQ(eng.port(0).records().size(), 3u);
  EXPECT_EQ(eng.port(0).records().front().flow, make_flow(2));
}

// Per-port outputs must not depend on the thread count: the records of a
// parallel run are byte-identical to the single-threaded run's.
TEST(ShardedEngine, ThreadCountInvariantRecords) {
  const auto pkts = workload(4, 2000);
  auto run_with = [&](unsigned threads) {
    ShardedEngine eng(ports(4));
    eng.set_forwarding([](const Packet& p) { return p.egress_hint; });
    eng.run(pkts, threads);
    return eng.merged_records();
  };
  const auto base = run_with(1);
  ASSERT_EQ(base.size(), 2000u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto other = run_with(threads);
    ASSERT_EQ(other.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].packet_id, other[i].packet_id);
      EXPECT_EQ(base[i].flow, other[i].flow);
      EXPECT_EQ(base[i].enq_timestamp, other[i].enq_timestamp);
      EXPECT_EQ(base[i].deq_timedelta, other[i].deq_timedelta);
      EXPECT_EQ(base[i].enq_qdepth, other[i].enq_qdepth);
      EXPECT_EQ(base[i].egress_port, other[i].egress_port);
    }
  }
}

TEST(ShardedEngine, MergedRecordsAreDequeueOrdered) {
  ShardedEngine eng(ports(3));
  eng.set_forwarding([](const Packet& p) { return p.egress_hint; });
  eng.run(workload(3, 900), 3);
  const auto merged = eng.merged_records();
  ASSERT_EQ(merged.size(), 900u);
  EXPECT_TRUE(std::is_sorted(
      merged.begin(), merged.end(),
      [](const wire::TelemetryRecord& a, const wire::TelemetryRecord& b) {
        return a.deq_timestamp() < b.deq_timestamp();
      }));
}

TEST(ShardedEngine, MoreThreadsThanPortsIsFine) {
  ShardedEngine eng(ports(2));
  eng.set_forwarding([](const Packet& p) { return p.egress_hint; });
  eng.run(workload(2, 100), 16);
  EXPECT_EQ(eng.port(0).records().size() + eng.port(1).records().size(),
            100u);
}

TEST(ShardedEngine, ForwardsByFunction) {
  ShardedEngine eng(ports(2));
  eng.set_forwarding([](const Packet& p) {
    return p.flow.dst_port % 2 == 0 ? 0u : 1u;
  });
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < 100; ++i) pkts.push_back(pkt(i, i * 10));
  eng.run(std::move(pkts));
  EXPECT_EQ(eng.port(0).records().size() + eng.port(1).records().size(),
            100u);
  EXPECT_GT(eng.port(0).records().size(), 0u);
  EXPECT_GT(eng.port(1).records().size(), 0u);
  for (const auto& r : eng.port(0).records()) {
    EXPECT_EQ(r.flow.dst_port % 2, 0);
  }
}

TEST(ShardedEngine, DefaultForwardingSpreadsFlows) {
  ShardedEngine eng(ports(2));
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < 400; ++i) pkts.push_back(pkt(i, i));
  eng.run(std::move(pkts));
  EXPECT_GT(eng.port(0).records().size(), 100u);
  EXPECT_GT(eng.port(1).records().size(), 100u);
}

TEST(ShardedEngine, SameFlowAlwaysSamePort) {
  ShardedEngine eng(ports(2));
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < 50; ++i) pkts.push_back(pkt(7, i * 100));
  eng.run(std::move(pkts));
  const bool on0 = !eng.port(0).records().empty();
  const bool on1 = !eng.port(1).records().empty();
  EXPECT_NE(on0, on1);  // all on exactly one port
}

TEST(ShardedEngine, PortIdsAppearInRecords) {
  ShardedEngine eng(ports(2));
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < 64; ++i) pkts.push_back(pkt(i, i * 3));
  eng.run(std::move(pkts));
  for (const auto& r : eng.port(1).records()) EXPECT_EQ(r.egress_port, 1u);
  for (const auto& r : eng.port(0).records()) EXPECT_EQ(r.egress_port, 0u);
}

// --- Web-search workload over 8 ports: the staging lanes ---

constexpr std::uint32_t kWsPorts = 8;

std::vector<Packet> ws_workload() {
  traffic::FlowTraceConfig tcfg;
  tcfg.flow_sizes = &traffic::web_search_flow_sizes();
  tcfg.duration_ns = 4'000'000;
  tcfg.seed = 424242;
  return traffic::generate_flow_trace(tcfg);
}

ShardedEngine ws_engine() {
  auto cfgs = ports(kWsPorts);
  for (auto& c : cfgs) c.collect_depth_series = false;
  return ShardedEngine(std::move(cfgs));
}

/// Flattens a record stream to comparable words (TelemetryRecord has no
/// operator==; every field that can differ is encoded).
std::vector<std::uint64_t> encode(
    const std::vector<wire::TelemetryRecord>& recs) {
  std::vector<std::uint64_t> out;
  out.reserve(recs.size() * 6);
  for (const auto& r : recs) {
    out.push_back(r.packet_id);
    out.push_back(flow_signature(r.flow));
    out.push_back(r.egress_port);
    out.push_back(r.size_bytes);
    out.push_back(static_cast<std::uint64_t>(r.enq_timestamp));
    out.push_back((static_cast<std::uint64_t>(r.deq_timedelta) << 32) |
                  r.enq_qdepth);
  }
  return out;
}

// Pre-staged per-port streams drain to exactly what run() produces from
// the arrival-ordered vector: per port and in the merged view.
TEST(ShardedEngine, RunPartitionedMatchesRun) {
  const auto packets = ws_workload();
  ShardedEngine::RunOptions opts;
  opts.threads = 4;
  opts.batch = 64;
  auto direct = ws_engine();
  direct.run(packets, opts);
  ASSERT_FALSE(direct.merged_records().empty());

  auto eng = ws_engine();
  auto shards = ShardedEngine::partition(packets, eng.forwarding(), kWsPorts);
  eng.run_partitioned(std::move(shards), opts);
  EXPECT_EQ(encode(direct.merged_records()), encode(eng.merged_records()));
  for (std::uint32_t p = 0; p < kWsPorts; ++p) {
    EXPECT_EQ(encode(direct.port(p).records()), encode(eng.port(p).records()))
        << p;
  }
}

TEST(ShardedEngine, ParallelPartitionMatchesSequential) {
  const auto packets = ws_workload();
  // Custom forwarding so run() takes the generic (non-dst-hash) path too.
  auto fwd = [](const Packet& p) {
    return static_cast<std::uint32_t>(p.flow.src_port % kWsPorts);
  };
  auto base = ShardedEngine::partition(packets, fwd, kWsPorts);
  for (const unsigned threads : {2u, 8u}) {
    auto eng = ws_engine();
    eng.set_forwarding(fwd);
    ShardedEngine::RunOptions opts;
    opts.threads = threads;
    eng.run(packets, opts);
    for (std::uint32_t p = 0; p < kWsPorts; ++p) {
      ASSERT_EQ(base[p].size(), eng.port(p).records().size())
          << "threads=" << threads << " port=" << p;
    }
  }
}

// A hook that throws on one shard of a 4-worker run: run() rethrows on the
// caller after joining every worker, and the other shards still drain to
// completion (a failing shard never strands its siblings).
TEST(ShardedEngine, HookThrowOnOneShardIsRethrownAfterJoin) {
  struct Thrower : EgressHook {
    std::uint64_t seen = 0;
    void on_egress(const EgressContext&) override {
      if (++seen == 10) throw std::runtime_error("hook failed");
    }
  } thrower;
  const auto pkts = workload(kWsPorts, 4000);
  ShardedEngine eng(ports(kWsPorts));
  eng.set_forwarding([](const Packet& p) { return p.egress_hint; });
  eng.add_hook(3, &thrower);
  ShardedEngine::RunOptions opts;
  opts.threads = 4;
  EXPECT_THROW(eng.run(pkts, opts), std::runtime_error);
  EXPECT_EQ(thrower.seen, 10u);
  for (std::uint32_t p = 0; p < kWsPorts; ++p) {
    if (p == 3) continue;
    EXPECT_EQ(eng.port(p).records().size(), 4000u / kWsPorts) << p;
    EXPECT_TRUE(eng.port(p).queue_empty()) << p;
  }
}

}  // namespace
}  // namespace pq::sim
