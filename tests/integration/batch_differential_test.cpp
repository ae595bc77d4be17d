// Differential proof for the batched hot path (docs/ARCHITECTURE.md §10):
// draining shards in PacketBatch chunks of ANY size must be byte-identical
// to the scalar per-packet path — same register state in all four banks,
// same query answers, same merged DQ notification stream, same fault
// schedule, same health counters, same deterministic metrics view. The
// scalar run (batch 1, single thread) is the oracle; batch sizes 3 (odd,
// never aligned with chunk boundaries), 64 and 1024 (larger than many
// shard backlogs, so final partial flushes are exercised) run against it
// across thread counts 1, 2 and 8, with and without an active FaultPlan.
#include <gtest/gtest.h>

#include "common/simd/dispatch.h"
#include "sharded_harness.h"

namespace pq {
namespace {

using harness::run_once;
using harness::RunResult;
using harness::workload;

/// SIMD dispatch levels the batched runs are swept across. The oracle
/// (batch 1) absorbs packet-at-a-time and never enters a SIMD kernel, so
/// one oracle serves every level; on a host without AVX2 the sweep is just
/// {kScalar}.
std::vector<simd::Level> sweep_levels() {
  std::vector<simd::Level> v{simd::Level::kScalar};
  if (simd::supported(simd::Level::kAvx2)) v.push_back(simd::Level::kAvx2);
  return v;
}

class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) { simd::set_active_level(level); }
  ~ScopedLevel() { simd::configure(); }
};

class BatchDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(BatchDifferential, ByteIdenticalToScalarOracle) {
  const bool with_faults = GetParam();
  const auto packets = workload();
  const RunResult oracle = run_once(packets, with_faults, 1, 1);

  ASSERT_GT(oracle.packets_seen, 0u);
  ASSERT_FALSE(oracle.registers.empty());
  // The workload must exercise the interesting per-packet points, or
  // equality proves nothing about them: data-plane query triggers (which
  // lock banks and split batched runs) and, when faults are on, a
  // non-empty injected schedule.
  EXPECT_GT(oracle.dq_fired, 0u);
  if (with_faults) {
    ASSERT_FALSE(oracle.fault_schedule.empty());
    EXPECT_GT(oracle.health.torn_reads_detected, 0u);
  }

  ASSERT_FALSE(oracle.archive_bytes.empty());

  for (const simd::Level level : sweep_levels()) {
    ScopedLevel scope(level);
  for (const std::uint32_t batch : {3u, 64u, 256u, 1024u}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      const RunResult got = run_once(packets, with_faults, threads, batch);
      const auto label = ::testing::Message()
                         << "simd=" << simd::to_string(level)
                         << " batch=" << batch << " threads=" << threads;
      EXPECT_EQ(oracle.registers, got.registers) << label;
      EXPECT_EQ(oracle.answers, got.answers) << label;
      EXPECT_EQ(oracle.fault_schedule, got.fault_schedule) << label;
      EXPECT_EQ(oracle.dq_stream, got.dq_stream) << label;
      EXPECT_EQ(oracle.health, got.health) << label;
      EXPECT_EQ(oracle.packets_seen, got.packets_seen) << label;
      EXPECT_EQ(oracle.dq_fired, got.dq_fired) << label;
      EXPECT_EQ(oracle.metrics_json, got.metrics_json) << label;
      EXPECT_EQ(oracle.archive_bytes, got.archive_bytes) << label;
    }
  }
  }
}

INSTANTIATE_TEST_SUITE_P(WithAndWithoutFaults, BatchDifferential,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& tpi) {
                           return tpi.param ? "FaultPlan" : "Clean";
                         });

// Batched drains on 16 genuinely concurrent workers (16 ports) under an
// active FaultPlan — the batch counterpart of the determinism suite's wide
// sweep. Odd batch 3 never aligns with a poll or capture boundary; 1024
// is larger than many shard backlogs.
TEST(BatchDifferential, SixteenThreadsWideWorkload) {
  const auto packets = workload(harness::kPortsWide);
  harness::RunSpec oracle_spec;
  oracle_spec.with_faults = true;
  oracle_spec.ports = harness::kPortsWide;
  const RunResult oracle = run_once(packets, oracle_spec);
  ASSERT_GT(oracle.packets_seen, 0u);
  ASSERT_FALSE(oracle.fault_schedule.empty());
  EXPECT_GT(oracle.dq_fired, 0u);

  for (const simd::Level level : sweep_levels()) {
    ScopedLevel scope(level);
  for (const std::uint32_t batch : {3u, 1024u}) {
    harness::RunSpec spec = oracle_spec;
    spec.threads = 16;
    spec.batch = batch;
    const RunResult got = run_once(packets, spec);
    const auto label = ::testing::Message()
                       << "simd=" << simd::to_string(level)
                       << " batch=" << batch;
    EXPECT_EQ(oracle.registers, got.registers) << label;
    EXPECT_EQ(oracle.answers, got.answers) << label;
    EXPECT_EQ(oracle.fault_schedule, got.fault_schedule) << label;
    EXPECT_EQ(oracle.dq_stream, got.dq_stream) << label;
    EXPECT_EQ(oracle.health, got.health) << label;
    EXPECT_EQ(oracle.packets_seen, got.packets_seen) << label;
    EXPECT_EQ(oracle.dq_fired, got.dq_fired) << label;
    EXPECT_EQ(oracle.metrics_json, got.metrics_json) << label;
    EXPECT_EQ(oracle.archive_bytes, got.archive_bytes) << label;
  }
  }
}

}  // namespace
}  // namespace pq
