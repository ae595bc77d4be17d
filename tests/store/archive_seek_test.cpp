// Differential proof for the sparse time index: for dozens of `as_of`
// horizons — before the first block, past the last, exactly on block
// boundaries, one tick either side of them, and uniformly random — a
// reader cutting with the index must answer byte-identically to a reader
// forced onto the linear every-block path. The on-disk format is a test
// parameter (v1 chains get the same in-memory index as v2), and the
// writer deliberately emits duplicate and clustered timestamps so the
// binary search has ties to get wrong.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "control/register_records.h"
#include "store/archive.h"
#include "store/archive_reader.h"
#include "../integration/sharded_harness.h"

namespace pq {
namespace {

using harness::TempDir;

core::TimeWindowParams test_params() {
  core::TimeWindowParams p;
  p.m0 = 10;
  p.alpha = 1;
  p.k = 4;
  p.num_windows = 3;
  p.num_ports = 1;
  return p;
}

control::WindowSnapshot make_window_snapshot(Timestamp taken_at,
                                             std::uint32_t seed) {
  const auto p = test_params();
  control::WindowSnapshot snap;
  snap.taken_at = taken_at;
  snap.epoch = seed;
  snap.state.resize(p.num_windows);
  for (std::uint32_t w = 0; w < p.num_windows; ++w) {
    snap.state[w].resize(1u << p.k);
    for (std::uint32_t c = 0; c < (1u << p.k); c += 3) {
      auto& cell = snap.state[w][c];
      cell.occupied = true;
      cell.flow.src_ip = seed * 1000 + w * 100 + c;
      cell.flow.dst_ip = 7;
      cell.cycle_id = seed + w;
    }
  }
  return snap;
}

/// A checkpoint whose cells are all recent as of `taken_at` (every other
/// slot of each window, walking back from the newest), so the estimator
/// keeps them and queries near `taken_at` return flows.
control::WindowSnapshot fresh_window_snapshot(Timestamp taken_at,
                                              std::uint32_t seed) {
  const auto p = test_params();
  const std::uint64_t slots = 1u << p.k;
  control::WindowSnapshot snap;
  snap.taken_at = taken_at;
  snap.epoch = seed;
  snap.state.resize(p.num_windows);
  for (std::uint32_t w = 0; w < p.num_windows; ++w) {
    snap.state[w].resize(slots);
    const std::uint64_t newest = taken_at >> (p.m0 + p.alpha * w);
    for (std::uint64_t back = 0; back < slots && back <= newest; back += 2) {
      const std::uint64_t tts = newest - back;
      auto& cell = snap.state[w][tts & (slots - 1)];
      cell.occupied = true;
      cell.flow.src_ip =
          static_cast<std::uint32_t>((seed + back) % 11);  // flows recur
      cell.flow.dst_ip = 7;
      cell.cycle_id = tts >> p.k;
    }
  }
  return snap;
}

control::MonitorSnapshot make_monitor_snapshot(Timestamp taken_at,
                                               std::uint32_t seed) {
  control::MonitorSnapshot snap;
  snap.taken_at = taken_at;
  snap.epoch = seed;
  snap.state.top = seed % 5;
  snap.state.entries.resize(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    auto& e = snap.state.entries[i];
    e.inc.valid = true;
    e.inc.flow.src_ip = seed * 10 + i;
    e.inc.seq = seed + i;
  }
  return snap;
}

control::CalibrationRecord make_calibration(Timestamp taken_at, double z0) {
  control::CalibrationRecord cal;
  cal.taken_at = taken_at;
  cal.window_params = test_params();
  cal.monitor_levels = 8;
  cal.z0 = z0;
  return cal;
}

std::string records_bytes(const store::ArchiveReader& r, Timestamp as_of) {
  std::ostringstream os;
  control::write_records(os, r.to_records(0, as_of));
  return os.str();
}

class ArchiveSeek : public ::testing::TestWithParam<int> {
 protected:
  std::uint16_t format() const {
    return static_cast<std::uint16_t>(GetParam());
  }
};

TEST_P(ArchiveSeek, IndexedSeekMatchesFullScanEverywhere) {
  const TempDir dir;
  store::ArchiveOptions opts;
  opts.dir = dir.path();
  opts.segment_bytes = 8 * 1024;  // many segments, many index keyframes
  opts.format_version = format();

  // Clustered, occasionally-repeating timestamps: ~1 in 4 rounds reuses
  // the previous instant, so adjacent blocks share t_hi and the cut's
  // tie-breaking is actually exercised.
  Rng rng(515 + GetParam());
  std::vector<Timestamp> boundaries;
  {
    store::ArchiveWriter w(0, test_params(), 8, opts);
    Timestamp t = 50'000;
    for (std::uint32_t i = 0; i < 90; ++i) {
      if (rng.uniform_below(4) != 0) t += 1'000 + rng.uniform_below(40'000);
      boundaries.push_back(t);
      w.on_window_snapshot(0, make_window_snapshot(t, i + 1));
      if (i % 3 == 0) w.on_monitor_snapshot(0, make_monitor_snapshot(t, i + 1));
      if (i % 10 == 0) w.on_calibration(make_calibration(t, 0.4 + 0.001 * i));
    }
    w.close();
    // v2 compresses, so it rolls fewer segments than v1 at the same cap;
    // either way the index must span multiple segment boundaries.
    ASSERT_GT(w.stats().segments_opened, 2u);
  }

  store::ReaderOptions indexed_opts;
  indexed_opts.seek_index_stride = 4;  // dense samples on a small archive
  store::ArchiveReader indexed(dir.path(), indexed_opts);
  store::ReaderOptions scan_opts;
  scan_opts.use_seek_index = false;
  store::ArchiveReader scan(dir.path(), scan_opts);
  ASSERT_EQ(indexed.stats().blocks_recovered, scan.stats().blocks_recovered);
  ASSERT_EQ(indexed.logical_content(), scan.logical_content());

  const Timestamp first = boundaries.front();
  const Timestamp last = boundaries.back();
  std::vector<Timestamp> horizons = {0, first - 1, first, last, last + 1,
                                     last * 10,
                                     std::numeric_limits<Timestamp>::max()};
  for (int i = 0; i < 50; ++i) {
    const Timestamp b = boundaries[rng.uniform_below(boundaries.size())];
    switch (rng.uniform_below(3)) {
      case 0: horizons.push_back(b); break;             // exactly on a t_hi
      case 1: horizons.push_back(b - 1); break;         // one tick before
      default:                                          // anywhere at all
        horizons.push_back(rng.uniform_below(last + last / 4));
    }
  }

  for (const Timestamp as_of : horizons) {
    SCOPED_TRACE("as_of=" + std::to_string(as_of));
    // The whole records bundle (snapshot streams, layout, effective z0)
    // must serialize to the same bytes...
    EXPECT_EQ(records_bytes(indexed, as_of), records_bytes(scan, as_of));
    // ...and so must the query answers computed over it.
    EXPECT_EQ(indexed.query_time_windows(0, 0, last + 1, 0, as_of),
              scan.query_time_windows(0, 0, last + 1, 0, as_of));
    const auto ci = indexed.query_queue_monitor(0, as_of / 2, 0, as_of);
    const auto cs = scan.query_queue_monitor(0, as_of / 2, 0, as_of);
    ASSERT_EQ(ci.size(), cs.size());
    for (std::size_t k = 0; k < ci.size(); ++k) {
      EXPECT_EQ(ci[k].flow, cs[k].flow);
      EXPECT_EQ(ci[k].level, cs[k].level);
      EXPECT_EQ(ci[k].seq, cs[k].seq);
    }
  }

  // The indexed reader really took the indexed path, and it skipped
  // per-block tests the oracle had to run; the oracle never touched it.
  EXPECT_GT(indexed.seek_stats().seeks, 0u);
  EXPECT_GT(indexed.seek_stats().probes, 0u);
  EXPECT_GT(indexed.seek_stats().blocks_bypassed, 0u);
  EXPECT_EQ(scan.seek_stats().seeks, 0u);
}

// The narrowed --as-of time-window query decodes only the checkpoints the
// estimator reads; its answer must equal the estimator run over the whole
// as-of bundle for random (t1, t2, as_of) — many of them exactly on a
// block's t_hi or one tick off — with the seek index on and off, on two
// window partitions, and with a few checkpoints appended out of time order
// (the pick is exact in any order; only its cost assumes the order).
TEST_P(ArchiveSeek, NarrowedWindowQueryMatchesFullBundle) {
  const TempDir dir;
  store::ArchiveOptions opts;
  opts.dir = dir.path();
  opts.segment_bytes = 8 * 1024;
  opts.format_version = format();

  Rng rng(919 + GetParam());
  std::vector<Timestamp> boundaries;
  {
    store::ArchiveWriter w(0, test_params(), 8, opts);
    Timestamp t = 50'000;
    for (std::uint32_t i = 0; i < 120; ++i) {
      if (rng.uniform_below(4) != 0) t += 1'000 + rng.uniform_below(40'000);
      boundaries.push_back(t);
      w.on_window_snapshot(0, fresh_window_snapshot(t, i + 1));
      if (i % 2 == 0) w.on_window_snapshot(1, fresh_window_snapshot(t, i + 7));
      if (i % 17 == 16) {  // a straggler, taken before its predecessors
        const Timestamp back = t - 1 - rng.uniform_below(60'000);
        boundaries.push_back(back);
        w.on_window_snapshot(0, fresh_window_snapshot(back, i + 3));
      }
      if (i % 3 == 0) w.on_monitor_snapshot(0, make_monitor_snapshot(t, i + 1));
      if (i % 10 == 0) w.on_calibration(make_calibration(t, 0.4 + 0.001 * i));
    }
    w.close();
  }
  const Timestamp last = boundaries.back();
  auto pick = [&]() -> Timestamp {
    const Timestamp b = boundaries[rng.uniform_below(boundaries.size())];
    switch (rng.uniform_below(4)) {
      case 0: return b;      // exactly on a block's t_hi
      case 1: return b - 1;  // one tick before
      case 2: return b + 1;  // one tick after
      default: return rng.uniform_below(last + last / 4);
    }
  };

  std::size_t nonempty = 0;
  for (const bool use_index : {true, false}) {
    store::ReaderOptions ro;
    ro.use_seek_index = use_index;
    ro.seek_index_stride = 4;
    const store::ArchiveReader reader(dir.path(), ro);
    for (int q = 0; q < 300; ++q) {
      const Timestamp t1 = pick();
      Timestamp t2 = t1 + rng.uniform_below(150'000);  // about one t_set
      if (q % 10 == 0) t2 = t1;                        // empty span
      if (q % 10 == 1) t2 = pick();                    // any span, any order
      const Timestamp as_of =
          q % 7 == 0 ? std::numeric_limits<Timestamp>::max() : pick();
      const auto bundle = reader.to_records(0, as_of);
      for (const std::uint32_t part : {0u, 1u}) {
        SCOPED_TRACE(::testing::Message()
                     << "index=" << use_index << " part=" << part
                     << " t1=" << t1 << " t2=" << t2 << " as_of=" << as_of);
        const auto narrowed = reader.query_time_windows(0, t1, t2, part, as_of);
        EXPECT_EQ(narrowed,
                  control::offline_query_time_windows(bundle, part, t1, t2));
        if (!narrowed.empty()) ++nonempty;
      }
    }
  }
  EXPECT_GT(nonempty, 200u);  // the sweep compared real answers, not empties
}

// The order the narrowed query's cost bound relies on: a real sharded run
// appends every (port, window partition)'s checkpoints in non-decreasing
// t_hi, faults on or off, and the narrowed answers match the full bundle's
// on that archive too.
TEST(ArchiveWindowOrder, ShardedRunAppendsCheckpointsInTimeOrder) {
  const auto packets = harness::workload();
  for (const bool with_faults : {false, true}) {
    const TempDir dir;
    auto cfg = harness::system_config(with_faults);
    cfg.analysis.poll_period_ns = 200'000;  // ~30 checkpoints per port
    control::ShardedSystem sys(std::move(cfg));
    {
      store::Archive archive(harness::harness_archive_options(dir.path()));
      archive.attach(sys.pipeline(), sys.analysis());
      sys.run(packets, 4, 64);
      archive.close();
    }
    const store::ArchiveReader reader(dir.path());
    ASSERT_EQ(reader.ports().size(), harness::kPorts);
    for (const auto& [port, rec] : reader.recovered()) {
      std::vector<Timestamp> newest(rec.window_parts, 0);
      std::size_t windows = 0;
      for (const auto& b : rec.blocks) {
        if (b.kind != store::BlockKind::kWindowSnapshot) continue;
        EXPECT_GE(b.t_hi, newest[b.partition])
            << "port " << port << " partition " << b.partition;
        newest[b.partition] = b.t_hi;
        ++windows;
      }
      EXPECT_GT(windows, 2u) << "port " << port;
      for (const Timestamp t1 : {Timestamp{0}, Timestamp{1'500'000},
                                 Timestamp{2'000'000}}) {
        for (const Timestamp as_of : {Timestamp{3'000'000}, newest[0]}) {
          const Timestamp t2 = t1 + 2'000'000;
          EXPECT_EQ(reader.query_time_windows(port, t1, t2, 0, as_of),
                    control::offline_query_time_windows(
                        reader.to_records(port, as_of), 0, t1, t2))
              << "port " << port << " t1=" << t1 << " as_of=" << as_of;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, ArchiveSeek, ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "v" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pq
