#include "store/archive_reader.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/hash.h"
#include "common/worker_pool.h"
#include "store/block_codec_v2.h"
#include "wire/bytes.h"

namespace pq::store {

namespace fs = std::filesystem;

namespace {

double get_f64(wire::ByteReader& r) {
  const std::uint64_t bits = r.u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

FlowId get_flow(wire::ByteReader& r) {
  FlowId f;
  f.src_ip = r.u32();
  f.dst_ip = r.u32();
  f.src_port = r.u16();
  f.dst_port = r.u16();
  f.proto = r.u8();
  return f;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return {std::istreambuf_iterator<char>(in), {}};
}

/// One port's complete scan outcome; workers fill these independently and
/// the constructor merges them in ascending port order, so the parallel
/// scan is byte-identical to the sequential one.
struct PortScanResult {
  RecoveredPort rec;
  ReaderStats stats;
  bool keep = false;
};

/// Decodes one CRC-valid frame payload to logical bytes per the segment's
/// format version, maintaining the per-segment delta bases.
BlockDecodeStatus decode_payload(
    std::uint16_t version, BlockKind kind, std::uint32_t partition,
    std::span<const std::uint8_t> payload,
    std::map<std::pair<std::uint8_t, std::uint32_t>,
             std::vector<std::uint8_t>>& bases,
    std::vector<std::uint8_t>& logical) {
  if (version < kFormatVersionV2) {
    logical.assign(payload.begin(), payload.end());
    return BlockDecodeStatus::kOk;
  }
  if (payload.empty() ||
      (payload[0] != kEncodingRaw && payload[0] != kEncodingDelta)) {
    return BlockDecodeStatus::kBadEncodingTag;
  }
  const std::pair<std::uint8_t, std::uint32_t> key{
      static_cast<std::uint8_t>(kind), partition};
  const auto body = payload.subspan(1);
  if (payload[0] == kEncodingRaw) {
    logical.assign(body.begin(), body.end());
  } else {
    const auto base = bases.find(key);
    if (base == bases.end()) return BlockDecodeStatus::kMissingDeltaBase;
    if (!decode_delta_payload(kind, base->second, body, logical)) {
      return BlockDecodeStatus::kCorruptDelta;
    }
  }
  if (kind != BlockKind::kDqCapture) bases[key] = logical;
  return BlockDecodeStatus::kOk;
}

/// Scans one segment; returns true if it closed cleanly (valid footer
/// consistent with the scan) and every block decoded, false if the port
/// must stop here. A null `expected_index` marks the first file of the
/// chain: any header index is accepted (retention may have pruned the
/// head) and anchors the sequence.
bool scan_segment(std::uint32_t port, const std::string& path,
                  const std::uint32_t* expected_index, std::uint32_t stride,
                  PortScanResult& out) {
  const std::vector<std::uint8_t> data = read_file(path);
  ++out.stats.segments_opened;
  const std::span<const std::uint8_t> span(data);

  const SegmentScan scan = scan_segment_bytes(span, port);
  if (!scan.header_ok ||
      (expected_index != nullptr &&
       scan.header.segment_index != *expected_index)) {
    out.stats.bytes_truncated += data.size();
    return false;
  }
  if (expected_index == nullptr) out.rec.header = scan.header;
  out.rec.last_index = scan.header.segment_index;

  SegmentInfo info;
  info.index = scan.header.segment_index;
  info.version = scan.header.version;
  info.footer_ok = scan.footer_ok;
  info.index_samples = build_time_index(scan.entries, stride).size();
  if (!scan.entries.empty()) {
    info.t_lo_min = std::numeric_limits<std::uint64_t>::max();
    for (const auto& e : scan.entries) {
      info.t_lo_min = std::min(info.t_lo_min, e.t_lo);
      info.t_hi_max = std::max(info.t_hi_max, e.t_hi);
    }
  }

  // Delta bases reset per segment (per-segment keyframes), so a segment
  // always decodes in isolation no matter what retention or compaction did
  // to its neighbours.
  std::map<std::pair<std::uint8_t, std::uint32_t>, std::vector<std::uint8_t>>
      bases;
  for (const auto& e : scan.entries) {
    RecoveredBlock block;
    block.kind = e.kind;
    block.partition = e.partition;
    block.t_lo = e.t_lo;
    block.t_hi = e.t_hi;
    const auto payload = span.subspan(e.offset + kBlockOverheadBytes - 4,
                                      e.length - kBlockOverheadBytes);
    const BlockDecodeStatus status = decode_payload(
        scan.header.version, e.kind, e.partition, payload, bases,
        block.payload);
    if (status != BlockDecodeStatus::kOk) {
      // CRC-valid but undecodable: the prefix ends right before this
      // block, with a typed report instead of a silent hole.
      out.rec.decode_error = {status, scan.header.segment_index,
                              out.rec.blocks.size()};
      ++out.stats.decode_errors;
      out.stats.bytes_truncated += data.size() - e.offset;
      info.bytes = e.offset;
      out.rec.segments.push_back(info);
      return false;
    }
    out.rec.blocks.push_back(std::move(block));
    ++info.blocks;
    ++out.stats.blocks_recovered;
  }
  info.bytes = scan.header_bytes + scan.blocks_bytes;
  if (scan.footer_ok) info.bytes = data.size();
  out.rec.segments.push_back(info);

  if (scan.footer_ok) {
    ++out.stats.footer_hits;
    return true;
  }
  out.stats.bytes_truncated +=
      data.size() - (scan.header_bytes + scan.blocks_bytes);
  return false;
}

PortScanResult scan_port_files(std::uint32_t port,
                               const std::vector<std::string>& segment_files,
                               std::uint32_t stride) {
  PortScanResult out;
  bool have_header = false;
  // The chain may start above index 0 when retention pruned old segments;
  // the first file anchors the expected sequence, which must then stay
  // contiguous (a gap means the middle of the stream is gone — everything
  // after it is no longer a prefix and cannot be trusted).
  std::uint32_t expected_index = 0;
  for (std::size_t i = 0; i < segment_files.size(); ++i) {
    if (!scan_segment(port, segment_files[i],
                      have_header ? &expected_index : nullptr, stride, out)) {
      // Torn or corrupt segment: everything after it is no longer a prefix
      // of the written stream, so the port stops here.
      ++out.stats.recoveries;
      for (std::size_t j = i + 1; j < segment_files.size(); ++j) {
        std::error_code ec;
        const auto size = fs::file_size(segment_files[j], ec);
        if (!ec) out.stats.bytes_truncated += size;
      }
      break;
    }
    have_header = true;
    expected_index = out.rec.last_index + 1;
  }
  out.keep = have_header || !out.rec.blocks.empty();
  if (out.keep) {
    for (const auto& b : out.rec.blocks) {
      if (b.kind == BlockKind::kWindowSnapshot) {
        out.rec.window_parts = std::max(out.rec.window_parts, b.partition + 1);
      } else if (b.kind == BlockKind::kMonitorSnapshot) {
        out.rec.monitor_parts =
            std::max(out.rec.monitor_parts, b.partition + 1);
      }
    }
    std::vector<IndexEntry> entries(out.rec.blocks.size());
    for (std::size_t i = 0; i < out.rec.blocks.size(); ++i) {
      entries[i].t_hi = out.rec.blocks[i].t_hi;
    }
    out.rec.seek_index = build_time_index(entries, stride);
  }
  return out;
}

}  // namespace

ArchiveReader::ArchiveReader(const std::string& dir)
    : ArchiveReader(dir, ReaderOptions{}) {}

ArchiveReader::ArchiveReader(const std::string& dir, ReaderOptions opts)
    : opts_(opts) {
  if (opts_.seek_index_stride == 0) opts_.seek_index_stride = kSeekIndexStride;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error("pq::store: not an archive directory: " + dir);
  }
  // Ports in ascending numeric order so the scan (and stats) are
  // deterministic regardless of directory iteration order.
  std::map<std::uint32_t, std::vector<std::string>> port_segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_directory() || name.rfind("port-", 0) != 0) continue;
    std::uint32_t port = 0;
    try {
      port = static_cast<std::uint32_t>(std::stoul(name.substr(5)));
    } catch (...) {
      continue;  // foreign directory, not ours
    }
    auto& segments = port_segments[port];
    for (const auto& seg : fs::directory_iterator(entry.path())) {
      const std::string sname = seg.path().filename().string();
      if (seg.is_regular_file() && sname.rfind("seg-", 0) == 0 &&
          sname.size() > 4 && sname.substr(sname.size() - 4) == ".pqs") {
        segments.push_back(seg.path().string());
      }
    }
    // Zero-padded names: lexicographic order is segment order.
    std::sort(segments.begin(), segments.end());
  }

  std::vector<std::pair<std::uint32_t, std::vector<std::string>>> jobs(
      port_segments.begin(), port_segments.end());
  std::vector<PortScanResult> results(jobs.size());
  // Whole-port work stealing: a port's chain is one job, so each result
  // slot is written by exactly one worker and merge order is fixed.
  parallel_for(jobs.size(), PoolOptions{opts_.threads, false},
               [&](std::size_t i) {
                 results[i] = scan_port_files(jobs[i].first, jobs[i].second,
                                              opts_.seek_index_stride);
               });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto& r = results[i];
    stats_.segments_opened += r.stats.segments_opened;
    stats_.footer_hits += r.stats.footer_hits;
    stats_.recoveries += r.stats.recoveries;
    stats_.blocks_recovered += r.stats.blocks_recovered;
    stats_.bytes_truncated += r.stats.bytes_truncated;
    stats_.decode_errors += r.stats.decode_errors;
    if (r.keep) ports_.emplace(jobs[i].first, std::move(r.rec));
  }
}

std::vector<std::uint32_t> ArchiveReader::ports() const {
  std::vector<std::uint32_t> out;
  out.reserve(ports_.size());
  for (const auto& [port, rec] : ports_) out.push_back(port);
  return out;
}

void ArchiveReader::seek_cut(const RecoveredPort& rec, Timestamp as_of,
                             std::size_t& bulk_end, std::size_t& stop) const {
  const auto& s = rec.seek_index;
  ++seek_stats_.seeks;
  // Last sample whose prefix max is <= as_of: everything up to its ordinal
  // is included without a per-block test.
  std::size_t lo = 0, hi = s.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++seek_stats_.probes;
    if (s[mid].prefix_max_t_hi <= as_of) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  bulk_end = lo == 0 ? 0 : static_cast<std::size_t>(s[lo - 1].ordinal) + 1;
  // First sample whose suffix min is > as_of: everything from its ordinal
  // on is excluded without a per-block test.
  lo = 0;
  hi = s.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++seek_stats_.probes;
    if (s[mid].suffix_min_t_hi > as_of) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  stop = lo == s.size() ? rec.blocks.size()
                        : static_cast<std::size_t>(s[lo].ordinal);
  if (bulk_end > stop) bulk_end = stop;
  seek_stats_.blocks_bypassed += bulk_end + (rec.blocks.size() - stop);
}

control::RegisterRecords ArchiveReader::to_records(std::uint32_t port,
                                                   Timestamp as_of) const {
  return collect(port, as_of, nullptr);
}

control::RegisterRecords ArchiveReader::collect(
    std::uint32_t port, Timestamp as_of, const WindowQuery* query) const {
  const RecoveredPort& rec = ports_.at(port);
  control::RegisterRecords records;
  records.window_params = rec.header.window_params;
  records.monitor_levels = rec.header.monitor_levels;
  records.z0 = 1.0;
  records.window_snapshots.resize(rec.window_parts);
  records.monitor_snapshots.resize(rec.monitor_parts);

  std::size_t bulk_end = 0;
  std::size_t stop = rec.blocks.size();
  if (opts_.use_seek_index && !rec.seek_index.empty()) {
    seek_cut(rec, as_of, bulk_end, stop);
  }

  // With a query: set once the picked window run reached a checkpoint at
  // or after t2.
  bool run_closed = false;
  for (std::size_t i = 0; i < stop; ++i) {
    const auto& b = rec.blocks[i];
    if (i >= bulk_end && b.t_hi > as_of) continue;
    wire::ByteReader r(b.payload);
    switch (b.kind) {
      case BlockKind::kWindowSnapshot: {
        auto& snaps = records.window_snapshots[b.partition];
        if (query != nullptr) {
          if (b.partition != query->partition || run_closed) break;
          if (b.t_hi <= query->t1) {
            snaps.clear();  // the run restarts after this checkpoint
            break;
          }
          run_closed = b.t_hi >= query->t2;
        }
        snaps.push_back(control::get_window_snapshot(r));
        break;
      }
      case BlockKind::kMonitorSnapshot:
        if (query != nullptr) break;
        records.monitor_snapshots[b.partition].push_back(
            control::get_monitor_snapshot(r));
        break;
      case BlockKind::kCalibration: {
        // The newest surviving calibration wins — exactly what the live
        // program would have used at the last recovered checkpoint.
        r.u64();  // taken_at
        records.window_params.m0 = r.u32();
        records.window_params.alpha = r.u32();
        records.window_params.k = r.u32();
        records.window_params.num_windows = r.u32();
        records.window_params.num_ports = r.u32();
        records.window_params.wrap32 = r.u8() != 0;
        records.monitor_levels = r.u32();
        records.z0 = get_f64(r);
        break;
      }
      case BlockKind::kDqCapture:
        break;  // not part of the records bundle; see dq_captures()
    }
  }
  return records;
}

core::FlowCounts ArchiveReader::query_time_windows(std::uint32_t port,
                                                   Timestamp t1, Timestamp t2,
                                                   std::uint32_t partition,
                                                   Timestamp as_of) const {
  const WindowQuery query{partition, t1, t2};
  return control::offline_query_time_windows(collect(port, as_of, &query),
                                             partition, t1, t2);
}

std::vector<core::OriginalCulprit> ArchiveReader::query_queue_monitor(
    std::uint32_t port, Timestamp t, std::uint32_t partition,
    Timestamp as_of) const {
  return control::offline_query_queue_monitor(to_records(port, as_of),
                                              partition, t);
}

std::vector<control::DqCapture> ArchiveReader::dq_captures(
    std::uint32_t port) const {
  std::vector<control::DqCapture> out;
  for (const auto& b : ports_.at(port).blocks) {
    if (b.kind != BlockKind::kDqCapture) continue;
    wire::ByteReader r(b.payload);
    control::DqCapture cap;
    cap.notification.port_prefix = r.u32();
    cap.notification.victim_flow = get_flow(r);
    cap.notification.enq_timestamp = r.u64();
    cap.notification.deq_timestamp = r.u64();
    cap.notification.enq_qdepth = r.u32();
    cap.notification.window_bank = r.u32();
    cap.notification.monitor_bank = r.u32();
    cap.windows = control::get_window_snapshot(r).state;
    cap.monitor = control::get_monitor_snapshot(r).state;
    out.push_back(std::move(cap));
  }
  return out;
}

std::vector<std::uint8_t> ArchiveReader::logical_content() const {
  std::vector<std::uint8_t> buf;
  wire::put_u32(buf, static_cast<std::uint32_t>(ports_.size()));
  for (const auto& [port, rec] : ports_) {
    wire::put_u32(buf, port);
    wire::put_u64(buf, rec.blocks.size());
    for (const auto& b : rec.blocks) {
      wire::put_u8(buf, static_cast<std::uint8_t>(b.kind));
      wire::put_u32(buf, b.partition);
      wire::put_u64(buf, b.t_lo);
      wire::put_u64(buf, b.t_hi);
      wire::put_u32(buf, static_cast<std::uint32_t>(b.payload.size()));
      buf.insert(buf.end(), b.payload.begin(), b.payload.end());
    }
  }
  return buf;
}

void export_reader_metrics(obs::MetricsRegistry& reg, const ReaderStats& s) {
  reg.counter("pq_store_reader_segments_total",
              "segment files scanned during recovery")
      .inc(s.segments_opened);
  reg.counter("pq_store_reader_footer_hits_total",
              "segments whose clean-close footer matched the scan")
      .inc(s.footer_hits);
  reg.counter("pq_store_reader_recoveries_total",
              "segments recovered by truncating a torn or corrupt tail")
      .inc(s.recoveries);
  reg.counter("pq_store_reader_blocks_total",
              "CRC-verified blocks recovered")
      .inc(s.blocks_recovered);
  reg.counter("pq_store_reader_bytes_truncated_total",
              "torn or corrupt bytes discarded during recovery")
      .inc(s.bytes_truncated);
  reg.counter("pq_store_reader_decode_errors_total",
              "CRC-valid v2 blocks whose payload failed to decode")
      .inc(s.decode_errors);
}

void export_seek_metrics(obs::MetricsRegistry& reg, const SeekStats& s) {
  reg.counter("pq_store_seek_queries_total",
              "as-of queries answered through the sparse time index")
      .inc(s.seeks);
  reg.counter("pq_store_seek_probes_total",
              "time-index samples touched by binary search (seek depth)")
      .inc(s.probes);
  reg.counter("pq_store_seek_blocks_bypassed_total",
              "blocks excluded or bulk-included without a per-block test")
      .inc(s.blocks_bypassed);
}

}  // namespace pq::store
