#include "util.h"

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/hash.h"
#include "common/simd/dispatch.h"

namespace pqbench {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    unsigned long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lu kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

void cold_heap() { malloc_trim(0); }

void reset_peak_rss() {
  cold_heap();
  std::ofstream("/proc/self/clear_refs") << "5";
}

void precise_sleeps() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void wait_until(Clock::time_point when) {
  constexpr auto kSpin = std::chrono::microseconds(20);
  std::this_thread::sleep_until(when - kSpin);
  while (Clock::now() < when) {
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return pq::mix64(seed * 0x9E3779B97F4A7C15ull + salt + 1);
}

void Digest::add(std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
}

bool same_counts(const pq::core::FlowCounts& a,
                 const pq::core::FlowCounts& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [flow, n] : a) {
    const auto it = b.find(flow);
    if (it == b.end()) return false;
    if (std::fabs(n - it->second) > 1e-9 * std::max(1.0, std::fabs(n))) {
      return false;
    }
  }
  return true;
}

std::string host_facts_json() {
  std::string model = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  std::string escaped;
  for (const char c : model) {
    if (c == '"' || c == '\\') escaped.push_back('\\');
    escaped.push_back(c);
  }
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << escaped << "\", \"simd_level\": \""
     << pq::simd::to_string(pq::simd::active_level())
     << "\", \"build_type\": \"" << PQBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

void QueryLatency::add_iteration(const std::vector<double>& us) {
  queries += us.size();
  if (pooled) {
    all_us.insert(all_us.end(), us.begin(), us.end());
  } else {
    p50_us.push_back(quantile(us, 0.50));
    p99_us.push_back(quantile(us, 0.99));
  }
}

void QueryLatency::report(Result& res) const {
  res.set("query_p50_us", pooled ? quantile(all_us, 0.50) : median(p50_us));
  res.set("query_p99_us", pooled ? quantile(all_us, 0.99) : median(p99_us));
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"e2e_ns_per_pkt", "ns"},
      {"cpu_ns_per_pkt", "ns"},  {"peak_rss_mb", "MB"},
      {"query_p50_us", "us"},    {"query_p99_us", "us"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"traffic.gen_ms", "ms"},
      {"sim.partition_ns_per_pkt", "ns"},
      {"sim.queue_ns_per_pkt", "ns"},
      {"sim.handoff_ns_per_pkt", "ns"},
      {"sim.scaling_x", "x"},
      {"sim.drops", "count"},
      {"sim.peak_depth_cells", "cells"},
      {"core.absorb_ns_per_pkt", "ns"},
      {"core.dq_fire_frac", "ratio"},
      {"core.window_cells_stored_per_pkt", "ratio"},
      {"control.analysis_ns_per_pkt", "ns"},
      {"control.capture_bytes_per_pkt", "B"},
      {"control.poll_bytes_per_pkt", "B"},
      {"control.query_windows_us_p50", "us"},
      {"control.query_monitor_us_p50", "us"},
      {"control.merge_dq_ms", "ms"},
      {"store.append_ns_per_pkt", "ns"},
      {"store.close_ms", "ms"},
      {"store.archive_bytes_per_pkt", "B"},
      {"store.compression_x", "x"},
      {"store.delta_block_frac", "ratio"},
      {"store.recover_ms_1t", "ms"},
      {"store.recover_ms_nt", "ms"},
      {"store.seek_probes_per_query", "count"},
      {"store.blocks_bypassed_frac", "ratio"},
      {"store.asof_full_scan_us_p50", "us"},
      {"net.telemetry_ns_per_hop", "ns"},
      {"net.transport_ns_per_hop", "ns"},
      {"net.transport_epochs", "count"},
      {"net.hops_per_pkt", "ratio"},
      {"net.idle_switch_frac", "ratio"},
      {"net.pick_victim_ms", "ms"},
      {"net.attribute_ms", "ms"},
      {"net.precision", "ratio"},
      {"net.correct_hop", "count"},
      {"wire.decode_ns_per_rec", "ns"},
      {"serve.submit_ns_per_rec", "ns"},
      {"serve.absorb_ns_per_rec", "ns"},
      {"serve.queue_peak_depth", "count"},
      {"serve.partial_frac", "ratio"},
      {"serve.feed_lag_us_p99", "us"},
      {"serve.prober_late_us_p99", "us"},
      {"obs.collect_ms", "ms"},
      {"ledger.e2e_1w_ns_per_pkt", "ns"},
      {"ledger.unattributed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

namespace {

/// Identity of the running build: a digest of the executable's bytes, so a
/// stored repeat digest is only ever compared against the same program.
std::uint64_t build_identity() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  Digest d;
  std::vector<char> buf(1 << 16);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
    d.add(std::string_view(buf.data(), static_cast<std::size_t>(in.gcount())));
  }
  return d.h;
}

}  // namespace

bool repeat_check(const Options& opts,
                  const std::vector<std::uint64_t>& digests) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(opts.out_dir) / "digests";
  std::error_code ec;
  fs::create_directories(dir, ec);
  char name[96];
  std::snprintf(name, sizeof name, "%016llx-%s-%llu",
                static_cast<unsigned long long>(build_identity()),
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed));
  const fs::path path = dir / name;
  std::vector<std::uint64_t> stored;
  {
    std::ifstream in(path);
    unsigned long long v = 0;
    while (in >> std::hex >> v) stored.push_back(v);
  }
  if (stored.empty()) {
    std::ofstream out(path);
    for (const auto d : digests) out << std::hex << d << "\n";
    return true;
  }
  for (std::size_t i = 0; i < std::min(stored.size(), digests.size()); ++i) {
    if (stored[i] != digests[i]) return false;
  }
  return true;
}

std::string scratch_dir(const Options& opts, const std::string& tag) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(opts.out_dir) / "scratch" /
                       (tag + "-" + std::to_string(getpid()));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir.string();
}

void remove_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace pqbench
