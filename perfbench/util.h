// Shared plumbing for the pqbench workloads: options, clocks, process
// resource readings, quantiles, the result record every workload fills, and
// the metric catalogue the result is printed against.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/window_filter.h"

namespace pqbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measurement budget of the main loop
  bool trace = false;     ///< staircase run reporting per-layer metrics
  std::string out_dir = ".bench_build/pqbench";  ///< traces, scratch, digests
};

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Process user + system CPU seconds (getrusage, all threads).
double cpu_seconds();
/// VmHWM: the process's peak resident set, in MB.
double peak_rss_mb();
/// Drops the calling thread's timer slack to 1 ns, so an open-loop
/// generator's sleeps end on time instead of up to 50 us late.
void precise_sleeps();
/// Sleeps until just before `when`, then spins up to it (call
/// precise_sleeps() first): an open-loop generator's requests go out on
/// time, so their latency, timed from `when`, is the system's.
void wait_until(Clock::time_point when);

/// Returns free heap pages to the system, so the next timed call runs on a
/// cold heap, as a one-shot run of a tool does, whatever earlier iterations
/// left behind.
void cold_heap();
/// cold_heap(), then restarts VmHWM from the current resident set (Linux
/// clear_refs), so the peak read afterwards is what the code run since
/// needed. Each iteration calls it once its inputs are generated.
void reset_peak_rss();

/// Exact quantile by nearest rank over a copy of `v` (0 when empty).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Independent per-stream seed derived from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Seed of the inputs of iteration `iter` of a run. Every iteration runs a
/// fresh realization of the workload, so a run's medians average over many
/// traces instead of resting on the one `--seed` would give.
inline std::uint64_t iteration_seed(std::uint64_t seed, int iter) {
  return mix_seed(seed, 1000 + static_cast<std::uint64_t>(iter));
}

/// FNV-1a accumulator for the cross-run repeat check.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::string_view s);
  void add(std::uint64_t v);
};

/// Equality of two answers up to floating-point rounding.
bool same_counts(const pq::core::FlowCounts& a, const pq::core::FlowCounts& b);

/// nproc, CPU model, landed SIMD level and build type, as one JSON object.
std::string host_facts_json();

/// What one workload run reports. Every metric of the catalogue for the run
/// mode is printed; a per-layer metric a workload never sets reads 0 (that
/// layer does no work on that workload).
struct Result {
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  /// Extra JSON members (the ledger) for the traced run's trace file.
  std::string trace_json;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Records a correctness check; a failure fails the run.
  void check(bool ok, const std::string& what);
  bool correct() const { return errors.empty() && failed == 0; }
};

/// Query latency of a run, from each iteration's query latencies. By
/// default each iteration is one realization of the workload, its own p50
/// and p99 are kept, and the run reports their medians over iterations, so
/// one realization's heavy tail or one stall cannot swing the run's figure.
/// `pooled` instead takes both percentiles over all the run's queries, for
/// workloads whose iterations hold too few queries for a p99 of their own.
struct QueryLatency {
  explicit QueryLatency(bool pooled_over_run = false)
      : pooled(pooled_over_run) {}

  void add_iteration(const std::vector<double>& us);
  /// Sets query_p50_us and query_p99_us.
  void report(Result& res) const;

  bool pooled;
  std::size_t queries = 0;
  std::vector<double> p50_us, p99_us, all_us;
};

struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Iterations whose count digests are kept for the cross-run repeat check
/// (every run, traced or not, executes at least this many).
inline constexpr int kMinIters = 3;

/// Compares the per-iteration count digests of the first kMinIters
/// iterations with those stored for (build, workload, seed) by an earlier
/// run in `opts.out_dir`, storing them when absent. False on mismatch.
bool repeat_check(const Options& opts, const std::vector<std::uint64_t>& digests);

/// A fresh, empty scratch directory under opts.out_dir for this process.
std::string scratch_dir(const Options& opts, const std::string& tag);
void remove_dir(const std::string& dir);

}  // namespace pqbench
