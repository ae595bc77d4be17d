// pqbench: runs one workload of the repository benchmark (see README.md).
//
//   pqbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//           [--out-dir DIR]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end metrics; with
// --trace 1 they are the per-layer metrics of the staircase run, whose
// spans and ledger are also written to DIR/traces/<workload>-seed<N>.json.
// Exits 1 when a correctness check fails, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

using namespace pqbench;

void usage() {
  std::fprintf(stderr,
               "usage: pqbench --workload switch_uw|switch_ws_archive|"
               "fabric_incast|serve_feed [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR]\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
    } else if (a == "--trace") {
      o.trace = std::atoi(v) != 0;
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

void print_result(const Options& o, const Result& r) {
  const auto& defs = o.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const auto& d : defs) {
    const auto it = r.values.find(d.name);
    const double v = it == r.values.end() || !std::isfinite(it->second)
                         ? 0.0
                         : it->second;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, v, d.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, r.attempted)),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse(argc, argv, opts)) {
    usage();
    return 2;
  }
  void (*run)(const Options&, Tracer&, Result&) = nullptr;
  if (opts.workload == "switch_uw") {
    run = run_switch_uw;
  } else if (opts.workload == "switch_ws_archive") {
    run = run_switch_ws_archive;
  } else if (opts.workload == "fabric_incast") {
    run = run_fabric_incast;
  } else if (opts.workload == "serve_feed") {
    run = run_serve_feed;
  } else {
    usage();
    return 2;
  }

  const std::string host = host_facts_json();
  std::printf("pqbench %s seed %llu trace %d host %s\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
              host.c_str());
  Tracer tracer(opts.trace);
  Result result;
  try {
    run(opts, tracer, result);
  } catch (const std::exception& e) {
    result.errors.push_back(std::string("exception: ") + e.what());
  }
  for (const auto& e : result.errors) {
    std::fprintf(stderr, "FAIL: %s: %s\n", opts.workload.c_str(), e.c_str());
  }
  if (opts.trace) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(opts.out_dir) / "traces";
    fs::create_directories(dir);
    const std::string path = (dir / (opts.workload + "-seed" +
                                     std::to_string(opts.seed) + ".json"))
                                 .string();
    std::string extra = "\"host\": " + host;
    if (!result.trace_json.empty()) extra += ",\n  " + result.trace_json;
    tracer.write_json(path, extra);
    std::printf("trace written to %s\n", path.c_str());
  }
  std::fflush(stderr);
  print_result(opts, result);
  return result.correct() ? 0 : 1;
}
