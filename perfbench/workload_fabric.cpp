// fabric_incast: cross-rack incast on a k=4 fat tree (20 switches) through
// net::NetworkEngine::run, then NetworkAnalysis::pick_victim + attribute.
// The only workload that runs src/net; most of its per-switch systems are
// nearly idle, so per-switch fixed costs, the transport epoch loop and the
// second (telemetry) queueing pass show.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "control/metrics_export.h"
#include "net/network_analysis.h"
#include "net/network_engine.h"
#include "net/topology.h"
#include "traffic/net_scenarios.h"
#include "workloads.h"

namespace pqbench {
namespace {

using namespace pq;

constexpr unsigned kWorkers = 2;
constexpr std::uint32_t kBatch = 64;
/// Attribution passes over the scenario's flows per iteration (the finished
/// run is read-only, so repeating them samples their latency).
constexpr int kAttributions = 3;
constexpr std::size_t kTopK = 8;

struct Scenario {
  net::NetworkConfig cfg;
  traffic::NetScenario sc;
};

Scenario make_scenario(std::uint64_t seed) {
  Scenario s;
  net::FatTreeParams ft;
  ft.k = 4;
  s.cfg.topology = net::make_fat_tree(ft);
  traffic::CrossRackIncastConfig ic;
  ic.receiver_host = 0;
  ic.senders = 12;
  ic.sender_gbps = 1.0;  // 12 x 1 Gb/s oversubscribes the 10G downlink 1.2x
  ic.duration_ns = 100'000'000;
  ic.seed = mix_seed(seed, 0);
  s.sc = traffic::cross_rack_incast(s.cfg.topology, ic);
  auto& pipe = s.cfg.node.pipeline;
  pipe.windows.m0 = 10;
  pipe.windows.alpha = 1;
  pipe.windows.k = 9;
  pipe.windows.num_windows = 4;
  pipe.monitor.max_depth_cells = 25000;
  pipe.monitor.granularity_cells = 8;
  return s;
}

std::uint64_t digest_injections(const std::vector<net::Injection>& inj) {
  Digest d;
  for (const auto& i : inj) {
    d.add(i.host);
    for (const auto& p : i.packets) {
      d.add(flow_signature(p.flow));
      d.add(p.arrival_ns);
      d.add(p.size_bytes);
    }
  }
  return d.h;
}

sim::ShardedEngine::RunOptions run_options(const net::NetworkConfig& cfg,
                                           unsigned workers) {
  sim::ShardedEngine::RunOptions o;
  o.threads = workers;
  o.batch = kBatch;
  o.epoch_ns = cfg.node.epoch_ns;
  return o;
}

struct FabricRun {
  std::unique_ptr<net::NetworkEngine> net;
  double construct_s = 0.0;
  double run_ns = 0.0;
  double cpu_ns = 0.0;
};

FabricRun run_fabric(const Scenario& s, unsigned workers, Tracer& tr) {
  FabricRun r;
  const auto c0 = Clock::now();
  r.net = std::make_unique<net::NetworkEngine>(s.cfg);
  r.construct_s = ms_since(c0) / 1e3;
  auto injections = s.sc.injections;  // run() consumes its input
  cold_heap();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    const Tracer::Scope span(tr, workers == 1 ? "e2e_1w.NetworkEngine::run"
                                              : "e2e.NetworkEngine::run");
    r.net->run(std::move(injections), run_options(s.cfg, workers));
  }
  r.run_ns = ns_between(t0, Clock::now());
  r.cpu_ns = (cpu_seconds() - cpu0) * 1e9;
  return r;
}

std::string node_view(const control::ShardedSystem& sys) {
  return control::collect_system_metrics(sys).to_json(
      obs::IncludeTimings::kNo);
}

std::uint64_t run_digest(const net::NetworkEngine& net) {
  Digest d;
  const auto& st = net.stats();
  d.add(st.injected);
  d.add(st.delivered);
  d.add(st.dropped);
  d.add(st.total_hops);
  d.add(st.transport_epochs);
  for (std::uint32_t sw = 0; sw < net.num_nodes(); ++sw) {
    d.add(node_view(net.node(sw)));
  }
  return d.h;
}

struct Diagnosis {
  double pick_ms = 0.0;
  double attribute_ms = 0.0;
  bool correct_hop = false;
  double precision = 0.0;
};

Diagnosis diagnose(net::NetworkEngine& engine, const traffic::NetScenario& sc,
                   Tracer& tr) {
  Diagnosis d;
  const net::NetworkAnalysis analysis(engine);
  const auto t0 = Clock::now();
  FlowId victim;
  {
    const Tracer::Scope span(tr, "net.pick_victim");
    victim = analysis.pick_victim();
  }
  const auto t1 = Clock::now();
  net::AttributionReport rep;
  {
    const Tracer::Scope span(tr, "net.attribute");
    rep = analysis.attribute(victim, kTopK);
  }
  const auto t2 = Clock::now();
  d.pick_ms = ns_between(t0, t1) / 1e6;
  d.attribute_ms = ns_between(t1, t2) / 1e6;
  d.correct_hop = rep.culprit_switch == sc.expected_culprit_switch &&
                  rep.culprit_port == sc.expected_culprit_port;
  d.precision = rep.direct_accuracy.precision;
  return d;
}

void count_diagnosis(const Diagnosis& d, Result& res) {
  ++res.attempted;
  if (!d.correct_hop || d.precision < 0.8) ++res.failed;
}

Scenario generate(const Options& opts, int iter, Tracer& tr, double& gen_s) {
  const Tracer::Scope span(tr, "traffic.generate");
  const auto t0 = Clock::now();
  Scenario s = make_scenario(iteration_seed(opts.seed, iter));
  gen_s = ms_since(t0) / 1e3;
  return s;
}

std::uint64_t iteration_digest(const Scenario& s,
                               const net::NetworkEngine& net) {
  Digest d;
  d.add(digest_injections(s.sc.injections));
  d.add(run_digest(net));
  return d.h;
}

void run_untraced(const Options& opts, Tracer& tr, Result& res) {
  std::vector<double> setup_s, e2e_ns, cpu_ns, rss_mb;
  QueryLatency latency;
  std::vector<std::uint64_t> digests;
  std::uint64_t hops_total = 0;
  bool all_correct = true;
  const auto iteration = [&](int iter) {
    double gen_s = 0.0;
    const Scenario s = generate(opts, iter, tr, gen_s);
    reset_peak_rss();
    FabricRun r = run_fabric(s, kWorkers, tr);
    const auto hops = static_cast<double>(r.net->stats().total_hops);
    hops_total += r.net->stats().total_hops;
    setup_s.push_back(gen_s + r.construct_s);
    e2e_ns.push_back(r.run_ns / hops);
    cpu_ns.push_back(r.cpu_ns / hops);
    if (iter < kMinIters) digests.push_back(iteration_digest(s, *r.net));
    // The diagnosis proper (checked), then attribution as a service answers
    // it: every flow of the scenario, victim and aggressors, kAttributions
    // times each.
    const Diagnosis d = diagnose(*r.net, s.sc, tr);
    count_diagnosis(d, res);
    all_correct = all_correct && d.correct_hop && d.precision >= 0.8;
    const net::NetworkAnalysis analysis(*r.net);
    std::vector<FlowId> flows = s.sc.culprit_flows;
    flows.push_back(s.sc.victim);
    std::vector<double> lat;
    for (int rep = 0; rep < kAttributions; ++rep) {
      for (const auto& flow : flows) {
        const auto t0 = Clock::now();
        const auto report = analysis.attribute(flow, kTopK);
        lat.push_back(ns_between(t0, Clock::now()) / 1e3);
        ++res.attempted;
        res.check(!report.hops.empty(), "attribution found no hops");
      }
    }
    latency.add_iteration(lat);
    rss_mb.push_back(peak_rss_mb());
  };

  res.check(digest_injections(
                make_scenario(iteration_seed(opts.seed, 0)).sc.injections) ==
                digest_injections(
                    make_scenario(iteration_seed(opts.seed, 0)).sc.injections),
            "input generation is not repeatable");
  const auto loop0 = Clock::now();
  for (int iter = 0;
       iter < kMinIters || ms_since(loop0) < opts.seconds * 1e3; ++iter) {
    iteration(iter);
  }
  res.check(all_correct,
            "attribution named the wrong hop or precision fell below 0.8");
  res.check(repeat_check(opts, digests),
            "counts differ from an earlier run of the same seed");
  res.set("setup_s", median(setup_s));
  res.set("e2e_ns_per_pkt", median(e2e_ns));
  res.set("cpu_ns_per_pkt", median(cpu_ns));
  res.set("peak_rss_mb", median(rss_mb));
  latency.report(res);
  std::printf("fabric_incast: %zu iterations, %.0f packet-hops each on "
              "average, %zu attributions\n",
              e2e_ns.size(),
              static_cast<double>(hops_total) /
                  static_cast<double>(e2e_ns.size()),
              latency.queries);
}

void run_traced(const Options& opts, Tracer& tr, Result& res) {
  // Per repetition (each on its iteration's inputs), per packet-hop.
  std::vector<double> gen_ms, e1, e2, e2_plain, telemetry, pick_ms,
      attribute_ms, hops_per_pkt, idle_frac, epochs, drops;
  std::vector<std::uint64_t> digests;
  Tracer plain(false);
  bool views_match = true;
  const auto loop0 = Clock::now();
  for (int rep = 0; rep < kMinIters || ms_since(loop0) < opts.seconds * 1e3;
       ++rep) {
    double gen_s = 0.0;
    const Scenario s = generate(opts, rep, tr, gen_s);
    gen_ms.push_back(gen_s * 1e3);
    FabricRun r1 = run_fabric(s, 1, tr);
    const auto& st = r1.net->stats();
    const auto hops = static_cast<double>(st.total_hops);
    e1.push_back(r1.run_ns / hops);
    // Pass 2 alone: every switch's induced trace through a standalone
    // ShardedSystem configured as the engine configures its nodes.
    double sum = 0.0;
    std::size_t busiest = 0, idle = 0;
    for (std::uint32_t sw = 0; sw < r1.net->num_nodes(); ++sw) {
      busiest = std::max(busiest, r1.net->induced_trace(sw).size());
    }
    for (std::uint32_t sw = 0; sw < r1.net->num_nodes(); ++sw) {
      if (r1.net->induced_trace(sw).size() * 100 < busiest) ++idle;
      control::ShardedSystem::Config node;
      node.ports = s.cfg.topology.switches[sw].ports;
      for (auto& p : node.ports) {
        p.collect_depth_series = s.cfg.node.collect_depth_series;
      }
      node.pipeline = s.cfg.node.pipeline;
      node.analysis = s.cfg.node.analysis;
      node.epoch_ns = s.cfg.node.epoch_ns;
      control::ShardedSystem sys(node);
      std::vector<Packet> in = r1.net->induced_trace(sw);
      cold_heap();
      const auto t0 = Clock::now();
      {
        const Tracer::Scope span(tr, "net.telemetry.ShardedSystem::run");
        sys.run(std::move(in), run_options(s.cfg, 1));
      }
      sum += ns_between(t0, Clock::now());
      views_match =
          views_match && node_view(sys) == node_view(r1.net->node(sw));
    }
    telemetry.push_back(sum / hops);
    hops_per_pkt.push_back(hops / static_cast<double>(st.injected));
    idle_frac.push_back(static_cast<double>(idle) /
                        static_cast<double>(r1.net->num_nodes()));
    epochs.push_back(static_cast<double>(st.transport_epochs));
    drops.push_back(static_cast<double>(st.dropped));
    e2_plain.push_back(run_fabric(s, kWorkers, plain).run_ns / hops);
    FabricRun r2 = run_fabric(s, kWorkers, tr);
    e2.push_back(r2.run_ns / hops);
    if (rep < kMinIters) digests.push_back(iteration_digest(s, *r2.net));
    const Diagnosis d = diagnose(*r2.net, s.sc, tr);
    count_diagnosis(d, res);
    pick_ms.push_back(d.pick_ms);
    attribute_ms.push_back(d.attribute_ms);
    if (rep == 0) {
      res.set("net.precision", d.precision);
      res.set("net.correct_hop", d.correct_hop ? 1.0 : 0.0);
    }
  }
  res.check(views_match,
            "standalone per-switch replay's deterministic metrics view "
            "differs from the network run's");
  res.check(res.failed == 0,
            "attribution named the wrong hop or precision fell below 0.8");
  res.check(repeat_check(opts, digests),
            "counts differ from an earlier run of the same seed");

  const double m_e1 = median(e1);
  const double m_telemetry = median(telemetry);
  const double m_transport = m_e1 - m_telemetry;
  res.set("traffic.gen_ms", median(gen_ms));
  res.set("net.telemetry_ns_per_hop", m_telemetry);
  res.set("net.transport_ns_per_hop", m_transport);
  res.set("net.transport_epochs", median(epochs));
  res.set("net.hops_per_pkt", median(hops_per_pkt));
  res.set("net.idle_switch_frac", median(idle_frac));
  res.set("net.pick_victim_ms", median(pick_ms));
  res.set("net.attribute_ms", median(attribute_ms));
  res.set("sim.drops", median(drops));
  res.set("sim.scaling_x", m_e1 / median(e2));
  res.set("ledger.e2e_1w_ns_per_pkt", m_e1);
  // Pass 1 has no public entry point of its own, so transport is the
  // residual and this ledger closes by construction.
  const std::vector<LedgerLine> lines = {
      {"net.transport (residual)", m_transport,
       "e2e_ns_per_pkt@fabric_incast"},
      {"net.telemetry", m_telemetry, "e2e_ns_per_pkt@fabric_incast"},
  };
  res.set("ledger.unattributed_frac", 0.0);
  const double overhead = (median(e2) - median(e2_plain)) / median(e2_plain);
  res.set("trace.overhead_frac", overhead);
  print_ledger("fabric_incast", "packet-hop", "the 1-thread NetworkEngine::run", lines, m_e1, 0.0, overhead);
  res.trace_json = ledger_json(lines, m_e1, 0.0);
}

}  // namespace

void run_fabric_incast(const Options& opts, Tracer& tracer, Result& result) {
  if (opts.trace) {
    run_traced(opts, tracer, result);
  } else {
    run_untraced(opts, tracer, result);
  }
}

}  // namespace pqbench
