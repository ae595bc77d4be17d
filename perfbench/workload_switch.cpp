// switch_uw and switch_ws_archive: one switch, four egress ports, driven
// through control::ShardedSystem::run.
//
// switch_uw carries the paper's UW-like ~100 B packets with DQ triggers off
// and no archive, so per-packet cost in sim/core and the epoch handoff
// dominate. switch_ws_archive carries web-search MTU traffic into deep
// queues with a depth trigger, a 200 us poll period and a v2 archive, so DQ
// captures, polls and archive writes and reads dominate.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "control/metrics_export.h"
#include "control/sharded_analysis.h"
#include "store/archive.h"
#include "store/archive_reader.h"
#include "traffic/distributions.h"
#include "traffic/trace_gen.h"
#include "workloads.h"

namespace pqbench {
namespace {

using namespace pq;

constexpr std::uint32_t kPorts = 4;
constexpr unsigned kWorkers = 2;
constexpr std::uint32_t kBatch = 256;

struct SwitchWorkload {
  const char* name;
  bool ws_archive;
  Duration duration_ns;       ///< simulated time per port
  std::size_t queries;        ///< per iteration
};

constexpr SwitchWorkload kUW{"switch_uw", false, 30'000'000, 2000};
constexpr SwitchWorkload kWS{"switch_ws_archive", true, 40'000'000, 120};

std::vector<Packet> make_packets(const SwitchWorkload& w, std::uint64_t seed) {
  std::vector<std::vector<Packet>> parts;
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    std::vector<Packet> pkts;
    if (w.ws_archive) {
      traffic::FlowTraceConfig c;
      c.flow_sizes = &traffic::web_search_flow_sizes();
      c.duration_ns = w.duration_ns;
      c.seed = mix_seed(seed, p);
      c.flow_id_base = p * 1'000'000;
      pkts = traffic::generate_flow_trace(c);
    } else {
      traffic::PacketTraceConfig c;
      c.duration_ns = w.duration_ns;
      c.seed = mix_seed(seed, p);
      c.flow_id_base = p * 1'000'000;
      pkts = traffic::generate_uw_trace(c);
    }
    for (auto& pk : pkts) pk.egress_hint = p;
    parts.push_back(std::move(pkts));
  }
  return traffic::merge_traces(std::move(parts));
}

std::uint64_t digest_packets(const std::vector<Packet>& pkts) {
  Digest d;
  for (const auto& p : pkts) {
    d.add(flow_signature(p.flow));
    d.add(p.arrival_ns);
    d.add(p.size_bytes);
  }
  return d.h;
}

control::ShardedSystem::Config make_config(const SwitchWorkload& w) {
  control::ShardedSystem::Config cfg;
  cfg.ports.resize(kPorts);
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    cfg.ports[p].port_id = p;
    cfg.ports[p].collect_depth_series = false;
  }
  auto& win = cfg.pipeline.windows;
  cfg.pipeline.monitor.max_depth_cells = 25000;
  if (w.ws_archive) {
    win.m0 = 10;
    win.alpha = 2;
    win.k = 10;
    win.num_windows = 4;
    // A coarse monitor ladder keeps each 200 us checkpoint small enough
    // that the archive stream is dominated by window checkpoints.
    cfg.pipeline.monitor.granularity_cells = 128;
    cfg.pipeline.dq_depth_threshold_cells = 400;
    cfg.analysis.poll_period_ns = 200'000;
  } else {
    const auto pp = traffic::paper_params(traffic::TraceKind::kUW);
    win.m0 = pp.m0;
    win.alpha = pp.alpha;
    win.k = pp.k;
    win.num_windows = pp.num_windows;
    cfg.pipeline.monitor.granularity_cells = 8;
  }
  return cfg;
}

/// One system run: construction (set-up) and the timed main phase, which is
/// ShardedSystem::run plus, with an archive, Archive::close.
struct SystemRun {
  std::unique_ptr<control::ShardedSystem> sys;
  std::unique_ptr<store::Archive> archive;
  double construct_s = 0.0;
  double run_ns = 0.0;
  double cpu_ns = 0.0;
  double close_ns = 0.0;
};

SystemRun run_system(const SwitchWorkload& w,
                     const control::ShardedSystem::Config& cfg,
                     const std::vector<Packet>& packets, unsigned workers,
                     const std::string& archive_dir, Tracer& tr) {
  SystemRun r;
  const auto c0 = Clock::now();
  r.sys = std::make_unique<control::ShardedSystem>(cfg);
  if (w.ws_archive) {
    remove_dir(archive_dir);
    store::ArchiveOptions ao;
    ao.dir = archive_dir;
    r.archive = std::make_unique<store::Archive>(ao);
    r.archive->attach(r.sys->pipeline(), r.sys->analysis());
  }
  r.construct_s = ms_since(c0) / 1e3;
  std::vector<Packet> input = packets;  // run() consumes its input
  const auto opts = r.sys->default_run_options(workers, kBatch);
  cold_heap();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    const Tracer::Scope span(tr, workers == 1 ? "e2e_1w.ShardedSystem::run"
                                              : "e2e.ShardedSystem::run");
    r.sys->run(std::move(input), opts);
  }
  if (r.archive) {
    const Tracer::Scope span(tr, "Archive::close");
    const auto tc = Clock::now();
    r.archive->close();
    r.close_ns = ns_between(tc, Clock::now());
  }
  r.run_ns = ns_between(t0, Clock::now());
  r.cpu_ns = (cpu_seconds() - cpu0) * 1e9;
  return r;
}

/// Counts that must repeat exactly for one seed: packets, drops, records,
/// captures, polls, archive blocks, and the deterministic metrics view.
std::uint64_t run_digest(const SystemRun& r) {
  Digest d;
  for (std::uint32_t p = 0; p < r.sys->engine().num_ports(); ++p) {
    const auto& port = r.sys->engine().port(p);
    d.add(port.stats().dequeued);
    d.add(port.stats().dropped);
    d.add(port.records().size());
  }
  d.add(r.sys->pipeline().dq_triggers_fired());
  d.add(r.sys->analysis().polls_performed());
  if (r.archive) {
    d.add(r.archive->stats().blocks_appended);
    d.add(r.archive->stats().bytes_appended);
  }
  d.add(control::collect_system_metrics(*r.sys).to_json(
      obs::IncludeTimings::kNo));
  return d.h;
}

std::string replay_view(const core::ShardedPipeline& pipeline,
                        const control::ShardedAnalysis& analysis) {
  return control::collect_replay_metrics(pipeline, analysis)
      .to_json(obs::IncludeTimings::kNo);
}

/// Live time-window + queue-monitor pairs spread across the span and ports;
/// returns how many pairs came back with no flow at all.
std::size_t live_queries(const control::ShardedSystem& sys, Timestamp span,
                  std::size_t n, std::vector<double>& pair_us,
                  std::vector<double>& windows_us,
                  std::vector<double>& monitor_us) {
  std::size_t empty_answers = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::uint32_t>(i % kPorts);
    const Timestamp lo =
        span / 8 + static_cast<Timestamp>((span * 3 / 4) * i / n);
    const auto t0 = Clock::now();
    const auto counts = sys.analysis().query_time_windows(s, lo, lo + span / 8);
    const auto t1 = Clock::now();
    const auto culprits = sys.analysis().query_queue_monitor(s, lo + span / 16);
    const auto t2 = Clock::now();
    pair_us.push_back(ns_between(t0, t2) / 1e3);
    windows_us.push_back(ns_between(t0, t1) / 1e3);
    monitor_us.push_back(ns_between(t1, t2) / 1e3);
    if (counts.empty() && culprits.empty()) ++empty_answers;
  }
  return empty_answers;
}

struct AsOfStats {
  std::vector<double> indexed_us;
  std::vector<double> scan_us;
  std::uint64_t mismatches = 0;
};

/// --as-of time-window queries at horizons spread across the span; every
/// `scan_every`-th answer (or none, with 0) is compared with a full-scan
/// reader's, and timed there.
void asof_queries(const store::ArchiveReader& indexed,
                  const store::ArchiveReader* scan, Timestamp span,
                  std::size_t n, std::size_t scan_every, AsOfStats& st) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto port = static_cast<std::uint32_t>(i % kPorts);
    const Timestamp as_of =
        span / 8 + static_cast<Timestamp>((span * 7 / 8) * i / n);
    const Timestamp lo = as_of - span / 8;
    const auto t0 = Clock::now();
    const auto counts = indexed.query_time_windows(port, lo, as_of, 0, as_of);
    st.indexed_us.push_back(ns_between(t0, Clock::now()) / 1e3);
    if (scan != nullptr && scan_every > 0 && i % scan_every == 0) {
      const auto t1 = Clock::now();
      const auto full = scan->query_time_windows(port, lo, as_of, 0, as_of);
      st.scan_us.push_back(ns_between(t1, Clock::now()) / 1e3);
      if (!same_counts(counts, full)) ++st.mismatches;
    }
  }
}

/// Live and archived answers must agree at the final horizon.
bool live_matches_archive(const control::ShardedSystem& sys,
                          const store::ArchiveReader& reader, Timestamp span) {
  for (std::uint32_t s = 0; s < kPorts; ++s) {
    const Timestamp lo = span - span / 8;
    if (!same_counts(sys.analysis().query_time_windows(s, lo, span),
                     reader.query_time_windows(s, lo, span))) {
      return false;
    }
    const auto live = sys.analysis().query_queue_monitor(s, span - span / 16);
    const auto arch = reader.query_queue_monitor(s, span - span / 16);
    if (live.size() != arch.size()) return false;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (!(live[i].flow == arch[i].flow) || live[i].seq != arch[i].seq) {
        return false;
      }
    }
  }
  return true;
}

/// Generates iteration `iter`'s inputs, timing the generation.
std::vector<Packet> generate(const SwitchWorkload& w, const Options& opts,
                             int iter, Tracer& tr, double& gen_s) {
  const Tracer::Scope span(tr, "traffic.generate");
  const auto t0 = Clock::now();
  auto packets = make_packets(w, iteration_seed(opts.seed, iter));
  gen_s = ms_since(t0) / 1e3;
  return packets;
}

/// The cross-run repeat digest of one iteration: its inputs and counts.
std::uint64_t iteration_digest(const std::vector<Packet>& packets,
                               const SystemRun& r) {
  Digest d;
  d.add(digest_packets(packets));
  d.add(run_digest(r));
  return d.h;
}

void run_untraced(const SwitchWorkload& w, const Options& opts, Tracer& tr,
                  Result& res) {
  const auto cfg = make_config(w);
  const Timestamp span = w.duration_ns;
  const std::string dir = w.ws_archive ? scratch_dir(opts, w.name) : "";
  const std::string archive_dir = dir + "/archive";

  std::vector<double> setup_s, e2e_ns, cpu_ns, rss_mb, unused_a, unused_b;
  // The --as-of queries sweep the horizon, so an iteration's top percent is
  // its last query or two: pool them over the run.
  QueryLatency latency(/*pooled=*/w.ws_archive);
  std::vector<std::uint64_t> digests;
  std::size_t packets_total = 0;
  const auto iteration = [&](int iter) {
    double gen_s = 0.0;
    const auto packets = generate(w, opts, iter, tr, gen_s);
    const auto n = static_cast<double>(packets.size());
    reset_peak_rss();
    SystemRun r = run_system(w, cfg, packets, kWorkers, archive_dir, tr);
    packets_total += packets.size();
    setup_s.push_back(gen_s + r.construct_s);
    e2e_ns.push_back(r.run_ns / n);
    cpu_ns.push_back(r.cpu_ns / n);
    if (iter < kMinIters) digests.push_back(iteration_digest(packets, r));
    std::vector<double> lat;
    if (!w.ws_archive) {
      res.check(live_queries(*r.sys, span, w.queries, lat, unused_a,
                             unused_b) < w.queries,
                "every live query came back empty");
      res.attempted += w.queries;
    } else {
      const store::ArchiveReader reader(archive_dir);
      store::ReaderOptions so;
      so.use_seek_index = false;
      const store::ArchiveReader scan(archive_dir, so);
      AsOfStats st;
      asof_queries(reader, &scan, span, w.queries, 40, st);
      lat.insert(lat.end(), st.indexed_us.begin(), st.indexed_us.end());
      res.attempted += w.queries;
      res.failed += st.mismatches;
      res.check(st.mismatches == 0,
                "indexed --as-of answers differ from full-scan answers");
      res.check(reader.seek_stats().seeks > 0,
                "--as-of queries never used the seek index");
      res.check(live_matches_archive(*r.sys, reader, span),
                "live and archived answers differ at the final horizon");
    }
    latency.add_iteration(lat);
    rss_mb.push_back(peak_rss_mb());
    r = SystemRun{};
    remove_dir(archive_dir);
  };

  res.check(digest_packets(make_packets(w, iteration_seed(opts.seed, 0))) ==
                digest_packets(make_packets(w, iteration_seed(opts.seed, 0))),
            "input generation is not repeatable");
  const auto loop0 = Clock::now();
  for (int iter = 0;
       iter < kMinIters || ms_since(loop0) < opts.seconds * 1e3; ++iter) {
    iteration(iter);
  }
  remove_dir(dir);
  res.check(repeat_check(opts, digests),
            "counts differ from an earlier run of the same seed");

  res.set("setup_s", median(setup_s));
  res.set("e2e_ns_per_pkt", median(e2e_ns));
  res.set("cpu_ns_per_pkt", median(cpu_ns));
  res.set("peak_rss_mb", median(rss_mb));
  latency.report(res);
  std::printf("%s: %zu iterations, %.0f packets each on average, %zu "
              "queries\n",
              w.name, e2e_ns.size(),
              static_cast<double>(packets_total) /
                  static_cast<double>(e2e_ns.size()),
              latency.queries);
}

// --- The traced staircase ---------------------------------------------------

/// Records a bare port's egress contexts: the exact input its hooks see.
class ContextRecorder final : public sim::EgressHook {
 public:
  void on_egress(const sim::EgressContext& ctx) override { ctx_.push_back(ctx); }
  std::vector<sim::EgressContext>& contexts() { return ctx_; }

 private:
  std::vector<sim::EgressContext> ctx_;
};

using Chunks = std::vector<std::vector<sim::PacketBatch>>;

/// Each port's egress stream as batch-sized PacketBatch chunks (the batched
/// hook path's native input), staged outside any timed stair.
Chunks stage_chunks(const control::ShardedSystem::Config& cfg,
                    const std::vector<std::vector<Packet>>& shards,
                    Timestamp& end) {
  Chunks chunks(shards.size());
  end = 0;
  for (std::size_t p = 0; p < shards.size(); ++p) {
    sim::EgressPort port(cfg.ports[p]);
    ContextRecorder rec;
    port.add_hook(&rec);
    port.run(shards[p]);
    end = std::max(end, port.stats().last_departure);
    sim::PacketBatch pb;
    pb.reserve(kBatch);
    for (const auto& ctx : rec.contexts()) {
      pb.push(ctx);
      if (pb.size() >= kBatch) {
        chunks[p].push_back(pb);
        pb.clear();
      }
    }
    if (!pb.empty()) chunks[p].push_back(pb);
  }
  return chunks;
}

/// Feeds the staged chunks into a fresh pipeline; `with_analysis` attaches
/// the control plane (polls, captures, final checkpoint) and `archive_dir`
/// a store archive. Returns the timed feed in ns; close_ns gets the
/// archive close and `view` the deterministic replay view.
double feed_pipeline(const control::ShardedSystem::Config& cfg,
                     const Chunks& chunks, Timestamp end, bool with_analysis,
                     const std::string& archive_dir, Tracer& tr,
                     const std::string& stair, double& close_ns,
                     std::string* view) {
  core::ShardedPipeline pipeline(cfg.pipeline);
  for (std::uint32_t p = 0; p < chunks.size(); ++p) pipeline.enable_port(p);
  std::unique_ptr<control::ShardedAnalysis> analysis;
  std::unique_ptr<store::Archive> archive;
  if (with_analysis) {
    analysis = std::make_unique<control::ShardedAnalysis>(pipeline,
                                                          cfg.analysis);
  }
  if (!archive_dir.empty()) {
    remove_dir(archive_dir);
    store::ArchiveOptions ao;
    ao.dir = archive_dir;
    archive = std::make_unique<store::Archive>(ao);
    archive->attach(pipeline, *analysis);
  }
  cold_heap();
  const auto t0 = Clock::now();
  {
    const Tracer::Scope span(tr, stair);
    for (std::uint32_t s = 0; s < pipeline.num_shards(); ++s) {
      auto& shard = pipeline.shard(s);
      for (const auto& pb : chunks[s]) shard.on_egress_batch(pb);
    }
    if (analysis) analysis->finalize(end + 1);
  }
  const double feed_ns = ns_between(t0, Clock::now());
  if (archive) {
    const Tracer::Scope span(tr, "store.Archive::close");
    const auto tc = Clock::now();
    archive->close();
    close_ns = ns_between(tc, Clock::now());
  }
  if (view != nullptr && analysis) *view = replay_view(pipeline, *analysis);
  return feed_ns;
}

void run_traced(const SwitchWorkload& w, const Options& opts, Tracer& tr,
                Result& res) {
  const auto cfg = make_config(w);
  const Timestamp span = w.duration_ns;
  const std::string dir = scratch_dir(opts, w.name);
  const std::string archive_dir = w.ws_archive ? dir + "/archive" : "";
  // Forwarding as ShardedSystem configures it (egress hint), for the bare
  // partition stair.
  const control::ShardedSystem probe(cfg);
  const auto fwd = probe.engine().forwarding();
  const Duration epoch_ns = probe.default_run_options(1, kBatch).epoch_ns;

  // Per repetition (each on its iteration's inputs), in ns per packet.
  std::vector<double> gen_ms, partition, queue, engine, core_pp, control_pp,
      store_pp, close_pp, close_ms, e1, e2, e2_plain;
  std::vector<std::uint64_t> digests;
  bool views_match = true;
  Tracer plain(false);
  const auto loop0 = Clock::now();
  for (int rep = 0; rep < kMinIters || ms_since(loop0) < opts.seconds * 1e3;
       ++rep) {
    double gen_s = 0.0;
    const auto packets = generate(w, opts, rep, tr, gen_s);
    gen_ms.push_back(gen_s * 1e3);
    const auto n = static_cast<double>(packets.size());
    const auto shards = sim::ShardedEngine::partition(packets, fwd, kPorts);
    Timestamp end = 0;
    const Chunks chunks = stage_chunks(cfg, shards, end);
    cold_heap();
    {
      const auto t0 = Clock::now();
      const Tracer::Scope span_(tr, "sim.ShardedEngine::partition");
      const auto parts = sim::ShardedEngine::partition(packets, fwd, kPorts);
      partition.push_back(ns_between(t0, Clock::now()) / n);
    }
    {
      double sum = 0.0;
      for (std::uint32_t p = 0; p < kPorts; ++p) {
        sim::EgressPort port(cfg.ports[p]);
        std::vector<Packet> in = shards[p];
        cold_heap();
        const auto t0 = Clock::now();
        const Tracer::Scope span_(tr, "sim.EgressPort::run");
        port.run(std::move(in));
        sum += ns_between(t0, Clock::now());
      }
      queue.push_back(sum / n);
    }
    {
      sim::ShardedEngine eng(cfg.ports);
      sim::ShardedEngine::RunOptions eo;
      eo.threads = 1;
      eo.batch = kBatch;
      eo.epoch_ns = epoch_ns;
      std::vector<Packet> in = packets;
      cold_heap();
      const auto t0 = Clock::now();
      const Tracer::Scope span_(tr, "sim.ShardedEngine::run");
      eng.run(std::move(in), eo);
      engine.push_back(ns_between(t0, Clock::now()) / n);
    }
    double close_ns = 0.0;
    std::string stair_view, store_view;
    const double core_ns = feed_pipeline(cfg, chunks, end, false, "", tr,
                                         "core.PortPipeline::on_egress_batch",
                                         close_ns, nullptr);
    const double control_ns = feed_pipeline(cfg, chunks, end, true, "", tr,
                                            "control.feed+ShardedAnalysis",
                                            close_ns, &stair_view);
    core_pp.push_back(core_ns / n);
    control_pp.push_back((control_ns - core_ns) / n);
    if (w.ws_archive) {
      const double store_ns =
          feed_pipeline(cfg, chunks, end, true, archive_dir, tr,
                        "store.feed+Archive", close_ns, &store_view);
      store_pp.push_back((store_ns - control_ns) / n);
      close_pp.push_back(close_ns / n);
      close_ms.push_back(close_ns / 1e6);
      views_match = views_match && store_view == stair_view;
    }
    {
      SystemRun r = run_system(w, cfg, packets, 1, archive_dir, tr);
      e1.push_back(r.run_ns / n);
      views_match = views_match &&
                    replay_view(r.sys->pipeline(), r.sys->analysis()) ==
                        stair_view;
    }
    e2_plain.push_back(
        run_system(w, cfg, packets, kWorkers, archive_dir, plain).run_ns / n);
    {
      SystemRun r = run_system(w, cfg, packets, kWorkers, archive_dir, tr);
      e2.push_back(r.run_ns / n);
      views_match = views_match &&
                    replay_view(r.sys->pipeline(), r.sys->analysis()) ==
                        stair_view;
      if (rep < kMinIters) digests.push_back(iteration_digest(packets, r));
    }
  }
  res.check(views_match,
            "staircase replay's deterministic metrics view differs from the "
            "end-to-end run's");
  res.check(repeat_check(opts, digests),
            "counts differ from an earlier run of the same seed");

  // Counts, ratios and the query-side layers, from iteration 0's inputs.
  double gen_s = 0.0;
  const auto packets = generate(w, opts, 0, tr, gen_s);
  const auto n = static_cast<double>(packets.size());
  SystemRun r = run_system(w, cfg, packets, kWorkers, archive_dir, tr);
  const auto& sys = *r.sys;
  std::uint64_t drops = 0;
  std::uint32_t peak_depth = 0;
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    drops += sys.engine().port(p).stats().dropped;
    peak_depth =
        std::max(peak_depth, sys.engine().port(p).stats().peak_depth_cells);
  }
  std::uint64_t stored = 0, capture_bytes = 0;
  for (std::uint32_t s = 0; s < sys.pipeline().num_shards(); ++s) {
    for (const auto v :
         sys.pipeline().shard(s).pipeline().windows().stats().stored) {
      stored += v;
    }
    for (const auto& c : sys.analysis().program(s).dq_captures(0)) {
      for (const auto& win : c.windows) {
        capture_bytes += win.size() * sizeof(core::WindowCell);
      }
      capture_bytes += c.monitor.entries.size() * sizeof(core::MonitorEntry);
    }
  }
  const double fired = static_cast<double>(sys.pipeline().dq_triggers_fired());
  const double ignored =
      static_cast<double>(sys.pipeline().dq_triggers_ignored());
  res.set("traffic.gen_ms", median(gen_ms));
  res.set("sim.drops", static_cast<double>(drops));
  res.set("sim.peak_depth_cells", peak_depth);
  res.set("sim.scaling_x", median(e1) / median(e2));
  res.set("core.dq_fire_frac",
          fired + ignored > 0 ? fired / (fired + ignored) : 0.0);
  res.set("core.window_cells_stored_per_pkt", static_cast<double>(stored) / n);
  res.set("control.capture_bytes_per_pkt",
          static_cast<double>(capture_bytes) / n);
  res.set("control.poll_bytes_per_pkt",
          static_cast<double>(sys.analysis().bytes_polled()) / n);
  {
    std::vector<double> pair, win_us, mon_us;
    {
      const Tracer::Scope span_(tr, "control.live_queries");
      live_queries(sys, span, 400, pair, win_us, mon_us);
    }
    res.attempted += 400;
    res.set("control.query_windows_us_p50", median(win_us));
    res.set("control.query_monitor_us_p50", median(mon_us));
  }
  {
    const auto t0 = Clock::now();
    const Tracer::Scope span_(tr, "control.merged_dq_notifications");
    const auto merged = sys.analysis().merged_dq_notifications();
    res.set("control.merge_dq_ms", ms_since(t0));
    res.check(merged.size() == static_cast<std::size_t>(fired),
              "merged DQ notifications do not cover every capture");
  }
  {
    const auto t0 = Clock::now();
    const Tracer::Scope span_(tr, "obs.collect_system_metrics");
    const std::string json = control::collect_system_metrics(sys).to_json();
    res.set("obs.collect_ms", ms_since(t0));
    res.check(!json.empty(), "empty metrics registry");
  }

  const double m_part = median(partition);
  const double m_queue = median(queue);
  const double m_handoff = median(engine) - m_part - m_queue;
  const double m_core = median(core_pp);
  const double m_control = median(control_pp);
  const double m_e1 = median(e1);
  res.set("sim.partition_ns_per_pkt", m_part);
  res.set("sim.queue_ns_per_pkt", m_queue);
  res.set("sim.handoff_ns_per_pkt", m_handoff);
  res.set("core.absorb_ns_per_pkt", m_core);
  res.set("control.analysis_ns_per_pkt", m_control);
  res.set("ledger.e2e_1w_ns_per_pkt", m_e1);
  std::vector<LedgerLine> lines = {
      {"sim.partition", m_part, "e2e_ns_per_pkt@switch_uw"},
      {"sim.queue", m_queue, "e2e_ns_per_pkt@switch_uw"},
      {"sim.handoff", m_handoff,
       "e2e_ns_per_pkt, peak_rss_mb@switch_*, fabric_incast"},
      {"core.absorb", m_core, "e2e_ns_per_pkt@switch_uw"},
      {"control.analysis", m_control,
       "e2e_ns_per_pkt, peak_rss_mb@switch_ws_archive"},
  };
  if (w.ws_archive) {
    res.set("store.append_ns_per_pkt", median(store_pp));
    res.set("store.close_ms", median(close_ms));
    lines.push_back({"store.append", median(store_pp),
                     "e2e_ns_per_pkt@switch_ws_archive"});
    lines.push_back({"store.close", median(close_pp),
                     "e2e_ns_per_pkt@switch_ws_archive"});
    const store::WriterStats wstats = r.archive->stats();
    const double logical = static_cast<double>(wstats.logical_bytes);
    const double physical = static_cast<double>(wstats.bytes_appended);
    const double blocks =
        static_cast<double>(wstats.blocks_delta + wstats.blocks_raw);
    res.set("store.archive_bytes_per_pkt", physical / n);
    res.set("store.compression_x", physical > 0 ? logical / physical : 0.0);
    res.set("store.delta_block_frac",
            blocks > 0 ? static_cast<double>(wstats.blocks_delta) / blocks
                       : 0.0);

    std::vector<double> rec1, recn;
    const unsigned nt =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    for (int i = 0; i < 3; ++i) {
      for (const unsigned threads : {1u, nt}) {
        store::ReaderOptions o;
        o.threads = threads;
        const auto t0 = Clock::now();
        {
          const Tracer::Scope span_(tr, threads == 1
                                            ? "store.ArchiveReader(1 thread)"
                                            : "store.ArchiveReader(n threads)");
          const store::ArchiveReader rd(archive_dir, o);
        }
        (threads == 1 ? rec1 : recn).push_back(ms_since(t0));
      }
    }
    res.set("store.recover_ms_1t", median(rec1));
    res.set("store.recover_ms_nt", median(recn));
    const store::ArchiveReader reader(archive_dir);
    store::ReaderOptions so;
    so.use_seek_index = false;
    const store::ArchiveReader scan(archive_dir, so);
    AsOfStats st;
    constexpr std::size_t kAsOf = 200;
    {
      const Tracer::Scope span_(tr, "store.asof_queries");
      asof_queries(reader, &scan, span, kAsOf, 1, st);
    }
    res.attempted += kAsOf;
    res.failed += st.mismatches;
    const auto& ss = reader.seek_stats();
    std::uint64_t considered = 0;
    for (std::size_t i = 0; i < kAsOf; ++i) {
      considered +=
          reader.recovered().at(static_cast<std::uint32_t>(i % kPorts))
              .blocks.size();
    }
    res.set("store.seek_probes_per_query",
            ss.seeks > 0 ? static_cast<double>(ss.probes) /
                               static_cast<double>(ss.seeks)
                         : 0.0);
    res.set("store.blocks_bypassed_frac",
            considered > 0 ? static_cast<double>(ss.blocks_bypassed) /
                                 static_cast<double>(considered)
                           : 0.0);
    res.set("store.asof_full_scan_us_p50", median(st.scan_us));
    res.check(st.mismatches == 0,
              "indexed --as-of answers differ from full-scan answers");
    res.check(live_matches_archive(sys, reader, span),
              "live and archived answers differ at the final horizon");
  }
  r = SystemRun{};
  remove_dir(dir);

  double sum = 0.0;
  for (const auto& l : lines) sum += l.ns_per_item;
  res.set("ledger.unattributed_frac", (m_e1 - sum) / m_e1);
  const double overhead =
      (median(e2) - median(e2_plain)) / median(e2_plain);
  res.set("trace.overhead_frac", overhead);
  print_ledger(w.name, "packet", "the 1-worker end-to-end run", lines, m_e1, kLedgerSlack, overhead);
  res.trace_json = ledger_json(lines, m_e1, kLedgerSlack);
}

}  // namespace

void run_switch_uw(const Options& opts, Tracer& tracer, Result& result) {
  if (opts.trace) {
    run_traced(kUW, opts, tracer, result);
  } else {
    run_untraced(kUW, opts, tracer, result);
  }
}

void run_switch_ws_archive(const Options& opts, Tracer& tracer,
                           Result& result) {
  if (opts.trace) {
    run_traced(kWS, opts, tracer, result);
  } else {
    run_untraced(kWS, opts, tracer, result);
  }
}

}  // namespace pqbench
