// serve_feed: framed wire records from a simulated two-port web-search run,
// fed through serve::StreamDecoder into a ShardSupervisor (backpressure).
//
// Phase A is a closed-loop firehose that measures ingest cost: the feed is
// decoded and submitted as fast as possible into queues sized for the whole
// feed, then the shard workers start and drain_and_join absorbs it. The
// workers start after the pump because, started together, their
// spin/sleep wake-ups alias with the pump's chunk period and the cost per
// record settles, per process, in one of two modes about 2x apart. Phase B
// is open loop: records become due at the fixed rate kOpenLoopRate and live
// QueryRouter::handle pairs at kQueryRate, each query timed from its due
// time, so queries contend with absorbs for the shard locks.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "control/metrics_export.h"
#include "control/query_service.h"
#include "serve/feed.h"
#include "serve/query_router.h"
#include "serve/supervisor.h"
#include "sim/sharded_engine.h"
#include "traffic/distributions.h"
#include "traffic/trace_gen.h"
#include "wire/trace_io.h"
#include "workloads.h"

namespace pqbench {
namespace {

using namespace pq;

constexpr std::uint32_t kPorts = 2;
constexpr Duration kDuration = 300'000'000;  ///< simulated time per port
/// Feed pump read size (the daemon's default read_chunk).
constexpr std::size_t kChunkBytes = 64 * 1024;
/// Phase B's per-shard ingest queue (the daemon's default capacity).
constexpr std::size_t kQueueCapacity = 8192;
/// Phase B's producer submits the records due in each slice of this length
/// and sleeps in between, leaving its CPU idle most of the time.
constexpr auto kSlice = std::chrono::microseconds(200);
/// Phase B arrival rates (records/s, query pairs/s). The record rate is
/// about half of phase A's closed-loop rate on the reference host.
constexpr double kOpenLoopRate = 4.0e6;
constexpr double kQueryRate = 4000.0;
/// Analysis poll period: the live queries read the checkpoints it takes.
constexpr Duration kPollPeriod = 4'000'000;

struct Feed {
  std::vector<std::uint8_t> bytes;
  std::vector<Timestamp> deq;  ///< per record, for query placement
  std::size_t records = 0;
  std::size_t busiest_port_records = 0;  ///< sizes phase A's queues
};

Feed make_feed(std::uint64_t seed) {
  std::vector<std::vector<Packet>> parts;
  std::vector<sim::PortConfig> ports(kPorts);
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    traffic::FlowTraceConfig c;
    c.flow_sizes = &traffic::web_search_flow_sizes();
    c.duration_ns = kDuration;
    c.seed = mix_seed(seed, p);
    c.flow_id_base = p * 1'000'000;
    auto pkts = traffic::generate_flow_trace(c);
    for (auto& pk : pkts) pk.egress_hint = p;
    parts.push_back(std::move(pkts));
    ports[p].port_id = p;
    ports[p].collect_depth_series = false;
  }
  sim::ShardedEngine engine(ports);
  engine.run(traffic::merge_traces(std::move(parts)), 1, 256);
  const auto records = engine.merged_records();
  Feed f;
  f.records = records.size();
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    f.busiest_port_records =
        std::max(f.busiest_port_records, engine.port(p).records().size());
  }
  f.bytes.reserve(records.size() * wire::kRecordFrameBytes);
  f.deq.reserve(records.size());
  for (const auto& r : records) {
    wire::append_record_frame(f.bytes, r);
    f.deq.push_back(r.enq_timestamp + r.deq_timedelta);
  }
  return f;
}

core::PipelineConfig pipeline_config() {
  core::PipelineConfig cfg;
  cfg.windows.m0 = 10;
  cfg.windows.alpha = 2;
  cfg.windows.k = 10;
  cfg.windows.num_windows = 4;
  cfg.monitor.max_depth_cells = 25000;
  cfg.monitor.granularity_cells = 8;
  return cfg;
}

/// One daemon-shaped ingest stack: pipeline, analysis, supervisor, router.
/// The supervisor's workers are not started yet.
struct Stack {
  explicit Stack(std::size_t queue_capacity) : pipeline(pipeline_config()) {
    for (std::uint32_t p = 0; p < kPorts; ++p) pipeline.enable_port(p);
    control::AnalysisConfig acfg;
    acfg.poll_period_ns = kPollPeriod;
    analysis = std::make_unique<control::ShardedAnalysis>(pipeline, acfg,
                                                          nullptr);
    serve::SupervisorOptions o;
    o.batch = 256;
    o.overload = serve::OverloadPolicy::kBackpressure;
    o.queue_capacity = queue_capacity;
    sup = std::make_unique<serve::ShardSupervisor>(pipeline, *analysis,
                                                   nullptr, o);
    router = std::make_unique<serve::QueryRouter>(pipeline, *analysis,
                                                  sup.get());
  }
  Stack(const Stack&) = delete;  // the workers hold pointers into it
  Stack& operator=(const Stack&) = delete;

  std::string view() const {
    return control::collect_replay_metrics(pipeline, *analysis)
        .to_json(obs::IncludeTimings::kNo);
  }

  core::ShardedPipeline pipeline;
  std::unique_ptr<control::ShardedAnalysis> analysis;
  std::unique_ptr<serve::ShardSupervisor> sup;
  std::unique_ptr<serve::QueryRouter> router;
};

/// Submits decoded records; returns the number not accepted.
std::uint64_t submit_all(serve::ShardSupervisor& sup,
                         const std::vector<wire::TelemetryRecord>& recs) {
  std::uint64_t rejected = 0;
  for (const auto& r : recs) {
    if (sup.submit(r) != serve::Submit::kOk) ++rejected;
  }
  return rejected;
}

struct PhaseA {
  double wall_ns = 0.0;
  double cpu_ns = 0.0;
  double submit_ns = 0.0;  ///< producer time inside submit
  double drain_ns = 0.0;   ///< worker start through drain_and_join
  std::string view;
};

/// Closed-loop ingest of the whole feed; checks that nothing was shed or
/// left unabsorbed.
PhaseA phase_a(const Feed& f, Tracer& tr, Result& res) {
  Stack st(f.busiest_port_records);
  PhaseA out;
  serve::StreamDecoder dec;
  std::vector<wire::TelemetryRecord> scratch;
  std::uint64_t rejected = 0;
  cold_heap();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  for (std::size_t off = 0; off < f.bytes.size(); off += kChunkBytes) {
    const std::size_t n = std::min(kChunkBytes, f.bytes.size() - off);
    scratch.clear();
    {
      const Tracer::Scope span(tr, "wire.StreamDecoder::ingest");
      dec.ingest({f.bytes.data() + off, n}, scratch);
    }
    const auto s0 = Clock::now();
    {
      const Tracer::Scope span(tr, "serve.ShardSupervisor::submit");
      rejected += submit_all(*st.sup, scratch);
    }
    out.submit_ns += ns_between(s0, Clock::now());
  }
  const auto d0 = Clock::now();
  {
    const Tracer::Scope span(tr, "serve.start+drain_and_join");
    st.sup->start();
    st.sup->drain_and_join();
  }
  out.drain_ns = ns_between(d0, Clock::now());
  out.wall_ns = ns_between(t0, Clock::now());
  out.cpu_ns = (cpu_seconds() - cpu0) * 1e9;
  res.attempted += f.records;
  res.failed += rejected;
  const bool lossless = st.sup->shed_total() == 0 &&
                        st.sup->records_absorbed() == f.records &&
                        st.sup->records_submitted() == f.records;
  if (!lossless) res.failed += 1;
  res.check(lossless, "phase A shed or left records unabsorbed");
  out.view = st.view();
  return out;
}

struct PhaseB {
  std::vector<double> query_us;   ///< from each pair's due time
  std::vector<double> lag_us;     ///< producer lateness per submitted slice
  std::vector<double> prober_late_us;  ///< query prober wake-up lateness
  std::uint64_t partial = 0;
  std::uint64_t answered = 0;
  std::size_t queue_peak = 0;
  std::string view;
};

/// Open-loop ingest at kOpenLoopRate with live query pairs at kQueryRate.
PhaseB phase_b(const Feed& f, Result& res) {
  Stack st(kQueueCapacity);
  st.sup->start();
  PhaseB out;
  std::atomic<bool> done{false};
  std::uint64_t failed_queries = 0;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  std::thread prober([&] {
    precise_sleeps();
    auto prev_done = start;
    for (std::uint64_t j = 0;; ++j) {
      const double at = static_cast<double>(j) / kQueryRate;
      const auto when = due(at);
      wait_until(when);
      if (done.load(std::memory_order_acquire)) break;
      const auto issued = Clock::now();
      // Checkpointed history just behind the feed: [t - 2P, t - P) for the
      // poll period P, where t is the newest record due now.
      const auto k = std::min<std::size_t>(
          f.records - 1, static_cast<std::size_t>(at * kOpenLoopRate));
      const Timestamp t = std::max<Timestamp>(f.deq[k], 2 * kPollPeriod);
      control::QueryRequest req;
      req.port_prefix = static_cast<std::uint32_t>(j % kPorts);
      req.request_id = 2 * j + 1;
      req.type = control::QueryType::kTimeWindows;
      req.t1 = t - 2 * kPollPeriod;
      req.t2 = t - kPollPeriod;
      const auto w = control::decode_response(
          st.router->handle(control::encode_request(req)));
      req.request_id = 2 * j + 2;
      req.type = control::QueryType::kQueueMonitor;
      req.t1 = t - kPollPeriod - kPollPeriod / 2;
      req.t2 = 0;
      const auto m = control::decode_response(
          st.router->handle(control::encode_request(req)));
      const auto finished = Clock::now();
      // Timed from the due time, minus only the prober's own wake-up
      // lateness: a pair that waits behind the previous pair's overrun
      // still counts that wait.
      const auto ref = std::max(when, prev_done);
      out.query_us.push_back(
          (ns_between(issued, finished) + ns_between(when, ref)) / 1e3);
      out.prober_late_us.push_back(
          std::max(0.0, ns_between(ref, issued)) / 1e3);
      prev_done = finished;
      for (const auto* r : {&w, &m}) {
        ++out.answered;
        if (r->status == control::QueryStatus::kPartial) {
          ++out.partial;
        } else if (r->status != control::QueryStatus::kOk) {
          ++failed_queries;
        }
      }
    }
  });

  // Stops and joins the prober on every exit path, exceptions included.
  struct StopProber {
    std::atomic<bool>& done;
    std::thread& prober;
    ~StopProber() {
      done.store(true, std::memory_order_release);
      if (prober.joinable()) prober.join();
    }
  };
  std::optional<StopProber> stop(std::in_place, done, prober);

  serve::StreamDecoder dec;
  std::vector<wire::TelemetryRecord> scratch;
  std::uint64_t rejected = 0;
  std::size_t next = 0;
  for (auto slice_end = start + kSlice; next < f.records; slice_end += kSlice) {
    std::this_thread::sleep_until(slice_end);
    const auto now = Clock::now();
    const double elapsed = std::chrono::duration<double>(now - start).count();
    const auto due_n = std::min<std::size_t>(
        f.records, static_cast<std::size_t>(elapsed * kOpenLoopRate) + 1);
    if (due_n <= next) continue;
    out.lag_us.push_back(
        ns_between(due(static_cast<double>(next) / kOpenLoopRate), now) / 1e3);
    scratch.clear();
    dec.ingest({f.bytes.data() + next * wire::kRecordFrameBytes,
                (due_n - next) * wire::kRecordFrameBytes},
               scratch);
    rejected += submit_all(*st.sup, scratch);
    next = due_n;
  }
  stop.reset();
  st.sup->drain_and_join();
  out.queue_peak = st.sup->queue_peak_depth();
  res.attempted += f.records + out.answered;
  res.failed += rejected + failed_queries;
  const bool lossless = st.sup->shed_total() == 0 &&
                        st.sup->records_absorbed() == f.records;
  if (!lossless) res.failed += 1;
  res.check(lossless, "phase B shed or left records unabsorbed");
  res.check(failed_queries == 0, "live queries failed during phase B");
  out.view = st.view();
  return out;
}

Feed generate(const Options& opts, int iter, Tracer& tr, double& gen_s) {
  const Tracer::Scope span(tr, "traffic.generate+sim+wire.encode");
  const auto t0 = Clock::now();
  Feed f = make_feed(iteration_seed(opts.seed, iter));
  gen_s = ms_since(t0) / 1e3;
  return f;
}

std::uint64_t digest_bytes(const Feed& f) {
  Digest d;
  d.add(std::string_view(reinterpret_cast<const char*>(f.bytes.data()),
                         f.bytes.size()));
  return d.h;
}

/// The cross-run repeat digest of one iteration: its feed and the
/// deterministic metrics view after ingest.
std::uint64_t iteration_digest(const Feed& f, const std::string& view) {
  Digest d;
  d.add(digest_bytes(f));
  d.add(view);
  return d.h;
}

double construct_s(const Feed& f) {
  const auto t0 = Clock::now();
  const Stack st(f.busiest_port_records);
  return ms_since(t0) / 1e3;
}

void run_untraced(const Options& opts, Tracer& tr, Result& res) {
  std::vector<double> setup_s, e2e_ns, cpu_ns, rss_mb;
  QueryLatency latency;
  std::vector<std::uint64_t> digests;
  std::size_t records_total = 0;
  const auto iteration = [&](int iter) {
    double gen_s = 0.0;
    const Feed f = generate(opts, iter, tr, gen_s);
    reset_peak_rss();
    const double construct = construct_s(f);
    const PhaseA a = phase_a(f, tr, res);
    const PhaseB b = phase_b(f, res);
    res.check(a.view == b.view,
              "closed- and open-loop ingest disagree on the deterministic "
              "metrics view");
    const auto n = static_cast<double>(f.records);
    records_total += f.records;
    setup_s.push_back(gen_s + construct);
    e2e_ns.push_back(a.wall_ns / n);
    cpu_ns.push_back(a.cpu_ns / n);
    latency.add_iteration(b.query_us);
    if (iter < kMinIters) digests.push_back(iteration_digest(f, a.view));
    rss_mb.push_back(peak_rss_mb());
  };

  res.check(digest_bytes(make_feed(iteration_seed(opts.seed, 0))) ==
                digest_bytes(make_feed(iteration_seed(opts.seed, 0))),
            "input generation is not repeatable");
  const auto loop0 = Clock::now();
  for (int iter = 0;
       iter < kMinIters || ms_since(loop0) < opts.seconds * 1e3; ++iter) {
    iteration(iter);
  }
  res.check(repeat_check(opts, digests),
            "counts differ from an earlier run of the same seed");
  res.set("setup_s", median(setup_s));
  res.set("e2e_ns_per_pkt", median(e2e_ns));
  res.set("cpu_ns_per_pkt", median(cpu_ns));
  res.set("peak_rss_mb", median(rss_mb));
  latency.report(res);
  std::printf("serve_feed: %zu iterations, %.0f records each on average, "
              "%zu query pairs, phase A %.2f Mrec/s\n",
              e2e_ns.size(),
              static_cast<double>(records_total) /
                  static_cast<double>(e2e_ns.size()),
              latency.queries, 1e3 / median(e2e_ns));
}

void run_traced(const Options& opts, Tracer& tr, Result& res) {
  // Per repetition (each on its iteration's inputs), per record.
  std::vector<double> gen_ms, decode, submit, drain, wall, wall_plain, lag_us,
      prober_us, partial;
  std::vector<std::uint64_t> digests;
  std::size_t queue_peak = 0;
  bool views_match = true;
  Tracer plain(false);
  const auto loop0 = Clock::now();
  for (int rep = 0; rep < kMinIters || ms_since(loop0) < opts.seconds * 1e3;
       ++rep) {
    double gen_s = 0.0;
    const Feed f = generate(opts, rep, tr, gen_s);
    gen_ms.push_back(gen_s * 1e3);
    const auto n = static_cast<double>(f.records);
    {
      serve::StreamDecoder dec;
      std::vector<wire::TelemetryRecord> out;
      out.reserve(f.records);
      cold_heap();
      const auto t0 = Clock::now();
      {
        const Tracer::Scope span(tr, "wire.decode_alone");
        for (std::size_t off = 0; off < f.bytes.size(); off += kChunkBytes) {
          dec.ingest({f.bytes.data() + off,
                      std::min(kChunkBytes, f.bytes.size() - off)},
                     out);
        }
      }
      decode.push_back(ns_between(t0, Clock::now()) / n);
      res.check(out.size() == f.records, "decoder lost records");
    }
    wall_plain.push_back(phase_a(f, plain, res).wall_ns / n);
    std::string view_a;
    {
      const int id = tr.begin("phase_a");
      const PhaseA a = phase_a(f, tr, res);
      tr.end(id);
      wall.push_back(a.wall_ns / n);
      submit.push_back(a.submit_ns / n);
      drain.push_back(a.drain_ns / n);
      view_a = a.view;
      if (rep < kMinIters) digests.push_back(iteration_digest(f, a.view));
    }
    {
      const Tracer::Scope span(tr, "phase_b");
      const PhaseB b = phase_b(f, res);
      lag_us.insert(lag_us.end(), b.lag_us.begin(), b.lag_us.end());
      prober_us.insert(prober_us.end(), b.prober_late_us.begin(),
                       b.prober_late_us.end());
      partial.push_back(b.answered > 0 ? static_cast<double>(b.partial) /
                                             static_cast<double>(b.answered)
                                       : 0.0);
      queue_peak = std::max(queue_peak, b.queue_peak);
      views_match = views_match && b.view == view_a;
    }
  }
  res.check(views_match,
            "closed- and open-loop ingest disagree on the deterministic "
            "metrics view");
  res.check(repeat_check(opts, digests),
            "counts differ from an earlier run of the same seed");
  const double m_decode = median(decode);
  const double m_submit = median(submit);
  const double m_absorb = median(drain);
  const double m_e2e = median(wall);
  res.set("traffic.gen_ms", median(gen_ms));
  res.set("wire.decode_ns_per_rec", m_decode);
  res.set("serve.submit_ns_per_rec", m_submit);
  res.set("serve.absorb_ns_per_rec", m_absorb);
  res.set("serve.queue_peak_depth", static_cast<double>(queue_peak));
  res.set("serve.partial_frac", median(partial));
  res.set("serve.feed_lag_us_p99", quantile(lag_us, 0.99));
  res.set("serve.prober_late_us_p99", quantile(prober_us, 0.99));
  res.set("ledger.e2e_1w_ns_per_pkt", m_e2e);
  const std::vector<LedgerLine> lines = {
      {"wire.decode", m_decode, "e2e_ns_per_pkt, cpu_ns_per_pkt@serve_feed"},
      {"serve.submit", m_submit, "e2e_ns_per_pkt, cpu_ns_per_pkt@serve_feed"},
      {"serve.absorb", m_absorb,
       "e2e_ns_per_pkt, cpu_ns_per_pkt@serve_feed"},
  };
  double sum = 0.0;
  for (const auto& l : lines) sum += l.ns_per_item;
  res.set("ledger.unattributed_frac", (m_e2e - sum) / m_e2e);
  const double overhead = (m_e2e - median(wall_plain)) / median(wall_plain);
  res.set("trace.overhead_frac", overhead);
  print_ledger("serve_feed", "record", "phase A", lines, m_e2e, kLedgerSlack,
               overhead);
  res.trace_json = ledger_json(lines, m_e2e, kLedgerSlack);
}

}  // namespace

void run_serve_feed(const Options& opts, Tracer& tracer, Result& result) {
  precise_sleeps();
  if (opts.trace) {
    run_traced(opts, tracer, result);
  } else {
    run_untraced(opts, tracer, result);
  }
}

}  // namespace pqbench
