#include "net/network_engine.h"

#include <algorithm>
#include <bit>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "common/worker_pool.h"
#include "control/metrics_export.h"
#include "core/tts_layout.h"
#include "sim/hooks.h"

namespace pq::net {

namespace {

/// A packet waiting to arrive at a switch. For hop-generated arrivals (the
/// only ones that enter the heap) `seq` is a monotone counter in
/// departure-processing order that breaks arrival-time ties
/// deterministically. It starts above every injection index, which is why
/// an injection wins any tie against the heap.
struct Pending {
  Timestamp arrival = 0;
  std::uint64_t seq = 0;
  std::uint32_t sw = 0;
  std::uint32_t dst_host = 0;
  Packet pkt;
};

struct PendingLater {
  bool operator()(const Pending& a, const Pending& b) const {
    if (a.arrival != b.arrival) return a.arrival > b.arrival;
    return a.seq > b.seq;
  }
};

}  // namespace

NetworkEngine::NetworkEngine(NetworkConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.topology.validate();
  if (cfg_.int_max_hops == 0) {
    throw TopologyError("network: int_max_hops must be positive");
  }
  if (cfg_.max_ttl == 0) {
    throw TopologyError("network: max_ttl must be positive");
  }
  induced_.resize(cfg_.topology.switches.size());
  nodes_.reserve(cfg_.topology.switches.size());
  for (const SwitchConfig& sw : cfg_.topology.switches) {
    control::ShardedSystem::Config node;
    node.ports = sw.ports;
    for (sim::PortConfig& p : node.ports) {
      p.collect_depth_series = cfg_.node.collect_depth_series;
    }
    node.pipeline = cfg_.node.pipeline;
    node.analysis = cfg_.node.analysis;
    node.faults = cfg_.node.faults;
    nodes_.push_back(std::make_unique<control::ShardedSystem>(std::move(node)));
  }
}

void NetworkEngine::run(std::vector<Injection> injections, unsigned threads,
                        std::uint32_t batch) {
  sim::ShardedEngine::RunOptions opts;
  opts.threads = threads;
  opts.batch = batch;
  run(std::move(injections), opts);
}

void NetworkEngine::run(std::vector<Injection> injections,
                        const sim::ShardedEngine::RunOptions& opts) {
  if (ran_) throw std::logic_error("NetworkEngine::run is single-shot");
  ran_ = true;

  const Topology& topo = cfg_.topology;
  const core::TtsLayout layout(cfg_.node.pipeline.windows);

  std::unordered_map<std::uint32_t, std::uint32_t> ip_to_host;
  ip_to_host.reserve(topo.hosts.size());
  for (const HostConfig& h : topo.hosts) ip_to_host.emplace(h.ip, h.id);

  // ---- Pass 1: transport -------------------------------------------------

  const obs::StopwatchNs transport_watch;

  // Bare ports (records off) with a departure collector each, flattened
  // switch-major: port p of switch s is index port_base[s] + p, so walking
  // flat indices upward is the (switch, port) order. Queue dynamics depend
  // only on the arrival sequence, so these ports dequeue and drop exactly
  // as pass 2's instrumented ports will.
  const std::size_t num_switches = topo.switches.size();
  std::vector<std::size_t> port_base(num_switches + 1, 0);
  for (std::size_t s = 0; s < num_switches; ++s) {
    port_base[s + 1] = port_base[s] + topo.switches[s].ports.size();
  }
  const std::size_t num_ports = port_base[num_switches];
  std::vector<std::unique_ptr<sim::EgressPort>> transport;
  std::vector<sim::DepartureCollector> collectors(num_ports);
  std::vector<std::uint32_t> port_switch(num_ports);
  transport.reserve(num_ports);
  for (std::size_t s = 0; s < num_switches; ++s) {
    for (sim::PortConfig pc : topo.switches[s].ports) {
      pc.collect_records = false;
      pc.collect_depth_series = false;
      port_switch[transport.size()] = static_cast<std::uint32_t>(s);
      transport.push_back(std::make_unique<sim::EgressPort>(pc));
      transport.back()->add_hook(&collectors[transport.size() - 1]);
    }
  }

  // The active-port worklist: a port's bit is set when it is offered a
  // packet and cleared once its queue is empty after an epoch's departure
  // sweep, so at the top of every epoch the set is exactly the non-empty
  // queues. Skipping an inactive port is exact: advancing an empty queue
  // dequeues nothing.
  std::vector<std::uint64_t> active((num_ports + 63) / 64, 0);
  std::size_t active_count = 0;
  auto activate = [&](std::size_t i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if ((active[i / 64] & bit) == 0) {
      active[i / 64] |= bit;
      ++active_count;
    }
  };

  // Flatten, order and identify the injections (merge_traces semantics:
  // stable sort by arrival, ids assigned 1..n in order).
  std::vector<Pending> initial;
  for (const Injection& inj : injections) {
    if (inj.host >= topo.hosts.size()) {
      throw TopologyError("network: injection references unknown host " +
                          std::to_string(inj.host));
    }
    for (const Packet& pkt : inj.packets) {
      Pending p;
      p.arrival = pkt.arrival_ns;
      p.sw = topo.hosts[inj.host].attach_switch;
      p.pkt = pkt;
      p.pkt.egress_hint = inj.host;  // src marker until routed below
      initial.push_back(std::move(p));
    }
  }
  injections.clear();
  injections.shrink_to_fit();
  std::stable_sort(initial.begin(), initial.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.arrival < b.arrival;
                   });

  headers_.clear();
  headers_.resize(initial.size());
  stats_ = NetRunStats{};
  stats_.injected = initial.size();

  // Route the injections in place, compacting out the unroutable ones; the
  // survivors stay arrival-sorted in injection order.
  std::size_t routed = 0;
  for (std::size_t k = 0; k < initial.size(); ++k) {
    Pending& p = initial[k];
    const std::uint32_t src_host = p.pkt.egress_hint;
    p.pkt.id = k + 1;  // merge_traces ids are 1-based

    IntHeader& hdr = headers_[k];
    hdr.packet_id = k + 1;
    hdr.flow = p.pkt.flow;
    hdr.src_host = src_host;
    hdr.injected_at = p.arrival;

    const auto dst = ip_to_host.find(p.pkt.flow.dst_ip);
    if (dst == ip_to_host.end()) {
      ++stats_.unroutable;
      hdr.fate = PacketFate::kDropped;
      continue;
    }
    p.dst_host = dst->second;
    hdr.dst_host = dst->second;
    p.pkt.egress_hint = topo.next_port(p.sw, p.dst_host, p.pkt.flow);
    if (routed != k) initial[routed] = std::move(p);
    ++routed;
  }
  std::uint64_t next_seq = initial.size();  // hop seqs start above injections
  initial.resize(routed);

  // Hop-generated arrivals only; injections merge in from `initial`. An
  // injection wins an arrival-time tie, exactly as its seq (< every hop
  // seq) would have ordered it in one combined queue.
  std::priority_queue<Pending, std::vector<Pending>, PendingLater> heap;
  std::size_t next_injection = 0;
  // The earliest pending arrival, or nullptr when none is left.
  auto next_arrival = [&]() -> const Pending* {
    const bool have_injection = next_injection < initial.size();
    if (heap.empty()) {
      return have_injection ? &initial[next_injection] : nullptr;
    }
    if (have_injection &&
        initial[next_injection].arrival <= heap.top().arrival) {
      return &initial[next_injection];
    }
    return &heap.top();
  };

  const std::optional<Duration> min_delay = topo.min_link_delay();
  Duration epoch = min_delay.value_or(0);
  if (cfg_.gvt_epoch_ns > 0 && (epoch == 0 || cfg_.gvt_epoch_ns < epoch)) {
    epoch = cfg_.gvt_epoch_ns;
  }
  // No links: nothing ever re-enqueues, so one unbounded epoch is exact.
  const bool single_epoch = !min_delay.has_value();

  // Processes one collected departure: record the hop, then deliver,
  // re-enqueue at the next switch, or retire on TTL.
  auto process_departure = [&](std::uint32_t sw, std::uint32_t port,
                               const sim::EgressContext& ctx) {
    IntHeader& hdr = headers_[ctx.packet_id - 1];
    IntHop hop;
    hop.switch_id = sw;
    hop.egress_port = port;
    hop.enq_qdepth = ctx.enq_qdepth;
    hop.enq_timestamp = ctx.enq_timestamp;
    hop.deq_timestamp = ctx.deq_timestamp();
    hop.tts_window = layout.tts0(hop.deq_timestamp);
    hdr.push_hop(hop, cfg_.int_max_hops);
    ++stats_.total_hops;

    if (topo.host_at(sw, port) != nullptr) {
      hdr.fate = PacketFate::kDelivered;
      hdr.delivered_at = hop.deq_timestamp;
      ++stats_.delivered;
      stats_.last_event_ns = std::max(stats_.last_event_ns, hdr.delivered_at);
      return;
    }
    const LinkConfig* link = topo.link_at(sw, port);
    if (link == nullptr) {
      ++stats_.unroutable;  // validation makes this unreachable
      hdr.fate = PacketFate::kDropped;
      return;
    }
    if (hdr.hop_count >= cfg_.max_ttl) {
      hdr.fate = PacketFate::kTtlExceeded;
      hdr.delivered_at = hop.deq_timestamp;
      ++stats_.ttl_exceeded;
      stats_.last_event_ns = std::max(stats_.last_event_ns, hdr.delivered_at);
      return;
    }
    Pending next;
    next.arrival = hop.deq_timestamp + link->delay_ns;
    next.seq = next_seq++;
    next.sw = link->to_switch;
    next.dst_host = hdr.dst_host;
    next.pkt.flow = ctx.flow;
    next.pkt.size_bytes = ctx.size_bytes;
    next.pkt.arrival_ns = next.arrival;
    next.pkt.priority = ctx.priority;
    next.pkt.id = ctx.packet_id;
    next.pkt.egress_hint = topo.next_port(next.sw, next.dst_host, ctx.flow);
    heap.push(std::move(next));
  };

  Timestamp h = 0;
  for (const Pending* first = next_arrival();
       first != nullptr || active_count > 0; first = next_arrival()) {
    ++stats_.transport_epochs;
    if (single_epoch) {
      h = ~Timestamp{0};
    } else if (active_count == 0 && first->arrival > h + epoch) {
      // Idle fast-forward: with every queue empty no departure can occur
      // before the next arrival, so jumping the horizon there is exact.
      h = first->arrival;
      ++stats_.idle_fast_forwards;
    } else {
      h += epoch;
    }

    // Offer every arrival at or before the horizon. Departures executed
    // later this epoch happen strictly after the previous horizon, so the
    // arrivals they generate land strictly beyond h (delay >= epoch) —
    // this offer set is complete.
    for (const Pending* p = first; p != nullptr && p->arrival <= h;
         p = next_arrival()) {
      const std::size_t i = port_base[p->sw] + p->pkt.egress_hint;
      induced_[p->sw].push_back(p->pkt);
      transport[i]->offer(p->pkt);
      activate(i);
      if (next_injection < initial.size() && p == &initial[next_injection]) {
        ++next_injection;
      } else {
        heap.pop();
      }
    }

    // Advance each active port to the horizon and process what departed,
    // in (switch, port, dequeue) order — the deterministic schedule.
    // Departures only feed the heap (at arrivals beyond h), so finishing
    // one port before advancing the next changes nothing.
    for (std::size_t w = 0; w < active.size(); ++w) {
      for (std::uint64_t bits = active[w]; bits != 0; bits &= bits - 1) {
        const std::size_t i = w * 64 + std::countr_zero(bits);
        sim::EgressPort& port = *transport[i];
        if (single_epoch) {
          port.drain();
        } else {
          port.advance_to(h);
        }
        const std::uint32_t sw = port_switch[i];
        const auto port_index = static_cast<std::uint32_t>(i - port_base[sw]);
        for (const sim::EgressContext& ctx : collectors[i].pending()) {
          process_departure(sw, port_index, ctx);
        }
        collectors[i].clear();
        if (port.queue_empty()) {
          active[w] &= ~(std::uint64_t{1} << (i % 64));
          --active_count;
        }
      }
    }
  }

  // Tail drops never dequeue, so sweep them up from the port logs.
  for (const auto& port : transport) {
    for (const sim::DropRecord& d : port->drops()) {
      IntHeader& hdr = headers_[d.packet_id - 1];
      hdr.fate = PacketFate::kDropped;
      hdr.delivered_at = d.t;
      ++stats_.dropped;
      stats_.last_event_ns = std::max(stats_.last_event_ns, d.t);
    }
  }
  transport_ns_ = transport_watch.elapsed_ns();

  // ---- Pass 2: telemetry -------------------------------------------------

  // Each switch replays its induced trace through the full PrintQueue
  // stack. The trace is already per-port-ordered by construction, and
  // egress hints carry the routing decision, so this is exactly the
  // standalone single-switch run path. Switches share nothing, so they run
  // on a switch-level pool; a switch's own thread count is a pure
  // scheduling knob, so each runs single-threaded on the worker that
  // claimed it.
  const obs::StopwatchNs telemetry_watch;
  sim::ShardedEngine::RunOptions node_opts = opts;
  node_opts.threads = 1;
  node_opts.pin_threads = false;
  parallel_for(nodes_.size(), PoolOptions{opts.threads, opts.pin_threads},
               [&](std::size_t s) { nodes_[s]->run(induced_[s], node_opts); });
  telemetry_ns_ = telemetry_watch.elapsed_ns();
}

void export_network_metrics(obs::MetricsRegistry& reg,
                            const NetworkEngine& net) {
  const NetRunStats& st = net.stats();
  reg.counter("pq_net_packets_injected_total",
              "packets injected at edge switches")
      .inc(st.injected);
  reg.counter("pq_net_packets_delivered_total",
              "packets dequeued at their destination host's port")
      .inc(st.delivered);
  reg.counter("pq_net_packets_dropped_total", "tail drops at any hop")
      .inc(st.dropped);
  reg.counter("pq_net_ttl_exceeded_total",
              "packets retired after max_ttl hops")
      .inc(st.ttl_exceeded);
  reg.counter("pq_net_unroutable_total",
              "packets whose destination no host owns")
      .inc(st.unroutable);
  reg.counter("pq_net_transport_epochs_total",
              "GVT epochs of the transport pass")
      .inc(st.transport_epochs);
  reg.counter("pq_net_idle_fast_forwards_total",
              "epochs that jumped the horizon across an idle fabric")
      .inc(st.idle_fast_forwards);
  reg.counter("pq_net_hops_total", "switch traversals, all packets")
      .inc(st.total_hops);
  reg.counter("pq_net_transport_ns",
              "wall-clock ns of the transport pass (timing)",
              /*timing=*/true)
      .inc(net.transport_ns());
  reg.counter("pq_net_telemetry_ns",
              "wall-clock ns of the per-switch telemetry pass (timing)",
              /*timing=*/true)
      .inc(net.telemetry_ns());
}

obs::MetricsRegistry collect_network_metrics(const NetworkEngine& net) {
  obs::MetricsRegistry reg;
  for (std::uint32_t sw = 0; sw < net.num_nodes(); ++sw) {
    reg.merge(control::collect_system_metrics(net.node(sw)));
  }
  export_network_metrics(reg, net);
  return reg;
}

}  // namespace pq::net
