#include "net/network_engine.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "core/tts_layout.h"
#include "sim/hooks.h"

namespace pq::net {

namespace {

/// A packet waiting to arrive at a switch. `seq` breaks arrival-time ties
/// deterministically: injection index for initial packets, then a monotone
/// counter in departure-processing order for hop-generated arrivals.
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

  // Bare ports (records off) with a departure collector each. Queue
  // dynamics depend only on the arrival sequence, so these ports dequeue
  // and drop exactly as pass 2's instrumented ports will.
  std::vector<std::vector<std::unique_ptr<sim::EgressPort>>> transport;
  std::vector<std::vector<sim::DepartureCollector>> collectors;
  transport.resize(topo.switches.size());
  collectors.resize(topo.switches.size());
  for (std::size_t s = 0; s < topo.switches.size(); ++s) {
    collectors[s].resize(topo.switches[s].ports.size());
    for (std::size_t p = 0; p < topo.switches[s].ports.size(); ++p) {
      sim::PortConfig pc = topo.switches[s].ports[p];
      pc.collect_records = false;
      pc.collect_depth_series = false;
      transport[s].push_back(std::make_unique<sim::EgressPort>(pc));
      transport[s][p]->add_hook(&collectors[s][p]);
    }
  }

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
  std::stable_sort(initial.begin(), initial.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.arrival < b.arrival;
                   });

  headers_.clear();
  headers_.resize(initial.size());
  stats_ = NetRunStats{};
  stats_.injected = initial.size();

  std::priority_queue<Pending, std::vector<Pending>, PendingLater> heap;
  std::uint64_t next_seq = 0;
  for (Pending& p : initial) {
    const std::uint32_t src_host = p.pkt.egress_hint;
    p.pkt.id = next_seq + 1;  // merge_traces ids are 1-based
    p.seq = next_seq;

    IntHeader& hdr = headers_[next_seq];
    hdr.packet_id = next_seq + 1;
    hdr.flow = p.pkt.flow;
    hdr.src_host = src_host;
    hdr.injected_at = p.arrival;
    ++next_seq;

    const auto dst = ip_to_host.find(p.pkt.flow.dst_ip);
    if (dst == ip_to_host.end()) {
      ++stats_.unroutable;
      hdr.fate = PacketFate::kDropped;
      continue;
    }
    p.dst_host = dst->second;
    hdr.dst_host = dst->second;
    p.pkt.egress_hint = topo.next_port(p.sw, p.dst_host, p.pkt.flow);
    heap.push(std::move(p));
  }

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

    if (const HostConfig* host = topo.host_at(sw, port)) {
      hdr.fate = PacketFate::kDelivered;
      hdr.delivered_at = hop.deq_timestamp;
      ++stats_.delivered;
      stats_.last_event_ns = std::max(stats_.last_event_ns, hdr.delivered_at);
      (void)host;
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

  auto all_queues_empty = [&] {
    for (const auto& ports : transport) {
      for (const auto& port : ports) {
        if (!port->queue_empty()) return false;
      }
    }
    return true;
  };

  Timestamp h = 0;
  while (!heap.empty() || !all_queues_empty()) {
    ++stats_.transport_epochs;
    if (single_epoch) {
      h = ~Timestamp{0};
    } else if (!heap.empty() && all_queues_empty() &&
               heap.top().arrival > h + epoch) {
      // Idle fast-forward: with every queue empty no departure can occur
      // before the next arrival, so jumping the horizon there is exact.
      h = heap.top().arrival;
    } else {
      h += epoch;
    }

    // Offer every arrival at or before the horizon. Departures executed
    // later this epoch happen strictly after the previous horizon, so the
    // arrivals they generate land strictly beyond h (delay >= epoch) —
    // this offer set is complete.
    while (!heap.empty() && heap.top().arrival <= h) {
      const Pending& top = heap.top();
      induced_[top.sw].push_back(top.pkt);
      transport[top.sw][top.pkt.egress_hint]->offer(top.pkt);
      heap.pop();
    }

    // Advance every port to the horizon, then process what departed, in
    // (switch, port, dequeue) order — the deterministic schedule.
    for (std::size_t s = 0; s < transport.size(); ++s) {
      for (std::size_t p = 0; p < transport[s].size(); ++p) {
        if (single_epoch) {
          transport[s][p]->drain();
        } else {
          transport[s][p]->advance_to(h);
        }
      }
    }
    for (std::size_t s = 0; s < transport.size(); ++s) {
      for (std::size_t p = 0; p < transport[s].size(); ++p) {
        for (const sim::EgressContext& ctx : collectors[s][p].pending()) {
          process_departure(static_cast<std::uint32_t>(s),
                            static_cast<std::uint32_t>(p), ctx);
        }
        collectors[s][p].clear();
      }
    }
  }

  // Tail drops never dequeue, so sweep them up from the port logs.
  for (std::size_t s = 0; s < transport.size(); ++s) {
    for (const auto& port : transport[s]) {
      for (const sim::DropRecord& d : port->drops()) {
        IntHeader& hdr = headers_[d.packet_id - 1];
        hdr.fate = PacketFate::kDropped;
        hdr.delivered_at = d.t;
        ++stats_.dropped;
        stats_.last_event_ns = std::max(stats_.last_event_ns, d.t);
      }
    }
  }

  // ---- Pass 2: telemetry -------------------------------------------------

  // Each switch replays its induced trace through the full PrintQueue
  // stack. The trace is already per-port-ordered by construction, and
  // egress hints carry the routing decision, so this is exactly the
  // standalone single-switch run path.
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    nodes_[s]->run(induced_[s], opts);
  }
}

}  // namespace pq::net
