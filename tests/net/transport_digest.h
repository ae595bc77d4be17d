// A 64-bit digest of everything the transport pass (NetworkEngine pass 1)
// decides: the run stats, every switch's induced arrival trace and every
// packet's IntHeader, hops included. Shared by the golden test and the
// switch-pool determinism sweep.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "net/network_engine.h"

namespace pq::net_test {

struct Digest {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  void add(std::uint64_t v) { h = mix64(h ^ mix64(v + 0x632be59bd9b4e019ull)); }
};

/// Stats (the fields the golden digests were recorded with), induced
/// traces (every field the telemetry pass replays) and the full INT stacks,
/// in switch / packet-id order.
inline std::uint64_t transport_digest(const net::NetworkEngine& engine) {
  Digest d;
  const net::NetRunStats& st = engine.stats();
  d.add(st.injected);
  d.add(st.delivered);
  d.add(st.dropped);
  d.add(st.ttl_exceeded);
  d.add(st.unroutable);
  d.add(st.transport_epochs);
  d.add(st.total_hops);
  d.add(st.last_event_ns);
  for (std::uint32_t sw = 0; sw < engine.num_nodes(); ++sw) {
    const std::vector<Packet>& trace = engine.induced_trace(sw);
    d.add(trace.size());
    for (const Packet& p : trace) {
      d.add(p.id);
      d.add(p.arrival_ns);
      d.add(p.size_bytes);
      d.add(p.priority);
      d.add(p.egress_hint);
      d.add(flow_signature(p.flow));
    }
  }
  d.add(engine.headers().size());
  for (const net::IntHeader& hdr : engine.headers()) {
    d.add(hdr.packet_id);
    d.add(flow_signature(hdr.flow));
    d.add(hdr.src_host);
    d.add(hdr.dst_host);
    d.add(hdr.injected_at);
    d.add(hdr.delivered_at);
    d.add(static_cast<std::uint64_t>(hdr.fate));
    d.add(hdr.hop_count);
    d.add(hdr.overflow ? 1 : 0);
    d.add(hdr.hops.size());
    for (const net::IntHop& hop : hdr.hops) {
      d.add(hop.switch_id);
      d.add(hop.egress_port);
      d.add(hop.enq_qdepth);
      d.add(hop.enq_timestamp);
      d.add(hop.deq_timestamp);
      d.add(hop.tts_window);
    }
  }
  return d.h;
}

}  // namespace pq::net_test
