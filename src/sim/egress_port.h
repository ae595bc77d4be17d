// Discrete-event model of a single switch egress port: a buffered queue with
// tail drop, a scheduler, and a byte-accurate serializer at line rate.
//
// This is the substrate that stands in for the Tofino traffic manager in the
// paper's testbed. It produces exactly the Table 1 metadata PrintQueue needs
// and calls registered EgressHooks at each dequeue, where the real system's
// egress pipeline would run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/depth_series.h"
#include "sim/hooks.h"
#include "sim/scheduler.h"
#include "wire/telemetry.h"

namespace pq::sim {

struct PortConfig {
  std::uint32_t port_id = 0;
  double line_rate_gbps = 10.0;
  /// Buffer capacity in 80 B cells; 25000 cells = 2 MB, a typical per-port
  /// share on Tofino and deep enough for the paper's >20k-depth bins.
  std::uint32_t capacity_cells = 25000;
  SchedulerKind scheduler = SchedulerKind::kFifo;
  std::uint8_t num_classes = 8;
  std::uint32_t drr_quantum_bytes = 1600;
  /// Record every dequeued packet as a TelemetryRecord (ground truth).
  bool collect_records = true;
  /// Record the queue-depth step function (needed for regime analysis).
  bool collect_depth_series = true;
};

struct DropRecord {
  std::uint64_t packet_id = 0;
  FlowId flow;
  Timestamp t = 0;
};

struct PortStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint32_t peak_depth_cells = 0;
  Timestamp last_departure = 0;
};

/// Single egress port. Feed arrivals in non-decreasing time order with
/// `offer`, then `drain` to flush the queue. Between calls the port keeps
/// consistent state, so a driver can interleave offering and inspection.
class EgressPort {
 public:
  explicit EgressPort(PortConfig cfg);

  /// Attaches an egress-pipeline hook (not owned; must outlive the port).
  void add_hook(EgressHook* hook);

  /// Hook-delivery batching (docs/ARCHITECTURE.md §10). With size > 1,
  /// dequeued packets' egress contexts accumulate in a PacketBatch that is
  /// delivered to each hook via on_egress_batch() when full, with a final
  /// flush when drain() empties the port. Records, drops, stats and the
  /// depth series stay eager — only hook delivery is deferred, and elements
  /// keep dequeue order. With several hooks attached, each hook sees whole
  /// batches in attach order instead of the scalar per-packet interleave;
  /// every in-tree driver attaches a single hook (chain) per port. Size 0
  /// or 1 selects the scalar per-packet delivery (the default).
  void set_hook_batch(std::uint32_t batch_size);

  /// Offers one packet at its arrival time. Arrival times must be
  /// non-decreasing across calls (throws std::invalid_argument otherwise).
  void offer(const Packet& pkt);

  /// Runs the port until the queue and serializer are empty.
  void drain();

  /// Executes every departure scheduled at or before `horizon` and moves the
  /// port clock up to it (never backwards). After this call the set of
  /// emitted records with deq timestamp <= horizon is final, regardless of
  /// what arrives later — the network transport pass (net/network_engine)
  /// steps every port to each global-virtual-time horizon with it.
  void advance_to(Timestamp horizon);

  /// True when nothing is queued awaiting dequeue.
  bool queue_empty() const;

  /// Convenience: offer all packets (sorted internally) then drain.
  void run(std::vector<Packet> packets);

  const std::vector<wire::TelemetryRecord>& records() const {
    return records_;
  }
  std::vector<wire::TelemetryRecord> take_records() {
    return std::move(records_);
  }
  const std::vector<DropRecord>& drops() const { return drops_; }
  const DepthSeries& depth_series() const { return depth_; }
  const PortStats& stats() const { return stats_; }
  std::uint32_t depth_cells() const { return depth_cells_; }
  const PortConfig& config() const { return cfg_; }

 private:
  /// Dequeues while the next departure would happen at or before `horizon`.
  void advance(Timestamp horizon);
  void dequeue_at(Timestamp t_dec);
  void flush_hook_batch();

  PortConfig cfg_;
  std::unique_ptr<Scheduler> sched_;
  std::vector<EgressHook*> hooks_;
  std::uint32_t hook_batch_ = 1;
  PacketBatch pending_;  ///< buffered contexts awaiting batched delivery

  Timestamp now_ = 0;
  Timestamp serializer_free_at_ = 0;
  /// Earliest instant the scheduler may next be consulted: the arrival that
  /// made the queue non-empty, or the previous dequeue decision time.
  Timestamp queue_available_at_ = 0;
  std::uint32_t depth_cells_ = 0;
  /// Per scheduling class, for multi-queue tracking (paper Section 5).
  std::vector<std::uint32_t> class_depth_cells_;

  std::vector<wire::TelemetryRecord> records_;
  std::vector<DropRecord> drops_;
  DepthSeries depth_;
  PortStats stats_;
};

}  // namespace pq::sim
