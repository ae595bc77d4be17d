// Bounded record queue between the pq_serve feed pump and one shard
// worker. The cap is the daemon's memory contract: under overload the
// queue either blocks the producer (backpressure — the archive stays a
// complete record) or sheds the newest record with an exact counter
// (drop-newest — ingest latency stays bounded); it never grows without
// limit.
//
// Exactly one producer (the feed pump) and one consumer (the shard worker)
// touch the data path, so this sits directly on the lock-free SPSC ring
// (common/spsc_queue.h) instead of the old mutex + two condvars. Per record
// the handoff is one release/acquire pair; observers (watchdog, metrics)
// read depth/peak/shed from atomics without ever blocking an absorb.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/spsc_queue.h"
#include "wire/telemetry.h"

namespace pq::serve {

class IngestQueue {
 public:
  enum class Push : std::uint8_t {
    kOk = 0,
    kShed = 1,    ///< full queue, record dropped and counted
    kClosed = 2,  ///< draining, no new records accepted
  };

  explicit IngestQueue(std::size_t capacity)
      : ring_(std::max<std::size_t>(1, capacity)) {}

  /// Backpressure push: blocks until there is room (the feed pump stalls,
  /// bounding memory by stalling the producer). Returns kClosed if the
  /// queue closes while waiting.
  Push push_wait(const wire::TelemetryRecord& rec) {
    wire::TelemetryRecord copy = rec;
    return ring_.push_wait(std::move(copy)) ? Push::kOk : Push::kClosed;
  }

  /// Shedding push: never blocks; a full queue drops the newest record and
  /// increments the shed counter (the explicit-degradation policy).
  Push try_push(const wire::TelemetryRecord& rec) {
    if (ring_.closed()) return Push::kClosed;
    wire::TelemetryRecord copy = rec;
    if (ring_.try_push(std::move(copy))) return Push::kOk;
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Push::kShed;
  }

  /// Pops up to `max` records into `out` (appended), waiting up to `wait`
  /// for the first one. Returns the number popped; 0 with closed() true
  /// means fully drained.
  std::size_t pop_batch(std::vector<wire::TelemetryRecord>& out,
                        std::size_t max, std::chrono::milliseconds wait) {
    if (max == 0) return 0;
    wire::TelemetryRecord rec;
    if (!ring_.pop_wait(
            rec, std::chrono::duration_cast<std::chrono::microseconds>(wait))) {
      return 0;
    }
    out.push_back(std::move(rec));
    std::size_t n = 1;
    while (n < max && ring_.try_pop(rec)) {
      out.push_back(std::move(rec));
      ++n;
    }
    return n;
  }

  /// Begins the drain: no new records, consumers pop what remains.
  void close() { ring_.close(); }

  bool closed() const { return ring_.closed(); }
  bool drained() const { return ring_.drained(); }
  std::size_t depth() const { return ring_.size(); }
  std::size_t peak_depth() const { return ring_.peak_depth(); }
  std::uint64_t shed_total() const {
    return shed_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return ring_.capacity(); }

 private:
  SpscQueue<wire::TelemetryRecord> ring_;
  std::atomic<std::uint64_t> shed_{0};
};

}  // namespace pq::serve
