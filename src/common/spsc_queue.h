// Bounded lock-free single-producer/single-consumer ring buffer — the
// handoff primitive underneath the pq_serve ingest path
// (serve/ingest_queue.h).
//
// Exactly one thread may push and exactly one thread may pop; any number of
// threads may observe size()/closed(). The producer publishes an element
// with a release store of the head index and the consumer acquires it, so
// the element's bytes are visible before its slot is claimable — the whole
// synchronisation cost per element is one relaxed load plus one
// release/acquire pair, versus a mutex+condvar round trip.
//
// The ring never grows: a full ring is the caller's backpressure signal.
// Blocking helpers (push_wait / pop_wait) spin briefly and then sleep in
// short increments so a stalled peer costs microseconds, not a busy core.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

namespace pq {

template <typename T>
class SpscQueue {
 public:
  /// `capacity` is the number of elements the ring holds before push fails;
  /// the backing store is rounded up to a power of two for cheap masking.
  explicit SpscQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    std::size_t slots = 1;
    while (slots < capacity_ + 1) slots <<= 1;
    mask_ = slots - 1;
    ring_.resize(slots);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer only. Returns false when the ring is full (or closed).
  bool try_push(T&& v) {
    if (closed_.load(std::memory_order_relaxed)) return false;
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= capacity_) return false;
    ring_[head & mask_] = std::move(v);
    head_.store(head + 1, std::memory_order_release);
    const std::size_t depth = head + 1 - tail;
    if (depth > peak_.load(std::memory_order_relaxed)) {
      peak_.store(depth, std::memory_order_relaxed);
    }
    return true;
  }

  /// Producer only. Blocks (spin, then 50 us sleeps) until the element is
  /// accepted or the queue closes; returns false only on close.
  bool push_wait(T&& v) {
    for (unsigned spin = 0; !try_push(std::move(v)); ++spin) {
      if (closed_.load(std::memory_order_relaxed)) return false;
      if (spin < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return true;
  }

  /// Consumer only. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return false;
    out = std::move(ring_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer only. Waits up to `wait` for an element; returns false on
  /// timeout or when the queue is closed and drained.
  bool pop_wait(T& out, std::chrono::microseconds wait) {
    const auto deadline = std::chrono::steady_clock::now() + wait;
    for (unsigned spin = 0; !try_pop(out); ++spin) {
      if (closed_.load(std::memory_order_acquire) && empty()) return false;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      if (spin < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return true;
  }

  /// No new pushes are accepted; the consumer drains what remains. Any
  /// thread may call; idempotent.
  void close() { closed_.store(true, std::memory_order_release); }

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }
  bool drained() const { return closed() && empty(); }

  /// Observer-safe: head/tail race at worst one element stale.
  std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return head - tail;
  }
  std::size_t peak_depth() const {
    return peak_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::size_t mask_ = 0;
  std::vector<T> ring_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace pq
