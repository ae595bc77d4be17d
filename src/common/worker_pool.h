// Fork-join worker pool: the one parallel loop every multi-threaded site in
// the tree uses (the sharded engine's partition and drain, the network
// engine's per-switch telemetry pass, archive recovery, pq_replay).
//
// parallel_for(tasks, opts, fn) calls fn(i) exactly once for every i in
// [0, tasks), on up to opts.workers threads that claim indices from a shared
// counter. Claim order is the only nondeterminism, so callers keep each
// task's work independent (disjoint outputs); results then cannot depend on
// the worker count. With one worker every task runs on the caller, in index
// order.
//
// Errors: a task that throws does not stop the pool. Every other task still
// runs, and the first exception caught is rethrown on the caller after every
// worker has joined — never a std::terminate from an exception escaping a
// thread, never a half-joined pool.
//
// Pinning: with opts.pin, worker t pins itself best-effort to CPU
// t % ncpu (common/thread_pin.h) and the caller only waits, so the caller's
// own affinity is never changed. Without it the caller runs as worker 0.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pin.h"

namespace pq {

struct PoolOptions {
  /// Upper bound on threads; the pool never uses more workers than tasks.
  unsigned workers = 1;
  /// Best-effort CPU pinning of the workers (ignored with one worker).
  bool pin = false;
};

/// Runs fn(i) for every i in [0, tasks) and returns the CPU each worker
/// ran on: one entry per worker used, -1 when unpinned or the pin failed.
/// Timing metadata only — results never depend on placement.
template <typename Fn>
std::vector<int> parallel_for(std::size_t tasks, const PoolOptions& opts,
                              Fn&& fn) {
  const std::size_t n = std::max<std::size_t>(
      1, std::min<std::size_t>(opts.workers, tasks));
  const bool pin = opts.pin && n > 1;
  std::vector<int> cpus(n, -1);
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr err;
  auto worker = [&](std::size_t t) {
    if (pin) cpus[t] = pin_current_thread(static_cast<unsigned>(t));
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < tasks; i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
      }
    }
  };
  if (n == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (std::size_t t = pin ? 0 : 1; t < n; ++t) pool.emplace_back(worker, t);
    if (!pin) worker(0);
    for (auto& th : pool) th.join();
  }
  if (err) std::rethrow_exception(err);
  return cpus;
}

}  // namespace pq
