#include "sim/sharded_engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "common/hash.h"
#include "common/worker_pool.h"

namespace pq::sim {

namespace {

/// Computes forwarding decisions for packets[begin, end) into dest[] and
/// per-shard counts. The default dst-hash decision runs the mix64 finalizer
/// column-wise over 256-key chunks (bit-identical to per-packet calls); a
/// custom function goes through std::function per packet. Throws
/// std::out_of_range on an out-of-range port.
void fill_destinations(const std::vector<Packet>& packets, std::size_t begin,
                       std::size_t end, std::size_t n, bool default_fwd,
                       const std::function<std::uint32_t(const Packet&)>& fwd,
                       std::uint32_t* dest, std::size_t* counts) {
  if (default_fwd) {
    constexpr std::size_t kChunk = 256;
    std::array<std::uint64_t, kChunk> keys;
    for (std::size_t base = begin; base < end; base += kChunk) {
      const std::size_t m = std::min(kChunk, end - base);
      for (std::size_t i = 0; i < m; ++i) {
        keys[i] = packets[base + i].flow.dst_ip;
      }
      mix64_batch(keys.data(), keys.data(), m);
      for (std::size_t i = 0; i < m; ++i) {
        const auto s = static_cast<std::uint32_t>(keys[i] % n);
        dest[base + i] = s;
        ++counts[s];
      }
    }
    return;
  }
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t out = fwd(packets[i]);
    if (out >= n) {
      throw std::out_of_range("forwarding returned an invalid port");
    }
    dest[i] = out;
    ++counts[out];
  }
}

bool arrival_sorted(const std::vector<Packet>& packets) {
  return std::is_sorted(packets.begin(), packets.end(),
                        [](const Packet& a, const Packet& b) {
                          return a.arrival_ns < b.arrival_ns;
                        });
}

}  // namespace

ShardedEngine::ShardedEngine(std::vector<PortConfig> port_configs) {
  if (port_configs.empty()) {
    throw std::invalid_argument("ShardedEngine needs at least one port");
  }
  ports_.reserve(port_configs.size());
  for (auto& cfg : port_configs) {
    ports_.push_back(std::make_unique<EgressPort>(cfg));
  }
  drain_ns_.assign(ports_.size(), 0);
  const auto n = ports_.size();
  fwd_ = [n](const Packet& p) {
    return static_cast<std::uint32_t>(mix64(p.flow.dst_ip) % n);
  };
}

void ShardedEngine::set_forwarding(
    std::function<std::uint32_t(const Packet&)> fwd) {
  fwd_ = std::move(fwd);
  default_fwd_ = false;
}

void ShardedEngine::add_hook(std::uint32_t port_index, EgressHook* hook) {
  ports_.at(port_index)->add_hook(hook);
}

std::vector<std::vector<Packet>> ShardedEngine::partition(
    const std::vector<Packet>& packets,
    const std::function<std::uint32_t(const Packet&)>& fwd,
    std::size_t num_ports) {
  assert(arrival_sorted(packets));
  // Two passes: decide+count, then reserve+scatter. The old single-pass
  // push_back loop spent its time in vector growth; pre-counting makes
  // every shard exactly one allocation.
  std::vector<std::uint32_t> dest(packets.size());
  std::vector<std::size_t> counts(num_ports, 0);
  fill_destinations(packets, 0, packets.size(), num_ports,
                    /*default_fwd=*/false, fwd, dest.data(), counts.data());
  std::vector<std::vector<Packet>> shards(num_ports);
  for (std::size_t s = 0; s < num_ports; ++s) shards[s].reserve(counts[s]);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    shards[dest[i]].push_back(packets[i]);
  }
  return shards;
}

std::vector<std::vector<Packet>> ShardedEngine::partition_parallel(
    const std::vector<Packet>& packets, unsigned workers) const {
  const std::size_t n = ports_.size();
  std::vector<std::vector<Packet>> shards(n);
  if (packets.empty()) return shards;
  const std::size_t total = packets.size();

  // One chunk per worker, but never chunks so small that the per-chunk
  // bookkeeping (counts table, offset copy) shows up.
  constexpr std::size_t kMinChunkPackets = 1 << 15;
  const std::size_t num_chunks = std::max<std::size_t>(
      1, std::min<std::size_t>(workers,
                               (total + kMinChunkPackets - 1) /
                                   kMinChunkPackets));
  std::vector<std::size_t> bounds(num_chunks + 1);
  for (std::size_t c = 0; c <= num_chunks; ++c) {
    bounds[c] = total * c / num_chunks;
  }

  // Pass 1 (parallel over chunks): forwarding decision + per-(chunk, shard)
  // counts. Disjoint dest[] ranges, private count tables — no sharing.
  std::vector<std::uint32_t> dest(total);
  std::vector<std::vector<std::size_t>> counts(
      num_chunks, std::vector<std::size_t>(n, 0));
  const PoolOptions pool{workers, /*pin=*/false};
  parallel_for(num_chunks, pool, [&](std::size_t c) {
    fill_destinations(packets, bounds[c], bounds[c + 1], n, default_fwd_, fwd_,
                      dest.data(), counts[c].data());
  });

  // Exclusive prefix over chunks gives each (chunk, shard) pair its write
  // window; earlier chunks write earlier slots, so per-shard arrival order
  // is exactly the sequential partition's.
  std::vector<std::vector<std::size_t>> offsets(
      num_chunks, std::vector<std::size_t>(n));
  for (std::size_t s = 0; s < n; ++s) {
    std::size_t off = 0;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      offsets[c][s] = off;
      off += counts[c][s];
    }
    shards[s].resize(off);
  }

  // Pass 2 (parallel over chunks): scatter into the reserved windows.
  parallel_for(num_chunks, pool, [&](std::size_t c) {
    std::vector<std::size_t> cur = offsets[c];
    for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
      shards[dest[i]][cur[dest[i]]++] = packets[i];
    }
  });
  return shards;
}

void ShardedEngine::run(std::vector<Packet> packets, unsigned threads,
                        std::uint32_t batch) {
  RunOptions opts;
  opts.threads = threads;
  opts.batch = batch;
  run(std::move(packets), opts);
}

void ShardedEngine::run(std::vector<Packet> packets, const RunOptions& opts) {
  // Generator output is already arrival-ordered; sorting it again on every
  // run was pure hot-path waste, so sort only when actually needed.
  if (!arrival_sorted(packets)) {
    std::stable_sort(packets.begin(), packets.end(),
                     [](const Packet& a, const Packet& b) {
                       return a.arrival_ns < b.arrival_ns;
                     });
  }
  const unsigned workers = std::max(
      1u, std::min<unsigned>(opts.threads,
                             static_cast<unsigned>(ports_.size())));
  auto shards = partition_parallel(packets, workers);
  packets.clear();
  packets.shrink_to_fit();
  run_shards(std::move(shards), opts);
}

void ShardedEngine::run_partitioned(std::vector<std::vector<Packet>> shards,
                                    const RunOptions& opts) {
  if (shards.size() > ports_.size()) {
    throw std::invalid_argument("run_partitioned: more shards than ports");
  }
  shards.resize(ports_.size());
  run_shards(std::move(shards), opts);
}

void ShardedEngine::run_shards(std::vector<std::vector<Packet>>&& shards,
                               const RunOptions& opts) {
  // Work-stealing over shard indices: shards are mutually independent, so
  // the claim order (the only scheduling nondeterminism) cannot affect any
  // shard's result. Every shard is drained even if a hook throws; the first
  // exception is rethrown here after the join.
  worker_cpus_ = parallel_for(
      ports_.size(), PoolOptions{opts.threads, opts.pin_threads},
      [&](std::size_t p) { drain_shard(p, shards[p], opts.batch); });
}

void ShardedEngine::drain_shard(std::size_t p, const std::vector<Packet>& shard,
                                std::uint32_t batch) {
  // Shard-local wall-clock accounting: only the worker that claimed shard
  // `p` touches drain_ns_[p], so no synchronisation is needed (and the
  // stopwatch is a no-op in PQ_METRICS=OFF builds).
  const obs::StopwatchNs watch;
  ports_[p]->set_hook_batch(batch);
  for (const auto& pkt : shard) ports_[p]->offer(pkt);
  ports_[p]->drain();
  drain_ns_[p] += watch.elapsed_ns();
}

std::vector<wire::TelemetryRecord> ShardedEngine::merged_records() const {
  std::size_t total = 0;
  for (const auto& p : ports_) total += p->records().size();
  std::vector<wire::TelemetryRecord> all;
  all.reserve(total);
  for (const auto& p : ports_) {
    all.insert(all.end(), p->records().begin(), p->records().end());
  }
  // Ports are appended in index order and each port's records are already
  // in dequeue order, so a stable sort on the timestamp alone yields the
  // documented (deq_timestamp, port index, per-port order) merge order.
  std::stable_sort(all.begin(), all.end(),
                   [](const wire::TelemetryRecord& a,
                      const wire::TelemetryRecord& b) {
                     return a.deq_timestamp() < b.deq_timestamp();
                   });
  return all;
}

}  // namespace pq::sim
