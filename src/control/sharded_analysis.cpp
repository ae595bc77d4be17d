#include "control/sharded_analysis.h"

#include <algorithm>

#include "core/window_filter.h"

namespace pq::control {

ShardedAnalysis::ShardedAnalysis(core::ShardedPipeline& pipeline,
                                 AnalysisConfig cfg,
                                 faults::ShardedFaultPlan* faults)
    : pipe_(pipeline) {
  programs_.reserve(pipeline.num_shards());
  for (std::uint32_t i = 0; i < pipeline.num_shards(); ++i) {
    auto& shard = pipeline.shard(i);
    programs_.push_back(
        std::make_unique<AnalysisProgram>(shard.pipeline(), cfg));
    if (faults != nullptr) {
      programs_.back()->set_read_faults(faults->read_faults(shard.egress_port()));
    }
  }
}

void ShardedAnalysis::finalize(Timestamp end_time) {
  for (auto& p : programs_) p->finalize(end_time);
}

std::vector<std::pair<FlowId, double>> ShardedAnalysis::top_culprits(
    std::uint32_t global_prefix, Timestamp t1, Timestamp t2,
    std::size_t k) const {
  return core::top_k_flows(query_time_windows(global_prefix, t1, t2), k);
}

std::vector<ShardedAnalysis::ShardDq> ShardedAnalysis::merged_dq_notifications()
    const {
  std::size_t total = 0;
  for (const auto& p : programs_) total += p->dq_captures(0).size();
  std::vector<ShardDq> merged;
  merged.reserve(total);
  for (std::uint32_t i = 0; i < programs_.size(); ++i) {
    const auto& captures = programs_[i]->dq_captures(0);
    for (std::uint64_t seq = 0; seq < captures.size(); ++seq) {
      ShardDq d;
      d.global_prefix = i;
      d.seq = seq;
      d.notification = captures[seq].notification;
      d.notification.port_prefix = i;
      merged.push_back(d);
    }
  }
  // Shards were appended in index order with per-shard firing order intact,
  // so a stable sort on the timestamp alone realises the documented
  // (deq_timestamp, shard, firing order) merge order.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const ShardDq& a, const ShardDq& b) {
                     return a.notification.deq_timestamp <
                            b.notification.deq_timestamp;
                   });
  return merged;
}

HealthStats ShardedAnalysis::health() const {
  HealthStats total;
  for (const auto& p : programs_) total += p->health();
  return total;
}

std::uint64_t ShardedAnalysis::polls_performed() const {
  std::uint64_t n = 0;
  for (const auto& p : programs_) n += p->polls_performed();
  return n;
}

std::uint64_t ShardedAnalysis::bytes_polled() const {
  std::uint64_t n = 0;
  for (const auto& p : programs_) n += p->bytes_polled();
  return n;
}

ShardedSystem::ShardedSystem(Config cfg)
    : engine_(cfg.ports), pipeline_(cfg.pipeline) {
  if (cfg.faults.has_value()) {
    faults_ = std::make_unique<faults::ShardedFaultPlan>(*cfg.faults);
  }
  for (std::uint32_t i = 0; i < cfg.ports.size(); ++i) {
    const std::uint32_t port_id = cfg.ports[i].port_id;
    const std::uint32_t prefix = pipeline_.enable_port(port_id);
    sim::EgressHook* hook = &pipeline_.shard(prefix);
    if (faults_ != nullptr) {
      hook = faults_->attach_egress_chain(port_id, hook);
    }
    engine_.add_hook(i, hook);
  }
  engine_.set_forwarding([](const Packet& p) { return p.egress_hint; });
  analysis_ = std::make_unique<ShardedAnalysis>(pipeline_, cfg.analysis,
                                                faults_.get());
}

void ShardedSystem::run(std::vector<Packet> packets, unsigned threads,
                        std::uint32_t batch) {
  run(std::move(packets), default_run_options(threads, batch));
}

void ShardedSystem::run(std::vector<Packet> packets,
                        const sim::ShardedEngine::RunOptions& opts) {
  engine_.run(std::move(packets), opts);
  finalize_run();
}

void ShardedSystem::run_partitioned(std::vector<std::vector<Packet>> shards,
                                    const sim::ShardedEngine::RunOptions& opts) {
  engine_.run_partitioned(std::move(shards), opts);
  finalize_run();
}

void ShardedSystem::finalize_run() {
  Timestamp end = 0;
  for (std::uint32_t p = 0; p < engine_.num_ports(); ++p) {
    end = std::max(end, engine_.port(p).stats().last_departure);
  }
  analysis_->finalize(end + 1);
}

}  // namespace pq::control
