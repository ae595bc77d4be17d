// The four benchmark workloads. Each builds its inputs from opts.seed, runs
// its main phase repeatedly for opts.seconds, checks its outputs, and fills
// `result`: end-to-end metrics when opts.trace is off, the per-layer
// staircase (spans recorded in `tracer`) when it is on.
#pragma once

#include "trace.h"
#include "util.h"

namespace pqbench {

/// UW-like small packets through ShardedSystem::run; live queries after.
void run_switch_uw(const Options& opts, Tracer& tracer, Result& result);
/// Web-search MTU traffic with DQ captures and an attached v2 archive;
/// recovery and --as-of queries after.
void run_switch_ws_archive(const Options& opts, Tracer& tracer,
                           Result& result);
/// Cross-rack incast on a k=4 fat tree through NetworkEngine; diagnosis
/// after.
void run_fabric_incast(const Options& opts, Tracer& tracer, Result& result);
/// Framed wire records through StreamDecoder -> ShardSupervisor; closed-loop
/// ingest, then open-loop ingest with live routed queries.
void run_serve_feed(const Options& opts, Tracer& tracer, Result& result);

}  // namespace pqbench
