// In-memory span recorder for the traced (staircase) run.
//
// The benchmark wraps its own calls into each layer's public functions in
// spans (name, start, end, parent); nothing inside the program is
// instrumented. Spans stay in memory and are written out once, at exit, as
// one JSON trace file per workload run. A span's self time is its duration
// minus the part covered by its child spans. When tracing is off, begin()
// records nothing and reads no clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"

namespace pqbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  struct Span {
    std::string name;
    int parent = -1;
    double start_ns = 0.0;  ///< since the tracer was created
    double end_ns = 0.0;
  };

  /// Opens a span as a child of the innermost open span; returns its id
  /// (-1 when disabled).
  int begin(const std::string& name);
  /// Closes span `id` (must be the innermost open span); returns its
  /// duration in ns.
  double end(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
    ~Scope() {
      if (id_ >= 0) t_.end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  /// Per span name: occurrences, summed duration and summed self time.
  struct Row {
    std::string name;
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::vector<Row> rows() const;

  /// Writes the spans, the per-name rows and `extra_json` (a JSON object
  /// body, e.g. host facts and ledger) to `path`.
  void write_json(const std::string& path, const std::string& extra_json) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Tolerated |unattributed| share of a ledger's reference time.
inline constexpr double kLedgerSlack = 0.15;

/// One ledger line: a layer's cost per item, and the end-to-end metric it is
/// predicted to move.
struct LedgerLine {
  std::string layer;
  double ns_per_item = 0.0;
  std::string moves;
};

/// Prints the ledger table: each stair, their sum, the reference end-to-end
/// time (`reference` names it) they should account for, and the
/// unattributed share.
void print_ledger(const std::string& workload, const std::string& item,
                  const std::string& reference,
                  const std::vector<LedgerLine>& lines, double reference_ns,
                  double slack, double overhead_frac);

/// The ledger as a JSON member.
std::string ledger_json(const std::vector<LedgerLine>& lines,
                        double reference_ns, double slack);

}  // namespace pqbench
