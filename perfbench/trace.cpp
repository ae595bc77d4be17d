#include "trace.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace pqbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = ns_between(origin_, Clock::now());
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double Tracer::end(int id) {
  if (id < 0) return 0.0;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: span " + spans_.at(id).name +
                           " is not the innermost open span");
  }
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = ns_between(origin_, Clock::now());
  return s.end_ns - s.start_ns;
}

std::vector<Tracer::Row> Tracer::rows() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Row> by_name;
  std::vector<std::string> order;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = by_name.try_emplace(s.name);
    if (fresh) order.push_back(s.name);
    Row& r = it->second;
    r.name = s.name;
    ++r.count;
    r.total_ns += s.end_ns - s.start_ns;
    r.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  std::vector<Row> out;
  for (const auto& name : order) out.push_back(by_name[name]);
  return out;
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

void Tracer::write_json(const std::string& path,
                        const std::string& extra_json) const {
  std::ofstream out(path);
  out << "{\n  \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ", \"parent\": %d, \"start_ns\": %.0f, \"end_ns\": %.0f}",
                  s.parent, s.start_ns, s.end_ns);
    out << "    {\"id\": " << i << ", \"name\": " << quoted(s.name) << buf
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"rows\": [\n";
  const auto r = rows();
  for (std::size_t i = 0; i < r.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ", \"count\": %llu, \"total_ns\": %.0f, \"self_ns\": %.0f}",
                  static_cast<unsigned long long>(r[i].count), r[i].total_ns,
                  r[i].self_ns);
    out << "    {\"name\": " << quoted(r[i].name) << buf
        << (i + 1 < r.size() ? ",\n" : "\n");
  }
  out << "  ],\n  " << extra_json << "\n}\n";
}

void print_ledger(const std::string& workload, const std::string& item,
                  const std::string& reference,
                  const std::vector<LedgerLine>& lines, double reference_ns,
                  double slack, double overhead_frac) {
  std::printf("ledger %s (ns per %s; stairs vs %s)\n", workload.c_str(),
              item.c_str(), reference.c_str());
  std::printf("  %-28s %12s %8s   %s\n", "layer", "ns", "share", "moves");
  double sum = 0.0;
  for (const auto& l : lines) {
    sum += l.ns_per_item;
    std::printf("  %-28s %12.2f %7.1f%%   %s\n", l.layer.c_str(),
                l.ns_per_item,
                reference_ns > 0.0 ? 100.0 * l.ns_per_item / reference_ns : 0.0,
                l.moves.c_str());
  }
  const double unattributed =
      reference_ns > 0.0 ? (reference_ns - sum) / reference_ns : 0.0;
  std::printf("  %-28s %12.2f\n", "sum of stairs", sum);
  std::printf("  %-28s %12.2f\n", "end to end", reference_ns);
  std::printf("  %-28s %11.1f%%   (slack +-%.0f%%: %s)\n", "unattributed",
              100.0 * unattributed, 100.0 * slack,
              std::fabs(unattributed) <= slack ? "within" : "OUTSIDE");
  std::printf("  %-28s %11.1f%%\n", "trace overhead", 100.0 * overhead_frac);
}

std::string ledger_json(const std::vector<LedgerLine>& lines,
                        double reference_ns, double slack) {
  std::ostringstream os;
  os << "\"ledger\": {\"reference_ns\": " << reference_ns
     << ", \"slack\": " << slack
     << ", \"lines\": [";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    os << (i ? ", " : "") << "{\"layer\": " << quoted(lines[i].layer)
       << ", \"ns\": " << lines[i].ns_per_item
       << ", \"moves\": " << quoted(lines[i].moves) << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace pqbench
