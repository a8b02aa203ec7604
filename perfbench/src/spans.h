// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a library layer, recorded from the
// benchmark's own code: name, start, end (steady-clock nanoseconds since
// the recorder was created) and the index of the span that was open when
// it began. Spans stay in memory until the run ends and are written out
// once, so recording costs two clock reads and one vector append.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     // static string: a layer boundary label
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 for a root
};

/// Records nested spans on one thread. A disabled recorder records
/// nothing; open() returns -1 and close(-1) is a no-op, so the traced and
/// untraced paths run the same code.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  std::int32_t open(const char* name);
  void close(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Index the next open() will return; spans from here on belong to
  /// whatever is recorded next.
  std::size_t mark() const { return spans_.size(); }

  /// Tab-separated dump: index, parent, name, start_ns, end_ns.
  void write_tsv(std::ostream& out) const;

 private:
  bool enabled_;
  std::int64_t origin_ns_;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name)
      : rec_(rec), id_(rec.open(name)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::int32_t id_;
};

/// Self time of every span in `spans` (same order): its duration minus
/// the length of the union of its direct children's intervals, clipped to
/// the span. Children may overlap each other; the union counts once.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Sum of self time (seconds) per span name over spans[begin, end).
std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans, std::size_t begin, std::size_t end);

/// Sum of durations (seconds) of the spans named `name` in [begin, end).
double total_seconds(const std::vector<Span>& spans, const std::string& name,
                     std::size_t begin, std::size_t end);

}  // namespace perfbench
