#include "spans.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace perfbench {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_ns_(now_ns()) {}

std::int32_t SpanRecorder::open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = current_;
  s.start_ns = now_ns() - origin_ns_;
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void SpanRecorder::close(std::int32_t id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns() - origin_ns_;
  current_ = s.parent;
}

void SpanRecorder::write_tsv(std::ostream& out) const {
  out << "index\tparent\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns
        << '\t' << s.end_ns << '\n';
  }
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = -1;
    bool open_run = false;
    for (const auto& [lo, hi] : iv) {
      if (open_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open_run = true;
    }
    if (open_run) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans, std::size_t begin, std::size_t end) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = begin; i < end; ++i)
    out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  return out;
}

double total_seconds(const std::vector<Span>& spans, const std::string& name,
                     std::size_t begin, std::size_t end) {
  double s = 0.0;
  for (std::size_t i = begin; i < end; ++i)
    if (name == spans[i].name)
      s += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
  return s;
}

}  // namespace perfbench
