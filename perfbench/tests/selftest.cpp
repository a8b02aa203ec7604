// Self-tests of the benchmark's own machinery: span self-time arithmetic,
// the reference checker and the host probe. (run.py --self-test checks the
// metric names.)
// Exit 0 when every check passes; each failure prints one line.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "probe.h"
#include "reference.h"
#include "spans.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

perfbench::Span span(const char* name, std::int64_t a, std::int64_t b,
                     std::int32_t parent) {
  perfbench::Span s;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

void span_self_time() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: union
  // 40) and [60,70); the first child has a grandchild [12,18).
  const std::vector<perfbench::Span> spans = {
      span("root", 0, 100, -1),  span("a", 10, 30, 0),
      span("b", 20, 50, 0),      span("c", 60, 70, 0),
      span("a.x", 12, 18, 1),    span("other", 200, 260, -1),
  };
  const auto self = perfbench::self_times_ns(spans);
  expect(self[0] == 100 - 40 - 10, "root self time excludes child union");
  expect(self[1] == 20 - 6, "child self time excludes grandchild");
  expect(self[2] == 30, "leaf self time is its duration");
  expect(self[3] == 10 && self[4] == 6 && self[5] == 60, "leaf self times");

  const auto by_name = perfbench::self_seconds_by_name(spans, 0, 5);
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-15; };
  expect(near(by_name.at("root"), 50e-9) && by_name.count("other") == 0,
         "self seconds by name over a range");
  expect(near(perfbench::total_seconds(spans, "other", 0, 6), 60e-9),
         "total seconds of a named span");

  perfbench::SpanRecorder rec(true);
  {
    perfbench::ScopedSpan outer(rec, "outer");
    perfbench::ScopedSpan inner(rec, "inner");
  }
  expect(rec.spans().size() == 2 && rec.spans()[1].parent == 0 &&
             rec.spans()[0].parent == -1,
         "recorder links a nested span to its parent");
  perfbench::SpanRecorder off(false);
  { perfbench::ScopedSpan s(off, "x"); }
  expect(off.spans().empty(), "disabled recorder records nothing");
}

void reference_checker() {
  perfbench::Fields want;
  perfbench::add_double(want, "mean_flow_rate", 0.0123456789);
  perfbench::add_double(want, "pairs_per_slot", 812.25);
  perfbench::add_count(want, "injected", 424242);
  expect(perfbench::mismatch(want, want).empty(), "identical fields pass");

  const perfbench::Fields parsed =
      perfbench::parse_fields(perfbench::format_fields(want));
  expect(perfbench::mismatch(want, parsed).empty(),
         "format/parse round trip is exact");

  for (std::size_t field = 0; field < want.size(); ++field) {
    for (int bit : {0, 31, 63}) {
      perfbench::Fields got = want;
      got[field].second ^= std::uint64_t{1} << bit;
      expect(!perfbench::mismatch(want, got).empty(),
             "one flipped bit in field " + std::to_string(field) +
                 " is rejected");
    }
  }
  perfbench::Fields shorter = want;
  shorter.pop_back();
  expect(!perfbench::mismatch(want, shorter).empty(),
         "a missing field is rejected");
  perfbench::Fields renamed = want;
  renamed[0].first = "min_flow_rate";
  expect(!perfbench::mismatch(want, renamed).empty(),
         "a renamed field is rejected");

  // A double one ulp away differs in the lowest bit.
  double v = 0.0123456789;
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  ++b;
  std::memcpy(&v, &b, sizeof b);
  perfbench::Fields ulp = want;
  ulp[0].second = perfbench::bits_of(v);
  expect(!perfbench::mismatch(want, ulp).empty(), "one-ulp change rejected");
}

void host_probe() {
  const double ref = perfbench::kProbeRefSeconds;
  expect(perfbench::host_scale({ref}) == 1.0,
         "a probe at the reference time leaves a run unscaled");
  expect(std::fabs(perfbench::host_scale({9 * ref, 2 * ref, 2 * ref}) -
                   0.5) < 1e-12,
         "the median probe sets the scale; one slow probe does not");
  expect(std::fabs(perfbench::host_scale({ref, 3 * ref}) - 0.5) < 1e-12,
         "an even probe count scales by the mean of the middle two");

  perfbench::HostProbe probe;
  const double a = probe.seconds();
  const double b = probe.seconds();
  expect(std::isfinite(a) && a > 0.0 && std::isfinite(b) && b > 0.0,
         "the probe helper answers with positive times");
}

}  // namespace

int main() {
  span_self_time();
  reference_checker();
  host_probe();
  std::cout << (failures == 0 ? "perfbench self-test: all checks pass"
                              : "perfbench self-test: FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}
