// Result of one benchmark run and the helpers that build it: host probes
// and JSON output. Metrics carry their raw samples; run.py reduces them to
// medians and quartiles.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricValue {
  std::string name;
  std::string unit;
  std::vector<double> samples;  // one per operation (or one, if fixed)
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<MetricValue> metrics;
  /// Manifest entries: key → already-encoded JSON value.
  std::vector<std::pair<std::string, std::string>> manifest;
  std::vector<std::string> failures;  // one line per failed operation

  /// Records an operation: `error` empty means it passed.
  void operation(const std::string& error);
  /// A check that is not an operation (for example replay fidelity).
  void fail(const std::string& error);

  void metric(const std::string& name, const std::string& unit,
              std::vector<double> samples);
  void metric(const std::string& name, const std::string& unit,
              double value);
  void manifest_entry(const std::string& key, const std::string& json);

  /// One-line JSON object: correct, attempted, failed, metrics (unit,
  /// samples), manifest, failures.
  std::string to_json() const;
};

std::string json_number(double v);
std::string json_string(const std::string& s);
std::string json_numbers(const std::vector<double>& v);  // JSON array

/// Milliseconds a fixed integer loop takes: a probe of host speed, taken
/// at the start and end of a run so drift shows beside the numbers.
double calibration_ms();

/// Process peak resident set size in MB (getrusage ru_maxrss).
double peak_rss_mb();

}  // namespace perfbench
