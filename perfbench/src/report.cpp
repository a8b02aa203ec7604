#include "report.h"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

void Report::operation(const std::string& error) {
  ++attempted;
  if (!error.empty()) {
    ++failed;
    correct = false;
    failures.push_back(error);
  }
}

void Report::fail(const std::string& error) {
  correct = false;
  failures.push_back(error);
}

void Report::metric(const std::string& name, const std::string& unit,
                    std::vector<double> samples) {
  metrics.push_back({name, unit, std::move(samples)});
}

void Report::metric(const std::string& name, const std::string& unit,
                    double value) {
  metric(name, unit, std::vector<double>{value});
}

void Report::manifest_entry(const std::string& key, const std::string& json) {
  manifest.emplace_back(key, json);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_numbers(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i > 0 ? ", " : "") + json_number(v[i]);
  return out + "]";
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricValue& m = metrics[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"unit\": " + json_string(m.unit) +
           ", \"samples\": " + json_numbers(m.samples) + "}";
  }
  out += "}, \"manifest\": {";
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(manifest[i].first) + ": " + manifest[i].second;
  }
  out += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(failures[i]);
  }
  return out + "]}";
}

double calibration_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Opaque to the optimizer: the loop cannot be folded or collapsed.
    asm volatile("" : "+r"(x));
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
