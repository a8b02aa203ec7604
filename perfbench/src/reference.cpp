#include "reference.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void add_double(Fields& f, const std::string& name, double v) {
  f.emplace_back(name, bits_of(v));
}

void add_count(Fields& f, const std::string& name, std::uint64_t v) {
  f.emplace_back(name, v);
}

namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string format_fields(const Fields& f) {
  std::string out;
  for (const auto& [name, value] : f) {
    if (!out.empty()) out += ' ';
    out += name + '=' + hex16(value);
  }
  return out;
}

Fields parse_fields(const std::string& text) {
  Fields f;
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0 || tok.size() - eq - 1 != 16)
      throw std::runtime_error("reference: malformed field '" + tok + "'");
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(tok.substr(eq + 1), &used, 16);
    if (used != 16)
      throw std::runtime_error("reference: malformed value in '" + tok + "'");
    f.emplace_back(tok.substr(0, eq), v);
  }
  return f;
}

std::optional<Fields> load_reference(const std::string& path,
                                     std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::uint64_t s = 0;
    if (!(row >> s) || s != seed) continue;
    std::string rest;
    std::getline(row, rest);
    return parse_fields(rest);
  }
  return std::nullopt;
}

std::string mismatch(const Fields& want, const Fields& got) {
  const std::size_t common = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (want[i].first != got[i].first)
      return "field " + std::to_string(i) + " is '" + got[i].first +
             "', reference has '" + want[i].first + "'";
    if (want[i].second != got[i].second)
      return "field '" + want[i].first + "' = " + hex16(got[i].second) +
             ", reference " + hex16(want[i].second);
  }
  if (want.size() != got.size())
    return "got " + std::to_string(got.size()) + " fields, reference has " +
           std::to_string(want.size());
  return "";
}

}  // namespace perfbench
