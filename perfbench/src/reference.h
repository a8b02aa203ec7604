// Committed output references and the checker that compares against them.
//
// An operation's output is reduced to named 64-bit fields: doubles by bit
// pattern, counters as is, so a comparison is exact. A reference file
// holds one line per seed:
//
//   <seed> <field>=<16 hex digits> <field>=<16 hex digits> ...
//
// Lines starting with '#' are comments.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Fields = std::vector<std::pair<std::string, std::uint64_t>>;

std::uint64_t bits_of(double v);
void add_double(Fields& f, const std::string& name, double v);
void add_count(Fields& f, const std::string& name, std::uint64_t v);

/// "name=hex name=hex ..." in field order.
std::string format_fields(const Fields& f);

/// Inverse of format_fields; throws std::runtime_error on a malformed
/// token.
Fields parse_fields(const std::string& text);

/// The fields recorded for `seed` in the reference file at `path`, or
/// nullopt when the file has no line for that seed (or does not exist).
std::optional<Fields> load_reference(const std::string& path,
                                     std::uint64_t seed);

/// Empty when `got` equals `want` field for field (same names, same order,
/// same bits); otherwise a one-line description of the first difference.
std::string mismatch(const Fields& want, const Fields& got);

}  // namespace perfbench
