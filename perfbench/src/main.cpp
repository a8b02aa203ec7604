// The benchmark binary; perfbench/run.py builds and invokes it.
//
//   perfbench run --workload W --seed S --seconds T --trace 0|1
//                 --reference-dir DIR [--spans-out PATH] [--git DESCRIBE]
//       One run; prints the report as one JSON line.
//   perfbench setup --workload W --seed S
//       Times the first instance build of this process; prints
//       {"setup_s": ..., "error": ...}.
//   perfbench reference --workload W --seed S
//       Prints the reference line for perfbench/reference/W.ref.
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> f;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::runtime_error("expected --flag value pairs, got '" + key +
                               "'");
    f[key.substr(2)] = argv[i + 1];
  }
  return f;
}

std::string need(const std::map<std::string, std::string>& f,
                 const std::string& key) {
  const auto it = f.find(key);
  if (it == f.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

std::uint64_t parse_seed(const std::string& s) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(s, &used);
  if (used != s.size()) throw std::runtime_error("bad --seed: " + s);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("usage: perfbench run|setup|reference ...");
    const std::string mode = argv[1];
    const auto f = parse_flags(argc, argv);
    const std::string workload = need(f, "workload");
    const std::uint64_t seed = parse_seed(need(f, "seed"));
    if (mode == "run") {
      perfbench::RunRequest req;
      req.workload = workload;
      req.seed = seed;
      req.seconds = std::stod(need(f, "seconds"));
      const std::string trace = need(f, "trace");
      if (trace != "0" && trace != "1")
        throw std::runtime_error("bad --trace: " + trace);
      req.trace = trace == "1";
      req.reference_dir = need(f, "reference-dir");
      if (f.count("spans-out")) req.spans_out = f.at("spans-out");
      if (f.count("git")) req.git_describe = f.at("git");
      std::cout << perfbench::run_workload(req).to_json() << std::endl;
      return 0;
    }
    if (mode == "setup") {
      std::string error;
      const double s = perfbench::setup_seconds(workload, seed, error);
      std::cout << "{\"setup_s\": " << perfbench::json_number(s)
                << ", \"error\": " << perfbench::json_string(error) << "}"
                << std::endl;
      return 0;
    }
    if (mode == "reference") {
      std::cout << perfbench::reference_line(workload, seed) << std::endl;
      return 0;
    }
    throw std::runtime_error("unknown mode '" + mode + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
