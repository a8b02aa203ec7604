// The benchmark's workloads: the paper's strong-mobility operating point
// (α = 0.35, K = 0.7, M = 1, default ϕ), where schemes A and B
// time-share (Theorems 3/7).
//
//   slots-b-large   run_slot_sim, scheme B, i.i.d. mobility, n = 10⁵
//   slots-b-steady  the same at n = 5·10³ with a horizon long enough for
//                   queues to fill and packets to deliver
//   fluid-strong    run_sweep over the fluid engine, n up to 5·10⁴
//
// Everything runs serially on the calling thread (shards = 1,
// num_threads = 1). See perfbench/README.md for why each was chosen.
// Unknown workload names throw std::runtime_error naming the valid ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunRequest {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_dir;  // holds <workload>.ref
  std::string spans_out;      // traced runs: span dump path ("" = none)
  std::string git_describe = "unknown";
};

/// Runs one workload for about `seconds` and reports its end-to-end
/// metrics (trace = false) or its per-layer metrics (trace = true).
Report run_workload(const RunRequest& req);

/// The cold preparation a user pays once per run: Network::build plus the
/// traffic draw of the workload's (top-size) instance, timed as the first
/// build in the calling process. `error` is set when the instance fails
/// its checks.
double setup_seconds(const std::string& workload, std::uint64_t seed,
                     std::string& error);

/// Writes the reference line ("<seed> fields...") for one seed: runs the
/// workload's operation once and formats its checked fields.
std::string reference_line(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
