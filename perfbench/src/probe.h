// Host-speed probe. The shared VMs this benchmark runs on slow down and
// speed up by 10–30 % over minutes, for memory-heavy work most of all, and
// a run cannot outlast that drift. A fixed dependent-load chain over
// 32 MiB (beyond any per-core cache, so it feels the same L3 and DRAM
// contention the workloads feel) is timed between a run's operations, and
// the run's operation times are scaled to the probe's reference time:
//
//   scaled = op seconds × kProbeRefSeconds / median(the run's probes)
//
// A change to the library moves the operations, never the probe, so a
// scaled ratio between two commits is the raw one with the host's drift
// taken out. The median over the run keeps the probe's own jitter out of
// the factor. The chain lives in a helper process so its table does not
// count in this process's peak RSS.
#pragma once

#include <sys/types.h>

#include <vector>

namespace perfbench {

/// What one probe takes on the reference host: a quiet stretch of a
/// shared 4-vCPU Xeon VM at 2.0 GHz, where it read 0.31–0.51 s over
/// minutes. Scaled times are host seconds at that speed.
inline constexpr double kProbeRefSeconds = 0.35;

class HostProbe {
 public:
  /// Starts the helper process (it builds the chain while the caller goes
  /// on). Throws std::runtime_error if it cannot.
  HostProbe();
  /// Ends the helper and waits for it.
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Seconds one probe took in the helper. Throws std::runtime_error if
  /// the helper is gone.
  double seconds();

 private:
  pid_t pid_ = -1;
  int to_helper_ = -1;
  int from_helper_ = -1;
};

/// The factor that scales a run's operation seconds to the reference host
/// speed: kProbeRefSeconds over the median of the run's probes (at least
/// one).
double host_scale(std::vector<double> probe_seconds);

}  // namespace perfbench
