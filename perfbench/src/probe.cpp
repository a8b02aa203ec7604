#include "probe.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

constexpr std::size_t kChainEntries = std::size_t{1} << 23;  // 32 MiB
constexpr int kChainSteps = 2000000;

/// One cycle through every entry (Sattolo's shuffle, fixed seed), so each
/// load depends on the last and lands on an unpredictable line.
std::vector<std::uint32_t> make_chain() {
  std::vector<std::uint32_t> next(kChainEntries);
  for (std::size_t i = 0; i < kChainEntries; ++i)
    next[i] = static_cast<std::uint32_t>(i);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = kChainEntries - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  return next;
}

double time_chain(const std::vector<std::uint32_t>& next) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint32_t at = 0;
  for (int i = 0; i < kChainSteps; ++i) at = next[at];
  // Opaque to the optimizer: the walk cannot be dropped.
  asm volatile("" : "+r"(at));
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool read_all(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// The helper: answers each request byte with one probe's seconds and
/// exits when the request pipe closes.
[[noreturn]] void serve(int requests, int replies) {
  const std::vector<std::uint32_t> next = make_chain();
  char request = 0;
  while (read_all(requests, &request, 1)) {
    const double s = time_chain(next);
    if (!write_all(replies, &s, sizeof s)) break;
  }
  ::_exit(0);
}

}  // namespace

HostProbe::HostProbe() {
  // A helper that died must surface as an error from seconds(), not as a
  // SIGPIPE that kills this process without a report.
  std::signal(SIGPIPE, SIG_IGN);
  int down[2], up[2];
  if (::pipe(down) != 0) throw std::runtime_error("host probe: pipe failed");
  if (::pipe(up) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    throw std::runtime_error("host probe: pipe failed");
  }
  pid_ = ::fork();
  if (pid_ < 0) {
    for (int fd : {down[0], down[1], up[0], up[1]}) ::close(fd);
    throw std::runtime_error("host probe: fork failed");
  }
  if (pid_ == 0) {
    ::close(down[1]);
    ::close(up[0]);
    serve(down[0], up[1]);
  }
  ::close(down[0]);
  ::close(up[1]);
  to_helper_ = down[1];
  from_helper_ = up[0];
}

HostProbe::~HostProbe() {
  ::close(to_helper_);
  ::close(from_helper_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

double HostProbe::seconds() {
  const char request = 'p';
  double s = 0.0;
  if (!write_all(to_helper_, &request, 1) ||
      !read_all(from_helper_, &s, sizeof s))
    throw std::runtime_error("host probe: helper process is gone");
  return s;
}

double host_scale(std::vector<double> probe_seconds) {
  if (probe_seconds.empty())
    throw std::invalid_argument("host_scale: no probe");
  std::sort(probe_seconds.begin(), probe_seconds.end());
  const std::size_t n = probe_seconds.size();
  const double median = n % 2 == 1 ? probe_seconds[n / 2]
                                   : 0.5 * (probe_seconds[n / 2 - 1] +
                                            probe_seconds[n / 2]);
  return kProbeRefSeconds / median;
}

}  // namespace perfbench
