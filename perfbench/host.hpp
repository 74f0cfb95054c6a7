// Host record and process counters for one benchmark run.
//
// Each run records what the host looked like, because a single-CPU
// sandbox drifts: the same job can get ~25% faster or slower within
// minutes. Hardware counters are not available (perf_event_open returns
// ENOENT), so the run carries its own calibration loop, timed before and
// after the workload, plus the /proc/stat steal delta and the process's
// involuntary context switches.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace perfbench {

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

inline std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

/// Aggregate steal ticks from the first line of /proc/stat (0 if absent).
inline std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  std::istringstream fields(line);
  std::string cpu;
  std::uint64_t v[8] = {};
  fields >> cpu;
  for (std::uint64_t& x : v) fields >> x;
  return v[7];  // user nice system idle iowait irq softirq steal
}

struct Usage {
  double cpu_s = 0.0;
  long invol_ctx_switches = 0;
  double peak_rss_mib = 0.0;
};

inline Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.invol_ctx_switches = ru.ru_nivcsw;
  u.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return u;
}

/// Fixed scalar work (an LCG feeding a small table walk) whose time tracks
/// the speed the host is giving this process right now. Returns seconds.
inline double calibration_s() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint32_t table[4096] = {};
  for (int i = 0; i < 20'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[(x >> 33) & 4095] += static_cast<std::uint32_t>(x >> 7);
  }
  std::uint64_t sink = 0;
  for (const std::uint32_t t : table) sink += t;
  asm volatile("" : : "r"(sink));  // Keeps the loop from being optimized away.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

inline unsigned nproc() { return std::thread::hardware_concurrency(); }

}  // namespace perfbench
