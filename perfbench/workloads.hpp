// Shared types of the three benchmark workloads.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/optimizer.hpp"
#include "netlist/netlist.hpp"
#include "opt/solution.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Tiny inputs for the benchmark's self-test; never used for measuring.
  bool tiny = false;
  /// Self-test hook: corrupt one reported result so its check must fail.
  bool inject_bad = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the operation counts and every
/// metric it measured, end-to-end and per-layer alike (run.py picks the
/// set the run mode asks for).
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one checked operation; a failure is named on stderr.
  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    return ok;
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (copied, then sorted).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Runs `iteration` (which returns its own timed seconds) at least
/// `min_iterations` times and until `seconds` have passed; the last run
/// may overshoot the deadline. Returns the per-iteration times.
template <typename F>
std::vector<double> measure_for(double seconds, std::size_t min_iterations,
                                F&& iteration) {
  std::vector<double> times;
  const double start = now_s();
  do {
    times.push_back(iteration(times.size()));
  } while (times.size() < min_iterations || now_s() - start < seconds);
  return times;
}

/// Times `set_up` `times` times and returns the median. The first call
/// gets `first = true`; callers keep what it built and trace only it.
template <typename F>
double median_setup_s(int times, F&& set_up) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    const double t0 = now_s();
    set_up(i == 0);
    seconds.push_back(now_s() - t0);
  }
  return median(seconds);
}

/// Independent re-check of one returned configuration, on the benchmark's
/// own copy of its netlist: the constraint at `penalty` from the netlist's
/// own delay budget and a from-scratch STA (spanned as sta.verify), and a
/// from-scratch leakage evaluation (sim.leakage_eval). Callers require
/// delay_ps <= constraint_ps and leakage_na to equal the reported leakage.
struct Recheck {
  double constraint_ps = 0.0;
  double delay_ps = 0.0;
  double leakage_na = 0.0;
};
Recheck recheck(Tracer& tracer, const svtox::netlist::Netlist& netlist, double penalty,
                const svtox::sim::CircuitConfig& config,
                const std::vector<bool>& sleep_vector);

/// Re-times the delay budget of every netlist in `netlists`, each in an
/// sta.budget span: the part of opt.problem's time that is STA work (an
/// AssignmentProblem computes its budget first thing), measured on its own.
void replay_budgets(Tracer& tracer,
                    const std::vector<const svtox::netlist::Netlist*>& netlists);

/// Runs one job on `optimizer`. With tracing on, the optimizer's cached
/// set-up is called first, each step in its own span -- the Monte-Carlo
/// baseline (sim.mc), then the AssignmentProblem (opt.problem) -- so the
/// span around run() (opt.heu1, opt.heu2, opt.vtstate or core.run) holds
/// only the search. The result is the same either way.
svtox::core::MethodResult run_layered(Tracer& tracer,
                                      svtox::core::StandbyOptimizer& optimizer,
                                      svtox::core::Method method,
                                      const svtox::core::RunConfig& config);

/// No wall-clock limit: every search stops on its leaf budget, so work and
/// results do not depend on host speed.
inline constexpr double kNoTimeLimit = 1e9;

Report run_paper_suite(const Options& options, Tracer& tracer);
Report run_hier_dag(const Options& options, Tracer& tracer);
Report run_service_mix(const Options& options, Tracer& tracer);

}  // namespace perfbench
