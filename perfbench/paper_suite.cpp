// paper_suite: the paper's method matrix through core::StandbyOptimizer.
//
// One pass runs, per stand-in circuit, the average-random baseline (10k
// Monte-Carlo vectors), Heu1 at 5/10/25%, Heu2 and vt+state at 5% (24
// leaves each, no wall-clock limit), Heu1 at 5% on Table 5's three other
// libraries, and a Fig. 5 penalty sweep of Heu1 on c7552. Each (circuit,
// library) pair gets a fresh optimizer per pass, so every pass does the
// same work. The state-tree search, leaf evaluation and incremental STA
// do nearly all of it; partition, hier and svc do none.
//
// Left out: state-only and vt+state at 25%. Under a leaf budget neither
// caps its interior nodes (c432 state-only visits millions of them), so
// their cost is unbounded until the search has a node budget.
#include <cstdio>
#include <memory>
#include <set>
#include <tuple>

#include "core/optimizer.hpp"
#include "host.hpp"
#include "liberty/library.hpp"
#include "model/tech.hpp"
#include "netlist/benchmarks.hpp"
#include "sta/sta.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace svtox;
using core::Method;

namespace {

constexpr int kVectors = 10000;
/// Heu2 / vt+state leaf budget: enough leaves that the state-tree search
/// dominates the pass, few enough that a run holds two passes even when
/// the host runs at half speed, so every job latency is a median.
constexpr std::uint64_t kSearchLeaves = 24;
constexpr int kSetups = 7;
/// Library 0 is the paper's 4-option library; 1..3 are Table 5's options.
constexpr int kLibraries = 4;
constexpr int kVtLibrary = kLibraries;  ///< The dual-Vt-only twin (checks only).

struct Job {
  int circuit;
  int library;
  Method method;
  double penalty;
};

struct Suite {
  std::vector<std::string> circuits;
  std::vector<std::unique_ptr<liberty::Library>> libraries;
  /// [library][circuit]; the vt twin row only serves the vt+state checks.
  std::vector<std::vector<std::unique_ptr<netlist::Netlist>>> netlists;
  std::vector<Job> jobs;
};

/// Library 4, the vt twin, mirrors what StandbyOptimizer builds for
/// vt+state: the paper library's options with every thick-oxide version
/// stripped.
liberty::LibraryOptions library_options(int index) {
  liberty::LibraryOptions options;
  options.variant_options.four_point = index != 1 && index != 3;
  options.variant_options.uniform_stack = index == 2 || index == 3;
  options.variant_options.vt_only = index == kVtLibrary;
  return options;
}

Suite set_up(const Options& options, Tracer& tracer, Report& report) {
  Suite suite;
  if (options.tiny) {
    suite.circuits = {"c432", "c880"};
  } else {
    for (const auto& spec : netlist::benchmark_suite()) {
      suite.circuits.push_back(spec.name);
    }
  }
  double versions = 0, gates = 0;
  for (int l = 0; l <= kVtLibrary; ++l) {
    Span span(tracer, "liberty.build");
    suite.libraries.push_back(std::make_unique<liberty::Library>(
        liberty::Library::build(model::TechParams::nominal(), library_options(l))));
    versions += suite.libraries.back()->total_versions();
  }
  suite.netlists.resize(kVtLibrary + 1);
  for (const std::string& name : suite.circuits) {
    Span span(tracer, "netlist.build");
    // Built once against the 4-option library and rebound for the others,
    // so every library sees the identical structure (as in Table 5).
    auto base = std::make_unique<netlist::Netlist>(
        netlist::make_benchmark(name, *suite.libraries[0]));
    for (int l = 1; l <= kVtLibrary; ++l) {
      suite.netlists[l].push_back(std::make_unique<netlist::Netlist>(
          netlist::rebind(*base, *suite.libraries[l])));
    }
    gates += base->num_gates();
    suite.netlists[0].push_back(std::move(base));
  }

  const int fig5 = static_cast<int>(suite.circuits.size()) - 1;  // c7552 / c880
  for (int c = 0; c < static_cast<int>(suite.circuits.size()); ++c) {
    suite.jobs.push_back({c, 0, Method::kAverageRandom, 0.05});
    for (const double p : {0.05, 0.10, 0.25}) {
      suite.jobs.push_back({c, 0, Method::kHeu1, p});
    }
    suite.jobs.push_back({c, 0, Method::kHeu2, 0.05});
    suite.jobs.push_back({c, 0, Method::kVtState, 0.05});
    if (options.tiny ? c == fig5 : suite.circuits[c] == "c7552") {
      for (const double p : {0.0, 0.02, 0.15, 0.35, 0.50, 0.75, 1.0}) {
        suite.jobs.push_back({c, 0, Method::kHeu1, p});
      }
    }
    for (int l = 1; l < kLibraries; ++l) {
      suite.jobs.push_back({c, l, Method::kHeu1, 0.05});
    }
  }
  report.set("liberty.versions", versions, "count");
  report.set("netlist.gates", gates, "count");
  return suite;
}

struct Outcome {
  double seconds = 0.0;
  core::MethodResult result;
};

/// What one traced pass built: Monte-Carlo baselines (counted as gate
/// evaluations) and AssignmentProblems, whose budgets are replayed.
struct Built {
  /// (circuit, library, kind, penalty); kind 0 marks a baseline.
  std::set<std::tuple<int, int, int, double>> seen;
  std::vector<const netlist::Netlist*> problem_netlists;
  double mc_gate_evals = 0.0;
};

/// One pass over the job list; returns its wall time.
double run_pass(const Suite& suite, const Options& options, Tracer& tracer,
                std::vector<Outcome>& outcomes, Built& built) {
  outcomes.clear();
  const double start = now_s();
  std::unique_ptr<core::StandbyOptimizer> optimizers[kLibraries];
  int current = -1;
  for (std::size_t j = 0; j < suite.jobs.size(); ++j) {
    const Job& job = suite.jobs[j];
    if (job.circuit != current) {
      current = job.circuit;
      for (int l = 0; l < kLibraries; ++l) {
        optimizers[l] = std::make_unique<core::StandbyOptimizer>(
            *suite.netlists[l][static_cast<std::size_t>(current)]);
      }
    }
    core::StandbyOptimizer& optimizer = *optimizers[job.library];
    core::RunConfig config;
    config.penalty_fraction = job.penalty;
    config.time_limit_s = kNoTimeLimit;
    config.random_vectors = kVectors;
    config.seed = options.seed;
    config.max_leaves = kSearchLeaves;

    tracer.set_op(static_cast<std::int64_t>(j));
    if (tracer.enabled()) {
      if (built.seen.insert({job.circuit, job.library, 0, -1.0}).second) {
        built.mc_gate_evals +=
            static_cast<double>(kVectors) * optimizer.circuit().num_gates();
      }
      // The vt+state problem lives on the optimizer's vt twin; the budget
      // replay runs after the pass, so it re-times the suite's own copy.
      const int l = job.method == Method::kVtState ? kVtLibrary : job.library;
      if (job.method != Method::kAverageRandom &&
          built.seen.insert({job.circuit, l, 1, job.penalty}).second) {
        built.problem_netlists.push_back(
            suite.netlists[l][static_cast<std::size_t>(job.circuit)].get());
      }
    }
    Outcome outcome;
    const double t0 = now_s();
    outcome.result = run_layered(tracer, optimizer, job.method, config);
    outcome.seconds = now_s() - t0;
    outcomes.push_back(std::move(outcome));
  }
  tracer.set_op(-1);
  return now_s() - start;
}

bool same_result(const core::MethodResult& a, const core::MethodResult& b) {
  return a.leakage_ua == b.leakage_ua && a.solution.delay_ps == b.solution.delay_ps &&
         a.solution.sleep_vector == b.solution.sleep_vector &&
         a.solution.states_explored == b.solution.states_explored &&
         a.solution.nodes_visited == b.solution.nodes_visited;
}

}  // namespace

Report run_paper_suite(const Options& options, Tracer& tracer) {
  Report report;
  Suite suite;
  const double setup_s = median_setup_s(kSetups, [&](bool first) {
    Tracer quiet(false);
    Report discarded;
    Suite built = set_up(options, first ? tracer : quiet, first ? report : discarded);
    if (first) suite = std::move(built);
  });

  std::fprintf(stderr, "inputs: %zu circuits, %zu jobs, Monte-Carlo seed %llu\n",
               suite.circuits.size(), suite.jobs.size(),
               static_cast<unsigned long long>(options.seed));
  std::vector<Outcome> first;
  std::vector<std::vector<double>> job_seconds(suite.jobs.size());
  std::vector<Outcome> outcomes;
  Built unused;
  Tracer untraced(false);
  const std::vector<double> pass_times =
      measure_for(options.seconds, 2, [&](std::size_t pass) {
        const double t = run_pass(suite, options, untraced, outcomes, unused);
        std::fprintf(stderr, "paper_suite pass %zu: %.3f s\n", pass, t);
        for (std::size_t j = 0; j < outcomes.size(); ++j) {
          job_seconds[j].push_back(outcomes[j].seconds);
        }
        if (pass == 0) {
          report.set("peak_rss_mib", process_usage().peak_rss_mib, "MiB");
          first = outcomes;
          if (options.inject_bad) first[1].result.solution.leakage_na *= 1.0 + 1e-6;
          for (std::size_t j = 0; j < first.size(); ++j) {
            const Job& job = suite.jobs[j];
            if (job.method == Method::kAverageRandom) {
              report.check(first[j].result.leakage_ua > 0.0, "baseline leakage");
              continue;
            }
            const int l = job.method == Method::kVtState ? kVtLibrary : job.library;
            const netlist::Netlist& netlist =
                *suite.netlists[l][static_cast<std::size_t>(job.circuit)];
            const opt::Solution& solution = first[j].result.solution;
            const Recheck re = recheck(tracer, netlist, job.penalty, solution.config,
                                       solution.sleep_vector);
            report.check(re.delay_ps <= re.constraint_ps &&
                             re.leakage_na == solution.leakage_na,
                         "job " + std::to_string(j) + " (" + suite.circuits[job.circuit] +
                             " " + core::to_string(job.method) +
                             ") fails the independent STA / leakage re-check");
          }
        } else {
          for (std::size_t j = 0; j < outcomes.size(); ++j) {
            report.check(same_result(outcomes[j].result, first[j].result),
                         "pass " + std::to_string(pass) + " job " + std::to_string(j) +
                             " differs from pass 0");
          }
        }
        return t;
      });

  double leakage = 0.0, reduction = 0.0;
  int solved = 0;
  std::uint64_t heu1_calls = 0, heu2_leaves = 0, heu2_nodes = 0;
  std::uint64_t vt_leaves = 0, vt_nodes = 0;
  for (std::size_t j = 0; j < first.size(); ++j) {
    const core::MethodResult& r = first[j].result;
    if (r.method == Method::kAverageRandom) continue;
    leakage += r.leakage_ua;
    reduction += r.reduction_x;
    ++solved;
    if (r.method == Method::kHeu1) ++heu1_calls;
    if (r.method == Method::kHeu2) {
      heu2_leaves += r.solution.states_explored;
      heu2_nodes += r.solution.nodes_visited;
    }
    if (r.method == Method::kVtState) {
      vt_leaves += r.solution.states_explored;
      vt_nodes += r.solution.nodes_visited;
    }
  }
  std::vector<double> job_medians;
  for (const std::vector<double>& times : job_seconds) {
    job_medians.push_back(median(times));
  }

  const double wall = median(pass_times);
  report.set("wall_s", wall, "s");
  report.set("setup_s", setup_s, "s");
  report.set("leakage_ua", leakage, "uA");
  report.set("reduction_x", reduction / solved, "x");
  report.set("jobs_per_s", static_cast<double>(suite.jobs.size()) / wall, "1/s");
  report.set("job_p50_s", quantile(job_medians, 0.5), "s");
  report.set("job_p90_s", quantile(job_medians, 0.9), "s");
  report.set("opt.heu1_calls", static_cast<double>(heu1_calls), "count");
  report.set("opt.heu2_leaves", static_cast<double>(heu2_leaves), "count");
  report.set("opt.heu2_nodes", static_cast<double>(heu2_nodes), "count");
  report.set("opt.vtstate_leaves", static_cast<double>(vt_leaves), "count");
  report.set("opt.vtstate_nodes", static_cast<double>(vt_nodes), "count");

  if (options.trace) {
    Built built;
    double traced = 0.0;
    {
      Span iteration(tracer, "iteration");
      traced = run_pass(suite, options, tracer, outcomes, built);
    }
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
      report.check(same_result(outcomes[j].result, first[j].result),
                   "traced job " + std::to_string(j) + " differs from pass 0");
    }
    {
      Span root(tracer, "replay");
      replay_budgets(tracer, built.problem_netlists);
    }
    const auto layers = tracer.layers();
    const double budget_s = layers.at("sta.budget").total_s;
    report.set("sta.budget_s", budget_s, "s");
    report.set("opt.problem_s", layers.at("opt.problem").self_s - budget_s, "s");
    report.set("sim.mc_gate_evals", built.mc_gate_evals, "count");
    report.set("opt.leaves_per_s", heu2_leaves / layers.at("opt.heu2").self_s, "1/s");
    report.set("opt.vtstate_leaves_per_s", vt_leaves / layers.at("opt.vtstate").self_s,
               "1/s");
    report.set("trace.overhead_x", traced / wall, "x");
  }
  return report;
}

}  // namespace perfbench
