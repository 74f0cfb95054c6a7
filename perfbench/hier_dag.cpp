// hier_dag100k: one svc::optimize_hierarchical call (Heu1 cones, one
// worker) on a 100k-gate random DAG with the dag100k preset's shape.
//
// Most of the time goes to AssignmentProblem construction and the global
// greedy gate pass; the state tree does a single descent per cone. The
// flow's phases cannot be spanned from outside the library, so the traced
// run replays the layer calls the flow makes, on the same inputs:
// partition, delay budget, the global AssignmentProblem and the greedy
// gate pass at the returned sleep vector. The replayed greedy pass must
// reproduce the flow's result bit for bit (checked in every traced run),
// which is what makes the replay a faithful per-layer measurement.
#include <cstdio>
#include <memory>
#include <optional>

#include "host.hpp"
#include "liberty/library.hpp"
#include "model/tech.hpp"
#include "netlist/generators.hpp"
#include "opt/gate_assign.hpp"
#include "opt/partition.hpp"
#include "opt/problem.hpp"
#include "sim/leakage_eval.hpp"
#include "sta/sta.hpp"
#include "svc/fingerprint.hpp"
#include "svc/hier.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace svtox;

namespace {

constexpr double kPenalty = 0.05;
constexpr int kBaselineVectors = 1024;
constexpr int kSetups = 3;

struct Inputs {
  std::unique_ptr<liberty::Library> library;  ///< Stable address: dag points into it.
  netlist::Netlist dag;
  double baseline_ua;  ///< Average-random leakage, all gates fastest.
};

/// Library build, DAG generation and the random-vector baseline: the
/// set-up, timed apart from the measured calls.
Inputs set_up(const Options& options, Tracer& tracer, Report& report) {
  auto library = [&] {
    Span span(tracer, "liberty.build");
    return std::make_unique<liberty::Library>(
        liberty::Library::build(model::TechParams::nominal(), {}));
  }();
  netlist::DagOptions dag;  // The dag100k preset's shape, seeded by --seed.
  dag.num_inputs = options.tiny ? 32 : 256;
  dag.num_gates = options.tiny ? 3000 : 100000;
  dag.target_depth = options.tiny ? 24 : 64;
  dag.max_fanout = 8;
  dag.seed = options.seed;
  netlist::Netlist netlist = [&] {
    Span span(tracer, "netlist.build");
    return netlist::random_dag(*library, "dag", dag);
  }();
  double baseline_ua = 0.0;
  {
    Span span(tracer, "sim.mc");
    baseline_ua = sim::monte_carlo_leakage(netlist, sim::fastest_config(netlist),
                                           kBaselineVectors, options.seed)
                      .mean_na /
                  1e3;
  }
  report.set("liberty.versions", library->total_versions(), "count");
  report.set("netlist.gates", netlist.num_gates(), "count");
  report.set("sim.mc_gate_evals",
             static_cast<double>(kBaselineVectors) * netlist.num_gates(), "count");
  return {std::move(library), std::move(netlist), baseline_ua};
}

svc::HierOptions hier_options(const Options& options) {
  svc::HierOptions hier;
  hier.method = "heu1";
  hier.penalty_fraction = kPenalty;
  hier.workers = 1;  // One worker: the host has 1-2 effective CPUs.
  if (options.tiny) hier.partition.max_gates = 500;
  return hier;
}

bool same_solution(const opt::Solution& a, const opt::Solution& b) {
  if (a.leakage_na != b.leakage_na || a.delay_ps != b.delay_ps ||
      a.sleep_vector != b.sleep_vector || a.config.size() != b.config.size()) {
    return false;
  }
  for (std::size_t g = 0; g < a.config.size(); ++g) {
    if (a.config[g].variant != b.config[g].variant ||
        a.config[g].mapping.logical_to_physical !=
            b.config[g].mapping.logical_to_physical) {
      return false;
    }
  }
  return true;
}

}  // namespace

Report run_hier_dag(const Options& options, Tracer& tracer) {
  Report report;
  std::optional<Inputs> inputs;
  const double setup_s = median_setup_s(kSetups, [&](bool first) {
    Tracer quiet(false);
    Report discarded;
    Inputs built = set_up(options, first ? tracer : quiet, first ? report : discarded);
    if (first) inputs.emplace(std::move(built));
  });
  const Inputs& in = *inputs;
  std::fprintf(stderr, "inputs: dag %s, %d gates\n",
               svc::hex64(svc::fingerprint_netlist(in.dag)).c_str(), in.dag.num_gates());
  const svc::HierOptions hier = hier_options(options);
  svc::HierResult first;
  std::vector<double> call_times = measure_for(options.seconds, 1, [&](std::size_t i) {
    const double t0 = now_s();
    svc::HierResult result = svc::optimize_hierarchical(in.dag, hier);
    const double t = now_s() - t0;
    std::fprintf(stderr, "hier call %zu: %.3f s\n", i, t);
    if (i == 0) {
      report.set("peak_rss_mib", process_usage().peak_rss_mib, "MiB");
      first = std::move(result);
    } else {
      report.check(same_solution(result.solution, first.solution) &&
                       result.unique_solves == first.unique_solves,
                   "hier call " + std::to_string(i) + " differs from the first");
    }
    return t;
  });

  opt::Solution reported = first.solution;
  if (options.inject_bad) reported.leakage_na *= 1.0 + 1e-6;
  const Recheck re =
      recheck(tracer, in.dag, kPenalty, reported.config, reported.sleep_vector);
  report.check(re.delay_ps <= re.constraint_ps && re.leakage_na == reported.leakage_na,
               "hier solution fails the independent STA / leakage re-check");

  const double wall = median(call_times);
  report.set("wall_s", wall, "s");
  report.set("setup_s", setup_s, "s");
  report.set("leakage_ua", first.solution.leakage_na / 1e3, "uA");
  report.set("reduction_x", in.baseline_ua / (first.solution.leakage_na / 1e3), "x");
  report.set("jobs_per_s", 1.0 / wall, "1/s");
  report.set("job_p50_s", wall, "s");
  report.set("job_p90_s", quantile(call_times, 0.9), "s");
  report.set("hier.levels", first.levels, "count");
  report.set("hier.unique_solves", static_cast<double>(first.unique_solves), "count");
  report.set("hier.cache_hits", static_cast<double>(first.cache_hits), "count");
  report.set("hier.repaired_gates", first.repaired_gates, "count");
  report.set("hier.refine_passes", first.refine_passes_run, "count");
  report.set("hier.refine_accepted", first.refine_accepted, "count");
  if (!options.trace) return report;

  // One traced call, then the replay of the layer calls the flow makes.
  double traced_call_s = 0.0;
  {
    Span iteration(tracer, "iteration");
    Span call(tracer, "hier.optimize");
    const double t0 = now_s();
    svc::optimize_hierarchical(in.dag, hier);
    traced_call_s = now_s() - t0;
  }
  std::vector<opt::Partition> partitions;
  opt::Solution replay;
  {
    Span root(tracer, "replay");
    {
      Span span(tracer, "opt.partition");
      partitions = opt::partition_netlist(in.dag, hier.partition);
    }
    {
      Span span(tracer, "sta.budget");
      sta::compute_delay_budget(in.dag);
    }
    std::unique_ptr<opt::AssignmentProblem> problem;
    {
      Span span(tracer, "opt.problem");
      problem = std::make_unique<opt::AssignmentProblem>(in.dag, kPenalty);
    }
    Span span(tracer, "opt.greedy");
    replay = opt::assign_gates_greedy(*problem, first.solution.sleep_vector);
  }
  // On dag100k-shaped inputs the flow's result is the global greedy
  // re-assignment at its sleep vector (the stitched config misses the
  // constraint and no refine pass improves on it), so the replay must
  // reproduce it bit for bit; that is what makes it a faithful measurement.
  report.check(same_solution(replay, reported),
               "replayed greedy pass differs from the hier result");

  int changed = 0;
  const sim::CircuitConfig fastest = sim::fastest_config(in.dag);
  for (std::size_t g = 0; g < replay.config.size(); ++g) {
    if (replay.config[g].variant != fastest[g].variant) ++changed;
  }
  const auto layers = tracer.layers();
  const double total = layers.at("hier.optimize").total_s;
  report.set("opt.partitions", static_cast<double>(partitions.size()), "count");
  report.set("opt.greedy_changed_gates", changed, "count");
  report.set("hier.total_s", total, "s");
  report.set("hier.cone_sweep_s",
             total - layers.at("opt.problem").total_s - layers.at("opt.greedy").total_s,
             "s");
  report.set("trace.overhead_x", traced_call_s / wall, "x");
  return report;
}

}  // namespace perfbench
