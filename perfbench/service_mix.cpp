// service_mix: one client, closed loop (one outstanding job), against an
// in-process svc::Scheduler with one worker.
//
// The seeded job stream mixes circuit, penalty, Heu1 or leaf-budgeted
// Heu2, and the 4-option or 2-option library. About a quarter of the jobs
// repeat an earlier job exactly (SolutionCache reads); the rest are new
// solves (writes). The stream touches more (library, circuit) contexts
// than the worker's optimizer LRU holds, so contexts get evicted and
// rebuilt. This uses the same search layer as paper_suite, but per-job
// set-up dominates: resource pool, optimizer LRU, problem rebuilds,
// fingerprinting, solution text and the cache hit and miss paths.
//
// Each pass starts a fresh Scheduler and warms its resource pool with one
// cheap baseline job per context (set-up, timed apart), then sends the
// stream. The hit share stays well below 50% so that job_p50_s falls
// among the misses, not on the hit/miss boundary.
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>

#include "core/optimizer.hpp"
#include "core/solution_io.hpp"
#include "host.hpp"
#include "liberty/library.hpp"
#include "model/tech.hpp"
#include "netlist/benchmarks.hpp"
#include "svc/scheduler.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace svtox;

namespace {

constexpr int kVectors = 10000;
constexpr int kWarmVectors = 64;
constexpr std::uint64_t kHeu2Leaves = 8;
constexpr std::size_t kContextsPerWorker = 8;  // The Scheduler's default LRU size.

struct Context {
  bool two_point;
  std::string circuit;
};

struct StreamJob {
  int context;
  bool heu2;
  double penalty_percent;
  int repeat_of;  ///< Index of the job this one repeats, -1 for a new solve.
};

struct Mix {
  std::vector<Context> contexts;
  std::vector<StreamJob> stream;
  /// Our own copies of every context's library and netlist, for the checks
  /// and the traced replay.
  std::vector<std::unique_ptr<liberty::Library>> libraries;  ///< [two_point]
  std::vector<std::unique_ptr<netlist::Netlist>> netlists;   ///< [context]
};

svc::JobSpec spec_for(const Mix& mix, const StreamJob& job, std::uint64_t seed) {
  const Context& context = mix.contexts[static_cast<std::size_t>(job.context)];
  svc::JobSpec spec;
  spec.circuit = context.circuit;
  spec.two_point = context.two_point;
  spec.method = job.heu2 ? "heu2" : "heu1";
  spec.penalty_percent = job.penalty_percent;
  spec.time_limit_s = kNoTimeLimit;
  spec.max_leaves = kHeu2Leaves;
  spec.random_vectors = kVectors;
  spec.seed = seed;
  return spec;
}

/// The seeded stream: a fixed set of distinct solves -- Heu1 at 5/10/25%
/// and leaf-budgeted Heu2 at 5% on every context -- in seeded order, with
/// exact repeats of earlier jobs inserted at seeded positions. The seed
/// changes the order (and so the LRU evictions) and which jobs repeat, but
/// not the set of solves, so the quality sums do not depend on it. Heu2
/// stays at 5%: under a leaf budget its interior nodes are uncapped, and
/// at 25% c499 alone runs for minutes.
Mix make_mix(const Options& options, Tracer& tracer, Report& report) {
  Mix mix;
  std::vector<std::string> circuits = {"c432", "c499", "c880"};
  if (!options.tiny) {
    circuits.clear();
    for (const auto& spec : netlist::benchmark_suite()) circuits.push_back(spec.name);
  }
  for (const bool two_point : {false, true}) {
    for (const std::string& c : circuits) mix.contexts.push_back({two_point, c});
  }
  std::vector<StreamJob> solves;
  for (int c = 0; c < static_cast<int>(mix.contexts.size()); ++c) {
    for (const double p : {5.0, 10.0, 25.0}) solves.push_back({c, false, p, -1});
    solves.push_back({c, true, 5.0, -1});
  }
  // std::mt19937_64's output is fixed by the standard; the distributions
  // are not, so draws are reduced by hand.
  std::mt19937_64 rng(options.seed);
  for (std::size_t i = solves.size(); i > 1; --i) {
    std::swap(solves[i - 1], solves[rng() % i]);
  }
  const std::size_t repeats = (solves.size() * 4 + 10) / 11;  // ~27% of the stream
  std::vector<bool> is_repeat(solves.size() + repeats, false);
  for (std::size_t placed = 0; placed < repeats;) {
    const std::size_t at = 1 + rng() % (is_repeat.size() - 1);  // never first
    if (!is_repeat[at]) {
      is_repeat[at] = true;
      ++placed;
    }
  }
  std::vector<int> solve_positions;
  std::size_t next = 0;
  for (std::size_t i = 0; i < is_repeat.size(); ++i) {
    if (is_repeat[i]) {
      const int original = solve_positions[rng() % solve_positions.size()];
      StreamJob job = mix.stream[static_cast<std::size_t>(original)];
      job.repeat_of = original;
      mix.stream.push_back(job);
    } else {
      solve_positions.push_back(static_cast<int>(mix.stream.size()));
      mix.stream.push_back(solves[next++]);
    }
  }
  double versions = 0, gates = 0;
  for (const bool two_point : {false, true}) {
    Span span(tracer, "liberty.build");
    liberty::LibraryOptions lib;
    lib.variant_options.four_point = !two_point;
    mix.libraries.push_back(std::make_unique<liberty::Library>(
        liberty::Library::build(model::TechParams::nominal(), lib)));
    versions += mix.libraries.back()->total_versions();
  }
  for (const Context& context : mix.contexts) {
    Span span(tracer, "netlist.build");
    mix.netlists.push_back(std::make_unique<netlist::Netlist>(netlist::make_benchmark(
        context.circuit, *mix.libraries[context.two_point ? 1 : 0])));
    gates += mix.netlists.back()->num_gates();
  }
  report.set("liberty.versions", versions, "count");
  report.set("netlist.gates", gates, "count");
  return mix;
}

/// The RunConfig the scheduler's worker derives from `spec`.
core::RunConfig run_config(const svc::JobSpec& spec) {
  core::RunConfig config;
  config.penalty_fraction = spec.penalty_percent / 100.0;
  config.time_limit_s = spec.time_limit_s;
  config.random_vectors = spec.random_vectors;
  config.seed = spec.seed;
  config.max_leaves = spec.max_leaves;
  return config;
}

/// One cheap, uncached baseline job per context: builds the scheduler's
/// libraries and netlists and leaves its optimizer LRU in a fixed state.
svc::JobSpec warm_spec(const Context& context) {
  svc::JobSpec spec;
  spec.circuit = context.circuit;
  spec.two_point = context.two_point;
  spec.method = "average";
  spec.random_vectors = kWarmVectors;
  spec.use_cache = false;
  return spec;
}

struct Pass {
  double seconds = 0.0;
  std::vector<double> latency;
  std::vector<svc::JobResult> results;
  svc::SchedulerStats stats;
};

Pass run_pass(const Mix& mix, const Options& options, Tracer& tracer, double& setup_s) {
  svc::Scheduler::Options sched;
  sched.workers = 1;
  sched.contexts_per_worker = kContextsPerWorker;
  svc::Scheduler scheduler(sched);
  const double warm_start = now_s();
  for (const Context& context : mix.contexts) {
    scheduler.wait(scheduler.submit(warm_spec(context)));
  }
  setup_s = now_s() - warm_start;

  Pass pass;
  const double start = now_s();
  for (std::size_t j = 0; j < mix.stream.size(); ++j) {
    tracer.set_op(static_cast<std::int64_t>(j));
    Span span(tracer, "svc.job");
    const double t0 = now_s();
    const svc::JobSpec spec = spec_for(mix, mix.stream[j], options.seed);
    pass.results.push_back(scheduler.wait(scheduler.submit(spec)));
    pass.latency.push_back(now_s() - t0);
  }
  tracer.set_op(-1);
  pass.seconds = now_s() - start;
  pass.stats = scheduler.stats();
  return pass;
}

bool same_result(const svc::JobResult& a, const svc::JobResult& b) {
  return a.status == b.status && a.leakage_ua == b.leakage_ua &&
         a.delay_ps == b.delay_ps && a.reduction_x == b.reduction_x &&
         a.states_explored == b.states_explored && a.solution_text == b.solution_text;
}

/// The worker's per-job layer calls, replayed in-process: an optimizer LRU
/// of the scheduler's size, warmed the same way, then every new solve of
/// the stream through run_layered. Returns the results in stream order
/// (repeats skipped).
std::vector<core::MethodResult> replay(const Mix& mix, const Options& options,
                                       Tracer& tracer, double& mc_gate_evals,
                                       std::vector<const netlist::Netlist*>& built) {
  struct Entry {
    std::unique_ptr<core::StandbyOptimizer> optimizer;
    std::uint64_t last_use = 0;
    bool has_baseline = false;
    std::set<double> problems;  ///< Penalties whose problem this optimizer built.
  };
  std::map<int, Entry> lru;
  std::uint64_t tick = 0;
  auto optimizer_for = [&](int context) -> Entry& {
    auto it = lru.find(context);
    if (it == lru.end()) {
      while (lru.size() >= kContextsPerWorker) {
        auto oldest = lru.begin();
        for (auto e = lru.begin(); e != lru.end(); ++e) {
          if (e->second.last_use < oldest->second.last_use) oldest = e;
        }
        lru.erase(oldest);
      }
      const netlist::Netlist& netlist = *mix.netlists[static_cast<std::size_t>(context)];
      Entry entry{std::make_unique<core::StandbyOptimizer>(netlist), 0, false, {}};
      it = lru.emplace(context, std::move(entry)).first;
    }
    it->second.last_use = ++tick;
    return it->second;
  };
  for (std::size_t c = 0; c < mix.contexts.size(); ++c) {
    core::RunConfig warm;
    warm.random_vectors = kWarmVectors;
    optimizer_for(static_cast<int>(c)).optimizer->run(core::Method::kAverageRandom, warm);
  }

  std::vector<core::MethodResult> out;
  for (std::size_t j = 0; j < mix.stream.size(); ++j) {
    const StreamJob& job = mix.stream[j];
    if (job.repeat_of >= 0) continue;
    tracer.set_op(static_cast<std::int64_t>(j));
    const svc::JobSpec spec = spec_for(mix, job, options.seed);
    Entry& entry = optimizer_for(job.context);
    if (!entry.has_baseline) {
      entry.has_baseline = true;
      mc_gate_evals += static_cast<double>(kVectors) *
                       mix.netlists[static_cast<std::size_t>(job.context)]->num_gates();
    }
    const core::RunConfig config = run_config(spec);
    if (entry.problems.insert(config.penalty_fraction).second) {
      built.push_back(mix.netlists[static_cast<std::size_t>(job.context)].get());
    }
    const core::Method method = job.heu2 ? core::Method::kHeu2 : core::Method::kHeu1;
    out.push_back(run_layered(tracer, *entry.optimizer, method, config));
  }
  tracer.set_op(-1);
  return out;
}

}  // namespace

Report run_service_mix(const Options& options, Tracer& tracer) {
  Report report;
  const Mix mix = make_mix(options, tracer, report);
  const std::size_t n = mix.stream.size();
  std::string stream_text;
  for (const StreamJob& job : mix.stream) {
    stream_text += std::to_string(job.context) + (job.heu2 ? "h2@" : "h1@") +
                   std::to_string(job.penalty_percent) + "r" +
                   std::to_string(job.repeat_of) + ";";
  }
  std::fprintf(stderr, "inputs: stream %s, %zu jobs, %zu contexts\n",
               hex64(fnv1a64(stream_text)).c_str(), n, mix.contexts.size());
  std::vector<double> setup_times;
  std::vector<std::vector<double>> latencies(n);
  Pass first;
  Tracer untraced(false);
  auto iteration = [&](std::size_t p) {
    double setup_s = 0.0;
    Pass pass = run_pass(mix, options, untraced, setup_s);
    setup_times.push_back(setup_s);
    const double rss = process_usage().peak_rss_mib;
    std::fprintf(stderr,
                 "service_mix pass %zu: %.3f s (warm-up %.3f s), peak RSS %.1f MiB\n", p,
                 pass.seconds, setup_s, rss);
    for (std::size_t j = 0; j < n; ++j) latencies[j].push_back(pass.latency[j]);
    const double seconds = pass.seconds;
    if (p == 0) {
      report.set("peak_rss_mib", rss, "MiB");
      first = std::move(pass);
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        report.check(same_result(pass.results[j], first.results[j]),
                     "pass " + std::to_string(p) + " job " + std::to_string(j) +
                         " differs from pass 0");
      }
    }
    return seconds;
  };
  const std::vector<double> pass_times = measure_for(options.seconds, 3, iteration);

  // Checks on the first pass: every job done and not interrupted, every
  // repeat served from the cache and identical to the solve it repeats,
  // every new solve re-verified on our own copy of its netlist.
  if (options.inject_bad) first.results[0].leakage_ua *= 1.0 + 1e-6;
  double leakage = 0.0, reduction = 0.0;
  int solves = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const StreamJob& job = mix.stream[j];
    const svc::JobResult& r = first.results[j];
    const std::string label = "job " + std::to_string(j);
    if (!report.check(r.status == svc::JobStatus::kDone && !r.interrupted &&
                          r.cache_hit == (job.repeat_of >= 0),
                      label + " not done, interrupted, or served from the wrong path")) {
      continue;
    }
    if (job.repeat_of >= 0) {
      report.check(same_result(r, first.results[static_cast<std::size_t>(job.repeat_of)]),
                   label + " (cache hit) differs from the solve it repeats");
      continue;
    }
    leakage += r.leakage_ua;
    reduction += r.reduction_x;
    ++solves;
    const netlist::Netlist& netlist =
        *mix.netlists[static_cast<std::size_t>(job.context)];
    const opt::Solution solution = core::read_solution(r.solution_text, netlist);
    const Recheck re = recheck(tracer, netlist, job.penalty_percent / 100.0,
                               solution.config, solution.sleep_vector);
    report.check(re.delay_ps <= re.constraint_ps && re.leakage_na / 1e3 == r.leakage_ua,
                 label + " fails the independent STA / leakage re-check");
  }
  // A sampled new solve must equal a direct StandbyOptimizer::run.
  {
    std::mt19937_64 rng(options.seed ^ 0x5a5a5a5aULL);
    std::size_t j = rng() % n;
    while (mix.stream[j].repeat_of >= 0) j = (j + 1) % n;
    const StreamJob& job = mix.stream[j];
    const netlist::Netlist& netlist =
        *mix.netlists[static_cast<std::size_t>(job.context)];
    core::StandbyOptimizer optimizer(netlist);
    const core::MethodResult direct =
        optimizer.run(job.heu2 ? core::Method::kHeu2 : core::Method::kHeu1,
                      run_config(spec_for(mix, job, options.seed)));
    report.check(direct.leakage_ua == first.results[j].leakage_ua &&
                     direct.solution.delay_ps == first.results[j].delay_ps &&
                     core::write_solution(direct.solution, netlist) ==
                         first.results[j].solution_text,
                 "sampled job " + std::to_string(j) + " differs from a direct run");
  }

  std::vector<double> job_medians;
  for (const std::vector<double>& l : latencies) job_medians.push_back(median(l));
  const double wall = median(pass_times);
  report.set("wall_s", wall, "s");
  report.set("setup_s", median(setup_times), "s");
  report.set("leakage_ua", leakage, "uA");
  report.set("reduction_x", reduction / solves, "x");
  report.set("jobs_per_s", static_cast<double>(n) / wall, "1/s");
  report.set("job_p50_s", quantile(job_medians, 0.5), "s");
  report.set("job_p90_s", quantile(job_medians, 0.9), "s");

  if (options.trace) {
    double setup_s = 0.0;
    Pass traced;
    {
      Span iteration(tracer, "iteration");
      traced = run_pass(mix, options, tracer, setup_s);
    }
    std::vector<double> hit, miss, overhead;
    double solve_s = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const svc::JobResult& r = traced.results[j];
      report.check(same_result(r, first.results[j]),
                   "traced job " + std::to_string(j) + " differs from pass 0");
      if (r.cache_hit) {
        hit.push_back(traced.latency[j]);
      } else {
        miss.push_back(traced.latency[j]);
        overhead.push_back(traced.latency[j] - r.runtime_s);
        solve_s += r.runtime_s;
      }
    }
    const std::uint64_t hits = traced.stats.cache.hits;
    const std::uint64_t misses = traced.stats.cache.misses;
    report.set("svc.solve_s", solve_s, "s");
    report.set("svc.overhead_p50_s", median(overhead), "s");
    report.set("svc.hit_p50_s", median(hit), "s");
    report.set("svc.miss_p50_s", median(miss), "s");
    report.set("svc.cache_hits", static_cast<double>(hits), "count");
    report.set("svc.cache_misses", static_cast<double>(misses), "count");
    report.set("svc.hit_ratio",
               static_cast<double>(hits) / static_cast<double>(hits + misses), "ratio");
    // Solves the stream caused (the warm-up jobs executed too).
    report.set("svc.executed",
               static_cast<double>(traced.stats.executed - mix.contexts.size()), "count");
    report.set("trace.overhead_x", traced.seconds / wall, "x");

    double mc_gate_evals = 0.0;
    std::vector<core::MethodResult> replayed;
    std::vector<const netlist::Netlist*> built;
    {
      Span root(tracer, "replay");
      replayed = replay(mix, options, tracer, mc_gate_evals, built);
      replay_budgets(tracer, built);
    }
    std::uint64_t heu1_calls = 0, heu2_leaves = 0, heu2_nodes = 0;
    for (std::size_t j = 0, k = 0; j < n; ++j) {
      if (mix.stream[j].repeat_of >= 0) continue;
      const core::MethodResult& r = replayed[k++];
      report.check(r.leakage_ua == first.results[j].leakage_ua &&
                       r.solution.delay_ps == first.results[j].delay_ps,
                   "replayed job " + std::to_string(j) + " differs from the scheduler's");
      if (r.method == core::Method::kHeu1) ++heu1_calls;
      if (r.method == core::Method::kHeu2) {
        heu2_leaves += r.solution.states_explored;
        heu2_nodes += r.solution.nodes_visited;
      }
    }
    const auto layers = tracer.layers();
    const double budget_s = layers.at("sta.budget").total_s;
    report.set("sta.budget_s", budget_s, "s");
    report.set("opt.problem_s", layers.at("opt.problem").self_s - budget_s, "s");
    report.set("sim.mc_gate_evals", mc_gate_evals, "count");
    report.set("opt.heu1_calls", static_cast<double>(heu1_calls), "count");
    report.set("opt.heu2_leaves", static_cast<double>(heu2_leaves), "count");
    report.set("opt.heu2_nodes", static_cast<double>(heu2_nodes), "count");
    report.set("opt.leaves_per_s", heu2_leaves / layers.at("opt.heu2").self_s, "1/s");
  }
  return report;
}

}  // namespace perfbench
