// Service-layer throughput: a 50-job mixed manifest (benchmark circuits
// x delay penalties, method heu1) pushed through svc::Scheduler, cold
// cache vs warm cache, 1 worker vs all hardware threads. Emits
// BENCH_service.json (jobs/sec, cache hit rates, warm-over-cold ratios)
// next to the other BENCH_*.json artifacts when run from the repo root.
//
// The warm pass resubmits the identical manifest to the same scheduler:
// every job must come back as a cache hit, so warm/cold jobs-per-second
// measures the solution cache's end-to-end payoff (target: >= 5x).
//
// Knobs: SVTOX_CIRCUITS / SVTOX_VECTORS / SVTOX_TIME_LIMIT (bench/common.hpp)
// shrink the manifest for smoke runs; argv[1] overrides the output path.
#include <algorithm>
#include <thread>

#include "bench/common.hpp"
#include "svc/json.hpp"
#include "svc/scheduler.hpp"

namespace {

using namespace svtox;

/// circuits x penalties, heu1. With the full 10-circuit suite and the
/// default 5 penalty points this is the 50-job manifest from the issue.
std::vector<svc::JobSpec> build_manifest() {
  const std::vector<double> penalties = {5.0, 10.0, 15.0, 20.0, 25.0};
  std::vector<svc::JobSpec> manifest;
  for (const std::string& name : bench::circuit_names()) {
    for (const double penalty : penalties) {
      svc::JobSpec spec;
      spec.circuit = name;
      spec.method = "heu1";
      spec.penalty_percent = penalty;
      spec.time_limit_s = bench::time_limit_s();
      spec.random_vectors = bench::mc_vectors();
      manifest.push_back(spec);
    }
  }
  return manifest;
}

struct PassResult {
  double seconds = 0.0;
  double jobs_per_s = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t executed = 0;
  double hit_rate = 0.0;
};

/// Submits the whole manifest, waits for every job, and reads the cache
/// counter deltas off the scheduler stats.
PassResult run_pass(svc::Scheduler& scheduler,
                    const std::vector<svc::JobSpec>& manifest) {
  const svc::SchedulerStats before = scheduler.stats();
  Timer timer;
  std::vector<svc::JobId> ids;
  ids.reserve(manifest.size());
  for (const svc::JobSpec& spec : manifest) ids.push_back(scheduler.submit(spec));
  for (const svc::JobId id : ids) {
    const svc::JobResult result = scheduler.wait(id);
    if (result.status != svc::JobStatus::kDone) {
      std::fprintf(stderr, "job %llu failed: %s\n",
                   static_cast<unsigned long long>(id), result.error.c_str());
      std::exit(1);
    }
  }
  PassResult pass;
  pass.seconds = timer.seconds();
  pass.jobs_per_s = static_cast<double>(manifest.size()) / pass.seconds;
  const svc::SchedulerStats after = scheduler.stats();
  pass.hits = after.cache.hits - before.cache.hits;
  pass.misses = after.cache.misses - before.cache.misses;
  pass.executed = after.executed - before.executed;
  const std::uint64_t lookups = pass.hits + pass.misses;
  pass.hit_rate = lookups == 0 ? 0.0
                               : static_cast<double>(pass.hits) /
                                     static_cast<double>(lookups);
  return pass;
}

svc::Json pass_json(const PassResult& pass) {
  svc::Json json = svc::Json::object();
  json.set("seconds", pass.seconds);
  json.set("jobs_per_s", pass.jobs_per_s);
  json.set("cache_hits", pass.hits);
  json.set("cache_misses", pass.misses);
  json.set("executed", pass.executed);
  json.set("hit_rate", pass.hit_rate);
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace svtox;
  bench::print_header("service throughput -- scheduler + solution cache",
                      "engineering artifact (no paper table)");

  // Always writes its artifact -> provenance guard up front.
  const char* out_path = argc > 1 ? argv[1] : "BENCH_service.json";
  bench::check_artifact_build_type(out_path);

  const std::vector<svc::JobSpec> manifest = build_manifest();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<int> worker_counts =
      hw > 1 ? std::vector<int>{1, static_cast<int>(hw)} : std::vector<int>{1};

  AsciiTable table;
  table.set_header({"workers", "phase", "time (s)", "jobs/s", "hit rate",
                    "executed"});

  svc::Json::Array runs;
  svc::Json ratios = svc::Json::object();
  for (const int workers : worker_counts) {
    svc::Scheduler::Options options;
    options.workers = workers;
    options.queue_capacity = manifest.size() + 8;
    svc::Scheduler scheduler(options);

    const PassResult cold = run_pass(scheduler, manifest);
    const PassResult warm = run_pass(scheduler, manifest);
    const double warm_over_cold = warm.jobs_per_s / cold.jobs_per_s;

    const auto record = [&](const char* phase, const PassResult& pass) {
      char time_s[32], rate[32], hit[32], exec[32];
      std::snprintf(time_s, sizeof time_s, "%.3f", pass.seconds);
      std::snprintf(rate, sizeof rate, "%.1f", pass.jobs_per_s);
      std::snprintf(hit, sizeof hit, "%.0f%%", pass.hit_rate * 100.0);
      std::snprintf(exec, sizeof exec, "%llu",
                    static_cast<unsigned long long>(pass.executed));
      table.add_row({std::to_string(workers), phase, time_s, rate, hit, exec});

      svc::Json run = pass_json(pass);
      run.set("workers", workers);
      run.set("phase", phase);
      runs.push_back(std::move(run));
    };
    record("cold", cold);
    record("warm", warm);
    ratios.set(std::to_string(workers), warm_over_cold);
    std::printf("workers=%d: warm/cold = %.1fx\n", workers, warm_over_cold);
  }
  std::printf("%s\n", table.render().c_str());

  svc::Json doc = svc::Json::object();
  doc.set("bench", "service_throughput");
  doc.set("jobs", static_cast<double>(manifest.size()));
  doc.set("method", "heu1");
  doc.set("vectors", bench::mc_vectors());
  doc.set("time_limit_s", bench::time_limit_s());
  svc::Json::Array circuits;
  for (const std::string& name : bench::circuit_names()) circuits.emplace_back(name);
  doc.set("circuits", svc::Json(std::move(circuits)));
  doc.set("hardware_threads", static_cast<double>(hw));
  doc.set("runs", svc::Json(std::move(runs)));
  doc.set("warm_over_cold_x", ratios);

  doc.set("svtox_build_type", bench::build_type());

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  const std::string text = doc.dump();
  std::fwrite(text.data(), 1, text.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
