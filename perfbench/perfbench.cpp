// svtox_perfbench: runs one benchmark workload in-process and prints its
// metrics.
//
//   svtox_perfbench --workload paper_suite|hier_dag100k|service_mix
//                   --seed N --seconds S --trace 0|1
//                   [--trace-out FILE] [--tiny] [--inject-bad]
//
// The last line of standard output is one JSON object:
//   {"attempted": N, "failed": N, "metrics": {name: {"value", "unit"}}}
// holding every metric the workload measured; perfbench/run.py selects the
// end-to-end or per-layer set named in BENCHMARK.json. Progress, the host
// record and (with --trace 1) the per-layer self-time table go to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "host.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "svtox_perfbench: %s\nusage: svtox_perfbench --workload "
               "paper_suite|hier_dag100k|service_mix --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--tiny] [--inject-bad]\n",
               message);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Per-layer self times of the traced iteration and of everything else
/// (set-up, replays, checks), printed as a table and turned into
/// "<span>_s" metrics unless the workload derived that metric itself.
void report_layers(const Tracer& tracer, Report& report) {
  std::fprintf(stderr, "%-22s %8s %12s %12s\n", "span", "calls", "total_s", "self_s");
  for (const auto& [name, layer] : tracer.layers()) {
    std::fprintf(stderr, "%-22s %8d %12.6f %12.6f\n", name.c_str(), layer.calls,
                 layer.total_s, layer.self_s);
    if (name == "iteration" || name == "replay") continue;
    const std::string metric = name + "_s";
    if (report.metrics.count(metric) == 0) report.set(metric, layer.self_s, "s");
  }
  // Share of the traced iteration's wall time that its layer spans cover.
  const auto& records = tracer.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (std::strcmp(records[i].name, "iteration") != 0) continue;
    double covered = 0.0;
    for (const auto& [name, layer] : tracer.layers(static_cast<int>(i))) {
      covered += layer.self_s;
    }
    const double wall = tracer.seconds(records[i]);
    report.set("trace.coverage", wall > 0.0 ? covered / wall : 0.0, "ratio");
    std::fprintf(stderr, "traced iteration: %.6f s, layer self time covers %.2f%%\n",
                 wall, wall > 0.0 ? 100.0 * covered / wall : 0.0);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string workload;
  std::string trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (arg == "--trace-out") {
        trace_out = value();
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--inject-bad") {
        options.inject_bad = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  Report (*run)(const Options&, Tracer&) = nullptr;
  if (workload == "paper_suite") run = run_paper_suite;
  if (workload == "hier_dag100k") run = run_hier_dag;
  if (workload == "service_mix") run = run_service_mix;
  if (run == nullptr) usage(("unknown workload " + workload).c_str());

  svtox::set_log_level(svtox::LogLevel::kWarn);
  const std::string load_before = loadavg();
  const std::uint64_t steal_before = steal_ticks();
  const double calib_before = calibration_s();

  Tracer tracer(options.trace);
  Report report;
  try {
    report = run(options, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svtox_perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }

  const double calib_after = calibration_s();
  const Usage usage_end = process_usage();
  const std::uint64_t steal = steal_ticks() - steal_before;
  report.set("proc.cpu_s", usage_end.cpu_s, "s");
  report.set("proc.invol_ctx_switches", static_cast<double>(usage_end.invol_ctx_switches),
             "count");
  report.set("host.steal_ticks", static_cast<double>(steal), "count");
  report.set("host.calib_s", 0.5 * (calib_before + calib_after), "s");
  std::fprintf(stderr,
               "host: {\"cpu\": \"%s\", \"nproc\": %u, \"loadavg_before\": \"%s\", "
               "\"loadavg_after\": \"%s\", \"steal_ticks\": %llu, "
               "\"invol_ctx_switches\": %ld, \"calib_before_s\": %.6f, "
               "\"calib_after_s\": %.6f}\n",
               json_escape(cpu_model()).c_str(), nproc(), load_before.c_str(),
               loadavg().c_str(), static_cast<unsigned long long>(steal),
               usage_end.invol_ctx_switches, calib_before, calib_after);

  if (options.trace) {
    report_layers(tracer, report);
    if (!trace_out.empty() && !tracer.write_jsonl(trace_out)) {
      std::fprintf(stderr, "svtox_perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }

  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
