#include "svc/job.hpp"

#include <stdexcept>

#include "util/error.hpp"

namespace svtox::svc {

namespace {

double number_field(const Json& json, std::string_view key, double fallback) {
  const Json* value = json.get(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) {
    throw ContractError("job field '" + std::string(key) + "' must be a number");
  }
  return value->as_number();
}

bool bool_field(const Json& json, std::string_view key, bool fallback) {
  const Json* value = json.get(key);
  if (value == nullptr) return fallback;
  if (!value->is_bool()) {
    throw ContractError("job field '" + std::string(key) + "' must be a boolean");
  }
  return value->as_bool();
}

std::string string_field(const Json& json, std::string_view key,
                         const std::string& fallback) {
  const Json* value = json.get(key);
  if (value == nullptr) return fallback;
  if (!value->is_string()) {
    throw ContractError("job field '" + std::string(key) + "' must be a string");
  }
  return value->as_string();
}

bool valid_method(const std::string& name) {
  return name == "average" || name == "state" || name == "vtstate" ||
         name == "heu1" || name == "heu2" || name == "exact";
}

}  // namespace

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
  }
  return "?";
}

JobSpec job_spec_from_json(const Json& json) {
  if (!json.is_object()) throw ContractError("job spec must be a JSON object");
  static const char* kKnown[] = {
      "circuit", "bench", "bench_text", "nitrided", "two_point", "uniform_stack", "vt_only",
      "method", "penalty", "time_limit", "vectors", "seed", "threads",
      "max_leaves", "pins", "boundary",
      "priority", "deadline", "cache", "retries", "label"};
  for (const auto& [key, value] : json.as_object()) {
    (void)value;
    bool known = false;
    for (const char* name : kKnown) known = known || key == name;
    if (!known) throw ContractError("unknown job field '" + key + "'");
  }

  JobSpec spec;
  spec.circuit = string_field(json, "circuit", "");
  spec.bench_path = string_field(json, "bench", "");
  spec.bench_text = string_field(json, "bench_text", "");
  spec.nitrided = bool_field(json, "nitrided", false);
  spec.two_point = bool_field(json, "two_point", false);
  spec.uniform_stack = bool_field(json, "uniform_stack", false);
  spec.vt_only = bool_field(json, "vt_only", false);
  spec.method = string_field(json, "method", "heu1");
  spec.penalty_percent = number_field(json, "penalty", 5.0);
  spec.time_limit_s = number_field(json, "time_limit", 5.0);
  spec.random_vectors = static_cast<int>(number_field(json, "vectors", 10000));
  spec.seed = static_cast<std::uint64_t>(number_field(json, "seed", 2004));
  spec.search_threads = static_cast<int>(number_field(json, "threads", 1));
  spec.max_leaves = static_cast<std::uint64_t>(number_field(json, "max_leaves", 0));
  spec.pinned_inputs = string_field(json, "pins", "");
  spec.boundary_timing = string_field(json, "boundary", "");
  spec.priority = static_cast<int>(number_field(json, "priority", 0));
  spec.deadline_s = number_field(json, "deadline", 0.0);
  spec.use_cache = bool_field(json, "cache", true);
  spec.retries = static_cast<int>(number_field(json, "retries", 0));
  spec.label = string_field(json, "label", "");

  validate_job_spec(spec);
  return spec;
}

void validate_job_spec(const JobSpec& spec) {
  const int sources = (spec.circuit.empty() ? 0 : 1) + (spec.bench_path.empty() ? 0 : 1) +
                      (spec.bench_text.empty() ? 0 : 1);
  if (sources != 1) {
    throw ContractError(
        "job spec needs exactly one of 'circuit', 'bench' or 'bench_text'");
  }
  if (!valid_method(spec.method)) {
    throw ContractError("unknown method '" + spec.method +
                        "' (want average|state|vtstate|heu1|heu2|exact)");
  }
  if (spec.penalty_percent < 0.0 || spec.penalty_percent > 100.0) {
    throw ContractError("penalty must be in [0, 100] percent");
  }
  if (spec.time_limit_s < 0.0 || spec.deadline_s < 0.0) {
    throw ContractError("time_limit/deadline must be non-negative");
  }
  if (spec.random_vectors <= 0) throw ContractError("vectors must be positive");
  if (spec.retries < 0 || spec.retries > 10) {
    throw ContractError("retries must be in [0, 10]");
  }
  if (!spec.pinned_inputs.empty()) {
    if (spec.pinned_inputs.find_first_not_of("01x") != std::string::npos) {
      throw ContractError("pins must be '0'/'1'/'x' chars, one per control point");
    }
    if (spec.method == "average") {
      throw ContractError("pins require a method that searches the state tree");
    }
  }
  if (!spec.boundary_timing.empty()) {
    parse_boundary_timing(spec.boundary_timing);  // shape check; throws
  }
}

Json job_spec_to_json(const JobSpec& spec) {
  Json json = Json::object();
  if (!spec.circuit.empty()) json.set("circuit", spec.circuit);
  if (!spec.bench_path.empty()) json.set("bench", spec.bench_path);
  if (!spec.bench_text.empty()) json.set("bench_text", spec.bench_text);
  if (spec.nitrided) json.set("nitrided", true);
  if (spec.two_point) json.set("two_point", true);
  if (spec.uniform_stack) json.set("uniform_stack", true);
  if (spec.vt_only) json.set("vt_only", true);
  json.set("method", spec.method);
  json.set("penalty", spec.penalty_percent);
  json.set("time_limit", spec.time_limit_s);
  json.set("vectors", spec.random_vectors);
  json.set("seed", spec.seed);
  json.set("threads", spec.search_threads);
  if (spec.max_leaves != 0) json.set("max_leaves", spec.max_leaves);
  if (!spec.pinned_inputs.empty()) json.set("pins", spec.pinned_inputs);
  if (!spec.boundary_timing.empty()) json.set("boundary", spec.boundary_timing);
  if (spec.priority != 0) json.set("priority", spec.priority);
  if (spec.deadline_s > 0.0) json.set("deadline", spec.deadline_s);
  if (!spec.use_cache) json.set("cache", false);
  if (spec.retries != 0) json.set("retries", spec.retries);
  if (!spec.label.empty()) json.set("label", spec.label);
  return json;
}

std::vector<sim::Tri> parse_pinned_inputs(const std::string& pins) {
  std::vector<sim::Tri> out;
  out.reserve(pins.size());
  for (const char c : pins) {
    switch (c) {
      case '0': out.push_back(sim::Tri::kZero); break;
      case '1': out.push_back(sim::Tri::kOne); break;
      case 'x': out.push_back(sim::Tri::kX); break;
      default:
        throw ContractError("pins must be '0'/'1'/'x' chars, one per control point");
    }
  }
  return out;
}

sta::BoundaryTiming parse_boundary_timing(const std::string& text) {
  sta::BoundaryTiming boundary;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string pair =
        text.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t colon = pair.find(':');
    if (colon == std::string::npos) {
      throw ContractError("boundary timing wants 'arrival:slew' pairs, got '" + pair + "'");
    }
    sta::BoundaryTiming::Point point;
    try {
      std::size_t used = 0;
      point.arrival_ps = std::stod(pair.substr(0, colon), &used);
      if (used != colon) throw std::invalid_argument(pair);
      point.slew_ps = std::stod(pair.substr(colon + 1), &used);
      if (used != pair.size() - colon - 1) throw std::invalid_argument(pair);
    } catch (const std::exception&) {
      throw ContractError("boundary timing pair '" + pair + "' is not numeric");
    }
    boundary.points.push_back(point);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return boundary;
}

Json job_result_to_json(const JobResult& result, bool include_solution) {
  Json json = Json::object();
  json.set("status", to_string(result.status));
  if (!result.error.empty()) json.set("error", result.error);
  if (!result.error_code.empty()) json.set("error_code", result.error_code);
  json.set("circuit", result.circuit);
  json.set("gates", result.gates);
  json.set("method", result.method);
  json.set("penalty", result.penalty_percent);
  json.set("leakage_ua", result.leakage_ua);
  json.set("reduction_x", result.reduction_x);
  json.set("delay_ps", result.delay_ps);
  json.set("runtime_s", result.runtime_s);
  json.set("states", result.states_explored);
  json.set("cache_hit", result.cache_hit);
  if (result.interrupted) json.set("interrupted", true);
  if (!result.label.empty()) json.set("label", result.label);
  if (include_solution && !result.solution_text.empty()) {
    json.set("solution", result.solution_text);
  }
  return json;
}

JobResult job_result_from_json(const Json& json) {
  JobResult result;
  const std::string status = string_field(json, "status", "done");
  if (status == "queued") result.status = JobStatus::kQueued;
  else if (status == "running") result.status = JobStatus::kRunning;
  else if (status == "done") result.status = JobStatus::kDone;
  else if (status == "failed") result.status = JobStatus::kFailed;
  else if (status == "cancelled") result.status = JobStatus::kCancelled;
  else throw ContractError("unknown job status '" + status + "'");
  result.error = string_field(json, "error", "");
  result.error_code = string_field(json, "error_code", "");
  result.circuit = string_field(json, "circuit", "");
  result.gates = static_cast<int>(number_field(json, "gates", 0.0));
  result.method = string_field(json, "method", "");
  result.penalty_percent = number_field(json, "penalty", 0.0);
  result.leakage_ua = number_field(json, "leakage_ua", 0.0);
  result.reduction_x = number_field(json, "reduction_x", 0.0);
  result.delay_ps = number_field(json, "delay_ps", 0.0);
  result.runtime_s = number_field(json, "runtime_s", 0.0);
  result.states_explored =
      static_cast<std::uint64_t>(number_field(json, "states", 0.0));
  result.cache_hit = bool_field(json, "cache_hit", false);
  result.interrupted = bool_field(json, "interrupted", false);
  result.solution_text = string_field(json, "solution", "");
  result.label = string_field(json, "label", "");
  return result;
}

}  // namespace svtox::svc
