#include "core/optimizer.hpp"

#include <cstring>

#include "sim/leakage_eval.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace svtox::core {

const char* to_string(Method method) {
  switch (method) {
    case Method::kAverageRandom: return "average_random";
    case Method::kStateOnly: return "state_only";
    case Method::kVtState: return "vt_state";
    case Method::kHeu1: return "heu1";
    case Method::kHeu2: return "heu2";
    case Method::kExact: return "exact";
  }
  return "?";
}

Method method_from_string(const std::string& name) {
  if (name == "average" || name == "average_random") return Method::kAverageRandom;
  if (name == "state" || name == "state_only") return Method::kStateOnly;
  if (name == "vtstate" || name == "vt_state") return Method::kVtState;
  if (name == "heu1") return Method::kHeu1;
  if (name == "heu2") return Method::kHeu2;
  if (name == "exact") return Method::kExact;
  throw ContractError("unknown method '" + name + "'");
}

StandbyOptimizer::StandbyOptimizer(const netlist::Netlist& netlist)
    : netlist_(&netlist) {
  if (!netlist.finalized()) throw ContractError("StandbyOptimizer: netlist not finalized");
}

StandbyOptimizer::~StandbyOptimizer() = default;

namespace {

/// FNV-1a over the boundary points' bit patterns: a stable map key that
/// separates problems built against different upstream timing contexts.
/// Empty boundaries hash to 0, so the historical (penalty-only) entries
/// keep their identity.
std::uint64_t boundary_fingerprint(const sta::BoundaryTiming& boundary) {
  if (boundary.empty()) return 0;
  std::uint64_t hash = 14695981039346656037ULL;
  auto feed = [&hash](double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  };
  for (const sta::BoundaryTiming::Point& point : boundary.points) {
    feed(point.arrival_ps);
    feed(point.slew_ps);
  }
  return hash;
}

}  // namespace

const opt::AssignmentProblem& StandbyOptimizer::problem_for(
    double penalty, const sta::BoundaryTiming& boundary) {
  const auto key = std::make_pair(penalty, boundary_fingerprint(boundary));
  auto it = problems_.find(key);
  if (it == problems_.end()) {
    opt::ProblemOptions options;
    options.boundary = boundary;
    it = problems_
             .emplace(key, std::make_unique<opt::AssignmentProblem>(*netlist_, penalty,
                                                                    options))
             .first;
  }
  return *it->second;
}

const opt::AssignmentProblem& StandbyOptimizer::vt_problem_for(
    double penalty, const sta::BoundaryTiming& boundary) {
  if (vt_library_ == nullptr) {
    // The Vt+state baseline [12] sees the same circuit through a dual-Vt
    // library with no thick-oxide versions.
    liberty::LibraryOptions options = netlist_->library().options();
    options.variant_options.vt_only = true;
    options.cell_names.clear();
    vt_library_ = std::make_unique<liberty::Library>(
        liberty::Library::build(netlist_->library().tech(), options));
    vt_netlist_ = std::make_unique<netlist::Netlist>(
        netlist::rebind(*netlist_, *vt_library_));
  }
  const auto key = std::make_pair(penalty, boundary_fingerprint(boundary));
  auto it = vt_problems_.find(key);
  if (it == vt_problems_.end()) {
    opt::ProblemOptions options;
    options.boundary = boundary;
    it = vt_problems_
             .emplace(key, std::make_unique<opt::AssignmentProblem>(*vt_netlist_,
                                                                    penalty, options))
             .first;
  }
  return *it->second;
}

const sta::DelayBudget& StandbyOptimizer::delay_budget() {
  if (!budget_) budget_ = sta::compute_delay_budget(*netlist_);
  return *budget_;
}

double StandbyOptimizer::average_random_leakage_ua(int vectors, std::uint64_t seed) {
  const auto key = std::make_pair(vectors, seed);
  auto it = random_cache_ua_.find(key);
  if (it != random_cache_ua_.end()) return it->second;
  const sim::MonteCarloResult mc = sim::monte_carlo_leakage(
      *netlist_, sim::fastest_config(*netlist_), vectors, seed);
  const double ua = mc.mean_na / 1e3;
  random_cache_ua_.emplace(key, ua);
  return ua;
}

const opt::AssignmentProblem& StandbyOptimizer::problem(Method method,
                                                        double penalty) {
  return method == Method::kVtState ? vt_problem_for(penalty)
                                    : problem_for(penalty);
}

namespace {

/// The search options run() hands the state search for a method: the
/// shared knobs, with per-method cases tweaking what differs.
opt::SearchOptions search_options(Method method, const RunConfig& config) {
  opt::SearchOptions options;
  options.time_limit_s = config.time_limit_s;
  options.gate_order = config.gate_order;
  options.threads = config.threads;
  options.cancel = config.cancel;
  options.max_leaves = config.max_leaves;
  options.checkpoint_path = config.checkpoint_path;
  options.checkpoint_every_s = config.checkpoint_every_s;
  options.checkpoint_every_leaves = config.checkpoint_every_leaves;
  options.pinned_inputs = config.pinned_inputs;

  switch (method) {
    case Method::kAverageRandom:
      break;
    case Method::kStateOnly:
      options.gate_order = opt::GateOrder::kBySavings;
      options.random_probes = 256;
      break;
    case Method::kVtState:
    case Method::kHeu2:
      options.exact_leaves = false;
      break;
    case Method::kHeu1:
      options.max_leaves = 1;
      options.time_limit_s = 0.0;
      break;
    case Method::kExact:
      options.exact_leaves = true;
      options.time_limit_s = config.time_limit_s > 0 ? config.time_limit_s : 1e9;
      break;
  }
  return options;
}

}  // namespace

MethodResult StandbyOptimizer::run(Method method, const RunConfig& config) {
  Timer timer;
  MethodResult result;
  result.method = method;

  const double avg_ua = average_random_leakage_ua(config.random_vectors, config.seed);
  const opt::SearchOptions options = search_options(method, config);

  switch (method) {
    case Method::kAverageRandom:
      result.leakage_ua = avg_ua;
      break;
    case Method::kStateOnly: {
      result.solution = opt::state_only_search(
          problem_for(config.penalty_fraction, config.boundary), options);
      break;
    }
    case Method::kVtState: {
      result.solution = opt::heuristic2(
          vt_problem_for(config.penalty_fraction, config.boundary), options);
      break;
    }
    case Method::kHeu1:
      result.solution = opt::heuristic1(
          problem_for(config.penalty_fraction, config.boundary), options);
      break;
    case Method::kHeu2: {
      result.solution = opt::heuristic2(
          problem_for(config.penalty_fraction, config.boundary), options);
      break;
    }
    case Method::kExact: {
      result.solution = opt::exact_search(
          problem_for(config.penalty_fraction, config.boundary), options);
      break;
    }
  }

  if (method != Method::kAverageRandom) {
    result.leakage_ua = result.solution.leakage_na / 1e3;
  }
  result.reduction_x = result.leakage_ua > 0.0 ? avg_ua / result.leakage_ua : 0.0;
  result.runtime_s = timer.seconds();
  log_info(netlist_->name() + ": " + to_string(method) + " -> " +
           format_double(result.leakage_ua, 2) + " uA (" +
           format_double(result.reduction_x, 1) + "X) in " +
           format_double(result.runtime_s, 2) + " s");
  return result;
}

}  // namespace svtox::core
