// StandbyOptimizer -- the public facade of the svtox library.
//
// Typical use:
//
//   const auto& tech = svtox::model::TechParams::nominal();
//   auto library = svtox::liberty::Library::build(tech, {});
//   auto circuit = svtox::netlist::make_benchmark("c432", library);
//   svtox::core::StandbyOptimizer optimizer(circuit);
//   auto result = optimizer.run(svtox::core::Method::kHeu1,
//                               {.penalty_fraction = 0.05});
//   // result.solution.sleep_vector is the standby state to scan in;
//   // result.solution.config is the per-gate cell-version swap list.
//
// The facade owns the delay-budget computation, caches one
// AssignmentProblem per penalty value, and knows how to run every method
// the paper evaluates (including the state-only and Vt+state baselines).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "netlist/netlist.hpp"
#include "opt/state_search.hpp"

namespace svtox::core {

/// The methods compared in the paper's Tables 3-5 and Figure 5.
enum class Method {
  kAverageRandom,  ///< 10K-random-vector average; no technique (baseline).
  kStateOnly,      ///< Sleep-state assignment alone [1].
  kVtState,        ///< Simultaneous state + Vt assignment [12] (no dual-Tox).
  kHeu1,           ///< Proposed heuristic 1 (single traversal).
  kHeu2,           ///< Proposed heuristic 2 (time-limited state search).
  kExact,          ///< Exact branch-and-bound (small circuits only).
};

const char* to_string(Method method);

/// Inverse of to_string, accepting the service layer's short aliases too
/// ("average", "state", "vtstate"). Throws ContractError on unknown names.
Method method_from_string(const std::string& name);

/// Per-run knobs.
struct RunConfig {
  double penalty_fraction = 0.05;  ///< Delay penalty (paper: 5/10/25%).
  double time_limit_s = 5.0;       ///< Heu2 / state-only search budget.
  int random_vectors = 10000;      ///< Monte-Carlo vector count.
  std::uint64_t seed = 2004;       ///< Monte-Carlo seed.
  opt::GateOrder gate_order = opt::GateOrder::kBySavings;
  /// Worker threads for the state-tree search's parallel root split
  /// (Heu2, exact, state-only, Vt+state). 1 = serial, 0 = all hardware
  /// threads. Heu1 is a single descent and always serial.
  int threads = 1;
  /// Optional cooperative cancellation flag forwarded to the state search
  /// (see opt::SearchOptions::cancel). When set mid-run the search returns
  /// its best-so-far solution with `interrupted` true. Must outlive run().
  const std::atomic<bool>* cancel = nullptr;
  /// Leaf-evaluation cap for the state search (0 = unlimited). Unlike the
  /// wall-clock limit this budget is deterministic, so capped runs (and
  /// checkpointed resumes of them) reproduce bit-identically.
  std::uint64_t max_leaves = 0;
  /// Checkpoint/resume for the state search (kStateOnly, kVtState, kHeu2,
  /// kExact): when non-empty, the search snapshots to this file and
  /// resumes from it after an interruption. See opt::SearchOptions.
  std::string checkpoint_path;
  double checkpoint_every_s = 5.0;
  std::uint64_t checkpoint_every_leaves = 64;
  /// Boundary-aware cone solve (hierarchical flow): when non-empty, one
  /// entry per control point pinning it to a constant (kX = free). The
  /// state search never branches on pinned inputs and the returned sleep
  /// vector carries the pinned values verbatim. Forces a serial search.
  /// See opt::SearchOptions::pinned_inputs.
  std::vector<sim::Tri> pinned_inputs;
  /// Measured upstream arrival/slew per control point (empty = defaults).
  /// Changes the delay budget and every leaf's timing, so runs with
  /// different boundaries use distinct cached AssignmentProblems.
  sta::BoundaryTiming boundary;
};

/// Outcome of one method run.
struct MethodResult {
  Method method = Method::kHeu1;
  opt::Solution solution;      ///< Empty for kAverageRandom.
  double leakage_ua = 0.0;     ///< Total standby leakage [uA].
  double reduction_x = 0.0;    ///< Average-random leakage / this leakage.
  double runtime_s = 0.0;
};

/// Facade tying netlist + library + optimizer together.
class StandbyOptimizer {
 public:
  /// `netlist` must outlive the optimizer. For kVtState a Vt-only twin
  /// library and rebound netlist are built internally.
  explicit StandbyOptimizer(const netlist::Netlist& netlist);
  ~StandbyOptimizer();

  StandbyOptimizer(const StandbyOptimizer&) = delete;
  StandbyOptimizer& operator=(const StandbyOptimizer&) = delete;

  const netlist::Netlist& circuit() const { return *netlist_; }

  /// The delay-budget endpoints (all-fast and all-slow delays).
  const sta::DelayBudget& delay_budget();

  /// Average leakage over random vectors [uA] (cached per (vectors, seed)).
  double average_random_leakage_ua(int vectors, std::uint64_t seed);

  /// Runs one method. kAverageRandom ignores the penalty.
  MethodResult run(Method method, const RunConfig& config = {});

  /// The assignment problem `method` searches at this penalty: the Vt-only
  /// twin for kVtState, the full dual-Vt/dual-Tox problem otherwise.
  const opt::AssignmentProblem& problem(Method method, double penalty);

 private:
  const opt::AssignmentProblem& problem_for(double penalty,
                                            const sta::BoundaryTiming& boundary = {});
  const opt::AssignmentProblem& vt_problem_for(double penalty,
                                               const sta::BoundaryTiming& boundary = {});

  const netlist::Netlist* netlist_;
  /// Keyed by (penalty, boundary fingerprint): jobs with different boundary
  /// seeds must not share an AssignmentProblem (the budget differs). The
  /// default no-boundary key is (penalty, 0).
  std::map<std::pair<double, std::uint64_t>, std::unique_ptr<opt::AssignmentProblem>>
      problems_;

  // Lazy Vt-only twin (for the kVtState baseline).
  std::unique_ptr<liberty::Library> vt_library_;
  std::unique_ptr<netlist::Netlist> vt_netlist_;
  std::map<std::pair<double, std::uint64_t>, std::unique_ptr<opt::AssignmentProblem>>
      vt_problems_;

  std::map<std::pair<int, std::uint64_t>, double> random_cache_ua_;
  std::optional<sta::DelayBudget> budget_;
};

}  // namespace svtox::core
