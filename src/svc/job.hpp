// Job model of the service layer: what a client submits (JobSpec), what it
// gets back (JobResult), and the JSON mapping both travel through -- the
// same encoding is used by the svtoxd wire protocol, `svtox batch`
// manifests, and the solution cache's disk metadata.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim.hpp"
#include "sta/sta.hpp"
#include "svc/json.hpp"

namespace svtox::svc {

/// Lifecycle of a submitted job.
enum class JobStatus {
  kQueued,     ///< Accepted, waiting for a worker.
  kRunning,    ///< Executing on a worker.
  kDone,       ///< Finished (possibly `interrupted` by its deadline).
  kFailed,     ///< Threw (bad circuit name, unreadable bench file, ...).
  kCancelled,  ///< Cancelled before completion (explicitly or by deadline
               ///< expiry while still queued).
};

const char* to_string(JobStatus status);

/// One optimization request. Field names match the JSON wire/manifest keys
/// (penalty is in percent there, mirroring the CLI's --penalty).
struct JobSpec {
  // --- Circuit source: exactly one of the three. -----------------------
  std::string circuit;     ///< Built-in benchmark name (c432 ... alu64).
  std::string bench_path;  ///< ISCAS-85 .bench file on the *server* host.
  /// Inline .bench content, shipped with the job. The hierarchical
  /// optimizer submits its partition cones this way: the resolved netlist
  /// is named by the content hash, so structurally identical cones from
  /// anywhere dedup onto one resource-pool entry and one cache solve.
  std::string bench_text;

  // --- Library build (same knobs as the CLI). --------------------------
  bool nitrided = false;
  bool two_point = false;
  bool uniform_stack = false;
  bool vt_only = false;

  // --- Run. ------------------------------------------------------------
  std::string method = "heu1";  ///< average|state|vtstate|heu1|heu2|exact.
  double penalty_percent = 5.0;
  double time_limit_s = 5.0;
  int random_vectors = 10000;
  std::uint64_t seed = 2004;
  int search_threads = 1;  ///< Intra-search root-split threads.
  /// Deterministic leaf budget for the state search (0 = unlimited);
  /// jobs capped this way reproduce bit-identically across runs and
  /// checkpointed resumes.
  std::uint64_t max_leaves = 0;

  // --- Boundary-aware cone solve (hierarchical flow). ------------------
  /// One char per control point of the resolved netlist: '0'/'1' pin the
  /// input to that constant (the search never branches on it and the
  /// returned sleep vector carries the value verbatim), 'x' leaves it
  /// free. Empty = no pins. JSON key "pins". Pins force a serial search.
  std::string pinned_inputs;
  /// Per-control-point upstream timing seeds as comma-separated
  /// "<arrival_ps>:<slew_ps>" pairs (one per control point, netlist
  /// control-point order); empty = default zero-arrival seeds. JSON key
  /// "boundary". Changes the cone's delay budget, so it is part of the
  /// cache key.
  std::string boundary_timing;

  // --- Service-level. --------------------------------------------------
  int priority = 0;        ///< Higher runs first; FIFO within a priority.
  double deadline_s = 0.0; ///< Wall-clock budget from submission; 0 = none.
  bool use_cache = true;
  /// Transient-failure retry budget for this job: a worker re-runs the job
  /// up to this many extra times when it fails with a retryable
  /// util::Error (io/timeout). Parse/contract failures never retry.
  int retries = 0;
  std::string label;       ///< Echoed in the result; used for output names.
};

/// Sanity-checks a spec (exactly one circuit source, known method, ranges);
/// throws ContractError on violations. Called by both the JSON decoder and
/// Scheduler::submit, so in-process and wire submissions enforce the same
/// contract.
void validate_job_spec(const JobSpec& spec);

/// Parses a spec from a JSON object. Unknown keys are rejected (the service
/// counterpart of the CLI's strict option validation) and the spec is
/// checked via validate_job_spec; throws ContractError on violations.
JobSpec job_spec_from_json(const Json& json);
Json job_spec_to_json(const JobSpec& spec);

/// Decodes JobSpec::pinned_inputs ('0'/'1'/'x' per control point) into the
/// search's typed form; throws ContractError on other characters.
std::vector<sim::Tri> parse_pinned_inputs(const std::string& pins);

/// Decodes JobSpec::boundary_timing ("arrival:slew,arrival:slew,...") into
/// sta::BoundaryTiming; throws ContractError on malformed pairs.
sta::BoundaryTiming parse_boundary_timing(const std::string& text);

/// Outcome of one job.
struct JobResult {
  JobStatus status = JobStatus::kDone;
  std::string error;         ///< For kFailed / kCancelled.
  /// Machine-readable failure class for kFailed: a util::ErrorCode name
  /// ("parse", "io", "corrupt", "timeout", "cancelled"), or "internal" for
  /// other exceptions. Lets clients tell retryable from fatal failures.
  std::string error_code;
  std::string circuit;       ///< Resolved netlist name.
  int gates = 0;             ///< Gate count of the resolved netlist.
  std::string method;
  double penalty_percent = 0.0;
  double leakage_ua = 0.0;
  double reduction_x = 0.0;
  double delay_ps = 0.0;
  double runtime_s = 0.0;    ///< Solve time (the cached value on a hit).
  std::uint64_t states_explored = 0;
  bool cache_hit = false;
  bool interrupted = false;  ///< Best-so-far due to cancel/deadline.
  std::string solution_text; ///< core::write_solution output; empty for
                             ///< the average baseline.
  std::string label;
};

/// `include_solution` elides the (possibly large) solution text, for
/// status-style queries.
Json job_result_to_json(const JobResult& result, bool include_solution);
JobResult job_result_from_json(const Json& json);

}  // namespace svtox::svc
