// State-tree search: choosing the standby sleep vector.
//
// The paper's Section 5 search structure: a binary tree over the primary
// inputs (ordered most-influential first), each leaf evaluated by a
// gate-tree search. Interior nodes are bounded by a ternary-simulation
// leakage lower bound, which both orders the branches and prunes. Bounds
// are served by the incremental BoundEngine (cone-update + cached
// per-gate terms); results are identical to the full-recomputation
// reference because the engine sums its term cache in the reference's
// gate order.
//
//  * Heuristic 1  -- a single downward traversal of both trees.
//  * Heuristic 2  -- Heu1's descent plus continued bounded DFS until a time
//                    limit expires.
//  * exact        -- full branch-and-bound over both trees (small circuits).
//  * state-only   -- the same state search with all gates pinned to their
//                    fastest version (the paper's "Only State Assignment"
//                    baseline).
//
// Leaves are evaluated through a per-worker opt::LeafEvaluator, which
// amortizes the leaf-invariant setup (2-valued simulation,
// canonicalization, the all-fastest timing baseline) across the worker's
// whole leaf stream; leaf results are bit-identical to the from-scratch
// gate_assign entry points.
//
// With `SearchOptions::threads > 1` the continued search splits the top
// ceil(log2(threads)) + 2 levels of the state tree into subtrees drained
// by a thread pool sharing one incumbent, and the random-probe sweep is
// drained the same way from a pregenerated probe set; equal-leakage leaves
// tie-break on the lexicographically smallest sleep vector, so exhaustive
// (exact) results and fully-drained probe sweeps do not depend on the
// thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "opt/bound_engine.hpp"
#include "opt/gate_assign.hpp"
#include "opt/problem.hpp"
#include "opt/solution.hpp"
#include "sim/packed.hpp"
#include "sim/sim.hpp"

namespace svtox::opt {

/// Admissible leakage lower bound for a partial input assignment: ternary
/// simulation followed by a per-gate minimum over all local states
/// compatible with the propagated 0/1/X values. Ignores the delay
/// constraint, hence never overestimates the best completion. This is the
/// from-scratch reference; the search itself uses the incremental
/// BoundEngine, which returns bit-identical values.
double leakage_lower_bound_na(const AssignmentProblem& problem,
                              const std::vector<sim::Tri>& input_values,
                              BoundKind kind);

/// Tuning for the state search.
struct SearchOptions {
  /// Wall-clock limit for the continued search (Heu2); the first descent
  /// always completes regardless.
  double time_limit_s = 5.0;
  /// Cap on leaf evaluations; 0 = unlimited. Heuristic 1 is max_leaves = 1.
  std::uint64_t max_leaves = 0;
  /// Gate visiting order inside each leaf's greedy assignment.
  GateOrder gate_order = GateOrder::kBySavings;
  /// Use the exact gate-tree search at leaves (exact mode only).
  bool exact_leaves = false;
  std::uint64_t max_gate_nodes = 0;  ///< Node cap for exact leaves.
  /// Random sleep vectors evaluated after the tree search (so they only
  /// displace its result when strictly better under the deterministic
  /// tie-break). Useful when the ternary bound is flat (XOR-dominated
  /// circuits); defaults on for the state-only mode and off elsewhere.
  /// The sweep is parallel (see `threads`) over a pregenerated,
  /// thread-count-invariant probe set and stops starting probes once the
  /// time limit expires (`max_leaves` caps only the tree search).
  int random_probes = 0;
  /// Seed of the random-probe vector stream (experiments can vary the
  /// probes without code edits; the default preserves the historical
  /// stream).
  std::uint64_t probe_seed = 0x5eedbeefcafe0001ULL;
  /// Simulation backend for the word-parallel fast paths: the state-only
  /// probe sweep (64 probes per packed pass) and the root split's
  /// prefix-bound prescreen. Results are bit-identical either way -- the
  /// packed kernels reproduce the scalar FP sequences exactly -- so this
  /// is a performance/cross-check knob, not a semantics knob. The
  /// checkpointing sweep and greedy-mode probes always run scalar (their
  /// per-probe work is a full gate-assignment, not a simulation).
  sim::SimBackend sim_backend = sim::default_backend();
  /// Worker threads for the continued search's root split and the probe
  /// sweep. 1 = serial, 0 = all hardware threads. The root split is
  /// ignored (serial) when max_leaves != 0, since a shared leaf budget
  /// would make the split nondeterministic.
  int threads = 1;
  /// Bound evaluation strategy; kReference is the slow cross-check path.
  BoundMode bound_mode = BoundMode::kIncremental;
  /// Cooperative cancellation (std::stop_token-style): when non-null and
  /// set, the search stops mid-tree (and mid-probe-sweep) at the next
  /// budget check and returns its best-so-far incumbent with
  /// `Solution::interrupted` true. The first descent's leaf still
  /// completes, so a cancelled search always carries a valid solution.
  /// The pointee must outlive the search call.
  const std::atomic<bool>* cancel = nullptr;
  /// When non-empty, the search periodically serializes its frontier +
  /// incumbent to this file (atomic temp + rename, checksummed) and, if
  /// the file already holds a checkpoint with a matching fingerprint,
  /// resumes from it instead of restarting. An interrupted search writes a
  /// final snapshot; a completed one deletes the file. Forces a serial
  /// search (threads = 1). See opt/checkpoint.hpp for the invariants.
  std::string checkpoint_path;
  /// Checkpoint cadence: write after this many seconds have passed or this
  /// many new leaves were evaluated since the last write, whichever fires
  /// first (every_leaves = 0 disables the count trigger).
  double checkpoint_every_s = 5.0;
  std::uint64_t checkpoint_every_leaves = 64;
  /// When non-empty (one entry per control point, by control-point index,
  /// NOT by input_order position), pins control points to constants the
  /// search never branches on: kZero/kOne fix the input's value at every
  /// leaf, kX leaves it free. The state tree shrinks to the free inputs --
  /// pinned depths descend the prescribed branch with no sibling, no bound
  /// probe and no pruning -- and the random-probe sweep overwrites the
  /// pinned bits of every generated probe (the Rng stream is unchanged, so
  /// free bits match the unpinned sweep's). The hierarchical flow pins a
  /// cone's boundary inputs to their already-stitched upstream values.
  /// Forces a serial search.
  std::vector<sim::Tri> pinned_inputs;
};

/// Heuristic 1: single downward traversal (paper Sec. 5).
Solution heuristic1(const AssignmentProblem& problem,
                    GateOrder gate_order = GateOrder::kBySavings);

/// Heuristic 1 with the full knob set (pinned inputs in particular); the
/// leaf budget and time limit are overridden to Heu1's single descent.
Solution heuristic1(const AssignmentProblem& problem, const SearchOptions& options);

/// Heuristic 2: Heu1 plus time-limited continued state search.
Solution heuristic2(const AssignmentProblem& problem, double time_limit_s,
                    GateOrder gate_order = GateOrder::kBySavings);

/// Heuristic 2 with full control over the search knobs (threads, probe
/// seed, bound mode). `exact_leaves` is overridden to the Heu2 default
/// (greedy); `max_leaves` is respected (0 = unlimited), giving callers a
/// deterministic budget knob -- checkpoint/resume byte-identity tests and
/// reproducible batch jobs cap leaves instead of wall-clock time.
Solution heuristic2(const AssignmentProblem& problem, const SearchOptions& options);

/// Exact simultaneous search over both trees. Exponential -- use only on
/// small circuits or with caps via `options`.
Solution exact_search(const AssignmentProblem& problem, const SearchOptions& options);

/// State assignment alone: searches the state tree with every gate fixed to
/// its fastest version (time-limited like Heu2).
Solution state_only_search(const AssignmentProblem& problem, double time_limit_s);

/// State-only search with full control over the search knobs.
Solution state_only_search(const AssignmentProblem& problem,
                           const SearchOptions& options);

}  // namespace svtox::opt
