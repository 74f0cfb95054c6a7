// Hierarchical standby optimization: partition -> boundary-aware level
// sweep -> stitch -> refine.
//
// Scales the paper's method to 100k..1M-gate circuits where the flat state
// tree is out of reach. The circuit is cut into gate-budgeted clusters
// (opt/partition.hpp); each cluster becomes an independent standby
// instance whose boundary signals are controllable primary inputs, solved
// through the Scheduler as parallel jobs (the content-addressed
// SolutionCache dedups structurally identical cones to one solve).
//
// Cones are dispatched level by level over the partition DAG (a
// partition's level is one more than the deepest partition driving any of
// its boundary inputs). When a level-L cone is scheduled, every boundary
// input driven by an already-solved upstream partition is *pinned* to its
// stitched simulated value (JobSpec::pinned_inputs), and its measured
// upstream arrival/slew from a global STA of the stitched-so-far config
// seeds the cone's timing (JobSpec::boundary_timing; the STA refreshes
// once ~1/16 of the gates were reconfigured since the last analysis, so
// deep partition DAGs do not pay one full-circuit analysis per level) --
// so the cone optimizes against its real logical and electrical context
// instead of a free-boundary relaxation. Same-level cones still run in parallel; both
// context strings are part of the cone's cache key, so hits stay sound.
//
// The stitch reconciles the remaining choices on the real circuit:
//  * sleep bits: votes over the global control points in ascending
//    partition-id order within each level (deterministic under any worker
//    count), remaining points forced to 0;
//  * gate configs: copied per gate from the cone solutions (cells and pin
//    order are preserved by the canonical cone text, so variants and pin
//    mappings transfer verbatim);
//  * leakage: a full 2-valued simulation of the stitched sleep vector,
//    then exact table evaluation -- no cone-level approximation survives
//    into the reported number;
//  * delay: a full STA of the stitched config against the *global*
//    constraint, with a repair loop that walks the critical path resetting
//    gates to their fastest variant until the constraint holds (it must:
//    the all-fast configuration meets any constraint with penalty >= 0).
//
// A stitch-refine loop then re-solves the K partitions with the largest
// exact leakage contribution, this time with *every* boundary input pinned
// (control points to their voted sleep bits, driven boundaries to their
// simulated values) -- the sleep vector and hence all signal values stay
// fixed, so per-partition contributions are independent and only the delay
// couples globally. A pass is accepted only if the exact global leakage
// improves after re-repair; the loop stops when a pass fails to improve or
// the pass budget is exhausted.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "opt/partition.hpp"
#include "opt/solution.hpp"
#include "sta/sta.hpp"

namespace svtox::svc {

struct HierOptions {
  opt::PartitionOptions partition;
  /// Per-cone method: state|vtstate|heu1|heu2|exact.
  std::string method = "heu1";
  double penalty_fraction = 0.05;
  /// Slack apportionment: each cone is solved at
  /// `penalty_fraction * cone_penalty_scale` of its own fast/slow spread.
  /// Local budgets do not compose exactly into the global one (boundary
  /// arrivals and slews are not modeled), so a value < 1 leaves headroom
  /// and trades a little per-cone leakage for far fewer repair resets.
  double cone_penalty_scale = 1.0;
  /// Scheduler worker threads (0 = all hardware threads).
  int workers = 0;
  /// Per-cone search budget (heu2/state-only; heu1 ignores it).
  double time_limit_s = 1.0;
  /// Monte-Carlo vectors per cone job (cones only need the baseline for
  /// their reduction stat, so this stays small).
  int random_vectors = 64;
  std::uint64_t seed = 2004;
  /// Library build knobs; must describe the library `netlist` is bound to
  /// (the cone jobs rebuild the library from these flags).
  bool nitrided = false;
  bool two_point = false;
  bool uniform_stack = false;
  bool vt_only = false;
  /// Solution-cache disk directory for cone solutions; empty = memory only.
  std::string cache_dir;
  /// Pin boundary inputs driven by already-solved upstream partitions to
  /// their stitched simulated values (the level sweep). Off reproduces the
  /// legacy free-boundary relaxation.
  bool pin_boundaries = true;
  /// Seed each cone's boundary inputs with the measured upstream
  /// arrival/slew from the global STA of the stitched-so-far config.
  bool seed_boundary_timing = true;
  /// Stitch-refine budget: up to this many passes re-solve the
  /// `refine_worst` partitions with the largest exact leakage
  /// contribution, all boundaries pinned. 0 disables refinement.
  int refine_passes = 2;
  int refine_worst = 8;
};

struct HierResult {
  /// The stitched global solution: sleep vector over
  /// Netlist::control_points(), per-gate config, exact leakage and delay.
  opt::Solution solution;
  sta::DelayBudget budget;   ///< Global all-fast / all-slow endpoints.
  double constraint_ps = 0.0;
  int partitions = 0;
  std::uint64_t unique_solves = 0;  ///< Cone jobs actually executed.
  std::uint64_t cache_hits = 0;     ///< Cone jobs served from the cache.
  int repaired_gates = 0;  ///< Gates changed by the stitched-config delay
                           ///< repair: critical-path fastest-resets, or
                           ///< config diffs when the local repair would
                           ///< reset > ~0.5% of the gates and the global
                           ///< greedy re-assignment fallback runs instead.
  int levels = 0;               ///< Depth of the partition DAG sweep.
  int refine_passes_run = 0;    ///< Refine passes executed (incl. a final
                                ///< non-improving one, if any).
  int refine_accepted = 0;      ///< Partition re-solves that improved and
                                ///< were kept across accepted passes.
  double runtime_s = 0.0;
};

/// Runs the hierarchical flow on `netlist`. The result's delay respects
/// the global constraint (verified by a from-scratch STA on the stitched
/// assignment). Throws on cone-job failures and invalid options.
HierResult optimize_hierarchical(const netlist::Netlist& netlist,
                                 const HierOptions& options = {});

/// Lets a repair give up once it can no longer end below an incumbent.
struct RepairIncumbent {
  const std::vector<bool>* values;  ///< Valuation of the config under repair.
  double leakage_na;                ///< Its leakage before the repair.
  double incumbent_na;              ///< The leakage it has to beat.
};

/// repair_delay's result when a RepairIncumbent proved it lost.
inline constexpr double kRepairAbandoned = std::numeric_limits<double>::infinity();

/// The flow's local delay repair: from-scratch STA, then critical-path
/// gates reset to their fastest identity-mapped version until the
/// constraint holds. Returns the final delay. When `max_resets` >= 0 the
/// loop gives up as soon as it has reset more gates than that (callers
/// probing whether a *cheap* repair exists bail out instead of paying the
/// full walk just to discard it).
///
/// With `incumbent`, the loop also carries a lower bound on the leakage
/// it will end at: the pre-repair leakage, plus the change of every gate
/// reset so far, plus every leakage drop a not-yet-reset gate could still
/// contribute (a repair only ever resets non-fast gates, each at most
/// once). Once that bound reaches the incumbent the finished repair would
/// be rejected anyway, so it returns kRepairAbandoned instead. The
/// relative 1e-9 margin covers the rounding gap between the bound's sums
/// and the exact leakage sum the caller would compare.
double repair_delay(const netlist::Netlist& netlist, double constraint_ps,
                    sim::CircuitConfig& config, int& repaired_gates, int max_resets = -1,
                    const RepairIncumbent* incumbent = nullptr);

}  // namespace svtox::svc
