// Hierarchical quality gate + boundary-context regression suite.
//
// The level sweep / stitch-refine flow exists to close the gap to the flat
// solver, so these tests pin the promises that matter: the hier/flat
// leakage ratio on the partitioned ISCAS multipliers, byte-identical
// stitches under any worker count, the repair-count benefit of seeding
// boundary timing, and the pinned-inputs contract the sweep is built on
// (a pinned control point is never flipped by any search mode, and pins
// are part of the solution-cache identity).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/solution_io.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/generators.hpp"
#include "opt/problem.hpp"
#include "opt/state_search.hpp"
#include "sim/leakage_eval.hpp"
#include "sim/sim.hpp"
#include "svc/fingerprint.hpp"
#include "svc/hier.hpp"

namespace svtox {
namespace {

const liberty::Library& lib() {
  static const liberty::Library library =
      liberty::Library::build(model::TechParams::nominal(), {});
  return library;
}

TEST(HierQuality, WithinTenPercentOfFlatHeu1) {
  // The headline acceptance bar: boundary-aware cones + stitch-refine keep
  // the hierarchical result within 10% of flat Heu1 on the circuits where
  // the legacy free-boundary flow was worst (deep multiplier / parity
  // structure cut at 400-gate budgets).
  for (const char* name : {"c6288", "c7552"}) {
    SCOPED_TRACE(name);
    const netlist::Netlist n = netlist::make_benchmark(name, lib());
    svc::HierOptions options;
    options.partition.max_gates = 400;
    options.random_vectors = 64;
    const svc::HierResult hier = svc::optimize_hierarchical(n, options);
    EXPECT_LE(hier.solution.delay_ps, hier.constraint_ps);

    const opt::AssignmentProblem problem(n, options.penalty_fraction);
    const opt::Solution flat = opt::heuristic1(problem);
    ASSERT_GT(flat.leakage_na, 0.0);
    const double ratio = hier.solution.leakage_na / flat.leakage_na;
    EXPECT_LE(ratio, 1.10) << "hier " << hier.solution.leakage_na
                           << " nA vs flat " << flat.leakage_na << " nA";
  }
}

TEST(HierQuality, StitchIsDeterministicAcrossWorkerCounts) {
  // Votes are applied in ascending partition-id order within each level
  // and refine candidates are evaluated in rank order, both independent of
  // scheduler completion order -- so the whole stitched solution must be
  // byte-identical no matter how many workers raced on the cone jobs.
  const netlist::Netlist n = netlist::make_benchmark("c880", lib());
  svc::HierOptions options;
  options.partition.max_gates = 60;
  options.random_vectors = 16;
  std::string reference;
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    options.workers = workers;
    const svc::HierResult hr = svc::optimize_hierarchical(n, options);
    const std::string text = core::write_solution(hr.solution, n);
    if (reference.empty()) {
      reference = text;
    } else {
      EXPECT_EQ(text, reference);
    }
  }
}

TEST(HierQuality, BoundaryTimingSeedReducesRepair) {
  // Seeding cones with measured upstream arrival/slew makes the per-cone
  // delay budgets composable, so the stitched config should need no more
  // global repair than the unseeded run (refine off to isolate the sweep).
  const netlist::Netlist n = netlist::make_benchmark("c6288", lib());
  svc::HierOptions options;
  options.partition.max_gates = 400;
  options.random_vectors = 64;
  options.refine_passes = 0;
  options.seed_boundary_timing = false;
  const svc::HierResult unseeded = svc::optimize_hierarchical(n, options);
  options.seed_boundary_timing = true;
  const svc::HierResult seeded = svc::optimize_hierarchical(n, options);
  EXPECT_LE(seeded.repaired_gates, unseeded.repaired_gates);
  EXPECT_LE(seeded.solution.delay_ps, seeded.constraint_ps);
}

/// FNV-1a digest of the decisions a hierarchical run makes: the sleep
/// vector and every gate's variant and pin mapping.
std::uint64_t decision_digest(const opt::Solution& s) {
  svc::Fnv fnv;
  for (const bool bit : s.sleep_vector) fnv.boolean(bit);
  for (const sim::GateConfig& gc : s.config) {
    fnv.i64(gc.variant).u64(gc.mapping.logical_to_physical.size());
    for (const int pin : gc.mapping.logical_to_physical) fnv.i64(pin);
  }
  return fnv.value();
}

/// The exact bits of a double, as a C99 hex-float string.
std::string hexfloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

TEST(HierQuality, MatchesRecordedResults) {
  // The repair, refine and global-reassign fast paths (tracked circuit
  // delay, leakage-bound abandonment of lost refine repairs, word-parallel
  // input ranking) are exact: they must reproduce, bit for bit, the
  // results recorded before any of them existed.
  struct Golden {
    const char* circuit;
    int max_gates;
    std::uint64_t digest;
    const char* leakage_na;
    const char* delay_ps;
    int refine_accepted;
  };
  const Golden goldens[] = {
      {"c6288", 400, 0x0de7fd3211674924ULL, "0x1.97b5176b2fc7cp+17",
       "0x1.d716d37774d45p+12", 0},
      {"dag10k", 2000, 0x93c4685ad55292e1ULL, "0x1.8430cc94a1d99p+17",
       "0x1.ded1a437d2ac1p+11", 0},
      {"c7552", 400, 0xb14bbde712e81f0eULL, "0x1.3948be32ae24p+15",
       "0x1.23cb07a71b532p+12", 0},
      {"c880", 60, 0x978faf110d9f7187ULL, "0x1.7cef46b666c5bp+13",
       "0x1.a74a6c9548dfap+11", 5},
      {"c5315", 300, 0x2c4768d46a1480aeULL, "0x1.025a8d93cf191p+15",
       "0x1.1812cd32aa064p+12", 0},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.circuit);
    const std::string name = golden.circuit;
    const netlist::Netlist n = name == "dag10k"
                                   ? netlist::make_scale_circuit(lib(), name)
                                   : netlist::make_benchmark(name, lib());
    svc::HierOptions options;
    options.partition.max_gates = golden.max_gates;
    options.random_vectors = 64;
    const svc::HierResult hr = svc::optimize_hierarchical(n, options);
    EXPECT_EQ(svc::hex64(decision_digest(hr.solution)), svc::hex64(golden.digest));
    EXPECT_EQ(hexfloat(hr.solution.leakage_na), golden.leakage_na);
    EXPECT_EQ(hexfloat(hr.solution.delay_ps), golden.delay_ps);
    EXPECT_EQ(hr.refine_accepted, golden.refine_accepted);
  }
}

TEST(HierRepair, AbandonsOnlyRepairsThatCannotBeatTheIncumbent) {
  // A repair abandoned against an incumbent must be one whose finished
  // run ends at a leakage no better than that incumbent; one that is not
  // abandoned must end exactly where the unbounded repair does. The
  // refine loop relies on both to stay bit-identical to finishing every
  // repair. The start is a Heu1 solution for a 25% penalty, repaired
  // against the 5% constraint.
  const netlist::Netlist n = netlist::make_benchmark("c880", lib());
  const opt::Solution loose = opt::heuristic1(opt::AssignmentProblem(n, 0.25));
  const double constraint = opt::AssignmentProblem(n, 0.05).constraint_ps();
  const std::vector<bool> values = sim::simulate(n, loose.sleep_vector);
  const double start_na = sim::circuit_leakage_from_values_na(n, loose.config, values);

  sim::CircuitConfig full = loose.config;
  int full_resets = 0;
  const double full_delay = svc::repair_delay(n, constraint, full, full_resets);
  ASSERT_LE(full_delay, constraint);
  ASSERT_GT(full_resets, 0);
  const double full_na = sim::circuit_leakage_from_values_na(n, full, values);

  // A sweep from the start to past the finished leakage, plus two
  // incumbents a hair either side of it, where an over-eager bound would
  // abandon a repair that wins.
  std::vector<double> incumbents = {full_na * (1.0 - 1e-6), full_na * (1.0 + 1e-6)};
  for (int i = 0; i <= 40; ++i) {
    incumbents.push_back(start_na + (1.05 * full_na - start_na) * i / 40.0);
  }
  int abandoned = 0;
  int finished = 0;
  for (const double incumbent : incumbents) {
    SCOPED_TRACE("incumbent " + std::to_string(incumbent));
    sim::CircuitConfig trial = loose.config;
    int resets = 0;
    const svc::RepairIncumbent bound{&values, start_na, incumbent};
    const double delay = svc::repair_delay(n, constraint, trial, resets, -1, &bound);
    if (delay == svc::kRepairAbandoned) {
      ++abandoned;
      EXPECT_GE(full_na, incumbent);
    } else {
      ++finished;
      EXPECT_EQ(delay, full_delay);
      EXPECT_EQ(resets, full_resets);
      for (std::size_t g = 0; g < full.size(); ++g) {
        ASSERT_EQ(trial[g].variant, full[g].variant) << "gate " << g;
        ASSERT_EQ(trial[g].mapping.logical_to_physical, full[g].mapping.logical_to_physical);
      }
    }
  }
  EXPECT_GT(abandoned, 0);
  EXPECT_GT(finished, 0);
}

TEST(PinnedInputs, NoSearchModeFlipsAPinnedControlPoint) {
  // The level sweep's soundness rests on this: a control point pinned via
  // SearchOptions::pinned_inputs holds its value at every leaf the search
  // (or its probe sweep) evaluates, in every search mode the cone jobs
  // dispatch to.
  const netlist::Netlist n = netlist::make_benchmark("c432", lib());
  const opt::AssignmentProblem problem(n, 0.05);
  const int cps = n.num_control_points();
  ASSERT_GE(cps, 4);

  opt::SearchOptions options;
  options.pinned_inputs.assign(cps, sim::Tri::kX);
  options.pinned_inputs[0] = sim::Tri::kOne;
  options.pinned_inputs[1] = sim::Tri::kZero;
  options.pinned_inputs[cps - 1] = sim::Tri::kOne;
  options.time_limit_s = 0.2;
  options.max_leaves = 32;
  options.random_probes = 8;

  const auto check = [&](const opt::Solution& s, const char* mode) {
    SCOPED_TRACE(mode);
    ASSERT_EQ(s.sleep_vector.size(), static_cast<std::size_t>(cps));
    EXPECT_TRUE(s.sleep_vector[0]);
    EXPECT_FALSE(s.sleep_vector[1]);
    EXPECT_TRUE(s.sleep_vector[cps - 1]);
  };
  check(opt::heuristic1(problem, options), "heu1");
  check(opt::heuristic2(problem, options), "heu2");
  check(opt::state_only_search(problem, options), "state-only");
}

TEST(PinnedInputs, CacheKeyChangesWithBoundaryContext) {
  // Cones solved under different stitched contexts must not alias one
  // cache entry: the pinned-input string and the boundary-timing seed are
  // both part of the key, and the empty strings reproduce the historical
  // (context-free) key.
  const std::uint64_t library_fp = svc::fingerprint_library(lib());
  const std::uint64_t netlist_fp =
      svc::fingerprint_netlist(netlist::make_benchmark("c432", lib()));
  svc::RunKnobs knobs;
  knobs.method = "heu1";
  knobs.penalty_fraction = 0.05;
  knobs.random_vectors = 16;
  knobs.seed = 2004;
  const std::string context_free = svc::cache_key(library_fp, netlist_fp, knobs);

  knobs.pinned_inputs = "1x0";
  const std::string pinned = svc::cache_key(library_fp, netlist_fp, knobs);
  EXPECT_NE(pinned, context_free);

  knobs.pinned_inputs = "1x1";
  EXPECT_NE(svc::cache_key(library_fp, netlist_fp, knobs), pinned);

  knobs.pinned_inputs = "1x0";
  EXPECT_EQ(svc::cache_key(library_fp, netlist_fp, knobs), pinned);

  knobs.boundary_timing = "120:14,0:0,310:22";
  EXPECT_NE(svc::cache_key(library_fp, netlist_fp, knobs), pinned);
}

}  // namespace
}  // namespace svtox
