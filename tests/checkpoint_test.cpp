// Checkpoint format round-trips, corruption handling, and the
// kill-and-resume byte-identity property (opt/checkpoint.hpp's invariant):
// with a deterministic leaf budget and a serial search, interrupting at an
// arbitrary point and resuming from the checkpoint must produce the exact
// solution and counters of an uninterrupted run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/solution_io.hpp"
#include "liberty/library.hpp"
#include "netlist/benchmarks.hpp"
#include "opt/checkpoint.hpp"
#include "opt/state_search.hpp"
#include "util/error.hpp"

namespace svtox::opt {
namespace {

const liberty::Library& lib() {
  static const liberty::Library library =
      liberty::Library::build(model::TechParams::nominal(), {});
  return library;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

SearchCheckpoint sample_checkpoint() {
  SearchCheckpoint ck;
  ck.fingerprint = 0x0123456789abcdefULL;
  ck.tree_done = false;
  ck.path = {true, false, true, true};
  ck.probes_done = 0;
  ck.nodes = 42;
  ck.leaves = 9;
  ck.elapsed_s = 1.375;
  ck.sleep_vector = {false, true, true, false};
  ck.leakage_na = 123.4567890123;
  ck.delay_ps = 987.25;
  sim::GateConfig plain;  // identity mapping stays implicit
  plain.variant = 3;
  sim::GateConfig remapped;
  remapped.variant = 1;
  remapped.mapping.canonical_state = 2;
  remapped.mapping.logical_to_physical = {1, 0};
  ck.config = {plain, remapped};
  return ck;
}

void expect_equal(const SearchCheckpoint& a, const SearchCheckpoint& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.tree_done, b.tree_done);
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.probes_done, b.probes_done);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);  // %a round-trips exactly
  EXPECT_EQ(a.sleep_vector, b.sleep_vector);
  EXPECT_EQ(a.leakage_na, b.leakage_na);
  EXPECT_EQ(a.delay_ps, b.delay_ps);
  ASSERT_EQ(a.config.size(), b.config.size());
  for (std::size_t g = 0; g < a.config.size(); ++g) {
    EXPECT_EQ(a.config[g].variant, b.config[g].variant);
    EXPECT_EQ(a.config[g].mapping.canonical_state, b.config[g].mapping.canonical_state);
    EXPECT_EQ(a.config[g].mapping.logical_to_physical,
              b.config[g].mapping.logical_to_physical);
  }
}

TEST(CheckpointFormat, RoundTripsAllFields) {
  const SearchCheckpoint ck = sample_checkpoint();
  const std::string text = write_checkpoint(ck);
  EXPECT_EQ(text.rfind("svtox_checkpoint v1", 0), 0u);
  EXPECT_NE(text.find("\nchecksum "), std::string::npos);
  expect_equal(ck, parse_checkpoint(text));
}

TEST(CheckpointFormat, RoundTripsProbePhase) {
  SearchCheckpoint ck = sample_checkpoint();
  ck.tree_done = true;
  ck.path.clear();
  ck.probes_done = 17;
  expect_equal(ck, parse_checkpoint(write_checkpoint(ck)));
}

TEST(CheckpointFormat, TamperedPayloadFailsChecksum) {
  std::string text = write_checkpoint(sample_checkpoint());
  const auto pos = text.find("nodes 42");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 6] = '3';
  try {
    parse_checkpoint(text);
    FAIL() << "tampered checkpoint parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

TEST(CheckpointFormat, MissingChecksumIsCorrupt) {
  std::string text = write_checkpoint(sample_checkpoint());
  text.resize(text.rfind("checksum "));
  EXPECT_THROW(parse_checkpoint(text), Error);
  EXPECT_THROW(parse_checkpoint("not a checkpoint\n"), Error);
  EXPECT_THROW(parse_checkpoint(""), Error);
}

TEST(CheckpointFile, WritesAtomicallyAndLoadsBack) {
  const std::string path = temp_path("ckpt_roundtrip.ckpt");
  const SearchCheckpoint ck = sample_checkpoint();
  write_checkpoint_file(ck, path);
  const auto loaded = load_checkpoint_file(path, ck.fingerprint);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(ck, *loaded);
  std::remove(path.c_str());
}

TEST(CheckpointFile, FingerprintMismatchIsIgnored) {
  const std::string path = temp_path("ckpt_fp.ckpt");
  const SearchCheckpoint ck = sample_checkpoint();
  write_checkpoint_file(ck, path);
  EXPECT_FALSE(load_checkpoint_file(path, ck.fingerprint + 1).has_value());
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingOrTornFileIsIgnored) {
  EXPECT_FALSE(load_checkpoint_file(temp_path("ckpt_nowhere.ckpt"), 1).has_value());

  const std::string path = temp_path("ckpt_torn.ckpt");
  const std::string text = write_checkpoint(sample_checkpoint());
  std::ofstream(path, std::ios::binary) << text.substr(0, text.size() / 2);
  EXPECT_FALSE(load_checkpoint_file(path, sample_checkpoint().fingerprint).has_value());
  std::remove(path.c_str());
}

TEST(CheckpointFingerprint, TracksProblemAndKnobs) {
  const auto circuit = netlist::make_benchmark("c432", lib());
  const AssignmentProblem p5(circuit, 0.05);
  const AssignmentProblem p25(circuit, 0.25);
  SearchOptions options;
  options.max_leaves = 100;

  const auto fp = [&](const AssignmentProblem& p, const SearchOptions& o,
                      bool state_only = false) {
    return search_fingerprint(p, o, BoundKind::kMinVariant, state_only);
  };
  const std::uint64_t base = fp(p5, options);
  EXPECT_NE(base, fp(p25, options));        // penalty changes the run
  SearchOptions more_leaves = options;
  more_leaves.max_leaves = 200;
  EXPECT_NE(base, fp(p5, more_leaves));     // budget changes the run
  SearchOptions fresh_clock = options;
  fresh_clock.time_limit_s = 99.0;
  EXPECT_EQ(base, fp(p5, fresh_clock));     // wall clock does not
  EXPECT_NE(base, fp(p5, options, true));   // mode changes the run
}

// Pins the fingerprint encoding with values recorded before the subtree
// knobs left SearchOptions: a drift would silently invalidate every
// existing .ckpt file (a mismatched fingerprint is ignored, not resumed).
TEST(CheckpointFingerprint, MatchesRecordedGoldens) {
  const auto circuit = netlist::make_benchmark("c432", lib());
  const AssignmentProblem problem(circuit, 0.05);
  SearchOptions options;
  options.max_leaves = 100;
  EXPECT_EQ(search_fingerprint(problem, options, BoundKind::kMinVariant, false),
            0x8f321ebe644505aaULL);
  options.random_probes = 256;
  EXPECT_EQ(search_fingerprint(problem, options, BoundKind::kFastestVariant, true),
            0x40a485c9e9c362b5ULL);
  options.pinned_inputs.assign(
      static_cast<std::size_t>(circuit.num_control_points()), sim::Tri::kX);
  options.pinned_inputs[0] = sim::Tri::kOne;
  options.pinned_inputs[3] = sim::Tri::kZero;
  EXPECT_EQ(search_fingerprint(problem, options, BoundKind::kMinVariant, false),
            0xe3bd3b540686670dULL);
}

// ---------------------------------------------------------------------------
// Kill-and-resume byte-identity.

using SearchFn =
    std::function<Solution(const AssignmentProblem&, const SearchOptions&)>;

SearchOptions budget_options(std::uint64_t max_leaves) {
  SearchOptions options;
  options.time_limit_s = 600.0;  // leaf budget is the binding limit
  options.max_leaves = max_leaves;
  options.threads = 1;
  options.checkpoint_every_leaves = 16;
  options.checkpoint_every_s = 600.0;  // count trigger only: deterministic cadence
  return options;
}

/// Runs the search repeatedly, cancelling from another thread at staggered
/// delays, resuming from `ckpt_path` each round. The final round runs with
/// no cancellation, so the function always terminates with a complete run.
Solution run_with_interruptions(const SearchFn& search, const AssignmentProblem& problem,
                                SearchOptions options, const std::string& ckpt_path,
                                int* interruptions = nullptr) {
  options.checkpoint_path = ckpt_path;
  std::remove(ckpt_path.c_str());
  for (int delay_ms : {3, 7, 15, 30, 60}) {
    std::atomic<bool> cancel{false};
    options.cancel = &cancel;
    std::thread killer([&cancel, delay_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      cancel.store(true, std::memory_order_relaxed);
    });
    const Solution sol = search(problem, options);
    killer.join();
    if (!sol.interrupted) return sol;
    if (interruptions) ++*interruptions;
    // An interrupted run must leave a resumable snapshot behind.
    EXPECT_TRUE(std::filesystem::exists(ckpt_path));
  }
  options.cancel = nullptr;
  return search(problem, options);
}

void expect_byte_identical(const Solution& resumed, const Solution& reference,
                           const netlist::Netlist& circuit) {
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(core::write_solution(resumed, circuit),
            core::write_solution(reference, circuit));
  EXPECT_EQ(resumed.states_explored, reference.states_explored);
  EXPECT_EQ(resumed.nodes_visited, reference.nodes_visited);
}

void check_resume_identity(const SearchFn& search, const std::string& circuit_name,
                           double penalty, std::uint64_t max_leaves,
                           SearchOptions options, const std::string& tag) {
  const auto circuit = netlist::make_benchmark(circuit_name, lib());
  const AssignmentProblem problem(circuit, penalty);
  options.max_leaves = max_leaves;

  const Solution reference = search(problem, options);  // no checkpoint path

  const std::string ckpt = temp_path("resume_" + tag + ".ckpt");
  const Solution resumed =
      run_with_interruptions(search, problem, options, ckpt);
  expect_byte_identical(resumed, reference, circuit);
  // A completed run cleans up after itself.
  EXPECT_FALSE(std::filesystem::exists(ckpt));
}

const SearchFn kHeu2 = [](const AssignmentProblem& p, const SearchOptions& o) {
  return heuristic2(p, o);
};
const SearchFn kStateOnly = [](const AssignmentProblem& p, const SearchOptions& o) {
  return state_only_search(p, o);
};

TEST(CheckpointResume, Heu2ByteIdenticalC432LowPenalty) {
  check_resume_identity(kHeu2, "c432", 0.05, 300, budget_options(300), "c432_p5");
}

TEST(CheckpointResume, Heu2ByteIdenticalC432HighPenalty) {
  check_resume_identity(kHeu2, "c432", 0.25, 300, budget_options(300), "c432_p25");
}

TEST(CheckpointResume, Heu2ByteIdenticalC880) {
  check_resume_identity(kHeu2, "c880", 0.10, 120, budget_options(120), "c880_p10");
}

TEST(CheckpointResume, StateOnlyWithProbeSweepByteIdentical) {
  SearchOptions options = budget_options(100);
  options.random_probes = 32;  // interrupts can land inside the probe sweep
  check_resume_identity(kStateOnly, "c432", 0.05, 100, options, "c432_probes");
}

TEST(CheckpointResume, InterruptedRunSnapshotIsWellFormed) {
  const auto circuit = netlist::make_benchmark("c432", lib());
  const AssignmentProblem problem(circuit, 0.05);
  SearchOptions options = budget_options(5000);  // big budget: interrupt lands mid-tree
  options.checkpoint_path = temp_path("snapshot_shape.ckpt");
  std::remove(options.checkpoint_path.c_str());

  bool interrupted = false;
  for (int attempt = 0; attempt < 5 && !interrupted; ++attempt) {
    std::remove(options.checkpoint_path.c_str());
    std::atomic<bool> cancel{false};
    options.cancel = &cancel;
    std::thread killer([&cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      cancel.store(true, std::memory_order_relaxed);
    });
    interrupted = heuristic2(problem, options).interrupted;
    killer.join();
  }
  if (!interrupted) GTEST_SKIP() << "search finished before any cancel landed";

  std::ifstream in(options.checkpoint_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const SearchCheckpoint ck = parse_checkpoint(text);  // checksum + shape valid
  EXPECT_NE(ck.fingerprint, 0u);
  EXPECT_GE(ck.leaves, 1u);  // the first descent always completes
  if (!ck.tree_done) {
    EXPECT_EQ(ck.path.size(), static_cast<std::size_t>(circuit.num_inputs()));
  }
  EXPECT_EQ(ck.sleep_vector.size(), static_cast<std::size_t>(circuit.num_inputs()));
  EXPECT_EQ(ck.config.size(), static_cast<std::size_t>(circuit.num_gates()));
  std::remove(options.checkpoint_path.c_str());
}

}  // namespace
}  // namespace svtox::opt
