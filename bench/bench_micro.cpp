// Google-benchmark microbenchmarks of the engine kernels (not a paper
// table; engineering due diligence for the hot paths the heuristics lean
// on: bit-parallel simulation, NLDM interpolation, incremental STA, and
// the ternary bound).
#include <benchmark/benchmark.h>

#include <cstring>

#include "bench/common.hpp"
#include "liberty/library.hpp"
#include "model/tech.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/generators.hpp"
#include "opt/bound_engine.hpp"
#include "opt/leaf_evaluator.hpp"
#include "opt/state_search.hpp"
#include "sim/incremental.hpp"
#include "sim/leakage_eval.hpp"
#include "sim/packed.hpp"
#include "sim/sim.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace svtox;

const liberty::Library& lib() {
  static const liberty::Library library =
      liberty::Library::build(model::TechParams::nominal(), {});
  return library;
}

const netlist::Netlist& circuit() {
  static const netlist::Netlist n =
      netlist::random_circuit(lib(), "micro", 64, 1000, 7);
  return n;
}

void BM_Simulate64(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(circuit().num_inputs()));
  for (auto& w : words) w = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate64(circuit(), words));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Simulate64);

void BM_ScalarSimulate(benchmark::State& state) {
  Rng rng(2);
  std::vector<bool> in(static_cast<std::size_t>(circuit().num_inputs()));
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.next_bool();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(circuit(), in));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScalarSimulate);

void BM_MonteCarlo1k(benchmark::State& state) {
  const sim::CircuitConfig config = sim::fastest_config(circuit());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::monte_carlo_leakage(circuit(), config, 1024, 3));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MonteCarlo1k);

// ---------------------------------------------------------------------------
// Packed (64-wide bit-plane) simulation kernels (BENCH_sim_kernels.json is
// the curated artifact; these are the raw google-benchmark counterparts).
// Scalar and packed Monte-Carlo return bit-identical results, so the pair
// is a pure same-work speed comparison.

void BM_PackedBoolSim64(benchmark::State& state) {
  Rng rng(1);
  sim::PackedBoolSim packed(circuit());
  std::vector<std::uint64_t> words(static_cast<std::size_t>(circuit().num_inputs()));
  for (auto& w : words) w = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(packed.run(words));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PackedBoolSim64);

void BM_MonteCarloScalar1k(benchmark::State& state) {
  const sim::CircuitConfig config = sim::fastest_config(circuit());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::monte_carlo_leakage(circuit(), config, 1024, 3,
                                                      sim::SimBackend::kScalar));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MonteCarloScalar1k);

void BM_MonteCarloPacked1k(benchmark::State& state) {
  const sim::CircuitConfig config = sim::fastest_config(circuit());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::monte_carlo_leakage(circuit(), config, 1024, 3,
                                                      sim::SimBackend::kPacked));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MonteCarloPacked1k);

void BM_NldmLookup(benchmark::State& state) {
  const auto& cell = lib().cell("NAND2");
  const auto& table = cell.variant(0).pins[0].delay_rise;
  double slew = 7.0;
  for (auto _ : state) {
    slew = slew < 200.0 ? slew * 1.1 : 7.0;
    benchmark::DoNotOptimize(table.lookup(slew, 5.0));
  }
}
BENCHMARK(BM_NldmLookup);

void BM_FullSta(benchmark::State& state) {
  const sim::CircuitConfig config = sim::fastest_config(circuit());
  sta::TimingState timing(circuit());
  for (auto _ : state) {
    benchmark::DoNotOptimize(timing.analyze(config));
  }
}
BENCHMARK(BM_FullSta);

/// One random variant trial per iteration: incremental update, then revert.
void incremental_sta_trials(benchmark::State& state, const netlist::Netlist& n) {
  sim::CircuitConfig config = sim::fastest_config(n);
  sta::TimingState timing(n);
  timing.analyze(config);
  Rng rng(4);
  for (auto _ : state) {
    const int g = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n.num_gates())));
    const int v = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(n.cell_of(g).num_variants())));
    config[static_cast<std::size_t>(g)].variant = v;
    sta::TimingUndo undo;
    benchmark::DoNotOptimize(timing.update_after_gate_change(config, g, &undo));
    timing.revert(undo);
    config[static_cast<std::size_t>(g)].variant = n.cell_of(g).fastest_variant();
  }
  state.counters["observe_points"] = static_cast<double>(n.observe_points().size());
}

void BM_IncrementalSta(benchmark::State& state) { incremental_sta_trials(state, circuit()); }
BENCHMARK(BM_IncrementalSta);

// The same trials on the dag10k scale preset, whose ~1.7k observe points
// (vs the few dozen of the 1000-gate circuit above) make any per-update
// O(outputs) work visible.
void BM_IncrementalStaWide(benchmark::State& state) {
  static const netlist::Netlist dag = netlist::make_scale_circuit(lib(), "dag10k");
  incremental_sta_trials(state, dag);
}
BENCHMARK(BM_IncrementalStaWide);

void BM_TernaryBound(benchmark::State& state) {
  const opt::AssignmentProblem problem(circuit(), 0.05);
  std::vector<sim::Tri> partial(static_cast<std::size_t>(circuit().num_inputs()),
                                sim::Tri::kX);
  for (std::size_t i = 0; i < partial.size() / 2; ++i) partial[i] = sim::Tri::kOne;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::leakage_lower_bound_na(problem, partial, opt::BoundKind::kMinVariant));
  }
}
BENCHMARK(BM_TernaryBound);

void BM_GreedyGateAssign(benchmark::State& state) {
  const opt::AssignmentProblem problem(circuit(), 0.05);
  Rng rng(5);
  std::vector<bool> vec(static_cast<std::size_t>(circuit().num_inputs()));
  for (std::size_t i = 0; i < vec.size(); ++i) vec[i] = rng.next_bool();
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::assign_gates_greedy(problem, vec));
  }
}
BENCHMARK(BM_GreedyGateAssign);

// ---------------------------------------------------------------------------
// Bound-engine benchmarks (BENCH_bound_engine.json).
//
// `probe descent` is the branch-and-bound inner loop: at each depth probe
// both polarities of the next input (set, read bound, undo) and commit the
// better-looking branch. BM_BoundEngineIncremental runs it on the
// event-driven engine (cone resimulation + cached per-gate terms);
// BM_BoundEngineReference runs the same sequence with every bound
// recomputed from scratch, which is what the search did before this
// engine existed. Both use c6288 (16x16 array multiplier, 2470 gates),
// the largest bundled netlist.

const netlist::Netlist& c6288() {
  static const netlist::Netlist n = netlist::make_benchmark("c6288", lib());
  return n;
}

const opt::AssignmentProblem& c6288_problem() {
  static const opt::AssignmentProblem p(c6288(), 0.05);
  return p;
}

double probe_descent(opt::BoundEngine& engine, int depth) {
  double acc = 0.0;
  for (int d = 0; d < depth; ++d) {
    const double zero = engine.set_input(d, sim::Tri::kZero);
    engine.undo();
    const double one = engine.set_input(d, sim::Tri::kOne);
    engine.undo();
    acc += engine.set_input(d, zero <= one ? sim::Tri::kZero : sim::Tri::kOne);
  }
  for (int d = 0; d < depth; ++d) engine.undo();
  return acc;
}

void BM_BoundEngineIncremental(benchmark::State& state) {
  opt::BoundEngine engine(c6288_problem(), opt::BoundKind::kMinVariant,
                          opt::BoundMode::kIncremental);
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(probe_descent(engine, depth));
  }
  // Three bound evaluations per depth level.
  state.SetItemsProcessed(state.iterations() * depth * 3);
}
BENCHMARK(BM_BoundEngineIncremental)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_BoundEngineReference(benchmark::State& state) {
  opt::BoundEngine engine(c6288_problem(), opt::BoundKind::kMinVariant,
                          opt::BoundMode::kReference);
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(probe_descent(engine, depth));
  }
  state.SetItemsProcessed(state.iterations() * depth * 3);
}
BENCHMARK(BM_BoundEngineReference)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_IncrementalTernaryUpdate(benchmark::State& state) {
  sim::IncrementalTernarySim inc(c6288());
  Rng rng(6);
  for (auto _ : state) {
    const int index =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(c6288().num_inputs())));
    inc.set_input(index, rng.next_bool() ? sim::Tri::kOne : sim::Tri::kZero);
    inc.undo();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalTernaryUpdate);

void BM_FullTernarySim(benchmark::State& state) {
  Rng rng(6);
  std::vector<sim::Tri> inputs(static_cast<std::size_t>(c6288().num_inputs()),
                               sim::Tri::kX);
  for (auto _ : state) {
    const auto index = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(c6288().num_inputs())));
    inputs[index] = rng.next_bool() ? sim::Tri::kOne : sim::Tri::kZero;
    benchmark::DoNotOptimize(sim::simulate_ternary(c6288(), inputs));
    inputs[index] = sim::Tri::kX;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullTernarySim);

// Root-split scaling: a fixed-work full-tree search at 1/2/4/8 worker
// threads. XOR trees keep ternary bounds flat, so nothing prunes and the
// search visits all 2^11 leaves with greedy gate assignment at each --
// identical work at every thread count (verified: leaves == 2^inputs).
// Results depend on the host's core count (recorded as `num_cpus` in the
// benchmark JSON context); on a single-CPU host the threads timeslice and
// the curve is necessarily flat.
const opt::AssignmentProblem& parity_problem() {
  static const netlist::Netlist n = netlist::parity_checker(lib(), 8, 2);
  static const opt::AssignmentProblem p(n, 0.05);
  return p;
}

void BM_RootSplitFullTree(benchmark::State& state) {
  opt::SearchOptions options;
  options.time_limit_s = 1e9;  // run to tree exhaustion, not to a deadline
  options.threads = static_cast<int>(state.range(0));
  std::int64_t leaves = 0;
  for (auto _ : state) {
    const opt::Solution sol = opt::heuristic2(parity_problem(), options);
    leaves = sol.states_explored;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["leaves"] =
      benchmark::Counter(static_cast<double>(leaves));
  state.SetItemsProcessed(state.iterations() * leaves);
}
BENCHMARK(BM_RootSplitFullTree)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Leaf-evaluation benchmarks (BENCH_leaf_eval.json).
//
// One iteration = one greedy gate-tree leaf. The walk flips a single
// random input between leaves -- the access pattern of the state-tree
// DFS and the probe sweep, where consecutive leaves share most of their
// sleep vector. BM_LeafGreedyAmortized evaluates through a persistent
// LeafEvaluator (cone-local resimulation, memoized canonicalization,
// snapshot-restored timing baseline); BM_LeafGreedyFromScratch calls the
// free function, which rebuilds all of that per leaf -- what every leaf
// cost before the evaluator existed. Run on the two largest bundled
// netlists: c6288 (2470 gates) and c7552 (1994 gates).

const netlist::Netlist& c7552() {
  static const netlist::Netlist n = netlist::make_benchmark("c7552", lib());
  return n;
}

const opt::AssignmentProblem& c7552_problem() {
  static const opt::AssignmentProblem p(c7552(), 0.05);
  return p;
}

void leaf_walk_amortized(benchmark::State& state, const opt::AssignmentProblem& problem) {
  opt::LeafEvaluator evaluator(problem);
  Rng rng(8);
  std::vector<bool> vec(
      static_cast<std::size_t>(problem.netlist().num_control_points()), false);
  for (auto _ : state) {
    const auto i = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(vec.size())));
    vec[i] = !vec[i];
    benchmark::DoNotOptimize(evaluator.evaluate_greedy(vec));
  }
  state.SetItemsProcessed(state.iterations());
}

void leaf_walk_from_scratch(benchmark::State& state,
                            const opt::AssignmentProblem& problem) {
  Rng rng(8);
  std::vector<bool> vec(
      static_cast<std::size_t>(problem.netlist().num_control_points()), false);
  for (auto _ : state) {
    const auto i = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(vec.size())));
    vec[i] = !vec[i];
    benchmark::DoNotOptimize(opt::assign_gates_greedy(problem, vec));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LeafGreedyAmortized_c6288(benchmark::State& state) {
  leaf_walk_amortized(state, c6288_problem());
}
BENCHMARK(BM_LeafGreedyAmortized_c6288)->Unit(benchmark::kMillisecond);

void BM_LeafGreedyFromScratch_c6288(benchmark::State& state) {
  leaf_walk_from_scratch(state, c6288_problem());
}
BENCHMARK(BM_LeafGreedyFromScratch_c6288)->Unit(benchmark::kMillisecond);

void BM_LeafGreedyAmortized_c7552(benchmark::State& state) {
  leaf_walk_amortized(state, c7552_problem());
}
BENCHMARK(BM_LeafGreedyAmortized_c7552)->Unit(benchmark::kMillisecond);

void BM_LeafGreedyFromScratch_c7552(benchmark::State& state) {
  leaf_walk_from_scratch(state, c7552_problem());
}
BENCHMARK(BM_LeafGreedyFromScratch_c7552)->Unit(benchmark::kMillisecond);

void BM_LibraryBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        liberty::Library::build(model::TechParams::nominal(), {}));
  }
}
BENCHMARK(BM_LibraryBuild);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): records this binary's own build
// type and the dispatched SIMD implementation in the JSON context (the
// stock `library_build_type` field describes the system benchmark library,
// not us -- that ambiguity put a debug capture in BENCH_leaf_eval.json
// once), and refuses to write a --benchmark_out artifact from a
// non-Release build (bench::check_artifact_build_type).
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      svtox::bench::check_artifact_build_type(argv[i] + 16);
    }
  }
  benchmark::AddCustomContext("svtox_build_type", svtox::bench::build_type());
  benchmark::AddCustomContext("simd_dispatch", svtox::simd::dispatch_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
