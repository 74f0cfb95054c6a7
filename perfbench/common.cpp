// Helpers shared by the workloads.
#include "sim/leakage_eval.hpp"
#include "sta/sta.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace svtox;

Recheck recheck(Tracer& tracer, const netlist::Netlist& netlist, double penalty,
                const sim::CircuitConfig& config, const std::vector<bool>& sleep_vector) {
  Recheck out;
  {
    Span span(tracer, "sta.verify");
    out.constraint_ps = sta::compute_delay_budget(netlist).constraint_ps(penalty);
    sta::TimingState timing(netlist);
    out.delay_ps = timing.analyze(config);
  }
  Span span(tracer, "sim.leakage_eval");
  out.leakage_na = sim::circuit_leakage_na(netlist, config, sleep_vector);
  return out;
}

void replay_budgets(Tracer& tracer,
                    const std::vector<const netlist::Netlist*>& netlists) {
  for (const netlist::Netlist* netlist : netlists) {
    Span span(tracer, "sta.budget");
    sta::compute_delay_budget(*netlist);
  }
}

core::MethodResult run_layered(Tracer& tracer, core::StandbyOptimizer& optimizer,
                               core::Method method, const core::RunConfig& config) {
  using core::Method;
  if (tracer.enabled()) {
    {
      Span span(tracer, "sim.mc");
      optimizer.average_random_leakage_ua(config.random_vectors, config.seed);
    }
    if (method != Method::kAverageRandom) {
      Span span(tracer, "opt.problem");
      optimizer.problem(method, config.penalty_fraction);
    }
  }
  const char* name = method == Method::kHeu1      ? "opt.heu1"
                     : method == Method::kHeu2    ? "opt.heu2"
                     : method == Method::kVtState ? "opt.vtstate"
                                                  : "core.run";
  Span span(tracer, name);
  return optimizer.run(method, config);
}

}  // namespace perfbench
