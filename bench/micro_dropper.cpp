// Micro benchmarks for section IV-F, factor (A): the per-mapping-event cost
// of the dropping mechanisms as a function of machine-queue depth q. The
// heuristic needs O(eta * q) convolutions while the optimal subset search
// needs O(q * 2^(q-1)) — this bench makes the gap concrete. BM_HeuristicRewalk
// times the heuristic's re-walk of a queue whose chain did not change, which
// the completion model's per-position window memo answers without
// convolving.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/optimal_dropper.hpp"
#include "core/proactive_heuristic_dropper.hpp"
#include "core/threshold_dropper.hpp"
#include "online/system_state.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace taskdrop;

const Scenario& scenario() {
  static const Scenario s = make_scenario(ScenarioKind::SpecHC, 42);
  return s;
}

/// Builds one machine whose queue holds `depth` tasks with deadlines tight
/// enough that dropping decisions are non-trivial.
std::unique_ptr<SystemState> make_queue(
    int depth, CompletionModel::Options options = {}) {
  const Scenario& scn = scenario();
  auto system = std::make_unique<SystemState>(
      scn.pet, std::vector<MachineTypeId>{0}, /*queue_capacity=*/depth + 1,
      /*now=*/0, options);
  const double mean = scn.pet.mean_overall();
  for (int i = 0; i < depth; ++i) {
    const auto type = static_cast<TaskTypeId>(i % scn.pet.task_type_count());
    const auto deadline =
        static_cast<Tick>(mean * (1.0 + 0.4 * static_cast<double>(i)));
    system->enqueue(0, type, deadline);
  }
  return system;
}

template <typename DropperT>
void run_dropper_bench(benchmark::State& state, DropperT& dropper) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto system = make_queue(depth);
    state.ResumeTiming();
    dropper.run(system->view(), *system);
    benchmark::DoNotOptimize(system->dropped().size());
  }
}

void BM_HeuristicDropper(benchmark::State& state) {
  ProactiveHeuristicDropper dropper;
  run_dropper_bench(state, dropper);
}
BENCHMARK(BM_HeuristicDropper)->DenseRange(2, 8);

/// The trial_cond regime: a conditioned running machine whose clock
/// advances below the running task's first kept bin, so each mapping event
/// bumps the revision without changing the chain and the heuristic re-walks
/// the whole queue. An iteration is one such set_now step plus the dropper
/// pass it triggers. beta is large enough that no drop changes the queue,
/// so after the untimed first pass every Eq. 8 window is a memo hit.
/// BM_HeuristicDropper, which rebuilds its system (and so an empty memo)
/// every iteration, is the control.
void BM_HeuristicRewalk(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  CompletionModel::Options options;
  options.condition_running = true;
  auto system = make_queue(depth, options);
  system->set_running(0, /*run_start=*/0);
  ProactiveHeuristicDropper dropper(ProactiveHeuristicDropper::Params{2, 1e9});
  dropper.run(system->view(), *system);  // fills the memo
  // Every step stays in [1, keep_below): the conditioned slot 0 strips
  // nothing there, so the chain is bitwise unchanged by each step.
  const Tick keep_below = system->model(0).completion(0).min_time();
  if (!system->dropped().empty() || keep_below < 3) {
    state.SkipWithError("setup must keep the queue and leave room to step");
    return;
  }
  Tick now = 0;
  for (auto _ : state) {
    now = now + 1 < keep_below ? now + 1 : 1;
    system->set_now(now);
    dropper.run(system->view(), *system);
    benchmark::DoNotOptimize(system->dropped().size());
  }
  if (!system->dropped().empty()) state.SkipWithError("a re-walk dropped");
}
BENCHMARK(BM_HeuristicRewalk)->Arg(8)->Arg(16)->Arg(24);

void BM_OptimalDropper(benchmark::State& state) {
  OptimalDropper dropper;
  run_dropper_bench(state, dropper);
}
BENCHMARK(BM_OptimalDropper)->DenseRange(2, 8);

void BM_ThresholdDropper(benchmark::State& state) {
  ThresholdDropper dropper;
  run_dropper_bench(state, dropper);
}
BENCHMARK(BM_ThresholdDropper)->DenseRange(2, 8);

}  // namespace

BENCHMARK_MAIN();
