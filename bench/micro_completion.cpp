// Micro benchmarks for the completion-model cache: the cost of the common
// mapping-event mutations (append one task; drop one mid-queue task) versus
// recomputing a whole queue chain from scratch — the practical-cost
// argument of section IV-F.
#include <benchmark/benchmark.h>

#include <memory>

#include "online/system_state.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace taskdrop;

const Scenario& scenario() {
  static const Scenario s = make_scenario(ScenarioKind::SpecHC, 42);
  return s;
}

std::unique_ptr<SystemState> make_queue(int depth) {
  const Scenario& scn = scenario();
  auto system = std::make_unique<SystemState>(
      scn.pet, std::vector<MachineTypeId>{0}, depth + 2);
  const double mean = scn.pet.mean_overall();
  for (int i = 0; i < depth; ++i) {
    system->enqueue(0, static_cast<TaskTypeId>(i % scn.pet.task_type_count()),
                    static_cast<Tick>(mean * (2.0 + i)));
  }
  return system;
}

void BM_FullChainRecompute(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  auto system = make_queue(depth);
  for (auto _ : state) {
    system->model(0).invalidate_all();
    benchmark::DoNotOptimize(system->model(0).instantaneous_robustness());
  }
}
BENCHMARK(BM_FullChainRecompute)->DenseRange(2, 8, 2);

void BM_IncrementalAppend(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const Scenario& scn = scenario();
  const auto deadline = static_cast<Tick>(scn.pet.mean_overall() * 12.0);
  for (auto _ : state) {
    state.PauseTiming();
    auto system = make_queue(depth);
    // Warm the cache up to the current tail.
    system->model(0).instantaneous_robustness();
    state.ResumeTiming();
    // The measured mutation: append + query the new tail only.
    system->enqueue(0, 0, deadline);
    benchmark::DoNotOptimize(
        system->model(0).chance(system->machine(0).queue.size() - 1));
  }
}
BENCHMARK(BM_IncrementalAppend)->DenseRange(2, 8, 2);

void BM_ChanceIfAppended(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  auto system = make_queue(depth);
  const Scenario& scn = scenario();
  const auto deadline = static_cast<Tick>(scn.pet.mean_overall() * 12.0);
  system->model(0).instantaneous_robustness();  // warm cache
  for (auto _ : state) {
    // PAM's phase-1 primitive: no PMF materialisation at all.
    benchmark::DoNotOptimize(system->model(0).chance_if_appended(0, deadline));
  }
}
BENCHMARK(BM_ChanceIfAppended)->DenseRange(2, 8, 2);

}  // namespace

BENCHMARK_MAIN();
