// Micro benchmarks for the online admission service: steady-state
// per-decision latency of the OnlineScheduler callback path as a function
// of machine-queue depth. One iteration is one finish + one arrival on a
// single saturated machine — two mapping events that each walk the
// completion-model chain of a depth-q queue — so this is the per-event
// cost a serve daemon pays once warm (chain updates are O(q)
// convolutions; the dropper sees every queue on both events). A saturated
// 8-machine fleet times the event's bookkeeping alone.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/proactive_heuristic_dropper.hpp"
#include "online/online_scheduler.hpp"
#include "online/snapshot.hpp"
#include "sched/registry.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace taskdrop;

const Scenario& scenario() {
  static const Scenario s = make_scenario(ScenarioKind::SpecHC, 42);
  return s;
}

/// Keeps a single machine's queue pinned at `depth` tasks (running head
/// included): every iteration finishes the head and admits one
/// replacement with a far-off deadline, so the dropper never changes the
/// occupancy and the measured work is the pure decision path.
void BM_OnlineSteadyState(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const Scenario& scn = scenario();
  auto mapper = make_mapper("PAM");
  ProactiveHeuristicDropper dropper;
  OnlineConfig config;
  config.queue_capacity = depth;
  OnlineScheduler scheduler(scn.pet, {0}, *mapper, dropper, config);

  // Far enough out that every queued task's completion chance stays at
  // one; tight deadlines would let the dropper drain the queue.
  const Tick slack = 1 << 28;
  Tick now = 0;
  const auto confirm = [&](const std::vector<Decision>& decisions) {
    for (const Decision& decision : decisions) {
      if (decision.kind == DecisionKind::Start) {
        scheduler.task_started(now, decision.machine, decision.task);
      }
    }
  };
  TaskTypeId next_type = 0;
  const auto arrive = [&] {
    confirm(scheduler.task_arrived(now, next_type, now + slack));
    next_type = static_cast<TaskTypeId>(
        (next_type + 1) % scn.pet.task_type_count());
  };
  for (int i = 0; i < depth; ++i) arrive();

  for (auto _ : state) {
    ++now;
    confirm(scheduler.task_finished(now, 0));
    arrive();
  }
  state.SetItemsProcessed(state.iterations() * 2);  // mapping events
}
BENCHMARK(BM_OnlineSteadyState)->RangeMultiplier(2)->Range(8, 64);

/// The per-event bookkeeping of a saturated fleet: spec_hc's 8 machines at
/// capacity 6, every head running and every pending task due far off, under
/// PAM with reactive-only dropping. One iteration advances the clock by one
/// tick and admits an arrival no machine has room for, due kLag ticks
/// later: the batch holds a steady backlog of kLag tasks and the arrival of
/// kLag ticks ago expires. PAM returns at once with no free slot, so the
/// row times the mapping event's own passes (the clock move, the reactive
/// pass, the expiry pop, the start pass), which BM_OnlineSteadyState's
/// chain convolutions drown.
void BM_OnlineSaturatedEvent(benchmark::State& state) {
  constexpr Tick kLag = 64;
  const Scenario& scn = scenario();
  auto mapper = make_mapper("PAM");
  auto dropper = make_dropper(DropperConfig::reactive_only());
  OnlineConfig config;
  config.queue_capacity = 6;
  OnlineScheduler scheduler(scn.pet, scn.profile.machine_types, *mapper,
                            *dropper, config);

  const std::size_t slots =
      scn.profile.machine_types.size() *
      static_cast<std::size_t>(config.queue_capacity);
  const auto backlog = static_cast<std::size_t>(kLag) +
                       static_cast<std::size_t>(state.max_iterations);
  scheduler.reserve_tasks(slots + backlog);
  const auto type_of = [&](std::size_t i) {
    return static_cast<TaskTypeId>(i % static_cast<std::size_t>(
                                           scn.pet.task_type_count()));
  };
  const Tick slack = 1 << 28;
  for (std::size_t i = 0; i < slots; ++i) {
    const auto& decisions = scheduler.task_arrived(0, type_of(i), slack);
    for (const Decision& decision : decisions) {
      if (decision.kind == DecisionKind::Start) {
        scheduler.task_started(0, decision.machine, decision.task);
      }
    }
  }
  for (const Machine& machine : scheduler.machines()) {
    if (!machine.running || machine.has_free_slot()) {
      state.SkipWithError("the fleet is not saturated");
      return;
    }
  }
  // Every task the loop admits is registered here, arriving at tick i + 1,
  // so the timed loop writes no fresh task-table memory.
  const auto first = static_cast<TaskId>(scheduler.task_count());
  for (std::size_t i = 0; i < backlog; ++i) {
    const auto arrival = static_cast<Tick>(i) + 1;
    scheduler.register_task(type_of(i), arrival, arrival + kLag);
  }
  TaskId next = first;
  Tick now = 0;
  for (Tick i = 0; i < kLag; ++i) scheduler.task_arrived(++now, next++);

  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.task_arrived(++now, next++));
  }
  if (scheduler.unmapped_count() != static_cast<std::size_t>(kLag)) {
    state.SkipWithError("the batch backlog drifted");
  }
  state.SetItemsProcessed(state.iterations());  // mapping events
}
// Every iteration admits a task, so a fixed count bounds the task table
// (about 20 MB) instead of letting the minimum time size it.
BENCHMARK(BM_OnlineSaturatedEvent)->Iterations(1 << 18)->Repetitions(5);

/// Snapshot/restore round trip at a given fleet backlog: one iteration
/// serializes a warm scheduler and restores the text into a fresh kernel
/// stack — the price of one checkpoint plus one cold resume of the
/// admission daemon. Derived state (completion chains) rebuilds lazily
/// after restore, so this measures the serialization path itself.
void BM_OnlineSnapshotRoundTrip(benchmark::State& state) {
  const int backlog = static_cast<int>(state.range(0));
  const Scenario& scn = scenario();
  auto mapper = make_mapper("PAM");
  ProactiveHeuristicDropper dropper;
  OnlineConfig config;
  config.queue_capacity = 6;
  OnlineScheduler scheduler(scn.pet, scn.profile.machine_types, *mapper,
                            dropper, config);

  const Tick slack = 1 << 28;
  Tick now = 0;
  TaskTypeId next_type = 0;
  for (int i = 0; i < backlog; ++i) {
    ++now;
    const auto& decisions =
        scheduler.task_arrived(now, next_type, now + slack);
    for (const Decision& decision : decisions) {
      if (decision.kind == DecisionKind::Start) {
        scheduler.task_started(now, decision.machine, decision.task);
      }
    }
    next_type = static_cast<TaskTypeId>(
        (next_type + 1) % scn.pet.task_type_count());
  }

  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string snapshot = snapshot_to_string(scheduler, {});
    bytes = snapshot.size();
    auto fresh_mapper = make_mapper("PAM");
    ProactiveHeuristicDropper fresh_dropper;
    OnlineScheduler restored(scn.pet, scn.profile.machine_types,
                             *fresh_mapper, fresh_dropper, config);
    restore_from_string(restored, snapshot, {});
    benchmark::DoNotOptimize(restored.now());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_OnlineSnapshotRoundTrip)->RangeMultiplier(4)->Range(16, 256);

}  // namespace

BENCHMARK_MAIN();
