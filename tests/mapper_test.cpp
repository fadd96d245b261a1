#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/null_dropper.hpp"
#include "core/proactive_heuristic_dropper.hpp"
#include "online/system_state.hpp"
#include "sched/pam.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace taskdrop {
namespace {

using test::pet_of;

/// Inconsistent 2 task types x 2 machine types:
///   type 0: m0 takes 10, m1 takes 20  (prefers m0)
///   type 1: m0 takes 20, m1 takes 5   (prefers m1)
PetMatrix inconsistent_pet() {
  return pet_of({{{{10, 1.0}}, {{20, 1.0}}}, {{{20, 1.0}}, {{5, 1.0}}}});
}

MachineId machine_of(const SystemState& system, TaskId task) {
  for (const auto& [assigned_task, machine] : system.assigned()) {
    if (assigned_task == task) return machine;
  }
  return -1;
}

TEST(Registry, KnowsAllMappersAndRejectsUnknown) {
  for (const std::string name :
       {"MM", "MinMin", "MSD", "PAM", "FCFS", "SJF", "EDF"}) {
    EXPECT_NE(make_mapper(name), nullptr) << name;
  }
  EXPECT_THROW(make_mapper("NOPE"), std::invalid_argument);
  EXPECT_EQ(make_mapper("MinMin")->name(), "MM");
}

TEST(Registry, RejectsCandidateWindowBelowOne) {
  // A window below 1 admits no candidate, so the mapper would silently
  // assign nothing; construction fails closed instead.
  for (const std::string& name : mapper_names()) {
    for (const int window : {0, -1}) {
      EXPECT_THROW(make_mapper(name, window), std::invalid_argument)
          << name << " window " << window;
    }
    EXPECT_NE(make_mapper(name, 1), nullptr) << name;
  }
}

TEST(Registry, BuildsEveryDropperKind) {
  EXPECT_EQ(make_dropper(DropperConfig::reactive_only())->name(), "ReactDrop");
  EXPECT_EQ(make_dropper(DropperConfig::heuristic())->name(), "Heuristic");
  EXPECT_EQ(make_dropper(DropperConfig::optimal())->name(), "Optimal");
  EXPECT_EQ(make_dropper(DropperConfig::threshold())->name(), "Threshold");
}

TEST(MinMin, AssignsEachTaskToItsFastestMachine) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0, 1}, 6);
  const TaskId t0 = system.add_unmapped(0, 0, 1000);
  const TaskId t1 = system.add_unmapped(1, 0, 1000);
  make_mapper("MM")->map_tasks(system.view(), system);
  EXPECT_EQ(machine_of(system, t0), 0);
  EXPECT_EQ(machine_of(system, t1), 1);
  EXPECT_TRUE(system.view().batch_queue->empty());
}

TEST(MinMin, AccountsForQueueBacklogInPhaseOne) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0, 1}, 6);
  // Load m0 with 3 type-0 tasks (30 ticks of backlog). A new type-0 task
  // now completes sooner on the "slow" m1 (20) than behind the backlog
  // (30 + 10 = 40).
  for (int i = 0; i < 3; ++i) system.enqueue(0, 0, 10000);
  const TaskId task = system.add_unmapped(0, 0, 10000);
  make_mapper("MM")->map_tasks(system.view(), system);
  EXPECT_EQ(machine_of(system, task), 1);
}

TEST(MinMin, AssignsOnePairPerMachinePerRound) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0}, 2);
  // Three type-0 tasks, one machine with 2 slots: only two get mapped.
  system.add_unmapped(0, 0, 1000);
  system.add_unmapped(0, 1, 1000);
  system.add_unmapped(0, 2, 1000);
  make_mapper("MM")->map_tasks(system.view(), system);
  EXPECT_EQ(system.assigned().size(), 2u);
  EXPECT_EQ(system.view().batch_queue->size(), 1u);
}

TEST(Msd, PhaseTwoPrefersSoonestDeadline) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0}, 1);  // single slot forces a choice
  system.add_unmapped(0, 0, /*deadline=*/5000);
  const TaskId urgent = system.add_unmapped(0, 0, /*deadline=*/50);
  make_mapper("MSD")->map_tasks(system.view(), system);
  ASSERT_EQ(system.assigned().size(), 1u);
  EXPECT_EQ(system.assigned().front().first, urgent);
}

TEST(Msd, DeadlineTieBreaksOnCompletionTime) {
  // Two tasks with equal deadlines but different execution times on the
  // only machine: the faster one wins the slot.
  const PetMatrix pet = pet_of({{{{10, 1.0}}}, {{{5, 1.0}}}});
  SystemState system(pet, {0}, 1);
  system.add_unmapped(0, 0, 100);
  const TaskId fast = system.add_unmapped(1, 0, 100);
  make_mapper("MSD")->map_tasks(system.view(), system);
  ASSERT_EQ(system.assigned().size(), 1u);
  EXPECT_EQ(system.assigned().front().first, fast);
}

TEST(Pam, PhaseOnePicksHighestChanceMachine) {
  // Type 0 on m0 finishes in 10, on m1 in 20. Deadline 15: chance is 1 on
  // m0 and 0 on m1, even though m1's queue is empty too.
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0, 1}, 6);
  const TaskId task = system.add_unmapped(0, 0, /*deadline=*/15);
  make_mapper("PAM")->map_tasks(system.view(), system);
  EXPECT_EQ(machine_of(system, task), 0);
}

TEST(Pam, PhaseTwoMapsLowestCompletionFirst) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0, 1}, 1);
  // Deadline 15 makes each task's fast machine the unique highest-chance
  // choice (the slow one would finish at 20); the type-1 task (5 ticks on
  // m1) then has the lower expected completion and is assigned first.
  system.add_unmapped(0, 0, 15);
  const TaskId quick = system.add_unmapped(1, 0, 15);
  make_mapper("PAM")->map_tasks(system.view(), system);
  ASSERT_GE(system.assigned().size(), 2u);
  EXPECT_EQ(system.assigned().front().first, quick);
}

TEST(Pam, MapsHopelessTasksRatherThanDeferring)  {
  // Deferring is disabled (section V-B3): even a task with zero chance on
  // every machine is mapped once slots exist.
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0, 1}, 6);
  system.set_now(100);
  const TaskId doomed = system.add_unmapped(0, 0, /*deadline=*/50);
  make_mapper("PAM")->map_tasks(system.view(), system);
  EXPECT_NE(machine_of(system, doomed), -1);
}

/// Reference for the floor-pruned PamMapper: the same two-phase scan with
/// no floor, probing every candidate on every free machine. It also counts
/// the scans that offered a real choice (more than one free machine and
/// more than one candidate), so a lockdown can show it exercised one.
class DirectPamMapper final : public Mapper {
 public:
  DirectPamMapper(int candidate_window, double defer_threshold)
      : window_(candidate_window), defer_threshold_(defer_threshold) {}

  std::string_view name() const override { return "DirectPAM"; }

  void map_tasks(SystemView& view, SchedulerOps& ops) override {
    for (;;) {
      const std::vector<MachineId> free_machines =
          mapper_detail::machines_with_free_slot(view);
      if (free_machines.empty() || view.batch_queue->empty()) return;
      if (free_machines.size() > 1 && view.batch_queue->size() > 1) {
        ++contested_scans;
      }

      TaskId best_task = -1;
      MachineId best_machine = -1;
      double best_completion = 0.0;
      double best_exec_mean = 0.0;

      for (TaskId id : mapper_detail::candidate_window(view, window_)) {
        const Task& task = view.task(id);
        MachineId chance_machine = -1;
        double chance_best = -1.0;
        for (MachineId m : free_machines) {
          CompletionModel& model = (*view.models)[static_cast<std::size_t>(m)];
          const double chance =
              model.chance_if_appended(task.type, task.deadline);
          if (chance > chance_best) {
            chance_best = chance;
            chance_machine = m;
          }
        }
        if (chance_machine < 0) continue;
        if (defer_threshold_ > 0.0 && chance_best < defer_threshold_) continue;

        const double completion = mapper_detail::expected_completion_mean(
            view, chance_machine, task.type);
        const double exec_mean = view.pet->mean_execution(
            task.type,
            (*view.machines)[static_cast<std::size_t>(chance_machine)].type);
        if (best_task < 0 || completion < best_completion ||
            (completion == best_completion && exec_mean < best_exec_mean)) {
          best_task = id;
          best_machine = chance_machine;
          best_completion = completion;
          best_exec_mean = exec_mean;
        }
      }
      if (best_task < 0) return;
      ops.assign_task(best_task, best_machine);
    }
  }

  int contested_scans = 0;

 private:
  int window_;
  double defer_threshold_;
};

/// One seeded SpecHC engine trial shape for the PAM lockdown.
struct PamTrial {
  const char* label;
  double oversubscription = 3.0;
  int window = 256;
  int queue_capacity = 6;
  bool heuristic_dropper = true;
  double defer_threshold = 0.0;
  bool failures = false;
};

ReplayLog pam_trial_log(Mapper& mapper, const PamTrial& trial,
                        std::uint64_t seed) {
  const Scenario scenario = make_scenario(ScenarioKind::SpecHC, seed);
  WorkloadConfig workload;
  workload.n_tasks = 1500;
  workload.oversubscription = trial.oversubscription;
  workload.seed = seed;
  const Trace trace =
      generate_trace(scenario.pet, scenario.machine_count(), workload);
  ProactiveHeuristicDropper heuristic;
  NullDropper reactive;
  Dropper& dropper = trial.heuristic_dropper
                         ? static_cast<Dropper&>(heuristic)
                         : static_cast<Dropper&>(reactive);
  EngineConfig config;
  config.queue_capacity = trial.queue_capacity;
  config.exec_seed = seed + 1000;
  if (trial.failures) {
    config.failures.enabled = true;
    config.failures.mean_time_between_failures = 4000.0;
    config.failures.mean_time_to_repair = 2000.0;
    config.failures.seed = seed ^ 0xF;
  }
  Engine engine(scenario.pet, scenario.profile.machine_types, mapper, dropper,
                config);
  ReplayLog log;
  engine.set_replay_log(&log);
  engine.run(trace);
  return log;
}

TEST(Pam, FloorPruningMatchesDirectScanInEngineTrials) {
  const PamTrial trials[] = {
      {"trial_deep shape", 20.0, 1024, 6, false, 0.0, false},
      {"paper config", 3.0, 256, 6, true, 0.0, false},
      {"PAMD", 3.0, 256, 6, true, 0.3, false},
      {"failure injection", 6.0, 256, 6, true, 0.0, true},
      {"window 8", 6.0, 8, 6, true, 0.0, false},
  };
  for (const PamTrial& trial : trials) {
    for (const std::uint64_t seed : {5u, 6u}) {
      SCOPED_TRACE(::testing::Message() << trial.label << ", seed " << seed);
      DirectPamMapper direct(trial.window, trial.defer_threshold);
      PamMapper pruned(trial.window, trial.defer_threshold);
      const ReplayLog expected = pam_trial_log(direct, trial, seed);
      const ReplayLog actual = pam_trial_log(pruned, trial, seed);
      EXPECT_GT(direct.contested_scans, 0)
          << "no scan had more than one free machine and candidate";
      if (trial.failures) {
        EXPECT_TRUE(std::any_of(
            expected.events.begin(), expected.events.end(),
            [](const ReplayEvent& e) {
              return e.kind == ReplayEvent::Kind::Down;
            }))
            << "no machine ever went down";
      }
      ASSERT_EQ(actual.decisions.size(), expected.decisions.size());
      for (std::size_t i = 0; i < expected.decisions.size(); ++i) {
        ASSERT_EQ(actual.decisions[i], expected.decisions[i])
            << "decision " << i;
      }
    }
  }
}

/// Runs `mapper` on a system that `setup` fills, and returns the
/// assignments in call order.
template <typename Setup>
std::vector<std::pair<TaskId, MachineId>> pam_assignments(
    Mapper& mapper, const PetMatrix& pet,
    const std::vector<MachineTypeId>& machine_types, int queue_capacity,
    Setup setup) {
  SystemState system(pet, machine_types, queue_capacity);
  setup(system);
  mapper.map_tasks(system.view(), system);
  return system.assigned();
}

TEST(Pam, LaterTypeWithStrictlyLowerFloorStillWins) {
  // Type 0 runs in 10 on m0, type 1 in 5 on m1. The type-0 head sets the
  // round's best at completion 10; the second type-0 task's floor only
  // ties it and is skipped, but type 1's floor (5) beats it, so the type-1
  // task at the back of the batch is probed (deadline 15 rules out m0)
  // and wins.
  const PetMatrix pet = inconsistent_pet();
  const auto setup = [](SystemState& system) {
    system.add_unmapped(0, 0, 1000);
    system.add_unmapped(0, 1, 1000);
    system.add_unmapped(1, 2, 15);
  };
  PamMapper pruned;
  DirectPamMapper direct(256, 0.0);
  const auto actual = pam_assignments(pruned, pet, {0, 1}, 1, setup);
  ASSERT_EQ(actual.size(), 2u);
  EXPECT_EQ(actual.front(), (std::pair<TaskId, MachineId>{2, 1}));
  EXPECT_EQ(actual, pam_assignments(direct, pet, {0, 1}, 1, setup));
}

TEST(Pam, EqualCompletionTieAcrossTypesBreaksOnExecutionTime) {
  // m0 (type 0) has a 10-tick backlog, m1 (type 1) is idle. Deadline 25
  // leaves each type one feasible machine: the type-1 head completes at
  // 20 on m1 (executing 20), the type-0 task at 20 on m0 (executing 10).
  // The completions tie, so the shorter execution wins although its task
  // comes second.
  const PetMatrix pet =
      pet_of({{{{10, 1.0}}, {{30, 1.0}}}, {{{30, 1.0}}, {{20, 1.0}}}});
  const auto setup = [](SystemState& system) {
    system.enqueue(0, 0, 1000);
    system.add_unmapped(1, 0, 25);
    system.add_unmapped(0, 1, 25);
  };
  PamMapper pruned;
  DirectPamMapper direct(256, 0.0);
  const auto actual = pam_assignments(pruned, pet, {0, 1}, 2, setup);
  ASSERT_EQ(actual.size(), 2u);
  EXPECT_EQ(actual.front(), (std::pair<TaskId, MachineId>{2, 0}));
  EXPECT_EQ(actual, pam_assignments(direct, pet, {0, 1}, 2, setup));
}

TEST(Pam, EarlyStopLeavesPickUnchanged) {
  // Two idle type-0 machines. The head's key (completion 10) already
  // equals the lowest floor of any type, so the first round stops the
  // scan at the second candidate; the later type-0 task with the same key
  // could only tie, and a tie never replaces the best. The second round
  // prefers the tight-deadline task, which fits only on the idle machine.
  const PetMatrix pet = pet_of({{{{10, 1.0}}}, {{{20, 1.0}}}});
  const auto setup = [](SystemState& system) {
    system.add_unmapped(0, 0, 1000);
    system.add_unmapped(1, 1, 1000);
    system.add_unmapped(0, 2, 15);
  };
  PamMapper pruned;
  DirectPamMapper direct(256, 0.0);
  const auto actual = pam_assignments(pruned, pet, {0, 0}, 2, setup);
  const std::vector<std::pair<TaskId, MachineId>> expected = {
      {0, 0}, {2, 1}, {1, 0}};
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(actual, pam_assignments(direct, pet, {0, 0}, 2, setup));
}

TEST(Fcfs, MapsInArrivalOrder) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0}, 3);
  const TaskId first = system.add_unmapped(0, /*arrival=*/10, 1000);
  const TaskId second = system.add_unmapped(0, /*arrival=*/20, 1000);
  const TaskId third = system.add_unmapped(0, /*arrival=*/30, 1000);
  make_mapper("FCFS")->map_tasks(system.view(), system);
  ASSERT_EQ(system.assigned().size(), 3u);
  EXPECT_EQ(system.assigned()[0].first, first);
  EXPECT_EQ(system.assigned()[1].first, second);
  EXPECT_EQ(system.assigned()[2].first, third);
}

TEST(Sjf, MapsShortestMeanExecutionFirst) {
  // Mean over machines: type 0 -> 15, type 1 -> 12.5.
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0}, 2);
  const TaskId longer = system.add_unmapped(0, 0, 1000);
  const TaskId shorter = system.add_unmapped(1, 1, 1000);
  make_mapper("SJF")->map_tasks(system.view(), system);
  ASSERT_EQ(system.assigned().size(), 2u);
  EXPECT_EQ(system.assigned()[0].first, shorter);
  EXPECT_EQ(system.assigned()[1].first, longer);
}

TEST(Edf, MapsEarliestDeadlineFirst) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0}, 2);
  const TaskId relaxed = system.add_unmapped(0, 0, 900);
  const TaskId urgent = system.add_unmapped(0, 1, 100);
  make_mapper("EDF")->map_tasks(system.view(), system);
  ASSERT_EQ(system.assigned().size(), 2u);
  EXPECT_EQ(system.assigned()[0].first, urgent);
  EXPECT_EQ(system.assigned()[1].first, relaxed);
}

TEST(OrderedMappers, PickLeastLoadedMachine) {
  const PetMatrix pet = pet_of({{{{10, 1.0}}, {{10, 1.0}}}});
  SystemState system(pet, {0, 0}, 6);
  system.enqueue(0, 0, 10000);  // machine 0 has backlog
  const TaskId task = system.add_unmapped(0, 0, 10000);
  make_mapper("FCFS")->map_tasks(system.view(), system);
  EXPECT_EQ(machine_of(system, task), 1);
}

TEST(AllMappers, RespectQueueCapacity) {
  const PetMatrix pet = inconsistent_pet();
  for (const std::string& name : mapper_names()) {
    SystemState system(pet, {0, 1}, 2);
    for (int i = 0; i < 10; ++i) {
      system.add_unmapped(static_cast<TaskTypeId>(i % 2), i, 10000 + i);
    }
    make_mapper(name)->map_tasks(system.view(), system);
    EXPECT_EQ(system.assigned().size(), 4u) << name;  // 2 machines x 2 slots
    EXPECT_LE(system.machine(0).queue.size(), 2u) << name;
    EXPECT_LE(system.machine(1).queue.size(), 2u) << name;
    EXPECT_EQ(system.view().batch_queue->size(), 6u) << name;
  }
}

TEST(AllMappers, NoOpOnEmptyBatchOrFullQueues) {
  const PetMatrix pet = inconsistent_pet();
  for (const std::string& name : mapper_names()) {
    SystemState empty_batch(pet, {0}, 2);
    make_mapper(name)->map_tasks(empty_batch.view(), empty_batch);
    EXPECT_TRUE(empty_batch.assigned().empty()) << name;

    SystemState full(pet, {0}, 1);
    full.enqueue(0, 0, 1000);
    full.add_unmapped(0, 0, 1000);
    make_mapper(name)->map_tasks(full.view(), full);
    EXPECT_TRUE(full.assigned().empty()) << name;
  }
}

TEST(CandidateWindow, LimitsConsideredTasks) {
  // With window 1, only the batch head is a candidate; SJF cannot reach the
  // shorter task sitting behind it.
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0}, 1);
  const TaskId long_head = system.add_unmapped(0, 0, 1000);
  system.add_unmapped(1, 1, 1000);  // shorter, but outside the window
  make_mapper("SJF", /*candidate_window=*/1)
      ->map_tasks(system.view(), system);
  ASSERT_EQ(system.assigned().size(), 1u);
  EXPECT_EQ(system.assigned().front().first, long_head);
}

}  // namespace
}  // namespace taskdrop
