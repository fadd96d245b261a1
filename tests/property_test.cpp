// Property-based sweeps over randomised inputs: invariants that must hold
// for every seed, exercised via TEST_P.
#include <gtest/gtest.h>

#include "core/optimal_dropper.hpp"
#include "core/proactive_heuristic_dropper.hpp"
#include "online/system_state.hpp"
#include "prob/convolution.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace taskdrop {
namespace {

Pmf random_exec_pmf(Rng& rng, Tick stride) {
  std::vector<std::pair<Tick, double>> impulses;
  const int n = static_cast<int>(rng.uniform_int(1, 8));
  for (int i = 0; i < n; ++i) {
    impulses.emplace_back(stride * rng.uniform_int(1, 12),
                          rng.uniform(0.05, 1.0));
  }
  Pmf pmf = Pmf::from_impulses(std::move(impulses), stride);
  pmf.normalize();
  return pmf;
}

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Eq. 1 output is a proper PMF and success chance is a probability, for
// arbitrary inputs and deadlines.
TEST_P(SeededProperty, DeadlineConvolveYieldsProperPmf) {
  Rng rng(GetParam());
  for (const Tick stride : {Tick{1}, Tick{5}}) {
    const Pmf pred = random_exec_pmf(rng, stride);
    const Pmf exec = random_exec_pmf(rng, stride);
    for (int i = 0; i < 10; ++i) {
      const Tick deadline = stride * rng.uniform_int(0, 30);
      const Pmf completion = deadline_convolve(pred, exec, deadline);
      ASSERT_NEAR(completion.total_mass(), 1.0, 1e-9);
      const double chance = chance_of_success(completion, deadline);
      ASSERT_GE(chance, -1e-12);
      ASSERT_LE(chance, 1.0 + 1e-12);
      // Completion can never precede the earliest possible start+exec or
      // the predecessor itself.
      ASSERT_GE(completion.min_time(),
                std::min(pred.min_time() + exec.min_time(), pred.min_time()));
    }
  }
}

// Dropping any mid-queue task never hurts its influence zone: each
// successor's chance of success is non-decreasing (section IV-A's "dropping
// improves the chance of success for the tasks behind").
TEST_P(SeededProperty, DroppingNeverHurtsSuccessors) {
  Rng rng(GetParam());
  const PetMatrix pet = test::pet_of(
      {{{{2, 0.5}, {8, 0.5}}}, {{{1, 0.7}, {4, 0.3}}}, {{{5, 1.0}}}});
  SystemState system(pet, {0}, 8);
  const int depth = static_cast<int>(rng.uniform_int(3, 6));
  for (int i = 0; i < depth; ++i) {
    system.enqueue(0, static_cast<TaskTypeId>(rng.uniform_int(0, 2)),
                   rng.uniform_int(3, 40));
  }
  CompletionModel& model = system.model(0);
  const auto victim =
      static_cast<std::size_t>(rng.uniform_int(0, depth - 2));
  std::vector<double> before;
  for (std::size_t pos = victim + 1; pos < system.machine(0).queue.size();
       ++pos) {
    before.push_back(model.chance(pos));
  }
  system.drop_queued_task(0, victim);
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_GE(model.chance(victim + i) + 1e-12, before[i])
        << "successor " << i;
  }
}

// The heuristic dropper only ever drops when Eq. 8 certifies a gain, so the
// queue's instantaneous robustness never decreases across a pass.
TEST_P(SeededProperty, HeuristicPassNeverReducesInstantaneousRobustness) {
  Rng rng(GetParam());
  const PetMatrix pet = test::pet_of(
      {{{{2, 0.5}, {8, 0.5}}}, {{{1, 0.7}, {4, 0.3}}}, {{{5, 1.0}}}});
  SystemState system(pet, {0, 0}, 8);
  for (const MachineId machine : {0, 1}) {
    const int depth = static_cast<int>(rng.uniform_int(2, 6));
    for (int i = 0; i < depth; ++i) {
      system.enqueue(machine, static_cast<TaskTypeId>(rng.uniform_int(0, 2)),
                     rng.uniform_int(3, 40));
    }
  }
  const double before = system.model(0).instantaneous_robustness() +
                        system.model(1).instantaneous_robustness();
  ProactiveHeuristicDropper dropper;
  dropper.run(system.view(), system);
  const double after = system.model(0).instantaneous_robustness() +
                       system.model(1).instantaneous_robustness();
  ASSERT_GE(after + 1e-9, before);
}

// Engine conservation law: every generated task ends in exactly one
// terminal state, for every mapper/dropper combination.
TEST_P(SeededProperty, EngineConservesTasksAcrossConfigurations) {
  const std::uint64_t seed = GetParam();
  const Scenario scenario = make_scenario(ScenarioKind::SpecHC, seed);
  WorkloadConfig workload;
  workload.n_tasks = 150;
  workload.oversubscription = 3.0;
  workload.seed = seed;
  const Trace trace =
      generate_trace(scenario.pet, scenario.machine_count(), workload);

  const std::vector<DropperConfig> droppers = {
      DropperConfig::reactive_only(), DropperConfig::heuristic(),
      DropperConfig::threshold(), DropperConfig::optimal(),
      DropperConfig::approximate()};
  for (const auto& mapper_name : mapper_names()) {
    for (const auto& dropper_config : droppers) {
      auto mapper = make_mapper(mapper_name);
      auto dropper = make_dropper(dropper_config);
      EngineConfig config;
      config.exec_seed = seed;
      Engine engine(scenario.pet, scenario.profile.machine_types, *mapper,
                    *dropper, config);
      const SimResult result = engine.run(trace);
      ASSERT_EQ(result.counts().total(),
                static_cast<long long>(trace.size()))
          << mapper_name << " + " << dropper->name();
      for (const Task& task : result.tasks) {
        ASSERT_TRUE(is_terminal(task.state));
        if (task.state == TaskState::CompletedOnTime) {
          ASSERT_LT(task.finish_time, task.deadline);
        }
        if (task.state == TaskState::CompletedLate) {
          ASSERT_GE(task.finish_time, task.deadline);
        }
        if (task.state == TaskState::Running ||
            task.state == TaskState::CompletedOnTime ||
            task.state == TaskState::CompletedLate) {
          ASSERT_LT(task.start_time, task.deadline)
              << "a task must start before its deadline";
        }
      }
    }
  }
}

// Workload generation is a pure function of its seed at any scale.
TEST_P(SeededProperty, TraceGenerationIsPure) {
  const std::uint64_t seed = GetParam();
  const PetMatrix pet = test::pet_of({{{{100, 1.0}}}, {{{50, 1.0}}}});
  WorkloadConfig config;
  config.n_tasks = 64;
  config.seed = seed;
  const Trace a = generate_trace(pet, 4, config);
  const Trace b = generate_trace(pet, 4, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].arrival, b[i].arrival);
    ASSERT_EQ(a[i].deadline, b[i].deadline);
    ASSERT_EQ(a[i].type, b[i].type);
  }
  EXPECT_TRUE(validate_trace(a, pet.task_type_count()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace taskdrop
