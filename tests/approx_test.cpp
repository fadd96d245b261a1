// Approximate-computing extension tests (section VI future work).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/approx_dropper.hpp"
#include "exp/experiment.hpp"
#include "online/system_state.hpp"
#include "pet/pet_builder.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace taskdrop {
namespace {

using test::pet_of;
using test::pmf_of;

// ---------------------------- scale_time -----------------------------

TEST(ScaleTime, HalvesTimesOnTheLattice) {
  const Pmf pmf = pmf_of({{10, 0.5}, {20, 0.5}}, 5);
  const Pmf scaled = pmf.scale_time(0.5);
  EXPECT_EQ(scaled, pmf_of({{5, 0.5}, {10, 0.5}}, 5));
}

TEST(ScaleTime, MergesCollidingBinsAndClampsToOneStride) {
  const Pmf pmf = pmf_of({{1, 0.3}, {2, 0.3}, {10, 0.4}});
  const Pmf scaled = pmf.scale_time(0.1);
  // 1 -> clamp 1, 2 -> clamp 1, 10 -> 1: everything lands on tick 1.
  EXPECT_EQ(scaled, pmf_of({{1, 1.0}}));
  EXPECT_NEAR(scaled.total_mass(), 1.0, 1e-12);
}

TEST(ScaleTime, PreservesMassForAnyFactor) {
  const Pmf pmf = pmf_of({{10, 0.2}, {15, 0.3}, {40, 0.5}}, 5);
  for (const double factor : {0.25, 0.5, 0.75, 1.0, 2.0}) {
    EXPECT_NEAR(pmf.scale_time(factor).total_mass(), 1.0, 1e-12) << factor;
  }
}

TEST(ScaleTime, RejectsTimesOffTheTickRange) {
  // A scaled time past the last tick used to round to LLONG_MIN and clamp
  // to one stride: every approximate PMF became a 5 ms point mass.
  const Pmf pmf = pmf_of({{10, 0.2}, {15, 0.3}, {40, 0.5}}, 5);
  try {
    (void)pmf.scale_time(1e300);
    ADD_FAILURE() << "scale_time(1e300) returned";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "Pmf::scale_time: scaled time 1e+301 ms is past the last "
                 "tick at bin width 5");
  }
  EXPECT_THROW((void)pmf.scale_time(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW((void)scaled_pet(pet_of({{{{10, 1.0}}}}), 1e300),
               std::invalid_argument);
}

TEST(ScaledPet, ScalesEveryCell) {
  const PetMatrix pet =
      pet_of({{{{10, 1.0}}, {{20, 1.0}}}, {{{40, 1.0}}, {{8, 1.0}}}});
  const PetMatrix half = scaled_pet(pet, 0.5);
  EXPECT_TRUE(half.frozen());
  EXPECT_DOUBLE_EQ(half.mean_execution(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(half.mean_execution(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(half.mean_execution(1, 0), 20.0);
  EXPECT_DOUBLE_EQ(half.mean_execution(1, 1), 4.0);
}

// --------------------------- ApproxDropper ---------------------------

/// big {10}, small {1}; the approximate PET halves times (big~ = {5}).
struct ApproxRig {
  PetMatrix pet = pet_of({{{{10, 1.0}}}, {{{1, 1.0}}}});
  PetMatrix approx = scaled_pet(pet, 0.5);

  std::unique_ptr<SystemState> system(int capacity = 6) {
    CompletionModel::Options options;
    options.approx_pet = &approx;
    return std::make_unique<SystemState>(pet, std::vector<MachineTypeId>{0},
                                         capacity, 0, options);
  }
};

TEST(ApproxDropper, DowngradesWhenApproximateVersionSucceeds) {
  ApproxRig rig;
  auto system = rig.system();
  // Full big task (10 ticks) with deadline 8: hopeless at full quality,
  // certain at approximate quality (5 ticks). No successors, so dropping is
  // off the table (last task) — downgrade is the only sensible move:
  // keep utility = 0, downgrade utility = 0.5 * 1.0.
  const TaskId task = system->enqueue(0, 0, 8);
  ApproxDropper dropper;
  dropper.run(system->view(), *system);
  ASSERT_EQ(system->downgraded().size(), 1u);
  EXPECT_EQ(system->downgraded().front(), task);
  EXPECT_TRUE(system->dropped().empty());
  EXPECT_TRUE(system->task(task).approximate);
  EXPECT_NEAR(system->model(0).chance(0), 1.0, 1e-12);
}

TEST(ApproxDropper, PrefersDropWhenDowngradeCannotSave) {
  ApproxRig rig;
  auto system = rig.system();
  // Big head with deadline 3: even the approximate version (5 ticks) misses.
  // Successors gain everything from a drop.
  const TaskId big = system->enqueue(0, 0, 3);
  system->enqueue(0, 1, 4);
  system->enqueue(0, 1, 5);
  ApproxDropper dropper;
  dropper.run(system->view(), *system);
  ASSERT_EQ(system->dropped().size(), 1u);
  EXPECT_EQ(system->dropped().front(), big);
  EXPECT_TRUE(system->downgraded().empty());
}

TEST(ApproxDropper, KeepsCertainTasksAtFullQuality) {
  ApproxRig rig;
  auto system = rig.system();
  system->enqueue(0, 1, 100);
  system->enqueue(0, 1, 101);
  ApproxDropper dropper;
  dropper.run(system->view(), *system);
  EXPECT_TRUE(system->dropped().empty());
  // Downgrading a certain task would shrink its utility from 1.0 to 0.5.
  EXPECT_TRUE(system->downgraded().empty());
}

TEST(ApproxDropper, WithoutApproxPetBehavesLikeHeuristic) {
  const PetMatrix pet = pet_of({{{{10, 1.0}}}, {{{1, 1.0}}}});
  SystemState system(pet, {0}, 6);  // no approx_pet in options
  system.enqueue(0, 0, 5);
  system.enqueue(0, 1, 3);
  system.enqueue(0, 1, 4);
  ApproxDropper dropper;
  dropper.run(system.view(), system);
  EXPECT_EQ(system.dropped().size(), 1u);
  EXPECT_TRUE(system.downgraded().empty());
}

TEST(ApproxDropper, DowngradeIsIdempotentPerTask) {
  ApproxRig rig;
  auto system = rig.system();
  system->enqueue(0, 0, 8);
  ApproxDropper dropper;
  dropper.run(system->view(), *system);
  dropper.run(system->view(), *system);
  EXPECT_EQ(system->downgraded().size(), 1u);  // not downgraded twice
}

// ----------------------- engine integration --------------------------

TEST(ApproxEngine, ApproximateTasksRunWithScaledDurations) {
  const PetMatrix pet = pet_of({{{{10, 1.0}}}, {{{1, 1.0}}}});
  // Head task arrives first and runs; the big task behind it would miss its
  // deadline at full quality but fits at half duration.
  const Trace trace = {{1, 0, 100}, {0, 1, 9}};
  auto mapper = make_mapper("FCFS");
  auto dropper = make_dropper(DropperConfig::approximate());
  EngineConfig config;
  config.approx.enabled = true;
  config.approx.time_factor = 0.5;
  Engine engine(pet, {0}, *mapper, *dropper, config);
  const SimResult result = engine.run(trace);
  EXPECT_EQ(result.tasks[1].state, TaskState::CompletedOnTime);
  EXPECT_TRUE(result.tasks[1].approximate);
  EXPECT_EQ(result.tasks[1].actual_execution, 5);
  EXPECT_EQ(result.counts().approx_on_time, 1);
}

TEST(ApproxEngine, UtilityWeighsApproxCompletions) {
  const PetMatrix pet = pet_of({{{{10, 1.0}}}, {{{1, 1.0}}}});
  const Trace trace = {{1, 0, 100}, {0, 1, 9}};
  auto mapper = make_mapper("FCFS");
  auto dropper = make_dropper(DropperConfig::approximate());
  EngineConfig config;
  config.approx.enabled = true;
  Engine engine(pet, {0}, *mapper, *dropper, config);
  const SimResult result = engine.run(trace);
  // Both tasks on time; one approximate at weight 0.5 -> utility 75 %.
  EXPECT_NEAR(result.robustness_pct(0, 0), 100.0, 1e-12);
  EXPECT_NEAR(result.utility_pct(0.5, 0, 0), 75.0, 1e-12);
  EXPECT_NEAR(result.utility_pct(1.0, 0, 0), 100.0, 1e-12);
}

TEST(ApproxExperiment, UtilityAtLeastMatchesDropOnlyUnderOversubscription) {
  ExperimentConfig config;
  config.scenario = ScenarioKind::SpecHC;
  config.mapper = "PAM";
  config.workload.n_tasks = 600;
  config.workload.oversubscription = 3.0;
  config.trials = 3;
  config.seed = 21;

  config.dropper = DropperConfig::heuristic();
  const ExperimentResult drop_only = run_experiment(config);
  config.dropper = DropperConfig::approximate();
  const ExperimentResult approx = run_experiment(config);

  // Downgrading converts would-be drops into half-credit completions, so
  // robustness (on-time %) should not fall apart and typically rises.
  EXPECT_GT(approx.robustness.mean + 5.0, drop_only.robustness.mean);
  // And some tasks actually ran approximately.
  long long approx_completions = 0;
  for (const TrialMetrics& trial : approx.trials) {
    approx_completions += trial.approx_on_time;
  }
  EXPECT_GT(approx_completions, 0);
}

}  // namespace
}  // namespace taskdrop
