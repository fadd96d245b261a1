#include "core/completion_model.hpp"

#include <gtest/gtest.h>

#include "online/system_state.hpp"
#include "prob/convolution.hpp"
#include "test_util.hpp"

namespace taskdrop {
namespace {

using test::pet_of;
using test::pmf_of;

/// 2 task types x 1 machine type:
///   type 0: deterministic 2 ticks
///   type 1: {1: 0.6, 2: 0.4} (Fig. 2's execution PMF)
PetMatrix two_type_pet() {
  return pet_of({{{{2, 1.0}}}, {{{1, 0.6}, {2, 0.4}}}});
}

TEST(CompletionModel, IdleMachineSingleTask) {
  const PetMatrix pet = two_type_pet();
  SystemState system(pet, {0}, 6, /*now=*/10);
  system.enqueue(0, /*type=*/1, /*deadline=*/12);
  CompletionModel& model = system.model(0);
  // Starts at now=10: completion = {11: 0.6, 12: 0.4}; success iff < 12.
  EXPECT_EQ(model.completion(0), pmf_of({{11, 0.6}, {12, 0.4}}));
  EXPECT_NEAR(model.chance(0), 0.6, 1e-12);
}

TEST(CompletionModel, ChainMatchesManualDeadlineConvolution) {
  const PetMatrix pet = two_type_pet();
  SystemState system(pet, {0}, 6, /*now=*/0);
  system.enqueue(0, 1, /*deadline=*/3);   // head
  system.enqueue(0, 1, /*deadline=*/4);   // second
  CompletionModel& model = system.model(0);

  const Pmf c0 = deadline_convolve(Pmf::delta(0), pet.pmf(1, 0), 3);
  const Pmf c1 = deadline_convolve(c0, pet.pmf(1, 0), 4);
  EXPECT_EQ(model.completion(0), c0);
  EXPECT_EQ(model.completion(1), c1);
  EXPECT_NEAR(model.chance(1), c1.mass_before(4), 1e-12);
}

TEST(CompletionModel, RunningTaskIsUnconditionedShift) {
  const PetMatrix pet = two_type_pet();
  SystemState system(pet, {0}, 6, /*now=*/0);
  system.enqueue(0, 1, /*deadline=*/100);
  system.set_running(0, /*run_start=*/5);
  system.set_now(7);
  CompletionModel& model = system.model(0);
  // Paper model: completion = run_start + exec, regardless of `now`.
  EXPECT_EQ(model.completion(0), pmf_of({{6, 0.6}, {7, 0.4}}));
}

TEST(CompletionModel, ConditionedRunningTaskDiscardsElapsedMass) {
  const PetMatrix pet = two_type_pet();
  CompletionModel::Options options;
  options.condition_running = true;
  SystemState system(pet, {0}, 6, /*now=*/0, options);
  system.enqueue(0, 1, /*deadline=*/100);
  system.set_running(0, /*run_start=*/5);
  system.set_now(6);
  CompletionModel& model = system.model(0);
  // Unconditioned would be {6: 0.6, 7: 0.4}; at now=6 the mass at 6 is
  // impossible, so the conditioned PMF is a point mass at 7.
  EXPECT_EQ(model.completion(0), pmf_of({{7, 1.0}}));
}

TEST(CompletionModel, ConditionedRunningFallsBackWhenAllMassElapsed) {
  const PetMatrix pet = two_type_pet();
  CompletionModel::Options options;
  options.condition_running = true;
  SystemState system(pet, {0}, 6, /*now=*/0, options);
  system.enqueue(0, 0, /*deadline=*/100);  // deterministic 2 ticks
  system.set_running(0, /*run_start=*/0);
  system.set_now(50);  // completion "should" have happened at 2
  CompletionModel& model = system.model(0);
  EXPECT_EQ(model.completion(0), Pmf::delta(2));
}

TEST(CompletionModel, PredecessorOfFirstPendingBehindRunning) {
  const PetMatrix pet = two_type_pet();
  SystemState system(pet, {0}, 6, /*now=*/0);
  system.enqueue(0, 0, /*deadline=*/100);
  system.enqueue(0, 1, /*deadline=*/100);
  system.set_running(0, /*run_start=*/0);
  CompletionModel& model = system.model(0);
  EXPECT_EQ(model.predecessor(1), model.completion(0));
}

TEST(CompletionModel, TailAndTailMean) {
  const PetMatrix pet = two_type_pet();
  SystemState system(pet, {0}, 6, /*now=*/25);
  CompletionModel& model = system.model(0);
  // Empty queue: the tail is "machine free now".
  EXPECT_EQ(model.tail(), Pmf::delta(25));
  EXPECT_DOUBLE_EQ(model.tail_mean(), 25.0);

  system.enqueue(0, 1, /*deadline=*/1000);
  EXPECT_EQ(model.tail(), pmf_of({{26, 0.6}, {27, 0.4}}));
  EXPECT_NEAR(model.tail_mean(), 26.4, 1e-12);
}

TEST(CompletionModel, InstantaneousRobustnessIsChanceSum) {
  const PetMatrix pet = two_type_pet();
  SystemState system(pet, {0}, 6, /*now=*/0);
  system.enqueue(0, 1, 2);
  system.enqueue(0, 1, 4);
  system.enqueue(0, 0, 5);
  CompletionModel& model = system.model(0);
  const double expected =
      model.chance(0) + model.chance(1) + model.chance(2);
  EXPECT_NEAR(model.instantaneous_robustness(), expected, 1e-12);
}

TEST(CompletionModel, InvalidationAfterDropRecomputes) {
  const PetMatrix pet = two_type_pet();
  SystemState system(pet, {0}, 6, /*now=*/0);
  system.enqueue(0, 0, /*deadline=*/3);  // head, finishes at 2
  system.enqueue(0, 1, /*deadline=*/4);  // second
  CompletionModel& model = system.model(0);
  const double before = model.chance(1);
  // Drop the head: the second task now starts at 0 instead of 2.
  system.drop_queued_task(0, 0);
  const double after = model.chance(0);
  EXPECT_GT(after, before);
  EXPECT_EQ(model.completion(0), pmf_of({{1, 0.6}, {2, 0.4}}));
}

TEST(CompletionModel, RevisionBumpsOnMutation) {
  const PetMatrix pet = two_type_pet();
  SystemState system(pet, {0}, 6, /*now=*/0);
  CompletionModel& model = system.model(0);
  const auto v0 = model.revision();
  system.enqueue(0, 0, 100);
  const auto v1 = model.revision();
  EXPECT_NE(v0, v1);
  system.enqueue(0, 1, 100);
  system.drop_queued_task(0, 1);
  EXPECT_NE(model.revision(), v1);
}

TEST(CompletionModel, ChanceIfAppendedMatchesMaterialisedAppend) {
  const PetMatrix pet = two_type_pet();
  for (const Tick deadline : {1, 3, 5, 8, 20}) {
    SystemState system(pet, {0}, 6, /*now=*/0);
    system.enqueue(0, 1, 4);
    system.enqueue(0, 0, 6);
    CompletionModel& model = system.model(0);
    const double predicted = model.chance_if_appended(1, deadline);
    system.enqueue(0, 1, deadline);
    EXPECT_NEAR(model.chance(2), predicted, 1e-12) << "deadline " << deadline;
  }
}

TEST(CompletionModel, ChanceIfAppendedOnEmptyQueue) {
  const PetMatrix pet = two_type_pet();
  SystemState system(pet, {0}, 6, /*now=*/10);
  CompletionModel& model = system.model(0);
  // Task starts at 10; exec {1:0.6, 2:0.4}; success iff finish < deadline.
  EXPECT_NEAR(model.chance_if_appended(1, 12), 0.6, 1e-12);
  EXPECT_NEAR(model.chance_if_appended(1, 13), 1.0, 1e-12);
  EXPECT_NEAR(model.chance_if_appended(1, 10), 0.0, 1e-12);
}

TEST(WindowChanceSum, MatchesModelChancesFromPredecessor) {
  const PetMatrix pet = two_type_pet();
  SystemState system(pet, {0}, 6, /*now=*/0);
  system.enqueue(0, 1, 3);
  system.enqueue(0, 0, 5);
  system.enqueue(0, 1, 7);
  CompletionModel& model = system.model(0);
  const Machine& machine = system.machine(0);
  const auto& tasks = *system.view().tasks;

  const double expected = model.chance(0) + model.chance(1) + model.chance(2);
  const double actual =
      window_chance_sum(Pmf::delta(0), machine, tasks, pet, 0, 2);
  EXPECT_NEAR(actual, expected, 1e-12);

  // Sub-window starting mid-queue from the real predecessor.
  const double tail_expected = model.chance(1) + model.chance(2);
  const double tail_actual =
      window_chance_sum(model.completion(0), machine, tasks, pet, 1, 2);
  EXPECT_NEAR(tail_actual, tail_expected, 1e-12);
}

TEST(CompletionModel, DroppedWindowSumTracksDepthAndMutations) {
  // The memoised Eq. 8 drop term answers exactly like the direct window
  // walk across depth changes (which clear the memo), a mid-queue drop
  // (which forgets only the windows that can see it) and an append.
  const PetMatrix pet = two_type_pet();
  SystemState system(pet, {0}, 8, /*now=*/0);
  for (int i = 0; i < 6; ++i) {
    system.enqueue(0, static_cast<TaskTypeId>(i % 2), Tick{3 + 2 * i});
  }
  CompletionModel& model = system.model(0);
  const Machine& machine = system.machine(0);
  const auto& tasks = *system.view().tasks;
  const auto expect_direct = [&](std::size_t depth) {
    for (std::size_t pos = 0; pos < machine.queue.size(); ++pos) {
      EXPECT_EQ(model.dropped_window_sum(pos, depth),
                window_chance_sum(model.predecessor(pos), machine, tasks, pet,
                                  pos + 1, pos + depth))
          << "pos " << pos << ", depth " << depth;
    }
  };
  expect_direct(2);
  expect_direct(1);
  expect_direct(2);
  system.drop_queued_task(0, 4);
  expect_direct(2);
  system.enqueue(0, 1, 30);
  expect_direct(2);
}

TEST(WindowChanceSum, ClampsLastToQueueTail) {
  const PetMatrix pet = two_type_pet();
  SystemState system(pet, {0}, 6, /*now=*/0);
  system.enqueue(0, 1, 5);
  const Machine& machine = system.machine(0);
  const auto& tasks = *system.view().tasks;
  const double all =
      window_chance_sum(Pmf::delta(0), machine, tasks, pet, 0, 99);
  EXPECT_NEAR(all, system.model(0).chance(0), 1e-12);
  EXPECT_DOUBLE_EQ(
      window_chance_sum(Pmf::delta(0), machine, tasks, pet, 5, 9), 0.0);
}

}  // namespace
}  // namespace taskdrop
