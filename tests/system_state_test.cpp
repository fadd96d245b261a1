#include "online/system_state.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/robustness.hpp"
#include "test_util.hpp"

namespace taskdrop {
namespace {

using test::pet_of;

PetMatrix small_pet() { return pet_of({{{{2, 1.0}}}, {{{1, 0.6}, {2, 0.4}}}}); }

TEST(SystemState, EnqueueBuildsConsistentState) {
  const PetMatrix pet = small_pet();
  SystemState system(pet, {0, 0}, 4, /*now=*/5);
  const TaskId a = system.enqueue(0, 0, 100);
  const TaskId b = system.enqueue(1, 1, 200, /*arrival=*/3);
  EXPECT_EQ(system.machine(0).queue.size(), 1u);
  EXPECT_EQ(system.machine(1).queue.size(), 1u);
  EXPECT_EQ(system.task(a).state, TaskState::Queued);
  EXPECT_EQ(system.task(a).machine, 0);
  EXPECT_EQ(system.task(b).arrival, 3);
  EXPECT_EQ(system.view().now, 5);
}

TEST(SystemState, AssignMovesFromBatchToQueue) {
  const PetMatrix pet = small_pet();
  SystemState system(pet, {0}, 4);
  const TaskId task = system.add_unmapped(0, 0, 100);
  EXPECT_EQ(system.view().batch_queue->size(), 1u);
  system.assign_task(task, 0);
  EXPECT_TRUE(system.view().batch_queue->empty());
  EXPECT_EQ(system.machine(0).queue.front(), task);
  ASSERT_EQ(system.assigned().size(), 1u);
  EXPECT_EQ(system.assigned().front().first, task);
}

TEST(SystemState, DropRecordsAndRemoves) {
  const PetMatrix pet = small_pet();
  SystemState system(pet, {0}, 4);
  system.enqueue(0, 0, 100);
  const TaskId victim = system.enqueue(0, 0, 200);
  system.drop_queued_task(0, 1);
  EXPECT_EQ(system.machine(0).queue.size(), 1u);
  EXPECT_EQ(system.task(victim).state, TaskState::DroppedProactive);
  ASSERT_EQ(system.dropped().size(), 1u);
  EXPECT_EQ(system.dropped().front(), victim);
}

TEST(SystemState, SetRunningPinsTheHead) {
  const PetMatrix pet = small_pet();
  SystemState system(pet, {0}, 4);
  const TaskId head = system.enqueue(0, 0, 100);
  system.set_running(0, /*run_start=*/7);
  EXPECT_TRUE(system.machine(0).running);
  EXPECT_EQ(system.machine(0).run_start, 7);
  EXPECT_EQ(system.task(head).state, TaskState::Running);
  EXPECT_EQ(system.machine(0).first_pending_pos(), 1u);
}

TEST(SystemState, SetNowPropagatesToModelsAndView) {
  const PetMatrix pet = small_pet();
  SystemState system(pet, {0}, 4, /*now=*/0);
  system.set_now(42);
  EXPECT_EQ(system.view().now, 42);
  // An empty machine's tail is "free now".
  EXPECT_EQ(system.model(0).tail(), Pmf::delta(42));
}

TEST(SystemState, OpsRejectBrokenPreconditionsAndChangeNothing) {
  // Machine 0 runs a head with one pending task behind it (full at
  // capacity 2), machine 1 is down, machine 2 is free.
  const PetMatrix pet = small_pet();
  SystemState system(pet, {0, 0, 0}, /*queue_capacity=*/2);
  system.enqueue(0, 0, 100);
  const TaskId pending = system.enqueue(0, 0, 200);
  system.set_running(0, /*run_start=*/0);
  system.fail_machine(0, 1);
  const TaskId unmapped = system.add_unmapped(0, 0, 100);

  EXPECT_THROW(system.assign_task(unmapped, 0), std::invalid_argument);
  EXPECT_THROW(system.assign_task(unmapped, 1), std::invalid_argument);
  EXPECT_THROW(system.assign_task(unmapped, 3), std::invalid_argument);
  EXPECT_THROW(system.assign_task(TaskId{99}, 2), std::invalid_argument);
  EXPECT_THROW(system.assign_task(pending, 2), std::invalid_argument);
  EXPECT_THROW(system.drop_queued_task(0, 0), std::invalid_argument);
  EXPECT_THROW(system.drop_queued_task(0, 2), std::invalid_argument);
  EXPECT_THROW(system.drop_queued_task(-1, 1), std::invalid_argument);
  EXPECT_THROW(system.downgrade_task(0, 0), std::invalid_argument);
  EXPECT_THROW(system.downgrade_task(2, 0), std::invalid_argument);
  EXPECT_THROW(system.enqueue(0, 0, 100), std::invalid_argument);
  EXPECT_THROW(system.add_unmapped(7, 0, 100), std::invalid_argument);

  EXPECT_TRUE(system.decisions().empty());
  EXPECT_EQ(system.task_count(), 3u);
  EXPECT_EQ(system.machine(0).queue.size(), 2u);
  EXPECT_TRUE(system.machine(2).queue.empty());
  EXPECT_EQ(system.task(pending).state, TaskState::Queued);
  EXPECT_EQ(system.task(unmapped).state, TaskState::Unmapped);
  EXPECT_EQ(system.batch().size(), 1u);

  system.assign_task(unmapped, 2);
  EXPECT_EQ(system.assigned(),
            (std::vector<std::pair<TaskId, MachineId>>{{unmapped, 2}}));
}

TEST(SystemState, TaskTableGrowsUnderCachedChains) {
  // The models read the task table through the vector object, not its
  // data, so it may reallocate while their chains are cached.
  const PetMatrix pet = small_pet();
  SystemState system(pet, {0}, 4);
  system.enqueue(0, 1, 2);
  EXPECT_NEAR(system.model(0).chance(0), 0.6, 1e-12);
  for (int i = 0; i < 5000; ++i) system.add_unmapped(0, 0, 100);
  const TaskId tail = system.enqueue(0, 1, 2);
  EXPECT_EQ(system.task_count(), 5002u);
  EXPECT_EQ(system.task(tail).machine, 0);
  EXPECT_NEAR(system.model(0).chance(0), 0.6, 1e-12);
}

TEST(SystemRobustness, SumsOverAllMachines) {
  const PetMatrix pet = small_pet();
  SystemState system(pet, {0, 0}, 4);
  system.enqueue(0, 0, 100);   // chance 1
  system.enqueue(1, 1, 2);     // chance: finish {1,2} < 2 -> 0.6
  const double expected =
      system.model(0).instantaneous_robustness() +
      system.model(1).instantaneous_robustness();
  EXPECT_NEAR(system_instantaneous_robustness(system.view()), expected,
              1e-12);
  EXPECT_NEAR(expected, 1.6, 1e-12);
}

}  // namespace
}  // namespace taskdrop
