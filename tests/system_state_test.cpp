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

/// The reactive drops among `decisions` from index `from` on, as
/// (task, machine) pairs in emission order.
std::vector<std::pair<TaskId, MachineId>> reactive_drops(
    const SystemState& system, std::size_t from = 0) {
  std::vector<std::pair<TaskId, MachineId>> out;
  const std::vector<Decision>& decisions = system.decisions();
  for (std::size_t i = from; i < decisions.size(); ++i) {
    if (decisions[i].kind == DecisionKind::DropReactive) {
      EXPECT_EQ(decisions[i].time, system.now());
      out.emplace_back(decisions[i].task, decisions[i].machine);
    }
  }
  return out;
}

/// Appends a task due 10 ticks from now to machine 0, behind whatever it
/// holds, and expects expire_pending to keep it one tick before its
/// deadline and drop it, alone, at the deadline.
void expect_appended_task_expires_on_time(SystemState& system,
                                          const char* after) {
  SCOPED_TRACE(after);
  const Tick due = system.now() + 10;
  const TaskId late = system.enqueue(0, 0, due);
  system.set_now(due - 1);
  const std::size_t before = system.decisions().size();
  EXPECT_FALSE(system.expire_pending());
  system.set_now(due);
  EXPECT_TRUE(system.expire_pending());
  EXPECT_EQ(reactive_drops(system, before),
            (std::vector<std::pair<TaskId, MachineId>>{{late, 0}}));
  EXPECT_EQ(system.task(late).state, TaskState::DroppedReactive);
  EXPECT_EQ(system.task(late).drop_time, due);
}

TEST(SystemState, ExpirePendingDropsAnEarlierDeadlineAppendedBehindAFarOne) {
  const PetMatrix pet = small_pet();
  SystemState system(pet, {0}, 4);
  system.enqueue(0, 0, 1000);
  system.set_now(1);
  // A scan with nothing due sets the machine's bound to 1000.
  EXPECT_FALSE(system.expire_pending());
  expect_appended_task_expires_on_time(system, "an append");
  EXPECT_EQ(system.machine(0).queue.size(), 1u);
}

TEST(SystemState, ExpirePendingBoundSurvivesEveryQueueMutation) {
  // Machine 0 holds an idle head and two pending tasks, all due far off,
  // and a scan has tightened its bound to the head's deadline. Each case
  // applies one mutation, then appends a task due before every deadline
  // already queued: it must still expire exactly at its deadline.
  struct Case {
    const char* name;
    void (*mutate)(SystemState&, TaskId head);
  };
  const Case cases[] = {
      {"a head start",
       [](SystemState& s, TaskId head) { s.start_head(2, 0, head, 5); }},
      {"a finish",
       [](SystemState& s, TaskId head) {
         s.start_head(2, 0, head, 5);
         EXPECT_FALSE(s.expire_pending());
         EXPECT_FALSE(s.finish_running(7, 0));
       }},
      {"a failure then a recovery",
       [](SystemState& s, TaskId head) {
         s.start_head(2, 0, head, 5);
         s.fail_machine(3, 0);
         EXPECT_FALSE(s.expire_pending());
         s.recover_machine(4, 0);
       }},
      {"a late-head drop",
       [](SystemState& s, TaskId) {
         s.set_now(2);
         s.drop_late_head(0);
       }},
      {"a proactive drop",
       [](SystemState& s, TaskId) { s.drop_queued_task(0, 1); }},
      {"a downgrade", [](SystemState& s, TaskId) { s.downgrade_task(0, 2); }},
      {"a restore",
       [](SystemState& s, TaskId) {
         // The restored table brings a pending task due at 5, below the
         // bound of 1000 the state held before.
         s.set_now(3);
         std::vector<Task> tasks = s.tasks();
         const TaskId last = s.machine(0).queue.back();
         tasks[static_cast<std::size_t>(last)].deadline = 5;
         const std::vector<Machine> machines = s.machines();
         s.restore(std::move(tasks), machines, {}, s.now());
         s.set_now(5);
         EXPECT_TRUE(s.expire_pending());
         EXPECT_EQ(s.task(last).state, TaskState::DroppedReactive);
       }},
  };
  const PetMatrix pet = small_pet();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SystemState system(pet, {0}, 6);
    const TaskId head = system.enqueue(0, 0, 1000);
    system.enqueue(0, 0, 2000);
    system.enqueue(0, 1, 3000);
    system.set_now(1);
    EXPECT_FALSE(system.expire_pending());
    c.mutate(system, head);
    expect_appended_task_expires_on_time(system, c.name);
  }
}

TEST(SystemState, ExpirePendingKeepsMachineThenPositionOrder) {
  // Several machines and positions expire at one event: the drops come
  // machine ascending, then queue position, and a running head past its
  // deadline is not a pending task.
  const PetMatrix pet = small_pet();
  SystemState system(pet, {0, 0, 0, 0}, 6);
  system.enqueue(0, 0, 50);
  const TaskId b = system.enqueue(0, 0, 10);
  system.enqueue(0, 0, 60);
  const TaskId d = system.enqueue(0, 1, 9);
  const TaskId e = system.enqueue(1, 0, 10);
  const TaskId f = system.enqueue(2, 0, 3);
  const TaskId g = system.enqueue(2, 1, 10);
  system.enqueue(2, 0, 100);
  const TaskId i = system.enqueue(2, 0, 5);
  system.enqueue(3, 0, 11);
  system.set_running(2, 0);
  system.set_now(1);
  EXPECT_FALSE(system.expire_pending());

  system.set_now(10);
  EXPECT_TRUE(system.expire_pending());
  EXPECT_EQ(reactive_drops(system),
            (std::vector<std::pair<TaskId, MachineId>>{
                {b, 0}, {d, 0}, {e, 1}, {g, 2}, {i, 2}}));
  EXPECT_EQ(system.machine(0).queue.size(), 2u);
  EXPECT_TRUE(system.machine(1).queue.empty());
  EXPECT_EQ(system.machine(2).queue.size(), 2u);
  EXPECT_EQ(system.machine(2).queue.front(), f);
  EXPECT_EQ(system.task(f).state, TaskState::Running);
  EXPECT_EQ(system.machine(3).queue.size(), 1u);
  // Nothing is left due at this time; machine 3's task is, one tick on.
  EXPECT_FALSE(system.expire_pending());
  system.set_now(11);
  EXPECT_TRUE(system.expire_pending());
  EXPECT_TRUE(system.machine(3).queue.empty());
}

TEST(SystemState, IdleBaseFollowsTheClockAcrossUnreadMoves) {
  // An idle machine's base delta(now) is rebuilt on the first read after
  // the clock moved, however many moves went unread in between.
  const PetMatrix pet = small_pet();
  SystemState system(pet, {0}, 4);
  system.set_now(5);
  system.set_now(9);
  EXPECT_EQ(system.model(0).tail(), Pmf::delta(9));
  EXPECT_EQ(system.model(0).tail(), Pmf::delta(9));
  system.set_now(20);
  // An empty queue's appended view is rooted at the base: type 0 takes
  // exactly 2 ticks from 20.
  const PmfCdf& appended = system.model(0).appended_view(0);
  EXPECT_DOUBLE_EQ(appended.mass_before(22), 0.0);
  EXPECT_DOUBLE_EQ(appended.mass_before(23), 1.0);
  // The idle head's slot 0 and predecessor(0) use the base at each read.
  system.enqueue(0, 0, 23);
  EXPECT_EQ(system.model(0).predecessor(0), Pmf::delta(20));
  EXPECT_EQ(system.model(0).completion(0), Pmf::delta(22));
  EXPECT_DOUBLE_EQ(system.model(0).chance(0), 1.0);
  system.set_now(21);
  system.set_now(22);
  EXPECT_DOUBLE_EQ(system.model(0).chance(0), 0.0);
  EXPECT_EQ(system.model(0).predecessor(0), Pmf::delta(22));
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
