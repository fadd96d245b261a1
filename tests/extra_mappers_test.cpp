// Tests for the mapping heuristics this repo adds beyond the paper's six:
// MaxMin, MET, RR, and the deferring PAM variant (PAMD).
#include <gtest/gtest.h>

#include "online/system_state.hpp"
#include "sched/registry.hpp"
#include "test_util.hpp"

namespace taskdrop {
namespace {

using test::pet_of;

/// type 0: m0 10, m1 20; type 1: m0 20, m1 5 (inconsistent).
PetMatrix inconsistent_pet() {
  return pet_of({{{{10, 1.0}}, {{20, 1.0}}}, {{{20, 1.0}}, {{5, 1.0}}}});
}

MachineId machine_of(const SystemState& system, TaskId task) {
  for (const auto& [assigned_task, machine] : system.assigned()) {
    if (assigned_task == task) return machine;
  }
  return -1;
}

TEST(MaxMin, AssignsLongestOfTheBestPairsFirst) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0}, 1);  // one slot forces the choice
  const TaskId longer = system.add_unmapped(0, 0, 1000);   // 10 on m0
  system.add_unmapped(1, 0, 1000);                         // 20 on m0
  make_mapper("MaxMin")->map_tasks(system.view(), system);
  ASSERT_EQ(system.assigned().size(), 1u);
  // Phase 1 pairs both tasks with m0; phase 2 takes the *largest* expected
  // completion: the type-1 task (20) wins over type-0 (10).
  EXPECT_NE(system.assigned().front().first, longer);
}

TEST(MaxMin, StillPairsTasksWithTheirFastestMachine) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0, 1}, 6);
  const TaskId t0 = system.add_unmapped(0, 0, 1000);
  const TaskId t1 = system.add_unmapped(1, 0, 1000);
  make_mapper("MaxMin")->map_tasks(system.view(), system);
  EXPECT_EQ(machine_of(system, t0), 0);
  EXPECT_EQ(machine_of(system, t1), 1);
}

TEST(Met, IgnoresQueueBacklog) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0, 1}, 6);
  // Pile backlog onto m0; MET still sends type-0 there because only the
  // raw execution time matters (10 < 20).
  for (int i = 0; i < 4; ++i) system.enqueue(0, 0, 100000);
  const TaskId task = system.add_unmapped(0, 0, 100000);
  make_mapper("MET")->map_tasks(system.view(), system);
  EXPECT_EQ(machine_of(system, task), 0);
}

TEST(Met, TakesBatchInArrivalOrder) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0}, 2);
  const TaskId first = system.add_unmapped(1, 0, 1000);
  const TaskId second = system.add_unmapped(0, 1, 1000);
  make_mapper("MET")->map_tasks(system.view(), system);
  ASSERT_EQ(system.assigned().size(), 2u);
  EXPECT_EQ(system.assigned()[0].first, first);
  EXPECT_EQ(system.assigned()[1].first, second);
}

TEST(RoundRobin, DealsTasksCyclically) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0, 1}, 6);
  std::vector<TaskId> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(system.add_unmapped(0, i, 100000));
  }
  make_mapper("RR")->map_tasks(system.view(), system);
  ASSERT_EQ(system.assigned().size(), 4u);
  EXPECT_EQ(machine_of(system, tasks[0]), 0);
  EXPECT_EQ(machine_of(system, tasks[1]), 1);
  EXPECT_EQ(machine_of(system, tasks[2]), 0);
  EXPECT_EQ(machine_of(system, tasks[3]), 1);
}

TEST(RoundRobin, SkipsFullQueues) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0, 1}, 1);
  system.enqueue(0, 0, 100000);  // m0 full
  const TaskId task = system.add_unmapped(0, 0, 100000);
  make_mapper("RR")->map_tasks(system.view(), system);
  EXPECT_EQ(machine_of(system, task), 1);
}

TEST(Pamd, DefersHopelessTasksInsteadOfMapping) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0, 1}, 6);
  system.set_now(100);
  // Deadline already passed: chance 0 < the 0.3 defer threshold.
  system.add_unmapped(0, 0, 50);
  make_mapper("PAMD")->map_tasks(system.view(), system);
  EXPECT_TRUE(system.assigned().empty());
  EXPECT_EQ(system.view().batch_queue->size(), 1u);
}

TEST(Pamd, MapsViableTasksLikePam) {
  const PetMatrix pet = inconsistent_pet();
  SystemState system(pet, {0, 1}, 6);
  const TaskId viable = system.add_unmapped(0, 0, 15);  // certain on m0
  make_mapper("PAMD")->map_tasks(system.view(), system);
  EXPECT_EQ(machine_of(system, viable), 0);
  EXPECT_EQ(make_mapper("PAMD")->name(), "PAMD");
}

TEST(ExtraMappers, AreRegistered) {
  for (const std::string name : {"MaxMin", "MET", "RR", "PAMD"}) {
    EXPECT_NE(make_mapper(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace taskdrop
