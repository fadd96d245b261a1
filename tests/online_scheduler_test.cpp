#include "online/online_scheduler.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/null_dropper.hpp"
#include "core/proactive_heuristic_dropper.hpp"
#include "sched/registry.hpp"
#include "test_util.hpp"

namespace taskdrop {
namespace {

using test::pet_of;

/// Deterministic single-type PET: every execution takes exactly 5 ticks.
PetMatrix deterministic_pet() { return pet_of({{{{5, 1.0}}}}); }

std::vector<DecisionKind> kinds(const std::vector<Decision>& decisions) {
  std::vector<DecisionKind> out;
  out.reserve(decisions.size());
  for (const Decision& decision : decisions) out.push_back(decision.kind);
  return out;
}

/// Live-mode harness: a FCFS fleet of one machine with a 2-slot queue.
struct LiveFixture {
  PetMatrix pet = deterministic_pet();
  std::unique_ptr<Mapper> mapper = make_mapper("FCFS");
  NullDropper dropper;
  OnlineScheduler scheduler;

  explicit LiveFixture(int capacity = 2, OnlineConfig config = {})
      : scheduler(pet, {0}, *mapper, dropper,
                  [&] {
                    config.queue_capacity = capacity;
                    return config;
                  }()) {}
};

TEST(OnlineScheduler, ArrivalYieldsAssignAndStartOffer) {
  LiveFixture fx;
  TaskId id = -1;
  const auto& decisions = fx.scheduler.task_arrived(0, 0, 1000, &id);
  EXPECT_EQ(id, 0);
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0], (Decision{DecisionKind::Assign, 0, 0, 0}));
  EXPECT_EQ(decisions[1], (Decision{DecisionKind::Start, 0, 0, 0}));
  // The start is advisory: the task is still Queued until confirmed.
  EXPECT_EQ(fx.scheduler.task(0).state, TaskState::Queued);
  fx.scheduler.task_started(0, 0, 0);
  EXPECT_EQ(fx.scheduler.task(0).state, TaskState::Running);
}

TEST(OnlineScheduler, StartOfferIsNotRepeatedWhileUnconfirmed) {
  LiveFixture fx;
  fx.scheduler.task_arrived(0, 0, 1000);
  // Further mapping events must not re-offer the same head.
  EXPECT_TRUE(fx.scheduler.advance(1).empty());
  EXPECT_TRUE(fx.scheduler.advance(2).empty());
  // Confirming late is fine (live mode): the task runs from t=2.
  fx.scheduler.task_started(2, 0, 0);
  EXPECT_EQ(fx.scheduler.task(0).start_time, 2);
  EXPECT_EQ(fx.scheduler.machine(0).run_start, 2);
}

TEST(OnlineScheduler, LapsedOfferIsReissuedForTheNewHead) {
  LiveFixture fx;
  fx.scheduler.task_arrived(0, 0, 10);
  // The offered head expires before the environment confirmed the start;
  // the next callback drops it and offers the new head instead.
  const auto& arrival2 = fx.scheduler.task_arrived(4, 0, 100);
  ASSERT_EQ(arrival2.size(), 1u);
  EXPECT_EQ(arrival2[0].kind, DecisionKind::Assign);
  const auto& decisions = fx.scheduler.advance(10);
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0], (Decision{DecisionKind::DropReactive, 10, 0, 0}));
  EXPECT_EQ(decisions[1], (Decision{DecisionKind::Start, 10, 1, 0}));
}

TEST(OnlineScheduler, FinishEmitsTerminalRecordThenRefills) {
  LiveFixture fx;
  fx.scheduler.task_arrived(0, 0, 1000);
  fx.scheduler.task_started(0, 0, 0);
  fx.scheduler.task_arrived(1, 0, 1000);  // queues behind the running task
  const auto& decisions = fx.scheduler.task_finished(5, 0);
  EXPECT_EQ(kinds(decisions),
            (std::vector<DecisionKind>{DecisionKind::FinishOnTime,
                                       DecisionKind::Start}));
  EXPECT_EQ(fx.scheduler.task(0).state, TaskState::CompletedOnTime);
  EXPECT_EQ(fx.scheduler.task(0).finish_time, 5);
  EXPECT_EQ(fx.scheduler.machine(0).busy_ticks, 5);
}

TEST(OnlineScheduler, FinishAtDeadlineIsLate) {
  LiveFixture fx;
  fx.scheduler.task_arrived(0, 0, 5);
  fx.scheduler.task_started(0, 0, 0);
  const auto& decisions = fx.scheduler.task_finished(5, 0);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, DecisionKind::FinishLate);
  EXPECT_EQ(fx.scheduler.task(0).state, TaskState::CompletedLate);
}

TEST(OnlineScheduler, UnmappedTaskExpiresViaAdvance) {
  LiveFixture fx(1);  // capacity 1: the second task cannot be mapped
  fx.scheduler.task_arrived(0, 0, 1000);
  fx.scheduler.task_started(0, 0, 0);
  fx.scheduler.task_arrived(1, 0, 4);
  EXPECT_EQ(fx.scheduler.unmapped_count(), 1u);
  EXPECT_EQ(fx.scheduler.earliest_unmapped_deadline(), 4);
  const auto& decisions = fx.scheduler.advance(4);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0], (Decision{DecisionKind::ExpireUnmapped, 4, 1, -1}));
  EXPECT_EQ(fx.scheduler.unmapped_count(), 0u);
  EXPECT_EQ(fx.scheduler.earliest_unmapped_deadline(), kNeverTick);
}

TEST(OnlineScheduler, MachineDownKillsRunAndUpResumesQueue) {
  LiveFixture fx(2);
  fx.scheduler.task_arrived(0, 0, 1000);
  fx.scheduler.task_started(0, 0, 0);
  fx.scheduler.task_arrived(1, 0, 1000);

  const auto& down = fx.scheduler.machine_down(2, 0);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0], (Decision{DecisionKind::LostToFailure, 2, 0, 0}));
  EXPECT_EQ(fx.scheduler.task(0).state, TaskState::LostToFailure);
  // Partially executed time is still billed.
  EXPECT_EQ(fx.scheduler.machine(0).busy_ticks, 2);
  // The queued task waits (mapped tasks cannot be remapped) and no start is
  // offered while the machine is down.
  EXPECT_EQ(fx.scheduler.task(1).state, TaskState::Queued);

  const auto& up = fx.scheduler.machine_up(7, 0);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0], (Decision{DecisionKind::Start, 7, 1, 0}));
  fx.scheduler.task_started(7, 0, 1);
  EXPECT_EQ(fx.scheduler.task(1).start_time, 7);
}

TEST(OnlineScheduler, ProactiveDropperStreamsDropDecisions) {
  // Types: 0 = 3 ticks, 1 = 10 ticks, 2 = 1 tick (the engine_test rescue
  // scenario, driven through the callback API).
  const PetMatrix pet = pet_of({{{{3, 1.0}}}, {{{10, 1.0}}}, {{{1, 1.0}}}});
  auto mapper = make_mapper("FCFS");
  ProactiveHeuristicDropper dropper;
  OnlineScheduler scheduler(pet, {0}, *mapper, dropper, OnlineConfig{});

  std::vector<Decision> all;
  const auto collect = [&all](const std::vector<Decision>& decisions) {
    all.insert(all.end(), decisions.begin(), decisions.end());
  };
  collect(scheduler.task_arrived(0, 0, 100));
  scheduler.task_started(0, 0, 0, 3);
  collect(scheduler.task_arrived(1, 1, 9));  // doomed: would finish at 13
  collect(scheduler.task_arrived(1, 2, 6));
  collect(scheduler.task_arrived(1, 2, 7));
  bool doomed_dropped = false;
  for (const Decision& decision : all) {
    if (decision.kind == DecisionKind::DropProactive && decision.task == 1) {
      doomed_dropped = true;
    }
  }
  EXPECT_TRUE(doomed_dropped);
  EXPECT_EQ(scheduler.task(1).state, TaskState::DroppedProactive);
}

TEST(OnlineScheduler, ClockMustBeMonotone) {
  LiveFixture fx;
  fx.scheduler.advance(10);
  EXPECT_THROW(fx.scheduler.advance(9), std::invalid_argument);
  const std::size_t tasks_before = fx.scheduler.task_count();
  EXPECT_THROW(fx.scheduler.task_arrived(5, 0, 100),
               std::invalid_argument);
  // The rejected arrival registers nothing: later task ids do not shift.
  EXPECT_EQ(fx.scheduler.task_count(), tasks_before);
  // Equal timestamps are fine (several events on one tick).
  EXPECT_NO_THROW(fx.scheduler.advance(10));
}

TEST(OnlineScheduler, RejectsBadMachineCallbacks) {
  LiveFixture fx;
  // Finishing an idle machine is rejected and moves nothing, the clock
  // included.
  EXPECT_THROW(fx.scheduler.task_finished(3, 0), std::invalid_argument);
  EXPECT_EQ(fx.scheduler.now(), 0);

  // Machine 0's head has been offered a start, but not confirmed.
  const auto& decisions = fx.scheduler.task_arrived(5, 0, 100);
  const std::vector<Decision> offered = decisions;
  ASSERT_EQ(kinds(offered),
            (std::vector<DecisionKind>{DecisionKind::Assign,
                                       DecisionKind::Start}));
  const std::size_t tasks_before = fx.scheduler.task_count();
  auto expect_unchanged = [&](const char* what) {
    EXPECT_EQ(fx.scheduler.now(), 5) << what;
    EXPECT_EQ(decisions, offered) << what;
    EXPECT_EQ(fx.scheduler.task_count(), tasks_before) << what;
    EXPECT_EQ(fx.scheduler.task(0).state, TaskState::Queued) << what;
    EXPECT_FALSE(fx.scheduler.machine(0).running) << what;
    EXPECT_TRUE(fx.scheduler.machine(0).up) << what;
  };

  EXPECT_THROW(fx.scheduler.task_finished(7, 0), std::invalid_argument);
  expect_unchanged("finish of a pending head");
  for (const MachineId bad : {MachineId{1}, MachineId{-1}}) {
    EXPECT_THROW(fx.scheduler.task_finished(7, bad), std::invalid_argument);
    expect_unchanged("task_finished outside the fleet");
    EXPECT_THROW(fx.scheduler.task_started(7, bad, 0), std::invalid_argument);
    expect_unchanged("task_started outside the fleet");
    EXPECT_THROW(fx.scheduler.machine_down(7, bad), std::invalid_argument);
    expect_unchanged("machine_down outside the fleet");
    EXPECT_THROW(fx.scheduler.machine_up(7, bad), std::invalid_argument);
    expect_unchanged("machine_up outside the fleet");
  }

  // The scheduler carries on as if the bad calls never happened.
  fx.scheduler.task_started(6, 0, 0);
  const auto& finished = fx.scheduler.task_finished(11, 0);
  ASSERT_FALSE(finished.empty());
  EXPECT_EQ(finished[0], (Decision{DecisionKind::FinishOnTime, 11, 0, 0}));
}

/// Everything a rejected callback must leave untouched.
struct Observed {
  Tick now;
  std::vector<Decision> decisions;
  std::vector<TaskState> states;
  std::vector<std::size_t> queue_sizes;
  std::vector<bool> running;
  std::vector<bool> up;

  Observed(const OnlineScheduler& scheduler,
           const std::vector<Decision>& last)
      : now(scheduler.now()), decisions(last) {
    for (TaskId id = 0; id < static_cast<TaskId>(scheduler.task_count());
         ++id) {
      states.push_back(scheduler.task(id).state);
    }
    for (const Machine& machine : scheduler.machines()) {
      queue_sizes.push_back(machine.queue.size());
      running.push_back(machine.running);
      up.push_back(machine.up);
    }
  }

  bool operator==(const Observed&) const = default;
};

TEST(OnlineScheduler, RejectsImpossibleEventsAndChangesNothing) {
  // Two machines, capacity 2. Machine 0 runs task 0 (announced to end at
  // t=5) with task 2 queued behind it; machine 1 holds task 1, offered a
  // start but not confirmed; task 3 is registered for t=50.
  const PetMatrix pet = deterministic_pet();
  auto mapper = make_mapper("FCFS");
  NullDropper dropper;
  OnlineConfig config;
  config.queue_capacity = 2;
  OnlineScheduler scheduler(pet, {0, 0}, *mapper, dropper, config);
  scheduler.task_arrived(0, 0, 100);
  scheduler.task_started(0, 0, 0, /*duration=*/5);
  scheduler.task_arrived(1, 0, 100);
  const auto& decisions = scheduler.task_arrived(2, 0, 90);
  ASSERT_EQ(scheduler.machine(0).queue.back(), 2);
  ASSERT_EQ(scheduler.machine(1).queue.front(), 1);
  const TaskId future = scheduler.register_task(0, 50, 100);
  const Observed before(scheduler, decisions);

  const auto expect_rejected = [&](const char* what, auto&& call,
                                   const char* message = nullptr) {
    try {
      call();
      ADD_FAILURE() << what << ": not rejected";
    } catch (const std::invalid_argument& error) {
      if (message != nullptr) {
        EXPECT_STREQ(error.what(), message) << what;
      }
    }
    EXPECT_TRUE(Observed(scheduler, decisions) == before) << what;
  };

  expect_rejected("time going backwards", [&] { scheduler.advance(1); },
                  "time went backwards: t=1 < now=2");
  expect_rejected("a task type outside the PET",
                  [&] { scheduler.task_arrived(3, 99, 500); },
                  "task type 99 out of range [0, 1)");
  expect_rejected("an unknown pre-registered id",
                  [&] { scheduler.task_arrived(3, TaskId{42}); });
  expect_rejected("announcing a queued task again",
                  [&] { scheduler.task_arrived(3, TaskId{1}); });
  expect_rejected("announcing before the registered arrival",
                  [&] { scheduler.task_arrived(3, future); });
  expect_rejected("starting on a busy machine",
                  [&] { scheduler.task_started(3, 0, 2); });
  expect_rejected("starting a task that is not the queue head",
                  [&] { scheduler.task_started(3, 1, 2); });
  expect_rejected("starting a head at its deadline",
                  [&] { scheduler.task_started(100, 1, 1); });
  expect_rejected("finishing off the announced duration",
                  [&] { scheduler.task_finished(4, 0); });
  expect_rejected("finishing an idle machine",
                  [&] { scheduler.task_finished(3, 1); },
                  "machine 1 has no running task to finish");
  expect_rejected("an up machine coming up",
                  [&] { scheduler.machine_up(3, 1); },
                  "machine 1 is already up");
  expect_rejected("a machine outside the fleet",
                  [&] { scheduler.machine_down(3, 99); },
                  "machine 99 out of range [0, 2)");
  EXPECT_EQ(scheduler.task_count(), 4u);

  // A down machine rejects a second failure and any start.
  scheduler.machine_down(3, 1);
  const Observed down(scheduler, decisions);
  try {
    scheduler.machine_down(4, 1);
    ADD_FAILURE() << "down-on-down not rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "machine 1 is already down");
  }
  EXPECT_THROW(scheduler.task_started(4, 1, 1), std::invalid_argument);
  EXPECT_TRUE(Observed(scheduler, decisions) == down);

  // The scheduler carries on as if the bad calls never happened.
  const auto& finished = scheduler.task_finished(5, 0);
  ASSERT_FALSE(finished.empty());
  EXPECT_EQ(finished[0], (Decision{DecisionKind::FinishOnTime, 5, 0, 0}));
}

TEST(OnlineScheduler, RejectsTimesPastTheHorizonAndChangesNothing) {
  // Times near 2^63 used to wrap the completion chains (an arrival at
  // 2^63 - 808 with deadline 2^63 - 1 overflowed the appended-lattice
  // arithmetic). Every time beyond the horizon is now refused up front.
  constexpr Tick kHorizon = SystemState::kTimeHorizon;
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  const PetMatrix pet = deterministic_pet();
  auto mapper = make_mapper("FCFS");
  NullDropper dropper;
  OnlineConfig config;
  config.queue_capacity = 2;
  OnlineScheduler scheduler(pet, {0}, *mapper, dropper, config);
  const auto& decisions = scheduler.task_arrived(0, 0, 100);
  ASSERT_EQ(scheduler.machine(0).queue.size(), 1u);
  const Observed before(scheduler, decisions);
  const std::size_t tasks_before = scheduler.task_count();

  const auto expect_rejected = [&](const char* what, auto&& call) {
    EXPECT_THROW(call(), std::invalid_argument) << what;
    EXPECT_TRUE(Observed(scheduler, decisions) == before) << what;
    EXPECT_EQ(scheduler.task_count(), tasks_before) << what;
  };
  for (Tick i = 0; i < 12; ++i) {
    expect_rejected("an arrival near 2^63", [&] {
      scheduler.task_arrived(9223372036854775000 + i, 0, kMax);
    });
  }
  expect_rejected("an advance past the horizon",
                  [&] { scheduler.advance(kHorizon + 1); });
  expect_rejected("a deadline past the horizon",
                  [&] { scheduler.task_arrived(1, 0, kHorizon + 1); });
  expect_rejected("a deadline below minus the horizon",
                  [&] { scheduler.task_arrived(1, 0, -kHorizon - 1); });
  expect_rejected("a registered arrival past the horizon",
                  [&] { scheduler.register_task(0, kHorizon + 1, 100); });
  expect_rejected("a run longer than any execution time", [&] {
    scheduler.task_started(0, 0, 0, SystemState::kMaxExecution + 1);
  });

  // The horizon itself is a valid time, and the scheduler carries on.
  scheduler.task_started(0, 0, 0, /*duration=*/5);
  EXPECT_EQ(scheduler.task_finished(5, 0)[0],
            (Decision{DecisionKind::FinishOnTime, 5, 0, 0}));
  EXPECT_NO_THROW(scheduler.task_arrived(kHorizon, 0, kHorizon));
  EXPECT_EQ(scheduler.now(), kHorizon);

  // A PET whose execution times reach past the limit is refused outright.
  const PetMatrix slow = pet_of({{{{SystemState::kMaxExecution + 1, 1.0}}}});
  EXPECT_THROW(OnlineScheduler(slow, {0}, *mapper, dropper, config),
               std::invalid_argument);
}

/// Assigns the batch front once per mapping event, breaking the
/// assign_task precondition that `mode` names.
class RogueMapper final : public Mapper {
 public:
  enum class Mode { FullMachine, DownMachine, NotInBatch, UnknownMachine };
  explicit RogueMapper(Mode mode) : mode_(mode) {}
  std::string_view name() const override { return "Rogue"; }
  void map_tasks(SystemView& view, SchedulerOps& ops) override {
    if (view.batch_queue->empty()) return;
    const TaskId task = view.batch_queue->front();
    switch (mode_) {
      case Mode::FullMachine: ops.assign_task(task, 0); break;
      case Mode::DownMachine: ops.assign_task(task, 1); break;
      case Mode::NotInBatch: ops.assign_task(task + 1, 0); break;
      case Mode::UnknownMachine: ops.assign_task(task, 7); break;
    }
  }

 private:
  Mode mode_;
};

TEST(OnlineScheduler, RogueMapperIsRejectedByItsOps) {
  // Capacity 1 and machine 1 down. The full-machine rogue fills machine 0
  // with a first, legal assignment; every rogue then breaks an assign_task
  // precondition on the next arrival, and the op throws before it changes
  // anything: the task stays unmapped in the batch, the queues unchanged.
  const PetMatrix pet = deterministic_pet();
  NullDropper dropper;
  OnlineConfig config;
  config.queue_capacity = 1;
  for (const auto mode :
       {RogueMapper::Mode::FullMachine, RogueMapper::Mode::DownMachine,
        RogueMapper::Mode::NotInBatch, RogueMapper::Mode::UnknownMachine}) {
    const bool fill = mode == RogueMapper::Mode::FullMachine;
    RogueMapper rogue(mode);
    OnlineScheduler scheduler(pet, {0, 0}, rogue, dropper, config);
    scheduler.machine_down(0, 1);
    if (fill) scheduler.task_arrived(0, 0, 100);
    const auto victim = static_cast<TaskId>(scheduler.task_count());
    EXPECT_THROW(scheduler.task_arrived(1, 0, 100), std::invalid_argument)
        << static_cast<int>(mode);
    EXPECT_EQ(scheduler.task(victim).state, TaskState::Unmapped);
    EXPECT_EQ(scheduler.unmapped_count(), 1u);
    EXPECT_EQ(scheduler.machine(0).queue.size(), fill ? 1u : 0u);
    EXPECT_TRUE(scheduler.machine(1).queue.empty());
  }
}

TEST(OnlineScheduler, RejectsBadConstruction) {
  const PetMatrix pet = deterministic_pet();
  auto mapper = make_mapper("FCFS");
  NullDropper dropper;
  EXPECT_THROW(OnlineScheduler(pet, {}, *mapper, dropper, OnlineConfig{}),
               std::invalid_argument);
  OnlineConfig config;
  config.queue_capacity = 0;
  EXPECT_THROW(OnlineScheduler(pet, {0}, *mapper, dropper, config),
               std::invalid_argument);
}

TEST(OnlineScheduler, DecisionRecordFormatIsStable) {
  std::ostringstream out;
  out << Decision{DecisionKind::Assign, 42, 7, 3} << '\n'
      << Decision{DecisionKind::ExpireUnmapped, 43, 8, -1};
  EXPECT_EQ(out.str(), "t=42 kind=assign task=7 machine=3\n"
                       "t=43 kind=expire_unmapped task=8");
}

TEST(OnlineScheduler, GeneralizesOverDynamicArrivalsWithoutRegistration) {
  // A steady stream through a 2-machine fleet, confirming every offer
  // immediately — the serve-daemon usage pattern.
  const PetMatrix pet = deterministic_pet();
  auto mapper = make_mapper("FCFS");
  ProactiveHeuristicDropper dropper;
  OnlineScheduler scheduler(pet, {0, 0}, *mapper, dropper, OnlineConfig{});

  // Live mode: no ground-truth durations are announced; the environment
  // simply reports finishes when they happen (here: 5 ticks of wall time
  // after the confirmed start).
  long long started = 0;
  long long finishes = 0;
  const auto confirm = [&](Tick t, const std::vector<Decision>& decisions) {
    for (const Decision& decision : decisions) {
      if (decision.kind == DecisionKind::Start) {
        scheduler.task_started(t, decision.machine, decision.task);
        ++started;
      }
    }
  };
  Tick t = 0;
  for (int i = 0; i < 200; ++i) {
    t += 1;
    for (MachineId m = 0; m < 2; ++m) {
      if (scheduler.machine(m).running &&
          t - scheduler.machine(m).run_start >= 5) {
        const std::vector<Decision> decisions = scheduler.task_finished(t, m);
        ++finishes;
        confirm(t, decisions);
      }
    }
    confirm(t, scheduler.task_arrived(t, 0, t + 40));
  }
  EXPECT_GT(started, 0);
  EXPECT_GT(finishes, 0);
  EXPECT_EQ(scheduler.task_count(), 200u);
  EXPECT_EQ(scheduler.mapping_events(), 200 + finishes);
}

}  // namespace
}  // namespace taskdrop
