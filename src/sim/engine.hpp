#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "online/online_scheduler.hpp"
#include "online/replay.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_result.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace taskdrop {

/// Failure-injection extension (the paper's section VI future work on
/// "resource failure"): machines fail and recover with exponential
/// inter-failure and repair times. A failing machine kills its running task
/// (state LostToFailure — partially executed time is still billed); its
/// queued tasks wait for recovery (mapped tasks cannot be remapped,
/// section III) and expire reactively as their deadlines pass. Down
/// machines accept no new assignments.
struct FailureModel {
  bool enabled = false;
  /// Mean up-time between failures per machine, ticks.
  double mean_time_between_failures = 60000.0;
  /// Mean repair duration, ticks.
  double mean_time_to_repair = 3000.0;
  std::uint64_t seed = 0xFA11;

  bool operator==(const FailureModel&) const = default;
};

/// Engine tuning knobs. Defaults mirror the paper's evaluation setup.
/// (ApproxModel lives in online/online_scheduler.hpp with the kernel stack
/// that owns the approximate PET; this header re-exports it.)
struct EngineConfig {
  /// Machine-queue capacity, running task included (section V-A: six).
  int queue_capacity = 6;
  /// When the dropping mechanism runs (Fig. 4 vs section V-A).
  DropperEngagement engagement = DropperEngagement::EveryMappingEvent;
  /// Extension: condition the running task's completion PMF on "not done
  /// yet" (see CompletionModel::Options).
  bool condition_running = false;
  /// Seed of the ground-truth execution-time sampling stream.
  std::uint64_t exec_seed = 7;
  /// Test knob: forwarded to OnlineConfig::paranoid_invalidate — forces
  /// conservative invalidate-and-rebuild chain maintenance. Decision
  /// streams and SimResults must be bit-identical either way; the
  /// chain-keep regression suites assert exactly that.
  bool paranoid_invalidate = false;
  FailureModel failures;
  ApproxModel approx;
};

/// The online batch-mode resource-allocation simulator of Fig. 1.
///
/// The engine is the discrete-event driver of the OnlineScheduler kernel
/// stack: it owns everything the *environment* owns — the event queue, the
/// ground-truth execution-time sampling stream, and the failure process —
/// and translates popped events into the scheduler's wall-clock callbacks
/// (task_arrived / task_finished / machine_down / machine_up / advance).
/// Start decisions coming back from the scheduler are confirmed immediately
/// with a sampled ground-truth duration (task_started), which schedules the
/// matching completion event. The scheduler sees only distributions, never
/// the sampled durations — exactly the paper's information split.
class Engine final {
 public:
  /// `pet` must outlive the engine. `machine_types[i]` is machine i's type
  /// (an index into the PET matrix's machine axis). run() throws
  /// std::invalid_argument on an empty fleet or a capacity below 1.
  Engine(const PetMatrix& pet, std::vector<MachineTypeId> machine_types,
         Mapper& mapper, Dropper& dropper, EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs one trial to completion (system drains back to idle) and returns
  /// the per-task outcomes. The engine can be reused for further runs.
  SimResult run(const Trace& trace);

  /// When set, run() records the full environment trace — task table, every
  /// scheduler callback, every decision — into `log` (cleared first). The
  /// differential replay suite feeds it back through a fresh
  /// OnlineScheduler and requires a bit-identical decision stream.
  void set_replay_log(ReplayLog* log) { replay_ = log; }

 private:
  void reset(const Trace& trace);
  /// Confirms the callback's Start offers (sampling ground truth and
  /// scheduling completions), maintains the live-task count, and records
  /// the decisions to the replay log.
  void apply_decisions(Tick t, const std::vector<Decision>& decisions);
  void schedule_next_failure(MachineId machine, Tick now);
  void record(ReplayEvent::Kind kind, Tick time, TaskId task = -1,
              MachineId machine = -1, Tick duration = -1);

  const PetMatrix& pet_;
  std::vector<MachineTypeId> machine_type_of_;
  Mapper& mapper_;
  Dropper& dropper_;
  EngineConfig config_;

  /// The decision kernels. Re-emplaced per run so every trial starts from
  /// the same clean state reset() used to rebuild in place.
  std::optional<OnlineScheduler> sched_;
  EventQueue events_;
  Rng exec_rng_;
  Rng failure_rng_;
  /// Tasks not yet in a terminal state; failure events stop being scheduled
  /// once this reaches zero so the simulation always drains.
  long long live_tasks_ = 0;
  ReplayLog* replay_ = nullptr;
};

}  // namespace taskdrop
