#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "core/dropper.hpp"
#include "online/decision.hpp"
#include "online/system_state.hpp"
#include "pet/pet_matrix.hpp"
#include "sched/mapper.hpp"
#include "sim/machine.hpp"
#include "sim/task.hpp"

namespace taskdrop {

/// Approximate-computing extension (section VI future work): tasks can be
/// switched to a degraded-quality variant whose execution PMF is the full
/// one time-scaled by `time_factor`; an on-time approximate completion
/// contributes `utility_weight` (vs 1.0) to the utility metric.
///
/// (Defined here rather than in sim/engine.hpp because the online
/// scheduler owns the approximate PET; EngineConfig embeds it via this
/// header.)
struct ApproxModel {
  bool enabled = false;
  double time_factor = 0.5;
  double utility_weight = 0.5;

  bool operator==(const ApproxModel&) const = default;
};

/// Overload-shedding admission valve. Both watermarks default to 0 =
/// disabled, so an unconfigured scheduler admits everything and the
/// decision stream is bit-identical to the pre-shedding implementation
/// (the serve golden and the differential replay suite rely on this).
///
/// When active, an arrival is shed — refused admission with a single
/// ShedOverload decision, never entering the batch queue — if, at the
/// moment of arrival:
///
///   * `total_pending_watermark` > 0 and the aggregate backlog (unmapped
///     batch tasks plus queued-but-not-running tasks across all machines)
///     is already at or above it, or
///   * `machine_backlog_watermark` > 0 and every up machine's pending
///     backlog is already at or above it (no machine has headroom; a fleet
///     with no up machine at all counts as fully backlogged).
///
/// Shedding is evaluated before admission, so the watermark bounds the
/// backlog the decision kernels ever have to chew through — the dropper
/// as a pressure valve, applied at the front door.
struct ShedPolicy {
  /// Aggregate pending-work watermark; 0 disables the aggregate check.
  int total_pending_watermark = 0;
  /// Per-machine pending-backlog watermark; 0 disables the per-machine
  /// check.
  int machine_backlog_watermark = 0;

  bool active() const {
    return total_pending_watermark > 0 || machine_backlog_watermark > 0;
  }
};

/// Tuning knobs of the online admission service. Defaults mirror the
/// paper's evaluation setup (and EngineConfig, which maps onto this).
struct OnlineConfig {
  /// Machine-queue capacity, running task included (section V-A: six).
  int queue_capacity = 6;
  /// When the dropping mechanism runs (Fig. 4 vs section V-A).
  DropperEngagement engagement = DropperEngagement::EveryMappingEvent;
  /// Extension: condition the running task's completion PMF on "not done
  /// yet" (see CompletionModel::Options).
  bool condition_running = false;
  /// Declare that machines may go down (machine_down can be called).
  /// Retained for configuration echo (snapshots) and as documentation of
  /// the driver's intent; since the chain-keep refactor it no longer
  /// changes behaviour — CompletionModel::notify_head_started decides
  /// per start whether the cached chain is keepable (it always is on an
  /// up machine whose chain set_now rebased across the idle gap), so
  /// volatile fleets get the same start-time keep as stable ones, with
  /// bit-identical decisions.
  bool volatile_machines = false;
  /// Test knob: force the conservative invalidate-and-rebuild on every
  /// task start and time advance (CompletionModel::Options::
  /// paranoid_rebuild). The chain-keep regression suites run a paranoid
  /// scheduler against a default one and require bit-identical decision
  /// streams. Decision-neutral by construction — deliberately NOT part of
  /// the snapshot config echo.
  bool paranoid_invalidate = false;
  ApproxModel approx;
  /// Overload shedding; inactive by default (see ShedPolicy).
  ShedPolicy shed;
};

/// The paper's decision kernels — mapper + dropper + per-machine
/// CompletionModel stack — decoupled from the discrete-event simulation
/// clock: an online admission service driven by wall-clock callbacks.
///
/// The environment (a simulator event loop, a socket daemon, an in-process
/// queue) reports what happened —
///
///   task_arrived(t, ...)      a new task wants admission
///   task_started(t, m, task)  machine m began executing its queue head
///   task_finished(t, m)       machine m's running task completed
///   machine_down(t, m)        machine m failed (kills its running task)
///   machine_up(t, m)          machine m recovered
///   advance(t)                time passed with no event (expiries fire)
///
/// — and every callback returns the stream of admission/map/drop decisions
/// it caused, in mutation order. Each callback is one mapping event
/// (section III): expired tasks are reactively dropped, the Task Dropper
/// runs (per the engagement policy), the Mapper assigns unmapped tasks to
/// free machine-queue slots, and idle machines get Start recommendations.
/// A Start decision is advisory: the scheduler models the task as running
/// only once the environment confirms it with task_started (the sim engine
/// confirms immediately, reproducing classic batch-mode semantics; a live
/// driver confirms when a worker actually picks the task up). While a
/// Start is unconfirmed the scheduler does not re-issue it; if the head it
/// named is dropped or the machine goes down first, the offer lapses and a
/// later mapping event re-evaluates.
///
/// The scheduler keeps only policy: the monotone clock, shedding, the
/// Fig. 4 order of a mapping event, start offers and counters. Every
/// change to tasks, queues and chains is a SystemState mutation, which
/// the mapper and dropper also act through. An impossible event throws
/// std::invalid_argument and changes nothing — clock, decision list and
/// task table included. The scheduler sees only execution *distributions*
/// (the PET); the optional `duration` of task_started is recorded for the
/// environment's own bookkeeping (SimResult) and never read by a decision
/// path.
///
/// sim/Engine drives this same kernel stack (one driver among others), so
/// the existing figure suites lock the decision stream down bit for bit.
class OnlineScheduler final {
 public:
  /// `pet` must outlive the scheduler. `machine_types[i]` is machine i's
  /// type (an index into the PET matrix's machine axis). Throws
  /// std::invalid_argument on an empty fleet or capacity < 1.
  OnlineScheduler(const PetMatrix& pet,
                  std::vector<MachineTypeId> machine_types, Mapper& mapper,
                  Dropper& dropper, OnlineConfig config = {});

  OnlineScheduler(const OnlineScheduler&) = delete;
  OnlineScheduler& operator=(const OnlineScheduler&) = delete;

  /// Pre-sizes task storage (an optimisation; storage grows on demand).
  void reserve_tasks(std::size_t task_count) {
    state_.reserve_tasks(task_count);
  }

  /// Registers a task without announcing its arrival — storage-only, no
  /// clock advance, no decisions. Lets a driver that knows its workload up
  /// front (the sim engine, a trace replayer) pin task ids to trace
  /// indices. Ids are assigned sequentially from 0. Throws when `type` is
  /// outside the PET.
  TaskId register_task(TaskTypeId type, Tick arrival, Tick deadline) {
    return state_.register_task(type, arrival, deadline);
  }

  /// A new task arrived at `t` and asks for admission. Returns the
  /// decision stream of the triggered mapping event (valid until the next
  /// decision-returning callback). `out_id` receives the new task's id.
  const std::vector<Decision>& task_arrived(Tick t, TaskTypeId type,
                                            Tick deadline,
                                            TaskId* out_id = nullptr);
  /// Arrival of a pre-registered task (see register_task). Throws for an
  /// unknown task, one that already arrived, or an announcement before the
  /// task's registered arrival.
  const std::vector<Decision>& task_arrived(Tick t, TaskId task);

  /// Confirms a Start decision: machine `machine` began executing its
  /// queue head `task` at `t`. `duration` is the environment's
  /// ground-truth execution time when it knows one up front (the sim
  /// engine's sampled duration, recorded into Task::actual_execution and
  /// Machine::run_end); pass a negative value when unknown (live mode).
  /// Emits no decisions — a start is not a mapping event (section III).
  /// Throws for a down or busy machine, a task that is not its queue head,
  /// or a head at or past its deadline (it must be dropped, not started).
  void task_started(Tick t, MachineId machine, TaskId task,
                    Tick duration = -1);

  /// Machine `machine`'s running task finished at `t`. Returns the
  /// FinishOnTime/FinishLate record followed by the decisions of the
  /// triggered mapping event. Throws when the machine runs no task, or
  /// when `t` disagrees with the duration announced at its start.
  const std::vector<Decision>& task_finished(Tick t, MachineId machine);

  /// Machine `machine` went down at `t`: its running task (if any) is
  /// lost — partially executed time is still billed — and its queued
  /// tasks wait for recovery (mapped tasks cannot be remapped,
  /// section III). Down machines accept no new assignments. Throws when
  /// the machine is already down.
  const std::vector<Decision>& machine_down(Tick t, MachineId machine);

  /// Machine `machine` recovered at `t`. Throws when it is already up.
  const std::vector<Decision>& machine_up(Tick t, MachineId machine);

  /// Time advanced to `t` with no task/machine event: runs a mapping event
  /// so deadline expiries and deferred mappings are reconsidered.
  const std::vector<Decision>& advance(Tick t);

  Tick now() const { return state_.now(); }
  std::size_t task_count() const { return state_.task_count(); }
  const Task& task(TaskId id) const { return state_.task(id); }
  const std::vector<Machine>& machines() const { return state_.machines(); }
  const Machine& machine(MachineId id) const { return state_.machine(id); }
  /// Unmapped tasks currently waiting in the batch queue.
  std::size_t unmapped_count() const { return state_.batch().size(); }
  /// Earliest deadline among unmapped tasks; kNeverTick when none. The
  /// engine schedules its drain-time wakeup from this.
  Tick earliest_unmapped_deadline() const;
  long long mapping_events() const { return mapping_events_; }
  long long dropper_invocations() const { return dropper_invocations_; }
  /// Arrivals refused by the overload-shedding valve (ShedOverload).
  long long shed_count() const { return shed_count_; }
  /// The shedding valve's aggregate load signal: unmapped batch tasks plus
  /// queued-but-not-running tasks across all machines.
  std::size_t pending_backlog() const;
  /// The time-scaled PET of the approximate-computing extension (null when
  /// disabled). Environments sample approximate tasks' ground truth here.
  const PetMatrix* approx_pet() const {
    return approx_pet_ ? &*approx_pet_ : nullptr;
  }

  /// Moves the task table out (the engine harvests SimResult from it).
  /// The scheduler must not be used afterwards, only destroyed.
  std::vector<Task> take_tasks() { return state_.take_tasks(); }

  /// Writes a deterministic, versioned text serialization of the full
  /// scheduler state (task table, machine queues, batch queue, advisory
  /// offers, clock, counters, config echo, mapper state) — see
  /// online/snapshot.hpp for the format and the round-trip contract.
  /// Implemented in snapshot.cpp.
  void snapshot(std::ostream& out) const;

  /// Restores a snapshot into this scheduler. The scheduler must be
  /// freshly constructed — no callbacks issued yet — with the same PET,
  /// fleet, config, mapper and dropper the snapshotted instance had (the
  /// snapshot's config echo is validated against this instance; a fresh
  /// mapper/dropper stack is required because their skip-memoisation keys
  /// reference the old process's model revisions). Throws
  /// std::invalid_argument on a malformed snapshot, a config mismatch, or
  /// a non-fresh scheduler; the scheduler is unusable after a failed
  /// restore. Completion chains are not serialized: they are derived state,
  /// rebuilt on demand bit-identically to the incremental originals
  /// (tests/completion_incremental_test.cpp locks rebuild ≡ incremental).
  /// Implemented in snapshot.cpp.
  void restore(std::istream& in);

 private:
  /// Throws std::invalid_argument when `t` is before now().
  void check_clock(Tick t) const;
  /// True when the shedding valve (config_.shed) refuses this arrival.
  bool should_shed() const;
  /// Runs the Fig. 4 steps; returns the event's decision stream.
  const std::vector<Decision>& mapping_event();
  /// Drops expired pending tasks (machine queues and batch queue); returns
  /// true when at least one task was dropped.
  bool reactive_drop_pass();
  /// End of the mapping event: reactively drop late queue heads, then
  /// offer a Start for every up, idle machine with a startable head.
  void start_pass();

  Mapper& mapper_;
  Dropper& dropper_;
  OnlineConfig config_;
  /// Time-scaled PET for approximate-mode tasks (approx extension only).
  /// Declared before state_, whose models point at it.
  std::optional<PetMatrix> approx_pet_;
  SystemState state_;
  /// Unconfirmed Start offer per machine (-1: none). Prevents duplicate
  /// Start decisions while the environment has not reported the start yet;
  /// lapses automatically when the offered head leaves the queue.
  std::vector<TaskId> start_offered_;
  bool deadline_miss_pending_ = false;
  long long mapping_events_ = 0;
  long long dropper_invocations_ = 0;
  long long shed_count_ = 0;
  /// Sampling counter for the TASKDROP_AUDIT coherence pass (unused in
  /// normal builds, where the audit gate folds to constant false).
  std::uint64_t audit_counter_ = 0;
};

}  // namespace taskdrop
