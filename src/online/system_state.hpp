#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/completion_model.hpp"
#include "core/context.hpp"
#include "online/decision.hpp"
#include "pet/pet_matrix.hpp"
#include "prob/workspace.hpp"
#include "sim/batch_queue.hpp"
#include "sim/expiry_heap.hpp"
#include "sim/machine.hpp"
#include "sim/task.hpp"

namespace taskdrop {

/// The mutable state of one HC system, and every mutation of it: the task
/// table, the machines, one CompletionModel per machine (all sharing one
/// PmfWorkspace), the batch queue with its expiry heap, the SystemView the
/// mapper and dropper read, the clock and the decision stream.
///
/// Each mutation is one member function. It checks its preconditions and
/// throws std::invalid_argument before changing anything; then it edits
/// the tables, appends its Decision and re-roots the machine's completion
/// chain with the one CompletionModel call the mutation needs:
///
///   * invalidate_from(pos) where a pending task enters or leaves a queue;
///   * invalidate_all where the running task or a late head leaves;
///   * notify_head_started where the head starts at now().
///
/// The three are not interchangeable: the heuristic dropper's single pass
/// is order-dependent, so a different invalidation changes decisions.
///
/// OnlineScheduler drives one SystemState through the paper's mapping
/// events (Fig. 4). Tests, micro benches and heuristic authors build one
/// by hand instead (add_unmapped, enqueue, set_running, set_now), run a
/// mapper or dropper on view() and *this, and read what it did back from
/// decisions() or its dropped() / assigned() / downgraded() filters.
class SystemState final : public SchedulerOps {
 public:
  /// The times the state accepts. Event times (the clock, arrivals) lie in
  /// [0, kTimeHorizon] and deadlines in [-kTimeHorizon, kTimeHorizon];
  /// execution times (PET cells, announced run durations) in
  /// [0, kMaxExecution]. Every time the models compute then stays below
  /// 2^63, whatever the queue capacity and PET:
  ///
  ///   * A completion chain slot either passes its predecessor's time
  ///     through or adds one execution time to a start that is before the
  ///     slot's deadline (pending) or is the run start (running), so every
  ///     chain time is at most kTimeHorizon + kMaxExecution; the queue
  ///     length never enters.
  ///   * The appended-distribution lattice adds one more execution time:
  ///     kTimeHorizon + 2 kMaxExecution = 2^62 + 2^61.
  ///   * A run ends by run start + duration <= 2^62 + 2^60.
  ///
  /// A rejected call throws std::invalid_argument and changes nothing.
  static constexpr Tick kTimeHorizon = Tick{1} << 62;
  static constexpr Tick kMaxExecution = kTimeHorizon / 4;

  /// `pet`, and `model_options.approx_pet` when set, must outlive the
  /// state. `machine_types[i]` is machine i's type (an index into the
  /// PET's machine axis); every queue holds `queue_capacity` tasks, the
  /// running one included. `approx_weight` is SystemView::approx_weight.
  /// Throws std::invalid_argument on an empty fleet, a capacity below 1,
  /// `now` outside the horizon or a PET cell outside [0, kMaxExecution].
  SystemState(const PetMatrix& pet,
              const std::vector<MachineTypeId>& machine_types,
              int queue_capacity, Tick now = 0,
              CompletionModel::Options model_options = {},
              double approx_weight = 0.5);

  SystemState(const SystemState&) = delete;
  SystemState& operator=(const SystemState&) = delete;

  // --- Reads -------------------------------------------------------------

  Tick now() const { return now_; }
  const PetMatrix& pet() const { return pet_; }
  SystemView& view() { return view_; }
  std::size_t task_count() const { return tasks_.size(); }
  const std::vector<Task>& tasks() const { return tasks_; }
  const Task& task(TaskId id) const {
    return tasks_[static_cast<std::size_t>(id)];
  }
  const std::vector<Machine>& machines() const { return machines_; }
  const Machine& machine(MachineId id) const {
    return machines_[static_cast<std::size_t>(id)];
  }
  CompletionModel& model(MachineId id) {
    return models_[static_cast<std::size_t>(id)];
  }
  /// Unmapped tasks in arrival order.
  const BatchQueue& batch() const { return batch_; }

  /// Decisions of the current event, in mutation order: everything emitted
  /// since the last event opened (begin_event and the event mutations
  /// below open one). A hand-built state never opens an event, so there it
  /// is the whole mutation log.
  const std::vector<Decision>& decisions() const { return decisions_; }
  /// Filters of decisions(): the tasks of its DropProactive and Downgrade
  /// records and the (task, machine) of its Assign records, in order.
  std::vector<TaskId> dropped() const {
    return tasks_of(DecisionKind::DropProactive);
  }
  std::vector<TaskId> downgraded() const {
    return tasks_of(DecisionKind::Downgrade);
  }
  std::vector<std::pair<TaskId, MachineId>> assigned() const;

  /// Throws std::invalid_argument naming `what` unless `t` lies in
  /// [lowest, kTimeHorizon] (lowest is 0 for event times, -kTimeHorizon
  /// for deadlines). The snapshot parser applies it to restored times.
  static void check_time(const char* what, Tick t, Tick lowest);

  /// TASKDROP_AUDIT cross-check: BatchQueue link/size/state coherence and
  /// expiry-heap coverage of the batch. Fails through audit::fail.
  void audit_batch_coherence() const;

  // --- Clock and task table ----------------------------------------------

  /// Moves the clock (view and models included). Monotonicity is the
  /// caller's policy (OnlineScheduler checks it), not checked here; a time
  /// outside [0, kTimeHorizon] is.
  void set_now(Tick now);
  /// set_now(t), then clears the decision stream for a new event.
  void begin_event(Tick t);

  /// Pre-sizes task storage (an optimisation; storage grows on demand).
  void reserve_tasks(std::size_t task_count);
  /// Adds an Unmapped task to the table without admitting it; ids are
  /// sequential from 0. Throws when `type` is outside the PET or a time is
  /// outside the horizon.
  TaskId register_task(TaskTypeId type, Tick arrival, Tick deadline);
  /// Moves the task table out. The state must not be used afterwards.
  std::vector<Task> take_tasks() { return std::move(tasks_); }

  // --- Events at `t`: each checks, then moves the clock to `t` -----------

  /// Registered task `task` arrived at `t` and enters the batch queue.
  /// Throws for an unknown task, one not Unmapped or already admitted, or
  /// one whose registered arrival is after `t`.
  void admit(Tick t, TaskId task);
  /// Same preconditions as admit, but the task is refused admission:
  /// ShedOverload, and it never enters the batch queue.
  void shed(Tick t, TaskId task);
  /// Machine `machine` began executing its queue head `task` at `t`.
  /// `duration` (negative when unknown) sets Task::actual_execution and
  /// Machine::run_end. Emits nothing and does not open an event: a start
  /// is not a mapping event. Throws for a down or busy machine, a task
  /// that is not the queue head, a head at or past its deadline, or a
  /// duration above kMaxExecution.
  void start_head(Tick t, MachineId machine, TaskId task, Tick duration);
  /// Machine `machine`'s running task finished at `t`: FinishOnTime or
  /// FinishLate. Returns true when it finished late. Throws when the
  /// machine runs no task or `t` is not the announced Machine::run_end.
  bool finish_running(Tick t, MachineId machine);
  /// Machine `machine` went down at `t`; its running task, if any, is
  /// lost (LostToFailure). Throws when the machine is already down.
  void fail_machine(Tick t, MachineId machine);
  /// Machine `machine` recovered at `t`. Throws when it is already up.
  void recover_machine(Tick t, MachineId machine);

  // --- Drops inside a mapping event --------------------------------------

  /// Reactive drop of the pending task at `pos` (the caller found its
  /// deadline passed).
  void drop_reactive(MachineId machine, std::size_t pos) {
    drop_pending(machine, pos, DecisionKind::DropReactive);
  }
  /// Reactive drop of an idle machine's queue head, which reached its
  /// deadline before it could start.
  void drop_late_head(MachineId machine);
  /// Drops every unmapped task whose deadline is at or before now()
  /// (ExpireUnmapped, earliest deadline first). True when any expired.
  bool expire_unmapped();
  /// Recommends starting the idle, up `machine`'s queue head (Start). The
  /// recommendation is advisory: nothing changes until start_head.
  void offer_start(MachineId machine);

  // --- SchedulerOps: the mapper's and dropper's mutations ------------------
  //
  // Each throws std::invalid_argument, changing nothing, for an unknown
  // task or machine, a task not in the batch, a full or down machine, or
  // a position outside the machine's pending range.

  void assign_task(TaskId task, MachineId machine) override;
  void drop_queued_task(MachineId machine, std::size_t pos) override {
    drop_pending(machine, pos, DecisionKind::DropProactive);
  }
  void downgrade_task(MachineId machine, std::size_t pos) override;

  // --- Hand-building (tests, benches, heuristic authors) -----------------

  /// Registers a task and puts it in the batch queue. Returns its id.
  TaskId add_unmapped(TaskTypeId type, Tick arrival, Tick deadline);
  /// Registers a task and places it at the tail of `machine`'s queue
  /// (state Queued). Returns its id.
  TaskId enqueue(MachineId machine, TaskTypeId type, Tick deadline,
                 Tick arrival = 0);
  /// Marks `machine`'s idle queue head as running since `run_start`.
  void set_running(MachineId machine, Tick run_start);

  /// Snapshot restore: replaces the task table, the machines (one per
  /// fleet machine) and the batch (arrival order), then re-roots every
  /// model at `now`. The caller has validated the tables (times included:
  /// see check_time).
  void restore(std::vector<Task> tasks, const std::vector<Machine>& machines,
               const std::vector<TaskId>& batch, Tick now);

 private:
  std::vector<TaskId> tasks_of(DecisionKind kind) const;
  Machine& checked_machine(MachineId id);
  /// The task at pending position `pos` of `machine`.
  Task& checked_pending(Machine& machine, std::size_t pos);
  /// The registered task `id`, checked for admission at `t`.
  Task& checked_arrival(Tick t, TaskId id);
  /// Drops the pending task at `pos` with `kind`: DropReactive or
  /// DropProactive.
  void drop_pending(MachineId machine, std::size_t pos, DecisionKind kind);
  /// Queues `task` at the tail of `machine`.
  void append(Machine& machine, Task& task);
  /// Puts a registered task in the batch queue and its expiry heap.
  void push_batch(const Task& task);
  /// Starts `machine`'s queue head, running since `run_start`.
  void run_head(Machine& machine, Tick run_start, Tick duration);
  /// Takes the running task off `machine` at now(): busy time billed,
  /// queue popped, chain invalidated. Returns the task.
  Task& end_run(Machine& machine);
  void emit(DecisionKind kind, TaskId task, MachineId machine);

  const PetMatrix& pet_;
  Tick now_ = 0;
  /// May grow on demand: the models point at this vector object, not at
  /// its data.
  std::vector<Task> tasks_;
  /// Fully sized at construction and never reallocated: the models point
  /// at its elements.
  std::vector<Machine> machines_;
  /// Convolution scratch shared by every per-machine model (one buffer
  /// keeps the hot chain-rebuild loop in cache across machines).
  PmfWorkspace model_ws_;
  std::vector<CompletionModel> models_;
  BatchQueue batch_;
  /// Unmapped tasks ordered by deadline (lazy deletion: entries whose task
  /// already left the batch are skipped on pop), so the reactive pass only
  /// ever touches tasks that actually expired.
  ExpiryHeap batch_expiry_;
  SystemView view_;
  std::vector<Decision> decisions_;
};

}  // namespace taskdrop
