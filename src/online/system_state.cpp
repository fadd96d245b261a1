#include "online/system_state.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

#include "util/audit.hpp"

namespace taskdrop {
namespace {

/// Throws std::invalid_argument with the concatenated message. Messages are
/// only built on this failure path, never by a mutation that goes through.
template <typename... Parts>
[[noreturn]] void reject(const Parts&... parts) {
  std::ostringstream message;
  (message << ... << parts);
  throw std::invalid_argument(message.str());
}

}  // namespace

SystemState::SystemState(const PetMatrix& pet,
                         const std::vector<MachineTypeId>& machine_types,
                         int queue_capacity, Tick now,
                         CompletionModel::Options model_options,
                         double approx_weight)
    : pet_(pet), now_(now) {
  if (machine_types.empty()) reject("SystemState: empty fleet");
  if (queue_capacity < 1) {
    reject("SystemState: queue capacity must be >= 1, got ", queue_capacity);
  }
  check_time("SystemState: start time", now, 0);
  for (const PetMatrix* matrix : {&pet, model_options.approx_pet}) {
    if (matrix == nullptr) continue;
    for (int t = 0; t < matrix->task_type_count(); ++t) {
      for (int m = 0; m < matrix->machine_type_count(); ++m) {
        const Pmf& cell = matrix->pmf(t, m);
        if (!cell.empty() &&
            (cell.min_time() < 0 || cell.max_time() > kMaxExecution)) {
          reject("SystemState: PET cell (", t, ", ", m, ") spans [",
                 cell.min_time(), ", ", cell.max_time(),
                 "], outside the execution-time range [0, ", kMaxExecution,
                 "]");
        }
      }
    }
  }
  machines_.reserve(machine_types.size());
  for (std::size_t m = 0; m < machine_types.size(); ++m) {
    machines_.emplace_back(static_cast<MachineId>(m), machine_types[m],
                           queue_capacity);
  }
  models_.reserve(machines_.size());
  for (Machine& machine : machines_) {
    models_.emplace_back(&pet_, &machine, &tasks_, model_options, &model_ws_);
    models_.back().set_now(now_);
  }
  view_ = SystemView{now_,     &pet_,      model_options.approx_pet,
                     approx_weight, &tasks_, &machines_, &models_, &batch_};
}

std::vector<TaskId> SystemState::tasks_of(DecisionKind kind) const {
  std::vector<TaskId> out;
  for (const Decision& decision : decisions_) {
    if (decision.kind == kind) out.push_back(decision.task);
  }
  return out;
}

std::vector<std::pair<TaskId, MachineId>> SystemState::assigned() const {
  std::vector<std::pair<TaskId, MachineId>> out;
  for (const Decision& decision : decisions_) {
    if (decision.kind == DecisionKind::Assign) {
      out.emplace_back(decision.task, decision.machine);
    }
  }
  return out;
}

void SystemState::check_time(const char* what, Tick t, Tick lowest) {
  if (t < lowest || t > kTimeHorizon) {
    reject(what, " ", t, " is outside the time horizon [", lowest, ", ",
           kTimeHorizon, "]");
  }
}

void SystemState::set_now(Tick now) {
  check_time("event time", now, 0);
  now_ = now;
  view_.now = now;
  // set_now early-returns when `now` is unchanged, so calling it on every
  // event reproduces the engine's per-event set_now exactly.
  for (CompletionModel& model : models_) model.set_now(now);
}

void SystemState::begin_event(Tick t) {
  set_now(t);
  decisions_.clear();
}

void SystemState::reserve_tasks(std::size_t task_count) {
  tasks_.reserve(task_count);
  if (tasks_.empty() && batch_.empty()) batch_.reset(task_count);
}

TaskId SystemState::register_task(TaskTypeId type, Tick arrival,
                                  Tick deadline) {
  if (type < 0 || type >= pet_.task_type_count()) {
    reject("task type ", type, " out of range [0, ", pet_.task_type_count(),
           ")");
  }
  check_time("arrival", arrival, 0);
  check_time("deadline", deadline, -kTimeHorizon);
  Task task;
  task.id = static_cast<TaskId>(tasks_.size());
  task.type = type;
  task.arrival = arrival;
  task.deadline = deadline;
  tasks_.push_back(task);
  return task.id;
}

Machine& SystemState::checked_machine(MachineId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= machines_.size()) {
    reject("machine ", id, " out of range [0, ", machines_.size(), ")");
  }
  return machines_[static_cast<std::size_t>(id)];
}

Task& SystemState::checked_pending(Machine& machine, std::size_t pos) {
  if (pos < machine.first_pending_pos() || pos >= machine.queue.size()) {
    reject("position ", pos, " is outside machine ", machine.id,
           "'s pending range [", machine.first_pending_pos(), ", ",
           machine.queue.size(), ")");
  }
  return tasks_[static_cast<std::size_t>(machine.queue[pos])];
}

Task& SystemState::checked_arrival(Tick t, TaskId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= tasks_.size()) {
    reject("task ", id, " out of range [0, ", tasks_.size(), ")");
  }
  Task& task = tasks_[static_cast<std::size_t>(id)];
  if (task.state != TaskState::Unmapped || batch_.contains(id)) {
    reject("task ", id, " already arrived");
  }
  if (task.arrival > t) {
    reject("task ", id, " announced at t=", t, ", before its arrival ",
           task.arrival);
  }
  return task;
}

void SystemState::push_batch(const Task& task) {
  batch_.push_back(task.id);
  batch_expiry_.push(task.deadline, task.id);
}

void SystemState::admit(Tick t, TaskId id) {
  const Task& task = checked_arrival(t, id);
  begin_event(t);
  push_batch(task);
}

void SystemState::shed(Tick t, TaskId id) {
  Task& task = checked_arrival(t, id);
  begin_event(t);
  task.state = TaskState::DroppedProactive;
  task.drop_time = now_;
  emit(DecisionKind::ShedOverload, id, -1);
}

void SystemState::start_head(Tick t, MachineId machine_id, TaskId task_id,
                             Tick duration) {
  Machine& machine = checked_machine(machine_id);
  if (!machine.up) reject("machine ", machine_id, " is down");
  if (machine.running) reject("machine ", machine_id, " is already running");
  if (machine.queue.empty() || machine.queue.front() != task_id) {
    reject("task ", task_id, " is not the queue head of machine ", machine_id);
  }
  const Tick deadline = tasks_[static_cast<std::size_t>(task_id)].deadline;
  if (t >= deadline) {
    reject("task ", task_id, " cannot start at t=", t,
           ", at or past its deadline ", deadline);
  }
  if (duration > kMaxExecution) {
    reject("run duration ", duration, " of task ", task_id,
           " is above the execution-time limit ", kMaxExecution);
  }
  set_now(t);
  run_head(machine, now_, duration);
}

void SystemState::run_head(Machine& machine, Tick run_start, Tick duration) {
  Task& task = tasks_[static_cast<std::size_t>(machine.queue.front())];
  task.state = TaskState::Running;
  task.start_time = run_start;
  if (duration >= 0) task.actual_execution = duration;
  machine.running = true;
  machine.run_start = run_start;
  machine.run_end = duration >= 0 ? run_start + duration : kNeverTick;
  ++machine.run_token;
  CompletionModel& model = models_[static_cast<std::size_t>(machine.id)];
  if (run_start == now_) {
    // The cached chain stays valid bit for bit when the head starts at
    // now strictly before its deadline: the running completion
    // delta(run_start) (x) exec equals the cached pending chain rooted at
    // delta(now) — the deadline truncation was vacuous — and set_now
    // already rebased an idle machine's chain across any gap since it was
    // last rooted. notify_head_started keeps the chain then and bumps the
    // revision, so the droppers re-examine the machine exactly as after a
    // rebuild; it falls back to the full invalidate itself when
    // conditioning is on (normalize rescales slot 0 even when nothing is
    // stripped) or the keep precondition fails.
    model.notify_head_started(task.deadline);
  } else {
    model.invalidate_all();
  }
}

Task& SystemState::end_run(Machine& machine) {
  Task& task = tasks_[static_cast<std::size_t>(machine.queue.front())];
  machine.busy_ticks += now_ - machine.run_start;
  machine.queue.pop_front();
  machine.running = false;
  machine.run_end = kNeverTick;
  models_[static_cast<std::size_t>(machine.id)].invalidate_all();
  return task;
}

bool SystemState::finish_running(Tick t, MachineId machine_id) {
  Machine& machine = checked_machine(machine_id);
  if (!machine.running) {
    reject("machine ", machine_id, " has no running task to finish");
  }
  if (machine.run_end != kNeverTick && machine.run_end != t) {
    reject("machine ", machine_id, " finishes at t=", t,
           ", but its run was announced to end at t=", machine.run_end);
  }
  begin_event(t);
  Task& task = end_run(machine);
  task.finish_time = now_;
  const bool late = now_ >= task.deadline;
  task.state = late ? TaskState::CompletedLate : TaskState::CompletedOnTime;
  emit(late ? DecisionKind::FinishLate : DecisionKind::FinishOnTime, task.id,
       machine_id);
  return late;
}

void SystemState::fail_machine(Tick t, MachineId machine_id) {
  Machine& machine = checked_machine(machine_id);
  if (!machine.up) reject("machine ", machine_id, " is already down");
  begin_event(t);
  machine.up = false;
  if (!machine.running) return;
  // The partially executed time is still billed, and the bumped token
  // marks any completion scheduled for the killed run as stale.
  ++machine.run_token;
  Task& task = end_run(machine);
  task.state = TaskState::LostToFailure;
  task.drop_time = now_;
  emit(DecisionKind::LostToFailure, task.id, machine_id);
}

void SystemState::recover_machine(Tick t, MachineId machine_id) {
  Machine& machine = checked_machine(machine_id);
  if (machine.up) reject("machine ", machine_id, " is already up");
  begin_event(t);
  machine.up = true;
}

void SystemState::drop_pending(MachineId machine_id, std::size_t pos,
                               DecisionKind kind) {
  Machine& machine = checked_machine(machine_id);
  Task& task = checked_pending(machine, pos);
  task.state = kind == DecisionKind::DropProactive
                   ? TaskState::DroppedProactive
                   : TaskState::DroppedReactive;
  task.drop_time = now_;
  emit(kind, task.id, machine_id);
  machine.remove_at(pos);
  models_[static_cast<std::size_t>(machine_id)].invalidate_from(pos);
}

void SystemState::drop_late_head(MachineId machine_id) {
  Machine& machine = checked_machine(machine_id);
  Task& task = checked_pending(machine, 0);
  task.state = TaskState::DroppedReactive;
  task.drop_time = now_;
  emit(DecisionKind::DropReactive, task.id, machine_id);
  machine.queue.pop_front();
  models_[static_cast<std::size_t>(machine_id)].invalidate_all();
}

bool SystemState::expire_unmapped() {
  // The expiry heap hands expired tasks over directly; entries whose task
  // was assigned (and so left the batch) in the meantime are skipped.
  bool any = false;
  while (!batch_expiry_.empty() && batch_expiry_.top().first <= now_) {
    const TaskId id = batch_expiry_.top().second;
    batch_expiry_.pop();
    if (!batch_.contains(id)) continue;
    Task& task = tasks_[static_cast<std::size_t>(id)];
    task.state = TaskState::DroppedReactive;
    task.drop_time = now_;
    emit(DecisionKind::ExpireUnmapped, id, -1);
    batch_.remove(id);
    any = true;
  }
  return any;
}

void SystemState::offer_start(MachineId machine_id) {
  Machine& machine = checked_machine(machine_id);
  const Task& head = checked_pending(machine, 0);
  if (!machine.up) reject("machine ", machine_id, " is down");
  emit(DecisionKind::Start, head.id, machine_id);
}

void SystemState::assign_task(TaskId task_id, MachineId machine_id) {
  Machine& machine = checked_machine(machine_id);
  if (!batch_.contains(task_id)) {
    reject("task ", task_id, " is not in the batch queue");
  }
  if (!machine.up) reject("machine ", machine_id, " is down");
  if (!machine.has_free_slot()) {
    reject("machine ", machine_id, " has no free queue slot");
  }
  batch_.remove(task_id);
  emit(DecisionKind::Assign, task_id, machine_id);
  append(machine, tasks_[static_cast<std::size_t>(task_id)]);
}

void SystemState::append(Machine& machine, Task& task) {
  task.state = TaskState::Queued;
  task.machine = machine.id;
  machine.enqueue(task.id);
  models_[static_cast<std::size_t>(machine.id)].invalidate_from(
      machine.queue.size() - 1);
}

void SystemState::downgrade_task(MachineId machine_id, std::size_t pos) {
  Machine& machine = checked_machine(machine_id);
  Task& task = checked_pending(machine, pos);
  if (task.approximate) return;
  task.approximate = true;
  emit(DecisionKind::Downgrade, task.id, machine_id);
  models_[static_cast<std::size_t>(machine_id)].invalidate_from(pos);
}

TaskId SystemState::add_unmapped(TaskTypeId type, Tick arrival,
                                 Tick deadline) {
  const TaskId id = register_task(type, arrival, deadline);
  push_batch(tasks_[static_cast<std::size_t>(id)]);
  return id;
}

TaskId SystemState::enqueue(MachineId machine_id, TaskTypeId type,
                            Tick deadline, Tick arrival) {
  Machine& machine = checked_machine(machine_id);
  if (!machine.has_free_slot()) {
    reject("machine ", machine_id, " has no free queue slot");
  }
  const TaskId id = register_task(type, arrival, deadline);
  append(machine, tasks_[static_cast<std::size_t>(id)]);
  return id;
}

void SystemState::set_running(MachineId machine_id, Tick run_start) {
  Machine& machine = checked_machine(machine_id);
  checked_pending(machine, 0);  // an idle machine with a queue head
  run_head(machine, run_start, /*duration=*/-1);
}

void SystemState::restore(std::vector<Task> tasks,
                          const std::vector<Machine>& machines,
                          const std::vector<TaskId>& batch, Tick now) {
  check_time("event time", now, 0);
  tasks_ = std::move(tasks);
  for (std::size_t m = 0; m < machines_.size(); ++m) machines_[m] = machines[m];
  // The expiry heap is rebuilt from the live batch alone: stale
  // lazy-deletion entries are skipped unobservably on pop, so the rebuilt
  // heap reproduces the exact ExpireUnmapped pop order.
  batch_.reset(tasks_.size());
  batch_expiry_.clear();
  for (const TaskId id : batch) {
    push_batch(tasks_[static_cast<std::size_t>(id)]);
  }
  set_now(now);
  for (CompletionModel& model : models_) model.invalidate_all();
}

void SystemState::emit(DecisionKind kind, TaskId task, MachineId machine) {
  decisions_.push_back(Decision{kind, now_, task, machine});
}

void SystemState::audit_batch_coherence() const {
  // BatchQueue: forward iteration must visit exactly size() live entries,
  // every one an Unmapped task that arrived, and the expiry heap must hold
  // a (deadline, id) entry for each so the lazy reactive pass can never
  // miss an expiry. The heap may hold stale extras (lazy deletion), but
  // its backing store must still be a well-formed min-heap.
  std::size_t seen = 0;
  for (const TaskId id : batch_) {
    ++seen;
    if (!batch_.contains(id)) {
      audit::fail("batch iteration reached a non-live task " +
                  std::to_string(id));
    }
    const Task& task = tasks_[static_cast<std::size_t>(id)];
    if (task.state != TaskState::Unmapped) {
      audit::fail("batch task " + std::to_string(id) +
                  " is not in state Unmapped");
    }
    if (task.arrival > now_) {
      audit::fail("batch task " + std::to_string(id) +
                  " has not arrived yet");
    }
    if (!batch_expiry_.contains(task.deadline, id)) {
      audit::fail("batch task " + std::to_string(id) +
                  " has no expiry-heap entry — it could expire unnoticed");
    }
  }
  if (seen != batch_.size()) {
    audit::fail("batch size " + std::to_string(batch_.size()) +
                " disagrees with iteration count " + std::to_string(seen));
  }
  if (!batch_expiry_.is_heap()) {
    audit::fail("expiry heap lost the heap property");
  }
}

}  // namespace taskdrop
