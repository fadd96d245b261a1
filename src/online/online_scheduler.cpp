#include "online/online_scheduler.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "pet/pet_builder.hpp"
#include "util/audit.hpp"

namespace taskdrop {

OnlineScheduler::OnlineScheduler(const PetMatrix& pet,
                                 std::vector<MachineTypeId> machine_types,
                                 Mapper& mapper, Dropper& dropper,
                                 OnlineConfig config)
    : pet_(pet), mapper_(mapper), dropper_(dropper), config_(config) {
  if (machine_types.empty()) {
    throw std::invalid_argument("OnlineScheduler: empty fleet");
  }
  if (config_.queue_capacity < 1) {
    throw std::invalid_argument("OnlineScheduler: queue capacity must be >= 1");
  }
  if (config_.approx.enabled) {
    approx_pet_.emplace(scaled_pet(pet_, config_.approx.time_factor));
  }

  machines_.reserve(machine_types.size());
  for (std::size_t m = 0; m < machine_types.size(); ++m) {
    machines_.emplace_back(static_cast<MachineId>(m), machine_types[m],
                           config_.queue_capacity);
  }
  start_offered_.assign(machines_.size(), TaskId{-1});

  // Models bind to stable storage: machines_ is fully sized here and never
  // reallocates; tasks_ is referenced through the vector object (not its
  // data), so task storage may grow on demand.
  CompletionModel::Options options;
  options.condition_running = config_.condition_running;
  options.approx_pet = approx_pet_ ? &*approx_pet_ : nullptr;
  options.paranoid_rebuild = config_.paranoid_invalidate;
  models_.reserve(machines_.size());
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    models_.emplace_back(&pet_, &machines_[m], &tasks_, options, &model_ws_);
  }

  view_ = SystemView{0,
                     &pet_,
                     approx_pet_ ? &*approx_pet_ : nullptr,
                     config_.approx.utility_weight,
                     &tasks_,
                     &machines_,
                     &models_,
                     &batch_};
}

void OnlineScheduler::reserve_tasks(std::size_t task_count) {
  tasks_.reserve(task_count);
  if (tasks_.empty() && batch_.empty()) batch_.reset(task_count);
}

TaskId OnlineScheduler::register_task(TaskTypeId type, Tick arrival,
                                      Tick deadline) {
  Task task;
  task.id = static_cast<TaskId>(tasks_.size());
  task.type = type;
  task.arrival = arrival;
  task.deadline = deadline;
  tasks_.push_back(task);
  return task.id;
}

void OnlineScheduler::check_clock(Tick t) const {
  if (t < now_) {
    throw std::invalid_argument(
        "OnlineScheduler: clock must be monotone (got t=" + std::to_string(t) +
        " after now=" + std::to_string(now_) + ")");
  }
}

Machine& OnlineScheduler::checked_machine(MachineId id, const char* callback) {
  if (id < 0 || static_cast<std::size_t>(id) >= machines_.size()) {
    throw std::invalid_argument(std::string("OnlineScheduler: ") + callback +
                                " on machine " + std::to_string(id) +
                                " outside the fleet of " +
                                std::to_string(machines_.size()));
  }
  return machines_[static_cast<std::size_t>(id)];
}

void OnlineScheduler::advance_clock(Tick t) {
  check_clock(t);
  now_ = t;
  view_.now = t;
  // set_now early-returns when `now` is unchanged, so calling it on every
  // callback reproduces the engine's per-event set_now exactly.
  for (CompletionModel& model : models_) model.set_now(t);
}

std::size_t OnlineScheduler::pending_backlog() const {
  std::size_t backlog = batch_.size();
  for (const Machine& machine : machines_) backlog += machine.pending_count();
  return backlog;
}

bool OnlineScheduler::should_shed() const {
  const ShedPolicy& shed = config_.shed;
  if (!shed.active()) return false;
  if (shed.total_pending_watermark > 0 &&
      pending_backlog() >=
          static_cast<std::size_t>(shed.total_pending_watermark)) {
    return true;
  }
  if (shed.machine_backlog_watermark > 0) {
    // Shed only when no up machine has headroom below the watermark — a
    // single lightly loaded machine is enough to admit. A fleet with no up
    // machine at all counts as fully backlogged.
    bool any_headroom = false;
    for (const Machine& machine : machines_) {
      if (machine.up &&
          machine.pending_count() <
              static_cast<std::size_t>(shed.machine_backlog_watermark)) {
        any_headroom = true;
        break;
      }
    }
    if (!any_headroom) return true;
  }
  return false;
}

Tick OnlineScheduler::earliest_unmapped_deadline() const {
  Tick earliest = kNeverTick;
  for (const TaskId id : batch_) {
    const Tick deadline = tasks_[static_cast<std::size_t>(id)].deadline;
    if (deadline < earliest) earliest = deadline;
  }
  return earliest;
}

void OnlineScheduler::emit(DecisionKind kind, TaskId task, MachineId machine) {
  decisions_.push_back(Decision{kind, now_, task, machine});
}

const std::vector<Decision>& OnlineScheduler::task_arrived(Tick t,
                                                           TaskTypeId type,
                                                           Tick deadline,
                                                           TaskId* out_id) {
  // Reject a non-monotone clock before registering, so a refused arrival
  // leaves the task table (and every later task id) untouched.
  check_clock(t);
  const TaskId id = register_task(type, t, deadline);
  if (out_id != nullptr) *out_id = id;
  return task_arrived(t, id);
}

const std::vector<Decision>& OnlineScheduler::task_arrived(Tick t,
                                                           TaskId task_id) {
  advance_clock(t);
  decisions_.clear();
  Task& task = tasks_[static_cast<std::size_t>(task_id)];
  assert(task.state == TaskState::Unmapped);
  assert(task.arrival <= t && "announced before its registered arrival");
  if (should_shed()) {
    // Admission refused: the task never enters the batch queue. The
    // arrival still triggers a mapping event (expiries must not wait for
    // the next admitted task), so the valve changes admission only.
    task.state = TaskState::DroppedProactive;
    task.drop_time = now_;
    ++shed_count_;
    emit(DecisionKind::ShedOverload, task_id, -1);
    mapping_event();
    return decisions_;
  }
  batch_.push_back(task_id);
  batch_expiry_.push(task.deadline, task_id);
  mapping_event();
  return decisions_;
}

void OnlineScheduler::task_started(Tick t, MachineId machine_id, TaskId task_id,
                                   Tick duration) {
  Machine& machine = checked_machine(machine_id, "task_started");
  advance_clock(t);
  assert(machine.up && "a down machine cannot start a task");
  assert(!machine.running && "machine already has a running task");
  assert(!machine.queue.empty() && machine.queue.front() == task_id &&
         "only the queue head can start");
  Task& task = tasks_[static_cast<std::size_t>(task_id)];
  assert(task.state == TaskState::Queued);
  assert(now_ < task.deadline && "a late head must be dropped, not started");
  task.state = TaskState::Running;
  task.start_time = now_;
  if (duration >= 0) task.actual_execution = duration;
  machine.running = true;
  machine.run_start = now_;
  machine.run_end = duration >= 0 ? now_ + duration : kNeverTick;
  ++machine.run_token;
  start_offered_[static_cast<std::size_t>(machine_id)] = -1;
  // The cached chain stays valid bit for bit whenever the head starts at
  // run_start == now strictly before its deadline (asserted above): the
  // running completion delta(run_start) (x) exec equals the cached pending
  // chain rooted at base = delta(now) — the deadline truncation was
  // vacuous — and if time advanced since the chain was last rooted (an
  // idle gap on a volatile machine, a delayed live-mode confirmation),
  // advance_clock's set_now already rebased this idle machine's chain.
  // notify_head_started keeps the chain in that case and bumps the
  // revision so the droppers' re-examination is scheduled exactly as the
  // rebuild used to; it falls back to the full invalidate itself when
  // conditioning is on (normalize rescales slot 0 even when nothing is
  // stripped) or the keep precondition fails. This retires the blanket
  // invalidate that made every start under failure injection pay a full
  // queue-chain rebuild — the main convolution source in steady state.
  models_[static_cast<std::size_t>(machine_id)].notify_head_started(
      task.deadline);
}

const std::vector<Decision>& OnlineScheduler::task_finished(Tick t,
                                                            MachineId
                                                                machine_id) {
  // Validated before the clock moves, so a rejected finish changes nothing.
  // Finishing an idle machine used to pop an empty queue, and finishing one
  // whose head was only offered a start marked that head finished.
  Machine& machine = checked_machine(machine_id, "task_finished");
  if (!machine.running) {
    throw std::invalid_argument("OnlineScheduler: task_finished on machine " +
                                std::to_string(machine_id) +
                                ", which has no running task");
  }
  advance_clock(t);
  decisions_.clear();
  assert((machine.run_end == kNeverTick || machine.run_end == now_) &&
         "finish time disagrees with the announced duration");
  Task& task = tasks_[static_cast<std::size_t>(machine.queue.front())];
  task.finish_time = now_;
  if (now_ < task.deadline) {
    task.state = TaskState::CompletedOnTime;
    emit(DecisionKind::FinishOnTime, task.id, machine_id);
  } else {
    task.state = TaskState::CompletedLate;
    emit(DecisionKind::FinishLate, task.id, machine_id);
    deadline_miss_pending_ = true;
  }
  machine.busy_ticks += now_ - machine.run_start;
  machine.queue.pop_front();
  machine.running = false;
  machine.run_end = kNeverTick;
  models_[static_cast<std::size_t>(machine_id)].invalidate_all();
  mapping_event();
  return decisions_;
}

const std::vector<Decision>& OnlineScheduler::machine_down(Tick t,
                                                           MachineId
                                                               machine_id) {
  Machine& machine = checked_machine(machine_id, "machine_down");
  advance_clock(t);
  decisions_.clear();
  assert(machine.up && "machine is already down");
  machine.up = false;
  start_offered_[static_cast<std::size_t>(machine_id)] = -1;
  if (machine.running) {
    Task& task = tasks_[static_cast<std::size_t>(machine.queue.front())];
    task.state = TaskState::LostToFailure;
    task.drop_time = now_;
    emit(DecisionKind::LostToFailure, task.id, machine_id);
    // The partially executed time was still paid for.
    machine.busy_ticks += now_ - machine.run_start;
    machine.queue.pop_front();
    machine.running = false;
    machine.run_end = kNeverTick;
    ++machine.run_token;  // invalidates any scheduled completion
    models_[static_cast<std::size_t>(machine_id)].invalidate_all();
  }
  mapping_event();
  return decisions_;
}

const std::vector<Decision>& OnlineScheduler::machine_up(Tick t,
                                                         MachineId
                                                             machine_id) {
  Machine& machine = checked_machine(machine_id, "machine_up");
  advance_clock(t);
  decisions_.clear();
  assert(!machine.up && "machine is already up");
  machine.up = true;
  // Start offers for the recovered machine come out of the mapping event's
  // start pass, same as after any other event.
  mapping_event();
  return decisions_;
}

const std::vector<Decision>& OnlineScheduler::advance(Tick t) {
  advance_clock(t);
  decisions_.clear();
  mapping_event();
  return decisions_;
}

bool OnlineScheduler::reactive_drop_pass() {
  bool any = false;
  for (Machine& machine : machines_) {
    std::size_t pos = machine.first_pending_pos();
    while (pos < machine.queue.size()) {
      Task& task = tasks_[static_cast<std::size_t>(machine.queue[pos])];
      if (now_ >= task.deadline) {
        task.state = TaskState::DroppedReactive;
        task.drop_time = now_;
        emit(DecisionKind::DropReactive, task.id, machine.id);
        machine.remove_at(pos);
        models_[static_cast<std::size_t>(machine.id)].invalidate_from(pos);
        any = true;
      } else {
        ++pos;
      }
    }
  }
  // Unmapped tasks whose deadlines passed can never start in time either.
  // The expiry heap hands them over directly; entries whose task was
  // assigned (and so left the batch) in the meantime are skipped.
  while (!batch_expiry_.empty() && batch_expiry_.top().first <= now_) {
    const TaskId id = batch_expiry_.top().second;
    batch_expiry_.pop();
    if (!batch_.contains(id)) continue;
    Task& task = tasks_[static_cast<std::size_t>(id)];
    task.state = TaskState::DroppedReactive;
    task.drop_time = now_;
    emit(DecisionKind::ExpireUnmapped, task.id, -1);
    batch_.remove(id);
    any = true;
  }
  return any;
}

void OnlineScheduler::mapping_event() {
  ++mapping_events_;
  bool miss_noticed = deadline_miss_pending_;
  deadline_miss_pending_ = false;
  // Step 2 of Fig. 4: reactive drops come first.
  miss_noticed |= reactive_drop_pass();

  if (config_.engagement == DropperEngagement::EveryMappingEvent ||
      miss_noticed) {
    ++dropper_invocations_;
    dropper_.run(view_, *this);
  }

  // Step 10 of Fig. 4: the mapping heuristic runs after the dropper.
  mapper_.map_tasks(view_, *this);

  start_pass();

  if (audit::due(audit_counter_)) audit_batch_coherence();
}

void OnlineScheduler::start_pass() {
  for (Machine& machine : machines_) {
    while (machine.up && !machine.running && !machine.queue.empty()) {
      Task& task = tasks_[static_cast<std::size_t>(machine.queue.front())];
      if (now_ >= task.deadline) {
        // Could not start before its deadline: reactive drop (section IV-B).
        task.state = TaskState::DroppedReactive;
        task.drop_time = now_;
        emit(DecisionKind::DropReactive, task.id, machine.id);
        machine.queue.pop_front();
        models_[static_cast<std::size_t>(machine.id)].invalidate_all();
        deadline_miss_pending_ = true;
        continue;
      }
      // Offer the head to the environment. The scheduler keeps modelling it
      // as pending until task_started confirms; the latch keeps the offer
      // from repeating at every mapping event in between, and lapses on its
      // own when the offered head leaves the queue.
      if (start_offered_[static_cast<std::size_t>(machine.id)] != task.id) {
        emit(DecisionKind::Start, task.id, machine.id);
        start_offered_[static_cast<std::size_t>(machine.id)] = task.id;
      }
      break;
    }
  }
}

void OnlineScheduler::assign_task(TaskId task_id, MachineId machine_id) {
  Machine& machine = machines_[static_cast<std::size_t>(machine_id)];
  Task& task = tasks_[static_cast<std::size_t>(task_id)];
  assert(task.state == TaskState::Unmapped);
  assert(machine.has_free_slot());
  assert(machine.up && "down machines accept no assignments");
  assert(batch_.contains(task_id) && "task must come from the batch queue");
  batch_.remove(task_id);
  task.state = TaskState::Queued;
  task.machine = machine_id;
  machine.enqueue(task_id);
  emit(DecisionKind::Assign, task_id, machine_id);
  models_[static_cast<std::size_t>(machine_id)].invalidate_from(
      machine.queue.size() - 1);
}

void OnlineScheduler::drop_queued_task(MachineId machine_id, std::size_t pos) {
  Machine& machine = machines_[static_cast<std::size_t>(machine_id)];
  assert(pos >= machine.first_pending_pos() && pos < machine.queue.size());
  Task& task = tasks_[static_cast<std::size_t>(machine.queue[pos])];
  assert(task.state == TaskState::Queued);
  task.state = TaskState::DroppedProactive;
  task.drop_time = now_;
  emit(DecisionKind::DropProactive, task.id, machine_id);
  machine.remove_at(pos);
  models_[static_cast<std::size_t>(machine_id)].invalidate_from(pos);
}

void OnlineScheduler::downgrade_task(MachineId machine_id, std::size_t pos) {
  Machine& machine = machines_[static_cast<std::size_t>(machine_id)];
  assert(pos >= machine.first_pending_pos() && pos < machine.queue.size());
  Task& task = tasks_[static_cast<std::size_t>(machine.queue[pos])];
  assert(task.state == TaskState::Queued);
  if (task.approximate) return;
  task.approximate = true;
  emit(DecisionKind::Downgrade, task.id, machine_id);
  models_[static_cast<std::size_t>(machine_id)].invalidate_from(pos);
}

void OnlineScheduler::audit_batch_coherence() const {
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
