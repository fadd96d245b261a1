#include "online/online_scheduler.hpp"

#include <stdexcept>
#include <string>

#include "pet/pet_builder.hpp"
#include "util/audit.hpp"

namespace taskdrop {
namespace {

CompletionModel::Options model_options(const OnlineConfig& config,
                                       const std::optional<PetMatrix>& approx) {
  CompletionModel::Options options;
  options.condition_running = config.condition_running;
  options.approx_pet = approx ? &*approx : nullptr;
  options.paranoid_rebuild = config.paranoid_invalidate;
  return options;
}

}  // namespace

OnlineScheduler::OnlineScheduler(const PetMatrix& pet,
                                 std::vector<MachineTypeId> machine_types,
                                 Mapper& mapper, Dropper& dropper,
                                 OnlineConfig config)
    : mapper_(mapper),
      dropper_(dropper),
      config_(config),
      approx_pet_(config.approx.enabled
                      ? std::optional<PetMatrix>(
                            scaled_pet(pet, config.approx.time_factor))
                      : std::nullopt),
      state_(pet, machine_types, config.queue_capacity, /*now=*/0,
             model_options(config, approx_pet_), config.approx.utility_weight),
      start_offered_(state_.machines().size(), TaskId{-1}) {}

void OnlineScheduler::check_clock(Tick t) const {
  if (t < state_.now()) {
    throw std::invalid_argument("time went backwards: t=" + std::to_string(t) +
                                " < now=" + std::to_string(state_.now()));
  }
}

std::size_t OnlineScheduler::pending_backlog() const {
  std::size_t backlog = state_.batch().size();
  for (const Machine& machine : state_.machines()) {
    backlog += machine.pending_count();
  }
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
    for (const Machine& machine : state_.machines()) {
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
  for (const TaskId id : state_.batch()) {
    const Tick deadline = state_.task(id).deadline;
    if (deadline < earliest) earliest = deadline;
  }
  return earliest;
}

const std::vector<Decision>& OnlineScheduler::task_arrived(
    Tick t, TaskTypeId type, Tick deadline, TaskId* out_id) {
  // Reject a non-monotone clock before registering, so a refused arrival
  // leaves the task table (and every later task id) untouched.
  check_clock(t);
  const TaskId id = state_.register_task(type, t, deadline);
  if (out_id != nullptr) *out_id = id;
  return task_arrived(t, id);
}

const std::vector<Decision>& OnlineScheduler::task_arrived(Tick t,
                                                           TaskId task) {
  check_clock(t);
  if (should_shed()) {
    // Admission refused: the task never enters the batch queue. The
    // arrival still triggers a mapping event (expiries must not wait for
    // the next admitted task), so the valve changes admission only.
    state_.shed(t, task);
    ++shed_count_;
  } else {
    state_.admit(t, task);
  }
  return mapping_event();
}

void OnlineScheduler::task_started(Tick t, MachineId machine, TaskId task,
                                   Tick duration) {
  check_clock(t);
  state_.start_head(t, machine, task, duration);
  start_offered_[static_cast<std::size_t>(machine)] = -1;
}

const std::vector<Decision>& OnlineScheduler::task_finished(
    Tick t, MachineId machine) {
  check_clock(t);
  if (state_.finish_running(t, machine)) deadline_miss_pending_ = true;
  return mapping_event();
}

const std::vector<Decision>& OnlineScheduler::machine_down(
    Tick t, MachineId machine) {
  check_clock(t);
  state_.fail_machine(t, machine);
  start_offered_[static_cast<std::size_t>(machine)] = -1;
  return mapping_event();
}

const std::vector<Decision>& OnlineScheduler::machine_up(Tick t,
                                                         MachineId machine) {
  check_clock(t);
  state_.recover_machine(t, machine);
  // Start offers for the recovered machine come out of the mapping event's
  // start pass, same as after any other event.
  return mapping_event();
}

const std::vector<Decision>& OnlineScheduler::advance(Tick t) {
  check_clock(t);
  state_.begin_event(t);
  return mapping_event();
}

bool OnlineScheduler::reactive_drop_pass() {
  bool any = false;
  const Tick now = state_.now();
  for (const Machine& machine : state_.machines()) {
    std::size_t pos = machine.first_pending_pos();
    while (pos < machine.queue.size()) {
      if (now >= state_.task(machine.queue[pos]).deadline) {
        state_.drop_reactive(machine.id, pos);
        any = true;
      } else {
        ++pos;
      }
    }
  }
  // Unmapped tasks whose deadlines passed can never start in time either.
  if (state_.expire_unmapped()) any = true;
  return any;
}

const std::vector<Decision>& OnlineScheduler::mapping_event() {
  ++mapping_events_;
  bool miss_noticed = deadline_miss_pending_;
  deadline_miss_pending_ = false;
  // Step 2 of Fig. 4: reactive drops come first.
  miss_noticed |= reactive_drop_pass();

  if (config_.engagement == DropperEngagement::EveryMappingEvent ||
      miss_noticed) {
    ++dropper_invocations_;
    dropper_.run(state_.view(), state_);
  }

  // Step 10 of Fig. 4: the mapping heuristic runs after the dropper.
  mapper_.map_tasks(state_.view(), state_);

  start_pass();

  if (audit::due(audit_counter_)) state_.audit_batch_coherence();
  return state_.decisions();
}

void OnlineScheduler::start_pass() {
  const Tick now = state_.now();
  for (const Machine& machine : state_.machines()) {
    while (machine.up && !machine.running && !machine.queue.empty()) {
      const Task& task = state_.task(machine.queue.front());
      if (now >= task.deadline) {
        // Could not start before its deadline: reactive drop (section IV-B).
        state_.drop_late_head(machine.id);
        deadline_miss_pending_ = true;
        continue;
      }
      // Offer the head to the environment. The scheduler keeps modelling it
      // as pending until task_started confirms; the latch keeps the offer
      // from repeating at every mapping event in between, and lapses on its
      // own when the offered head leaves the queue.
      TaskId& offered = start_offered_[static_cast<std::size_t>(machine.id)];
      if (offered != task.id) {
        state_.offer_start(machine.id);
        offered = task.id;
      }
      break;
    }
  }
}

}  // namespace taskdrop
