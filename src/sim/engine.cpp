#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace taskdrop {
namespace {

/// TaskCompletion events pack (machine, run token) so completions scheduled
/// for a run that a failure killed can be recognised as stale.
constexpr std::int64_t kTokenShift = 20;

std::int64_t pack_completion(MachineId machine, std::uint32_t token) {
  return static_cast<std::int64_t>(machine) +
         (static_cast<std::int64_t>(token) << kTokenShift);
}

MachineId unpack_machine(std::int64_t payload) {
  return static_cast<MachineId>(payload & ((std::int64_t{1} << kTokenShift) - 1));
}

std::uint32_t unpack_token(std::int64_t payload) {
  return static_cast<std::uint32_t>(payload >> kTokenShift);
}

}  // namespace

Engine::Engine(const PetMatrix& pet, std::vector<MachineTypeId> machine_types,
               Mapper& mapper, Dropper& dropper, EngineConfig config)
    : pet_(pet),
      machine_type_of_(std::move(machine_types)),
      mapper_(mapper),
      dropper_(dropper),
      config_(config),
      exec_rng_(config.exec_seed),
      failure_rng_(config.failures.seed) {}

void Engine::reset(const Trace& trace) {
  live_tasks_ = static_cast<long long>(trace.size());
  exec_rng_.reseed(config_.exec_seed);
  failure_rng_.reseed(config_.failures.seed);
  events_ = EventQueue();

  OnlineConfig online;
  online.queue_capacity = config_.queue_capacity;
  online.engagement = config_.engagement;
  online.condition_running = config_.condition_running;
  online.volatile_machines = config_.failures.enabled;
  online.paranoid_invalidate = config_.paranoid_invalidate;
  online.approx = config_.approx;
  sched_.emplace(pet_, machine_type_of_, mapper_, dropper_, online);
  sched_->reserve_tasks(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TaskId id =
        sched_->register_task(trace[i].type, trace[i].arrival,
                              trace[i].deadline);
    events_.push(trace[i].arrival, EventKind::TaskArrival, id);
  }

  if (replay_ != nullptr) {
    replay_->tasks = trace;
    replay_->events.clear();
    replay_->decisions.clear();
  }

  if (config_.failures.enabled && live_tasks_ > 0) {
    for (MachineId m = 0; m < static_cast<MachineId>(machine_type_of_.size());
         ++m) {
      schedule_next_failure(m, 0);
    }
  }
}

void Engine::schedule_next_failure(MachineId machine, Tick now) {
  if (!config_.failures.enabled || live_tasks_ <= 0) return;
  const double up_time =
      failure_rng_.exponential(config_.failures.mean_time_between_failures);
  events_.push(now + std::max<Tick>(1, std::llround(up_time)),
               EventKind::MachineFailure, machine);
}

void Engine::record(ReplayEvent::Kind kind, Tick time, TaskId task,
                    MachineId machine, Tick duration) {
  if (replay_ == nullptr) return;
  replay_->events.push_back(ReplayEvent{kind, time, task, machine, duration});
}

SimResult Engine::run(const Trace& trace) {
  reset(trace);

  while (!events_.empty()) {
    const Event event = events_.pop();
    const Tick t = event.time;
    switch (event.kind) {
      case EventKind::TaskArrival: {
        const TaskId task = static_cast<TaskId>(event.payload);
        record(ReplayEvent::Kind::Arrive, t, task);
        apply_decisions(t, sched_->task_arrived(t, task));
        break;
      }
      case EventKind::TaskCompletion: {
        const MachineId m = unpack_machine(event.payload);
        const Machine& machine = sched_->machine(m);
        if (!machine.running || machine.run_token != unpack_token(event.payload)) {
          // Stale: the run this completion belonged to was interrupted. The
          // popped event still advances time and triggers a mapping event.
          record(ReplayEvent::Kind::Advance, t);
          apply_decisions(t, sched_->advance(t));
        } else {
          record(ReplayEvent::Kind::Finish, t, -1, m);
          apply_decisions(t, sched_->task_finished(t, m));
        }
        break;
      }
      case EventKind::MachineFailure: {
        const MachineId m = static_cast<MachineId>(event.payload);
        if (!sched_->machine(m).up) {
          // Already down (stale failure): no repair is scheduled.
          record(ReplayEvent::Kind::Advance, t);
          apply_decisions(t, sched_->advance(t));
        } else {
          // The repair draw and the recovery push come before the callback;
          // machine_down itself pushes no events and draws nothing, so the
          // event sequence numbers match the pre-refactor engine's.
          const double repair =
              failure_rng_.exponential(config_.failures.mean_time_to_repair);
          events_.push(t + std::max<Tick>(1, std::llround(repair)),
                       EventKind::MachineRecovery, m);
          record(ReplayEvent::Kind::Down, t, -1, m);
          apply_decisions(t, sched_->machine_down(t, m));
        }
        break;
      }
      case EventKind::MachineRecovery: {
        const MachineId m = static_cast<MachineId>(event.payload);
        // The next-failure draw reads live_tasks_ before the mapping event
        // the recovery triggers, matching the pre-refactor order.
        schedule_next_failure(m, t);
        record(ReplayEvent::Kind::Up, t, -1, m);
        apply_decisions(t, sched_->machine_up(t, m));
        break;
      }
      case EventKind::MappingWakeup: {
        record(ReplayEvent::Kind::Advance, t);
        apply_decisions(t, sched_->advance(t));
        break;
      }
    }
    if (events_.empty() && sched_->unmapped_count() > 0) {
      // A deferring mapper (e.g. PAMD) left unmapped tasks behind and no
      // future event would ever reconsider or expire them. Wake up at the
      // earliest remaining deadline: reactive dropping then retires at
      // least that task, so the simulation always drains. (Batch tasks
      // with passed deadlines were already dropped by this mapping event,
      // so the wakeup time is strictly in the future.)
      events_.push(sched_->earliest_unmapped_deadline(),
                   EventKind::MappingWakeup, -1);
    }
  }

  SimResult result;
  result.busy_ticks.reserve(sched_->machines().size());
  result.machine_types = machine_type_of_;
  for (const Machine& machine : sched_->machines()) {
    result.busy_ticks.push_back(machine.busy_ticks);
    assert(machine.queue.empty() && "system must drain to idle");
  }
  result.makespan = sched_->now();
  result.mapping_events = sched_->mapping_events();
  result.dropper_invocations = sched_->dropper_invocations();
  result.tasks = sched_->take_tasks();
  return result;
}

void Engine::apply_decisions(Tick t, const std::vector<Decision>& decisions) {
  for (const Decision& decision : decisions) {
    if (decision.kind == DecisionKind::Start) {
      // Confirm the offer: sample the ground-truth duration (a secret the
      // scheduler never learns for its decisions) and schedule completion.
      // Start decisions arrive in machine-ascending order, so the sampling
      // stream consumes draws exactly as the pre-refactor start loop did.
      const Task& task = sched_->task(decision.task);
      const Machine& machine = sched_->machine(decision.machine);
      const PetMatrix& source = task.approximate && sched_->approx_pet()
                                    ? *sched_->approx_pet()
                                    : pet_;
      const Tick duration =
          source.sampler(task.type, machine.type).sample(exec_rng_);
      record(ReplayEvent::Kind::Start, t, decision.task, decision.machine,
             duration);
      sched_->task_started(t, decision.machine, decision.task, duration);
      events_.push(t + duration, EventKind::TaskCompletion,
                   pack_completion(decision.machine, machine.run_token));
    } else if (is_terminal(decision.kind)) {
      --live_tasks_;
    }
    if (replay_ != nullptr) replay_->decisions.push_back(decision);
  }
}

}  // namespace taskdrop
