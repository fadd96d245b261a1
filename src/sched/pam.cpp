#include "sched/pam.hpp"

#include <string>

#include "util/audit.hpp"

namespace taskdrop {

void PamMapper::map_tasks(SystemView& view, SchedulerOps& ops) {
  for (;;) {
    mapper_detail::machines_with_free_slot(view, free_machines_);
    if (free_machines_.empty() || view.batch_queue->empty()) return;

    std::optional<Pick> best;
    bool floors_built = false;
    for (TaskId id : mapper_detail::candidate_window(view, window_)) {
      if (best) {
        if (!floors_built) {
          build_floors(view);
          floors_built = true;
        }
        if (!lowest_floor_.beats(best->key)) {
          audit_pruned(view, id, *best, audit_stop_counter_);
          break;
        }
        const auto type = static_cast<std::size_t>(view.task(id).type);
        if (!floors_[type].beats(best->key)) {
          audit_pruned(view, id, *best, audit_skip_counter_);
          continue;
        }
      }
      const std::optional<Pick> pick = evaluate(view, id);
      if (pick && (!best || pick->key.beats(best->key))) best = pick;
    }
    if (!best) return;
    ops.assign_task(best->task, best->machine);
  }
}

PamMapper::Key PamMapper::key(SystemView& view, MachineId machine,
                              TaskTypeId type) {
  const Machine& m = (*view.machines)[static_cast<std::size_t>(machine)];
  return {mapper_detail::expected_completion_mean(view, machine, type),
          view.pet->mean_execution(type, m.type)};
}

std::optional<PamMapper::Pick> PamMapper::evaluate(SystemView& view,
                                                   TaskId id) {
  const Task& task = view.task(id);
  // Phase 1: machine with the highest chance of success for this task.
  // chance_if_appended resolves through the revision-keyed appended-
  // distribution cache, so rescanning the window after each assignment
  // only re-folds the tail of the machine that actually changed.
  MachineId chance_machine = -1;
  double chance_best = -1.0;
  for (MachineId m : free_machines_) {
    CompletionModel& model = (*view.models)[static_cast<std::size_t>(m)];
    const double chance = model.chance_if_appended(task.type, task.deadline);
    if (chance > chance_best) {
      chance_best = chance;
      chance_machine = m;
    }
  }
  if (chance_machine < 0) return std::nullopt;
  // Deferring variant (PAMD): tasks unlikely to succeed anywhere stay in
  // the batch queue this round rather than wasting a machine slot.
  if (defer_threshold_ > 0.0 && chance_best < defer_threshold_) {
    return std::nullopt;
  }
  return Pick{id, chance_machine, key(view, chance_machine, task.type)};
}

void PamMapper::build_floors(SystemView& view) {
  floors_.resize(static_cast<std::size_t>(view.pet->task_type_count()));
  for (std::size_t type = 0; type < floors_.size(); ++type) {
    Key& floor = floors_[type];
    floor = key(view, free_machines_.front(), static_cast<TaskTypeId>(type));
    for (MachineId m : free_machines_) {
      const Key k = key(view, m, static_cast<TaskTypeId>(type));
      if (k.beats(floor)) floor = k;
    }
    if (type == 0 || floor.beats(lowest_floor_)) lowest_floor_ = floor;
  }
}

void PamMapper::audit_pruned(SystemView& view, TaskId id, const Pick& best,
                             std::uint64_t& counter) {
  if (!audit::due(counter)) return;
  const std::optional<Pick> pick = evaluate(view, id);
  if (pick && pick->key.beats(best.key)) {
    audit::fail("PAM phase-2 floor pruned task " + std::to_string(id) +
                ", which beats the round's best pick");
  }
}

}  // namespace taskdrop
