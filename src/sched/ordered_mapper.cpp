#include "sched/ordered_mapper.hpp"

namespace taskdrop {

void OrderedMapper::map_tasks(SystemView& view, SchedulerOps& ops) {
  for (;;) {
    mapper_detail::machines_with_free_slot(view, free_machines_);
    const auto& free_machines = free_machines_;
    if (free_machines.empty() || view.batch_queue->empty()) return;

    // Highest-priority candidate (batch order breaks ties, so equal keys
    // resolve to first-come first-serve).
    TaskId best_task = -1;
    double best_key = 0.0;
    for (TaskId id : mapper_detail::candidate_window(view, window_)) {
      const double key = priority_key(view, view.task(id));
      if (best_task < 0 || key < best_key) {
        best_task = id;
        best_key = key;
      }
    }
    if (best_task < 0) return;

    // Least-loaded free machine by expected queue-tail completion.
    MachineId best_machine = -1;
    double best_completion = 0.0;
    for (MachineId m : free_machines) {
      const double ect = mapper_detail::expected_completion_mean(
          view, m, view.task(best_task).type);
      if (best_machine < 0 || ect < best_completion) {
        best_machine = m;
        best_completion = ect;
      }
    }
    ops.assign_task(best_task, best_machine);
  }
}

}  // namespace taskdrop
