#include "sched/mapper.hpp"

#include <algorithm>

namespace taskdrop {
namespace mapper_detail {

std::vector<MachineId> machines_with_free_slot(const SystemView& view) {
  std::vector<MachineId> free;
  machines_with_free_slot(view, free);
  return free;
}

void machines_with_free_slot(const SystemView& view,
                             std::vector<MachineId>& out) {
  out.clear();
  for (const Machine& machine : *view.machines) {
    // Down machines (failure-injection extension) accept no assignments.
    if (machine.up && machine.has_free_slot()) out.push_back(machine.id);
  }
}

double expected_completion_mean(SystemView& view, MachineId machine,
                                TaskTypeId type) {
  const Machine& m = (*view.machines)[static_cast<std::size_t>(machine)];
  CompletionModel& model = (*view.models)[static_cast<std::size_t>(machine)];
  // tail_mean is memoised per machine revision, so a best-pair scan over a
  // deep candidate window costs one tail-PMF walk per *machine*, not one
  // per (task, machine) pair.
  return model.tail_mean() + view.pet->mean_execution(type, m.type);
}

std::vector<CandidatePair> min_completion_pairs(
    SystemView& view, const std::vector<MachineId>& free_machines,
    int window) {
  std::vector<CandidatePair> pairs;
  for (TaskId id : candidate_window(view, window)) {
    const Task& task = view.task(id);
    CandidatePair best;
    for (MachineId m : free_machines) {
      const double ect = expected_completion_mean(view, m, task.type);
      if (best.machine < 0 || ect < best.expected_completion) {
        best = CandidatePair{id, m, ect};
      }
    }
    if (best.machine >= 0) pairs.push_back(best);
  }
  return pairs;
}

}  // namespace mapper_detail
}  // namespace taskdrop
