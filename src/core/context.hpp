#pragma once

#include <vector>

#include "core/completion_model.hpp"
#include "pet/pet_matrix.hpp"
#include "sim/batch_queue.hpp"
#include "sim/machine.hpp"
#include "sim/task.hpp"
#include "util/time_types.hpp"

namespace taskdrop {

/// Read view of the whole resource-allocation system handed to mapping
/// heuristics and dropping mechanisms at each mapping event. All pointers
/// reference engine-owned storage that outlives the call.
struct SystemView {
  Tick now = 0;
  const PetMatrix* pet = nullptr;
  /// Approximate-computing extension: the time-scaled PET used for tasks
  /// running in approximate mode. Null when the extension is disabled.
  const PetMatrix* approx_pet = nullptr;
  /// Utility weight of an on-time approximate completion (vs 1.0 for full).
  double approx_weight = 0.5;
  std::vector<Task>* tasks = nullptr;
  std::vector<Machine>* machines = nullptr;
  /// One completion model per machine, same indexing as `machines`.
  std::vector<CompletionModel>* models = nullptr;
  /// Unmapped tasks in arrival order (the batch queue of Fig. 1).
  const BatchQueue* batch_queue = nullptr;

  Task& task(TaskId id) const { return (*tasks)[static_cast<std::size_t>(id)]; }
};

/// Mutation interface implemented by SystemState (src/online). Mappers and
/// droppers act on the system only through these operations, which keep
/// queues, task states and completion models consistent and throw
/// std::invalid_argument, changing nothing, on a broken precondition.
class SchedulerOps {
 public:
  virtual ~SchedulerOps() = default;

  /// Moves an unmapped task from the batch queue to the tail of the given
  /// machine's queue. The machine must have a free slot.
  virtual void assign_task(TaskId task, MachineId machine) = 0;

  /// Proactively drops the pending task at queue position `pos` of
  /// `machine` (must not be the running position).
  virtual void drop_queued_task(MachineId machine, std::size_t pos) = 0;

  /// Approximate-computing extension: switches the pending task at `pos`
  /// to approximate mode (time-scaled execution, partial utility). Must not
  /// be the running position; a no-op if the task is already approximate.
  virtual void downgrade_task(MachineId machine, std::size_t pos) = 0;
};

}  // namespace taskdrop
