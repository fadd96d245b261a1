#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/context.hpp"

namespace taskdrop {

/// A batch-mode mapping heuristic (Fig. 1's Mapper). Invoked at each
/// mapping event after the dropping mechanism; assigns unmapped tasks from
/// the batch queue to free machine-queue slots through `ops`.
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual std::string_view name() const = 0;
  virtual void map_tasks(SystemView& view, SchedulerOps& ops) = 0;

  /// Decision-relevant state the mapper carries across mapping events,
  /// rendered as one whitespace-free token for the online snapshot
  /// subsystem (online/snapshot.hpp). Most mappers are stateless between
  /// events (their scratch vectors and skip-memos are derived state) and
  /// return "" — only state that changes future decisions belongs here
  /// (e.g. RoundRobinMapper's cyclic dealing position).
  virtual std::string snapshot_state() const { return {}; }

  /// Restores a token produced by snapshot_state. The default accepts only
  /// the empty token: handing non-empty state to a stateless mapper means
  /// the snapshot was taken with a different mapper.
  virtual void restore_state(const std::string& state) {
    if (!state.empty()) {
      throw std::invalid_argument("mapper " + std::string(name()) +
                                  " carries no cross-event state, got '" +
                                  state + "'");
    }
  }
};

namespace mapper_detail {

/// Machines that currently have a free machine-queue slot.
std::vector<MachineId> machines_with_free_slot(const SystemView& view);

/// Allocation-free variant: refills `out` (mappers keep one scratch vector
/// across the many rounds of a mapping event).
void machines_with_free_slot(const SystemView& view,
                             std::vector<MachineId>& out);

/// Expected completion time of a task of `type` if appended to `machine`'s
/// queue: mean of the queue-tail completion PMF plus the mean execution
/// time of the task type on that machine type (means are additive under
/// convolution). This is the "expected completion time" both phases of
/// MinMin/MSD/PAM rank by.
double expected_completion_mean(SystemView& view, MachineId machine,
                                TaskTypeId type);

/// Allocation-free range over the first `window` unmapped tasks — the
/// candidate set every phase-1 scan walks, often several times per mapping
/// event. The cap bounds per-event mapping cost under extreme
/// oversubscription; with the paper's parameters the batch rarely exceeds
/// it (stale tasks are reactively dropped as their deadlines pass).
class CandidateWindow {
 public:
  class iterator {
   public:
    iterator(const BatchQueue* batch, TaskId at, int remaining)
        : batch_(batch), at_(at), remaining_(remaining) {}
    TaskId operator*() const { return at_; }
    iterator& operator++() {
      at_ = batch_->next(at_);
      --remaining_;
      return *this;
    }
    /// Exhausted the window cap or walked off the batch tail.
    bool done() const { return remaining_ <= 0 || at_ < 0; }
    bool operator!=(const iterator& other) const {
      if (done() || other.done()) return done() != other.done();
      return at_ != other.at_;
    }

   private:
    const BatchQueue* batch_;
    TaskId at_;
    int remaining_;
  };

  CandidateWindow(const BatchQueue& batch, int window)
      : batch_(&batch), window_(window) {}
  iterator begin() const { return {batch_, batch_->front(), window_}; }
  iterator end() const { return {batch_, -1, 0}; }

 private:
  const BatchQueue* batch_;
  int window_;
};

inline CandidateWindow candidate_window(const SystemView& view, int window) {
  return {*view.batch_queue, window};
}

/// One provisional task->machine pair from the first phase of a two-phase
/// heuristic.
struct CandidatePair {
  TaskId task = -1;
  MachineId machine = -1;
  double expected_completion = 0.0;
};

/// First phase shared by MinMin and MSD: for every candidate task, the free
/// machine offering the minimum expected completion time.
std::vector<CandidatePair> min_completion_pairs(
    SystemView& view, const std::vector<MachineId>& free_machines, int window);

}  // namespace mapper_detail
}  // namespace taskdrop
