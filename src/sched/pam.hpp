#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sched/mapper.hpp"

namespace taskdrop {

/// Pruning-Aware Mapping (PAM) — section V-B3, from Gentry et al. [2].
///
/// Phase 1: for each unmapped task, find the free machine providing the
/// *highest chance of success* (Eq. 2 applied to the provisional queue
/// tail). Phase 2: among those pairs, map the single pair with the lowest
/// expected completion time; ties broken by the shortest expected execution
/// time. Rounds repeat until queues are full or the batch is depleted.
///
/// The original PAM also drops and defers with a predetermined threshold;
/// per section V-B3 deferring is disabled by default here (dropping is
/// supplied by whichever Dropper the experiment composes with the mapper).
/// Construct with `defer_threshold > 0` to restore Gentry et al.'s
/// deferring: a task whose best chance of success falls below the threshold
/// stays in the batch queue this round, waiting for a better slot — the
/// "PAMD" registry entry, ablated in bench/ablation_deferral.
///
/// Phase-2 floor. The phase-2 key depends only on the task's type and on
/// the machine phase 1 picks, so the lexicographically lowest key any free
/// machine offers a type — its floor — bounds the key of every candidate of
/// that type, whichever machine phase 1 would choose. Once a round has a
/// best pair, a candidate whose floor does not strictly beat it cannot
/// replace it, so its phase-1 chance probes are skipped; once the lowest
/// floor over all types stops beating it, no later candidate can win and
/// the scan ends. The floor and the key come from one helper with the same
/// strict comparison, and the skipped probes are pure memo reads, so the
/// pick is bit-identical to scanning every candidate. The floors are built
/// only when a round with a best pick reaches another candidate: a
/// one-task batch pays nothing for them.
class PamMapper final : public Mapper {
 public:
  explicit PamMapper(int candidate_window = 256, double defer_threshold = 0.0)
      : window_(candidate_window), defer_threshold_(defer_threshold) {}

  std::string_view name() const override {
    return defer_threshold_ > 0.0 ? "PAMD" : "PAM";
  }
  void map_tasks(SystemView& view, SchedulerOps& ops) override;

 private:
  /// Phase 2's key: expected completion, ties broken by expected execution
  /// time.
  struct Key {
    double completion = 0.0;
    double exec_mean = 0.0;
    bool beats(const Key& other) const {
      return completion < other.completion ||
             (completion == other.completion && exec_mean < other.exec_mean);
    }
  };
  struct Pick {
    TaskId task = -1;
    MachineId machine = -1;
    Key key;
  };

  /// The key of a task of `type` on `machine`. Both the floors and each
  /// candidate's key come from here, so they cannot drift apart.
  static Key key(SystemView& view, MachineId machine, TaskTypeId type);
  /// Phase 1 for one candidate, then its phase-2 key; nullopt when PAMD
  /// defers it.
  std::optional<Pick> evaluate(SystemView& view, TaskId id);
  /// Each type's floor over the free machines, and the lowest of them.
  void build_floors(SystemView& view);
  /// TASKDROP_AUDIT cross-check of a pruned candidate: at the sampled rate,
  /// evaluates it in full and fails if it would have beaten `best`.
  void audit_pruned(SystemView& view, TaskId id, const Pick& best,
                    std::uint64_t& counter);

  int window_;
  double defer_threshold_;
  /// Free-machine scratch reused across the rounds of a mapping event.
  std::vector<MachineId> free_machines_;
  /// Per-task-type floors of the current round, and their minimum.
  std::vector<Key> floors_;
  Key lowest_floor_;
  std::uint64_t audit_skip_counter_ = 0;
  std::uint64_t audit_stop_counter_ = 0;
};

}  // namespace taskdrop
