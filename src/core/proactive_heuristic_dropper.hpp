#pragma once

#include "core/dropper.hpp"

namespace taskdrop {

/// The paper's primary contribution: the autonomous proactive task-dropping
/// heuristic of section IV-E / Fig. 4.
///
/// In one head-to-tail pass per machine queue, each pending task i is
/// provisionally dropped and the chances of success of the next
/// `effective_depth` (eta) tasks are recomputed from task i's predecessor
/// (Eqs. 4–6). The drop is confirmed iff Eq. 8 holds:
///
///     sum_{n=i+1}^{i+eta} p^(i)_nj  >  beta * sum_{n=i}^{i+eta} p_nj
///
/// i.e. the robustness gained inside the effective depth of the influence
/// zone must outweigh the robustness lost by giving up task i, by at least
/// the robustness-improvement factor beta. beta -> infinity disables
/// proactive dropping; beta = 1 drops on any net improvement. The paper's
/// tuning experiments (Figs. 5 and 6) select eta = 2, beta = 1.
///
/// The running task is never dropped (no preemption, section III); the last
/// task of a queue has an empty influence zone and is skipped (section
/// IV-D). No user threshold is involved — the mechanism is autonomous.
///
/// The left-hand side is read as CompletionModel::dropped_window_bracket
/// first: cheap folds of the predecessor against the window's execution
/// CDFs bound the provisional chain's sum from both sides, rounding
/// included, and the Eqs. 4–6 walk (dropped_window_sum) runs only when
/// beta times the right-hand side falls inside that bracket. The exact sum
/// always lies inside it, so every decision equals the walk's.
class ProactiveHeuristicDropper final : public Dropper {
 public:
  struct Params {
    int effective_depth = 2;  ///< eta
    double beta = 1.0;        ///< robustness improvement factor (>= 1)
  };

  ProactiveHeuristicDropper() : params_() {}
  /// Throws std::invalid_argument for eta < 1 or beta < 1 (a real Release
  /// error path: DropperConfig can carry hand-built parameters that never
  /// went through from_spec's validation).
  explicit ProactiveHeuristicDropper(Params params);

  std::string_view name() const override { return "Heuristic"; }
  const Params& params() const { return params_; }

  void run(SystemView& view, SchedulerOps& ops) override;

 private:
  Params params_;
  /// Last examined CompletionModel::revision per machine. A queue
  /// whose structure is unchanged since the previous pass would yield the
  /// identical (no-drop) decision, so it is skipped — this is what keeps
  /// Fig. 4's every-mapping-event engagement cheap in steady state.
  std::vector<std::uint64_t> examined_versions_;
};

}  // namespace taskdrop
