#include "core/proactive_heuristic_dropper.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace taskdrop {

ProactiveHeuristicDropper::ProactiveHeuristicDropper(Params params)
    : params_(params) {
  if (params_.effective_depth < 1) {
    throw std::invalid_argument(
        "heuristic dropper: eta must be >= 1, got " +
        std::to_string(params_.effective_depth));
  }
  if (params_.beta < 1.0) {
    throw std::invalid_argument("heuristic dropper: beta must be >= 1, got " +
                                std::to_string(params_.beta));
  }
}

void ProactiveHeuristicDropper::run(SystemView& view, SchedulerOps& ops) {
  assert(params_.effective_depth >= 1);
  assert(params_.beta >= 1.0);
  const auto eta = static_cast<std::size_t>(params_.effective_depth);

  examined_versions_.resize(view.machines->size(), ~std::uint64_t{0});

  for (Machine& machine : *view.machines) {
    CompletionModel& model = (*view.models)[static_cast<std::size_t>(machine.id)];
    auto& examined = examined_versions_[static_cast<std::size_t>(machine.id)];
    if (model.revision() == examined) continue;
    // Single head-to-tail pass (section IV-E). Confirming a drop shifts the
    // queue left, so the position index is *not* advanced after a drop: the
    // next unexamined task slides into the current position.
    std::size_t pos = machine.first_pending_pos();
    while (pos + 1 < machine.queue.size()) {  // last task: null influence zone
      const std::size_t window_end =
          std::min(pos + eta, machine.queue.size() - 1);

      // R_keep = sum_{n=i}^{i+eta} p_nj (right-hand side of Eq. 8).
      double keep_sum = 0.0;
      for (std::size_t n = pos; n <= window_end; ++n) keep_sum += model.chance(n);

      // R_drop = sum_{n=i+1}^{i+eta} p^(i)_nj: the same window, excluding
      // task i itself, with the chain re-rooted at i's predecessor
      // (Eqs. 4–6). The model's certified bracket lo <= R_drop <= hi
      // settles most windows without convolving; the provisional chain
      // runs only when the threshold falls inside it. Both are memoised
      // per position by the model.
      const double threshold = params_.beta * keep_sum;
      const auto [lo, hi] = model.dropped_window_bracket(pos, eta);
      bool drop = lo > threshold;
      if (!drop && hi > threshold) {
        drop = model.dropped_window_sum(pos, eta) > threshold;
      }

      if (drop) {
        ops.drop_queued_task(machine.id, pos);
        // Re-examine the task that just shifted into `pos`.
      } else {
        ++pos;
      }
    }
    // Record the post-pass revision (drops above already bumped it).
    examined = model.revision();
  }
}

}  // namespace taskdrop
