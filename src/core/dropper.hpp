#pragma once

#include <string_view>

#include "core/context.hpp"

namespace taskdrop {

/// When the engine invokes the dropping mechanism (section V-A vs Fig. 4 —
/// see DESIGN.md).
enum class DropperEngagement {
  /// Fig. 4's pseudo-code: run at every mapping event. This is the default;
  /// it reproduces section V-F's low reactive-drop share (the dropper keeps
  /// machine queues pruned continuously).
  EveryMappingEvent,
  /// "Task dropping mechanism is engaged each time a system notices a task
  /// missing its deadline" (section V-A): run only at mapping events where a
  /// deadline miss (reactive drop or late completion) was observed. Cheaper
  /// but lets queues clog between misses — ablated in
  /// specs/ablation_engagement.sweep.
  OnDeadlineMiss,
};

/// A task-dropping mechanism. Runs during a mapping event, after reactive
/// deadline drops and before the mapping heuristic (Fig. 1's Task Dropper
/// cooperating with the Mapper). Implementations inspect machine queues via
/// the completion models and request drops through `ops`.
class Dropper {
 public:
  virtual ~Dropper() = default;
  virtual std::string_view name() const = 0;
  virtual void run(SystemView& view, SchedulerOps& ops) = 0;
};

}  // namespace taskdrop
