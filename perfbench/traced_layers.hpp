#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "core/dropper.hpp"
#include "cost/cost_model.hpp"
#include "exp/experiment.hpp"
#include "online/online_scheduler.hpp"
#include "sched/mapper.hpp"

namespace perfbench {

class SpanRecorder;

/// The OnlineConfig an Engine built from `config` hands its scheduler, so
/// an in-process replay decides exactly as the recorded trial did.
taskdrop::OnlineConfig online_config_for(const taskdrop::ExperimentConfig& config);

/// Work counted at one decorated layer boundary.
struct LayerCounts {
  long long calls = 0;
  /// Work waiting at entry, summed over calls (mapper: unmapped tasks;
  /// dropper: pending tasks per machine).
  double depth_sum = 0.0;
  /// Useful outcomes (mapper: assignments; dropper: proactive drops).
  long long yield = 0;
};

/// Forwards every mutation to the scheduler's own SchedulerOps, counting
/// assignments and proactive drops.
class CountingOps final : public taskdrop::SchedulerOps {
 public:
  explicit CountingOps(taskdrop::SchedulerOps& inner) : inner_(inner) {}

  void assign_task(taskdrop::TaskId task, taskdrop::MachineId machine) override;
  void drop_queued_task(taskdrop::MachineId machine, std::size_t pos) override;
  void downgrade_task(taskdrop::MachineId machine, std::size_t pos) override;

  long long assigns = 0;
  long long drops = 0;

 private:
  taskdrop::SchedulerOps& inner_;
};

/// A registry Mapper wrapped in a `sched.map_tasks` span.
class TracedMapper final : public taskdrop::Mapper {
 public:
  TracedMapper(taskdrop::Mapper& inner, SpanRecorder& spans, LayerCounts& counts)
      : inner_(inner), spans_(spans), counts_(counts) {}

  std::string_view name() const override { return inner_.name(); }
  void map_tasks(taskdrop::SystemView& view, taskdrop::SchedulerOps& ops) override;
  std::string snapshot_state() const override { return inner_.snapshot_state(); }
  void restore_state(const std::string& state) override {
    inner_.restore_state(state);
  }

 private:
  taskdrop::Mapper& inner_;
  SpanRecorder& spans_;
  LayerCounts& counts_;
};

/// A registry Dropper wrapped in a `core.dropper_run` span.
class TracedDropper final : public taskdrop::Dropper {
 public:
  TracedDropper(taskdrop::Dropper& inner, SpanRecorder& spans, LayerCounts& counts)
      : inner_(inner), spans_(spans), counts_(counts) {}

  std::string_view name() const override { return inner_.name(); }
  void run(taskdrop::SystemView& view, taskdrop::SchedulerOps& ops) override;

 private:
  taskdrop::Dropper& inner_;
  SpanRecorder& spans_;
  LayerCounts& counts_;
};

/// run_trial with a span at every layer boundary: `exp.run_trial` (owned
/// by `owner`) over `workload.generate_trace`, `sim.engine_run` (mapper
/// and dropper calls inside it) and `metrics.compute`. Must return exactly
/// what run_trial returns for the same arguments; the traced run checks
/// that.
taskdrop::TrialMetrics traced_trial(const taskdrop::ExperimentConfig& config,
                                    const taskdrop::Scenario& scenario,
                                    const taskdrop::CostModel& cost_model,
                                    std::size_t trial, long long owner,
                                    SpanRecorder& spans,
                                    LayerCounts& mapper_counts,
                                    LayerCounts& dropper_counts,
                                    taskdrop::ReplayLog* replay = nullptr);

}  // namespace perfbench
