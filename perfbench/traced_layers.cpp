#include "traced_layers.hpp"

#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using namespace taskdrop;

namespace {

/// The EngineConfig run_trial builds for trial `trial` of `config`.
EngineConfig engine_config_for(const ExperimentConfig& config,
                               std::size_t trial) {
  EngineConfig engine;
  engine.queue_capacity = config.queue_capacity;
  engine.engagement = config.engagement;
  engine.condition_running = config.condition_running;
  engine.paranoid_invalidate = config.paranoid_invalidate;
  engine.exec_seed = Rng::derive(config.seed, 1000 + trial)();
  engine.failures = config.failures;
  engine.failures.seed = Rng::derive(config.seed, 2000 + trial)();
  engine.approx = config.approx;
  if (config.dropper.kind == DropperConfig::Kind::Approx) {
    engine.approx.enabled = true;
  }
  return engine;
}

}  // namespace

OnlineConfig online_config_for(const ExperimentConfig& config) {
  const EngineConfig engine = engine_config_for(config, 0);
  OnlineConfig online;
  online.queue_capacity = engine.queue_capacity;
  online.engagement = engine.engagement;
  online.condition_running = engine.condition_running;
  online.volatile_machines = engine.failures.enabled;
  online.paranoid_invalidate = engine.paranoid_invalidate;
  online.approx = engine.approx;
  return online;
}

void CountingOps::assign_task(TaskId task, MachineId machine) {
  ++assigns;
  inner_.assign_task(task, machine);
}

void CountingOps::drop_queued_task(MachineId machine, std::size_t pos) {
  ++drops;
  inner_.drop_queued_task(machine, pos);
}

void CountingOps::downgrade_task(MachineId machine, std::size_t pos) {
  inner_.downgrade_task(machine, pos);
}

void TracedMapper::map_tasks(SystemView& view, SchedulerOps& ops) {
  ++counts_.calls;
  counts_.depth_sum += static_cast<double>(view.batch_queue->size());
  CountingOps counting(ops);
  {
    ScopedSpan span(spans_, "sched.map_tasks");
    inner_.map_tasks(view, counting);
  }
  counts_.yield += counting.assigns;
}

void TracedDropper::run(SystemView& view, SchedulerOps& ops) {
  ++counts_.calls;
  std::size_t pending = 0;
  for (const Machine& machine : *view.machines) pending += machine.pending_count();
  counts_.depth_sum +=
      static_cast<double>(pending) / static_cast<double>(view.machines->size());
  CountingOps counting(ops);
  {
    ScopedSpan span(spans_, "core.dropper_run");
    inner_.run(view, counting);
  }
  counts_.yield += counting.drops;
}

TrialMetrics traced_trial(const ExperimentConfig& config,
                          const Scenario& scenario, const CostModel& cost_model,
                          std::size_t trial, long long owner,
                          SpanRecorder& spans,
                          LayerCounts& mapper_counts,
                          LayerCounts& dropper_counts, ReplayLog* replay) {
  ScopedSpan root(spans, "exp.run_trial", owner);
  WorkloadConfig workload = config.workload;
  workload.seed = Rng::derive(config.seed, trial)();
  Trace trace;
  {
    ScopedSpan span(spans, "workload.generate_trace");
    trace = generate_trace(scenario.pet, scenario.machine_count(), workload);
  }

  auto mapper = make_mapper(config.mapper, config.candidate_window);
  auto dropper = make_dropper(config.dropper);
  TracedMapper traced_mapper(*mapper, spans, mapper_counts);
  TracedDropper traced_dropper(*dropper, spans, dropper_counts);
  const EngineConfig engine_config = engine_config_for(config, trial);

  Engine engine(scenario.pet, scenario.profile.machine_types, traced_mapper,
                traced_dropper, engine_config);
  engine.set_replay_log(replay);
  SimResult result;
  {
    ScopedSpan span(spans, "sim.engine_run");
    result = engine.run(trace);
  }
  ScopedSpan span(spans, "metrics.compute");
  return compute_trial_metrics(result, cost_model, config.exclude_head,
                               config.exclude_tail,
                               engine_config.approx.utility_weight);
}

}  // namespace perfbench
