// Extending the library with your own mapping heuristic and dropping
// mechanism. The dropping framework is deliberately mapper-agnostic
// (section V-B: "the dropping mechanism ... can cooperate with any mapping
// heuristic"), so plugging in a custom Mapper or Dropper is just a
// subclass:
//
//  * RandomMapper      — assigns each batch task to a uniformly random free
//                        machine (a worst-case mapper: no completion-time
//                        reasoning at all).
//  * LastChanceDropper — a naive dropper that discards pending tasks whose
//                        chance of success is exactly zero.
//
// The demo shows that even a random mapper recovers most of its lost
// robustness once the paper's autonomous heuristic dropper is attached.
#include <exception>
#include <iostream>

#include "core/null_dropper.hpp"
#include "core/proactive_heuristic_dropper.hpp"
#include "sim/engine.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

using namespace taskdrop;

namespace {

class RandomMapper final : public Mapper {
 public:
  explicit RandomMapper(std::uint64_t seed) : rng_(seed) {}

  std::string_view name() const override { return "Random"; }

  void map_tasks(SystemView& view, SchedulerOps& ops) override {
    for (;;) {
      const auto free_machines = mapper_detail::machines_with_free_slot(view);
      if (free_machines.empty() || view.batch_queue->empty()) return;
      const TaskId task = view.batch_queue->front();
      const auto pick = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(free_machines.size()) - 1));
      ops.assign_task(task, free_machines[pick]);
    }
  }

 private:
  Rng rng_;
};

class LastChanceDropper final : public Dropper {
 public:
  std::string_view name() const override { return "LastChance"; }

  void run(SystemView& view, SchedulerOps& ops) override {
    for (Machine& machine : *view.machines) {
      CompletionModel& model =
          (*view.models)[static_cast<std::size_t>(machine.id)];
      std::size_t pos = machine.first_pending_pos();
      while (pos < machine.queue.size()) {
        if (model.chance(pos) <= 0.0) {
          ops.drop_queued_task(machine.id, pos);
        } else {
          ++pos;
        }
      }
    }
  }
};

double run_once(const Scenario& scenario, Mapper& mapper, Dropper& dropper,
                std::uint64_t seed, int n_tasks) {
  WorkloadConfig workload;
  workload.n_tasks = n_tasks;
  workload.oversubscription = 3.0;
  workload.seed = seed;
  const Trace trace =
      generate_trace(scenario.pet, scenario.machine_count(), workload);

  EngineConfig engine_config;
  engine_config.exec_seed = seed ^ 0xBEEF;
  Engine engine(scenario.pet, scenario.profile.machine_types, mapper, dropper,
                engine_config);
  return engine.run(trace).robustness_pct();
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto n_tasks = static_cast<int>(flags.get_int("tasks", 3000));
  const Scenario scenario = make_scenario(ScenarioKind::SpecHC, seed);

  Table table({"mapper", "dropper", "robustness (%)"});
  const auto add_row = [&](const char* label, Mapper& mapper,
                           Dropper& dropper) {
    table.row().cell(label).cell(
        std::string(dropper.name()));
    table.cell(run_once(scenario, mapper, dropper, seed, n_tasks));
  };

  RandomMapper random_a(seed), random_b(seed), random_c(seed);
  NullDropper none;
  LastChanceDropper last_chance;
  ProactiveHeuristicDropper heuristic;

  add_row("Random", random_a, none);
  add_row("Random", random_b, last_chance);
  add_row("Random", random_c, heuristic);

  table.print(std::cout);
  std::cout << "\nBoth custom classes plug into the same Engine; the paper's\n"
               "heuristic dropper needs no tuning to rescue even a random\n"
               "mapper, while the naive zero-chance dropper helps less —\n"
               "it waits until a task is already doomed.\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "custom_heuristic: " << error.what() << "\n";
  return 1;
}
