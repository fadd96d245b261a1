// Edge-computing flavoured stress test (section I motivates dropping
// precisely "when resources are not abundant, e.g., in Edge computing"):
// a small fixed cluster is pushed through increasing oversubscription
// levels with *bursty* arrivals, and we track how gracefully robustness
// degrades with and without the autonomous dropping heuristic.
#include <exception>
#include <iostream>

#include "exp/experiment.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace taskdrop;

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);

  ExperimentConfig config;
  config.scenario = ScenarioKind::SpecHC;
  config.mapper = "PAM";
  config.workload.n_tasks = static_cast<int>(flags.get_int("tasks", 2000));
  config.workload.pattern = ArrivalPattern::Bursty;
  config.trials = static_cast<int>(flags.get_int("trials", 8));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  const Scenario scenario = build_scenario(config);

  Table table({"oversubscription", "ReactDrop robustness (%)",
               "Heuristic robustness (%)", "gain (pp)"});
  for (const double oversub : {1.0, 1.5, 2.0, 3.0, 4.0, 6.0}) {
    config.workload.oversubscription = oversub;

    config.dropper = DropperConfig::reactive_only();
    const ExperimentResult reactive = run_experiment(config, &scenario);

    config.dropper = DropperConfig::heuristic();
    const ExperimentResult proactive = run_experiment(config, &scenario);

    table.row()
        .cell(oversub, 1)
        .cell(reactive.robustness.mean)
        .cell(proactive.robustness.mean)
        .cell(proactive.robustness.mean - reactive.robustness.mean);
  }
  table.print(std::cout);
  std::cout << "\nThe dropping heuristic matters most in the oversubscribed\n"
               "regime: at low load there is nothing worth dropping, while\n"
               "under heavy bursts it redirects machine time from doomed\n"
               "tasks to ones that can still meet their deadlines.\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "edge_oversubscription: " << error.what() << "\n";
  return 1;
}
