// Compound uncertainty, one step beyond the paper (its section VI names
// resource failure as future work): machines now fail and recover while the
// system is oversubscribed. This example sweeps the failure rate and shows
// how the three dropping postures degrade:
//
//   * ReactDrop  — reactive only,
//   * Heuristic  — the paper's autonomous proactive dropping,
//   * Approx     — drop-or-downgrade (approximate computing).
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
  config.workload.oversubscription = flags.get_double("oversub", 2.5);
  config.trials = static_cast<int>(flags.get_int("trials", 6));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  const Scenario scenario = build_scenario(config);

  Table table({"MTBF (ticks)", "ReactDrop (%)", "Heuristic (%)",
               "Approx robustness (%)", "Approx utility (%)"});
  for (const double mtbf : {0.0, 60000.0, 20000.0, 8000.0}) {
    config.failures.enabled = mtbf > 0.0;
    config.failures.mean_time_between_failures = mtbf;
    config.failures.mean_time_to_repair = flags.get_double("mttr", 3000.0);

    config.dropper = DropperConfig::reactive_only();
    const ExperimentResult reactive = run_experiment(config, &scenario);
    config.dropper = DropperConfig::heuristic();
    const ExperimentResult heuristic = run_experiment(config, &scenario);
    config.dropper = DropperConfig::approximate();
    const ExperimentResult approx = run_experiment(config, &scenario);

    table.row()
        .cell(mtbf > 0.0 ? format_fixed(mtbf, 0) : "no failures")
        .cell(reactive.robustness.mean)
        .cell(heuristic.robustness.mean)
        .cell(approx.robustness.mean)
        .cell(approx.utility.mean);
  }
  table.print(std::cout);
  std::cout << "\nFailures shrink every column, but the proactive droppers\n"
               "keep their lead: by pruning tasks that a failure-shortened\n"
               "horizon has made hopeless, they waste none of the surviving\n"
               "machine time. The approximate variant converts part of the\n"
               "would-be drops into half-credit completions.\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "failure_resilience: " << error.what() << "\n";
  return 1;
}
