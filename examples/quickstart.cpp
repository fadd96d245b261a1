// Quickstart: simulate an oversubscribed heterogeneous system once with
// reactive dropping only and once with the paper's autonomous proactive
// dropping heuristic, and compare robustness.
//
//   ./examples/quickstart [--tasks=3000] [--oversub=3.0] [--seed=42]
#include <exception>
#include <iostream>

#include "exp/experiment.hpp"
#include "util/flags.hpp"

using namespace taskdrop;

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);

  // 1. Describe the experiment: the SPECint-like scenario of section V-A
  //    (12 task types x 8 heterogeneous machines), PAM mapping, a 3x
  //    oversubscribed Poisson arrival stream.
  ExperimentConfig config;
  config.scenario = ScenarioKind::SpecHC;
  config.mapper = "PAM";
  config.workload.n_tasks = static_cast<int>(flags.get_int("tasks", 3000));
  config.workload.oversubscription = flags.get_double("oversub", 3.0);
  config.workload.gamma = flags.get_double("gamma", config.workload.gamma);
  config.trials = static_cast<int>(flags.get_int("trials", 8));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  // 2. Baseline: reactive dropping only (tasks are discarded once they have
  //    already missed their deadlines).
  config.dropper = DropperConfig::reactive_only();
  const ExperimentResult reactive = run_experiment(config);

  // 3. The paper's mechanism: the autonomous proactive dropping heuristic
  //    (eta = 2, beta = 1 — no user-tuned threshold anywhere).
  config.dropper = DropperConfig::heuristic();
  const ExperimentResult proactive = run_experiment(config);

  std::cout << "Tasks per trial:        " << config.workload.n_tasks << "\n"
            << "Oversubscription:       " << config.workload.oversubscription
            << "x cluster capacity\n"
            << "Trials:                 " << config.trials << "\n\n";
  std::cout << "Robustness (% of tasks completed on time, mean +/- 95% CI):\n"
            << "  PAM + ReactDrop:  " << reactive.robustness.mean << " +/- "
            << reactive.robustness.ci95 << "\n"
            << "  PAM + Heuristic:  " << proactive.robustness.mean << " +/- "
            << proactive.robustness.ci95 << "\n\n";

  const double gain = proactive.robustness.mean - reactive.robustness.mean;
  std::cout << "Proactive dropping gains " << gain
            << " percentage points of robustness on this workload.\n\n";

  const TrialMetrics& sample = proactive.trials.front();
  std::cout << "Outcome breakdown of one PAM+Heuristic trial:\n"
            << "  completed on time: " << sample.completed_on_time << "\n"
            << "  completed late:    " << sample.completed_late << "\n"
            << "  dropped reactive (in queue): " << sample.dropped_reactive_queued
            << "\n"
            << "  dropped proactive:           " << sample.dropped_proactive
            << "\n"
            << "  expired unmapped (batch):    " << sample.expired_unmapped
            << "\n"
            << "  reactive share of queue drops: "
            << proactive.reactive_share.mean << " %\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "quickstart: " << error.what() << "\n";
  return 1;
}
