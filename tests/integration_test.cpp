// End-to-end tests across modules: experiment harness, the figure and
// ablation sweep specs, and the paper's headline qualitative claims at
// reduced scale.
#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/sweep.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "test_util.hpp"

namespace taskdrop {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.scenario = ScenarioKind::SpecHC;
  config.mapper = "PAM";
  config.workload.n_tasks = 500;
  config.workload.oversubscription = 3.0;
  config.trials = 4;
  config.seed = 42;
  return config;
}

TEST(Experiment, RunsRequestedTrialsAndAggregates) {
  ExperimentConfig config = small_config();
  const ExperimentResult result = run_experiment(config);
  ASSERT_EQ(result.trials.size(), 4u);
  const std::vector<double> robustness =
      series(result.trials, &TrialMetrics::robustness_pct);
  EXPECT_NEAR(result.robustness.mean, mean(robustness), 1e-9);
  for (const TrialMetrics& trial : result.trials) {
    EXPECT_GT(trial.robustness_pct, 0.0);
    EXPECT_LT(trial.robustness_pct, 100.0);
    EXPECT_GT(trial.total_cost, 0.0);
  }
}

TEST(Experiment, IsExactlyReproducible) {
  ExperimentConfig config = small_config();
  const ExperimentResult a = run_experiment(config);
  const ExperimentResult b = run_experiment(config);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.trials[i].robustness_pct, b.trials[i].robustness_pct);
    EXPECT_DOUBLE_EQ(a.trials[i].total_cost, b.trials[i].total_cost);
    EXPECT_EQ(a.trials[i].dropped_proactive, b.trials[i].dropped_proactive);
  }
}

TEST(Experiment, DifferentSeedsGiveDifferentTrials) {
  ExperimentConfig config = small_config();
  const ExperimentResult a = run_experiment(config);
  config.seed = 43;
  const ExperimentResult b = run_experiment(config);
  EXPECT_NE(a.trials[0].robustness_pct, b.trials[0].robustness_pct);
}

TEST(Experiment, PrebuiltScenarioMatchesInternalBuild) {
  ExperimentConfig config = small_config();
  config.trials = 2;
  const Scenario scenario = build_scenario(config);
  const ExperimentResult with_prebuilt = run_experiment(config, &scenario);
  const ExperimentResult without = run_experiment(config);
  EXPECT_DOUBLE_EQ(with_prebuilt.robustness.mean, without.robustness.mean);
}

// ----------------------- the paper's claims ------------------------

TEST(PaperClaims, ProactiveDroppingBeatsReactiveOnly) {
  ExperimentConfig config = small_config();
  config.workload.n_tasks = 800;
  config.dropper = DropperConfig::reactive_only();
  const ExperimentResult reactive = run_experiment(config);
  config.dropper = DropperConfig::heuristic();
  const ExperimentResult proactive = run_experiment(config);
  // The paper reports ~20 % improvement; at this scale we only require a
  // clear margin.
  EXPECT_GT(proactive.robustness.mean, reactive.robustness.mean + 2.0);
}

TEST(PaperClaims, HeuristicTracksOptimal) {
  ExperimentConfig config = small_config();
  config.dropper = DropperConfig::optimal();
  const ExperimentResult optimal = run_experiment(config);
  config.dropper = DropperConfig::heuristic();
  const ExperimentResult heuristic = run_experiment(config);
  // Section V-F: "no statistically and practically significant difference".
  EXPECT_NEAR(heuristic.robustness.mean, optimal.robustness.mean, 5.0);
}

TEST(PaperClaims, DroppingLiftsWeakMappersToCompetitiveRobustness) {
  // Fig. 7a's story: MSD without dropping is far below MM; with the
  // heuristic dropper the gap collapses.
  ExperimentConfig config = small_config();
  config.workload.n_tasks = 800;

  auto robustness = [&](const std::string& mapper, DropperConfig dropper) {
    ExperimentConfig c = config;
    c.mapper = mapper;
    c.dropper = dropper;
    return run_experiment(c).robustness.mean;
  };
  const double msd_react = robustness("MSD", DropperConfig::reactive_only());
  const double mm_react = robustness("MM", DropperConfig::reactive_only());
  const double msd_drop = robustness("MSD", DropperConfig::heuristic());
  const double mm_drop = robustness("MM", DropperConfig::heuristic());

  EXPECT_LT(msd_react, mm_react - 5.0);               // MSD suffers alone
  EXPECT_GT(msd_drop, msd_react + 10.0);              // dropping rescues it
  EXPECT_NEAR(msd_drop, mm_drop, 12.0);               // near-convergence
}

TEST(PaperClaims, ReactiveShareOfQueueDropsIsSmall) {
  ExperimentConfig config = small_config();
  config.workload.n_tasks = 800;
  config.dropper = DropperConfig::heuristic();
  const ExperimentResult result = run_experiment(config);
  // Section V-F: "only around 7% of the task droppings happen reactively".
  EXPECT_LT(result.reactive_share.mean, 30.0);
}

TEST(PaperClaims, NormalisedCostLowerWithDroppingThanMmReactive) {
  ExperimentConfig config = small_config();
  config.workload.n_tasks = 800;
  config.mapper = "PAM";
  config.dropper = DropperConfig::heuristic();
  const ExperimentResult pam = run_experiment(config);
  config.mapper = "MM";
  config.dropper = DropperConfig::reactive_only();
  const ExperimentResult mm = run_experiment(config);
  // Fig. 9: MM+ReactDrop incurs a much higher cost per completed task.
  EXPECT_LT(pam.normalized_cost.mean, mm.normalized_cost.mean);
}

TEST(PaperClaims, HomogeneousSystemAlsoBenefits) {
  ExperimentConfig config = small_config();
  config.scenario = ScenarioKind::Homogeneous;
  config.mapper = "FCFS";
  config.workload.n_tasks = 600;
  config.dropper = DropperConfig::reactive_only();
  const ExperimentResult reactive = run_experiment(config);
  config.dropper = DropperConfig::heuristic();
  const ExperimentResult proactive = run_experiment(config);
  EXPECT_GT(proactive.robustness.mean, reactive.robustness.mean + 5.0);
}

// ------------------------ figure and ablation specs ------------------------
//
// One parameterized case per committed specs/*.sweep file, so a spec that
// fails to parse, drifts from its calibration or breaks at run time is named
// on its own and leaves the other specs' results standing.

/// What one committed spec file must expand to.
struct SpecFileCase {
  std::string name;                 ///< file stem under specs/
  std::size_t cells;                ///< cell_count() of the parsed spec
  std::vector<std::string> levels;  ///< each `levels` entry; empty: not a figure
};

std::vector<SpecFileCase> spec_file_cases() {
  const std::vector<std::string> three = {"20k:2000:2.5", "30k:3000:3",
                                          "40k:4000:3.5"};
  const std::vector<std::string> mid = {"30k:3000:3"};
  return {
      {"fig5", 15, three},
      {"fig6", 21, three},
      {"fig7a", 6, mid},
      {"fig7b", 8, mid},
      {"fig8", 9, three},
      {"fig9", 18, three},
      {"fig10", 6, {"20k:2000:1.5"}},
      {"ablation_approx", 9, three},
      {"ablation_conditioning", 6, three},
      {"ablation_deferral", 4, mid},
      {"ablation_engagement", 6, three},
      {"ablation_failures", 10, mid},
      {"ablation_gamma", 12, mid},
      {"ablation_queue_capacity", 10, mid},
      {"grid", 36, {}},
      {"smoke", 4, {}},
  };
}

std::vector<SpecFileCase> figure_cases() {
  std::vector<SpecFileCase> figures;
  for (SpecFileCase& spec_case : spec_file_cases()) {
    if (!spec_case.levels.empty()) figures.push_back(std::move(spec_case));
  }
  return figures;
}

/// Names a case by its file, so ctest lists e.g. `.../SpecFile.X/fig5`.
void PrintTo(const SpecFileCase& spec_case, std::ostream* out) {
  *out << spec_case.name;
}

SweepSpec load_spec(const std::string& name) {
  return SweepSpec::from_map(parse_spec_file(
      (std::filesystem::path(TASKDROP_SPECS_DIR) / (name + ".sweep"))
          .string()));
}

/// Each level as its `levels` entry, for comparing a spec's calibration.
std::vector<std::string> level_entries(const SweepSpec& spec) {
  std::vector<std::string> entries;
  for (const SweepLevel& level : spec.levels) {
    entries.push_back(level.label + ":" + std::to_string(level.n_tasks) + ":" +
                      format_double(level.oversubscription));
  }
  return entries;
}

/// Runs a figure spec at tiny scale: 400-800 tasks, enough to leave a
/// measured window between the 100-task warm-up and cool-down exclusions,
/// and 2 trials.
SweepReport run_tiny(SweepSpec spec) {
  for (SweepLevel& level : spec.levels) level.n_tasks /= 5;
  spec.trials = 2;
  return run_sweep(spec);
}

TEST(SpecFiles, TableListsEveryCommittedSpec) {
  std::set<std::string> committed;
  for (const auto& entry :
       std::filesystem::directory_iterator(TASKDROP_SPECS_DIR)) {
    if (entry.path().extension() == ".sweep") {
      committed.insert(entry.path().stem().string());
    }
  }
  std::set<std::string> listed;
  for (const SpecFileCase& spec_case : spec_file_cases()) {
    listed.insert(spec_case.name);
  }
  EXPECT_EQ(committed, listed);
}

class SpecFile : public ::testing::TestWithParam<SpecFileCase> {};

TEST_P(SpecFile, CarriesItsGridAndLevels) {
  const SpecFileCase& expected = GetParam();
  const SweepSpec spec = load_spec(expected.name);
  EXPECT_EQ(spec.cell_count(), expected.cells);
  if (!expected.levels.empty()) {
    EXPECT_EQ(level_entries(spec), expected.levels);
    EXPECT_EQ(spec.trials, 8);
    EXPECT_EQ(spec.seed, 42u);
  }
}

INSTANTIATE_TEST_SUITE_P(Committed, SpecFile,
                         ::testing::ValuesIn(spec_file_cases()));

class FigureSpec : public ::testing::TestWithParam<SpecFileCase> {};

TEST_P(FigureSpec, RunsAtTinyScale) {
  const SweepSpec spec = load_spec(GetParam().name);
  const SweepReport report = run_tiny(spec);
  ASSERT_EQ(report.cells.size(), spec.cell_count());
  for (const SweepCellResult& cell : report.cells) {
    EXPECT_GT(cell.result.robustness.mean, 0.0);
    // Only the approx dropper runs tasks in approximate mode.
    if (cell.config.dropper.kind != DropperConfig::Kind::Approx) {
      EXPECT_EQ(cell.result.utility.mean, cell.result.robustness.mean);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Committed, FigureSpec,
                         ::testing::ValuesIn(figure_cases()));

TEST(SpecFiles, ApproxAblationReportsUtilityBelowRobustness) {
  const SweepReport report = run_tiny(load_spec("ablation_approx"));
  const SweepCellResult& approx =
      test::cell_at(report, {{"level", "30k"}, {"dropper", "approx"}});
  EXPECT_LT(approx.result.utility.mean, approx.result.robustness.mean);
}

TEST(SpecFiles, FailureAblationStartsWithTheBaselineCell) {
  const SweepReport report = run_tiny(load_spec("ablation_failures"));
  EXPECT_EQ(report.cells.front().point.failures, "off");
  EXPECT_FALSE(report.cells.front().config.failures.enabled);
  EXPECT_TRUE(report.cells.back().config.failures.enabled);
}

TEST(SpecFiles, DeferralAblationCoversBothPams) {
  EXPECT_EQ(load_spec("ablation_deferral").mappers,
            (std::vector<std::string>{"PAM", "PAMD"}));
}

TEST(SpecFiles, Fig10RunsTheVideoScenario) {
  const SweepReport report = run_tiny(load_spec("fig10"));
  ASSERT_FALSE(report.cells.empty());
  for (const SweepCellResult& cell : report.cells) {
    EXPECT_EQ(cell.config.scenario, ScenarioKind::Video);
  }
}

TEST(SpecFiles, SensitivitySweepsCoverTheirAxes) {
  const SweepSpec gamma = load_spec("ablation_gamma");
  EXPECT_EQ(gamma.gammas.size() * gamma.droppers.size(), 6u * 2u);
  const SweepSpec capacity = load_spec("ablation_queue_capacity");
  EXPECT_EQ(capacity.queue_capacities.size() * capacity.droppers.size(),
            5u * 2u);
}

TEST(PaperClaims, ApproxUtilityBeatsDropOnlyRobustnessAtSameScale) {
  ExperimentConfig config = small_config();
  config.workload.n_tasks = 800;
  config.dropper = DropperConfig::heuristic();
  const ExperimentResult drop_only = run_experiment(config);
  // With no approximate tasks, utility must equal robustness exactly.
  EXPECT_DOUBLE_EQ(drop_only.utility.mean, drop_only.robustness.mean);

  config.dropper = DropperConfig::approximate();
  const ExperimentResult approx = run_experiment(config);
  // Downgrades trade quality for throughput: utility stays at least
  // competitive and robustness rises.
  EXPECT_GT(approx.robustness.mean, drop_only.robustness.mean);
  EXPECT_LT(approx.utility.mean, approx.robustness.mean);
}

}  // namespace
}  // namespace taskdrop
