// SweepSpec expansion, spec round-trips, scenario-cache sharing, and
// bitwise equivalence of SweepRunner cells with run_experiment.
#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "metrics/report.hpp"

namespace taskdrop {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.name = "test sweep";
  spec.levels = {{"tiny", 300, 3.0}};
  spec.mappers = {"PAM", "MM"};
  spec.droppers = {{"heuristic", DropperConfig::heuristic()},
                   {"reactive", DropperConfig::reactive_only()}};
  spec.trials = 2;
  spec.seed = 42;
  return spec;
}

TEST(SweepSpec, CellCountIsTheCrossProduct) {
  SweepSpec spec = small_spec();
  spec.scenarios = {ScenarioKind::SpecHC, ScenarioKind::Homogeneous};
  spec.levels = {{"a", 300, 2.5}, {"b", 300, 3.0}, {"c", 300, 3.5}};
  spec.gammas = {2.0, 4.0};
  spec.conditioning = {false, true};
  // 2 scenarios x 3 levels x 2 mappers x 2 droppers x 2 gammas x 2 cond.
  EXPECT_EQ(spec.cell_count(), 96u);
  EXPECT_EQ(expand(spec).size(), 96u);
}

TEST(SweepSpec, SeriesReplacesMapperDropperCross) {
  SweepSpec spec = small_spec();
  spec.series = {{"PAM+Heuristic", "PAM", DropperConfig::heuristic()},
                 {"MM+ReactDrop", "MM", DropperConfig::reactive_only()},
                 {"PAM+Threshold", "PAM", DropperConfig::threshold()}};
  EXPECT_EQ(spec.cell_count(), 3u);
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[1].point.mapper, "MM");
  EXPECT_EQ(cells[1].point.dropper, "MM+ReactDrop");
  EXPECT_EQ(cells[1].config.dropper.kind, DropperConfig::Kind::ReactiveOnly);
}

TEST(SweepSpec, ExpansionFillsConfigsAndPoints) {
  const SweepSpec spec = small_spec();
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), 4u);
  // Nesting order: mapper outer, dropper inner.
  EXPECT_EQ(cells[0].point.mapper, "PAM");
  EXPECT_EQ(cells[0].point.dropper, "heuristic");
  EXPECT_EQ(cells[1].point.mapper, "PAM");
  EXPECT_EQ(cells[1].point.dropper, "reactive");
  EXPECT_EQ(cells[2].point.mapper, "MM");
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.config.workload.n_tasks, 300);
    EXPECT_EQ(cell.config.trials, 2);
    EXPECT_EQ(cell.config.seed, 42u);
    EXPECT_EQ(cell.point.level, "tiny");
    EXPECT_EQ(cell.point.gamma, "4");
    EXPECT_EQ(cell.point.capacity, "6");
    EXPECT_EQ(cell.point.engagement, "every-event");
    EXPECT_EQ(cell.point.conditioning, "unconditioned");
    EXPECT_EQ(cell.point.failures, "off");
  }
}

TEST(SweepSpec, ValidateRejectsBadSpecsUpFront) {
  SweepSpec spec = small_spec();
  spec.trials = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = small_spec();
  spec.mappers.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = small_spec();
  spec.levels = {{"bad", 0, 3.0}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = small_spec();
  spec.queue_capacities = {0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = small_spec();
  spec.mappers = {"NOPE"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SweepSpec, FromMapBuildsGridsThroughTheRegistries) {
  const SweepSpec spec = SweepSpec::from_map(parse_spec_text(
      "name = grid\n"
      "scenario = spec_hc, homogeneous\n"
      "mapper = PAM, MM\n"
      "dropper = heuristic, threshold, reactive\n"
      "eta = 1, 2\n"
      "levels = 20k:2000:2.5, 30k:3000:3.0\n"
      "engagement = every-event, on-deadline-miss\n"
      "trials = 3\n"
      "seed = 7\n"));
  EXPECT_EQ(spec.name, "grid");
  EXPECT_EQ(spec.scenarios.size(), 2u);
  EXPECT_EQ(spec.mappers.size(), 2u);
  // heuristic x {eta 1, 2} + threshold + reactive.
  ASSERT_EQ(spec.droppers.size(), 4u);
  EXPECT_EQ(spec.droppers[0].label, "heuristic eta=1");
  EXPECT_EQ(spec.droppers[1].label, "heuristic eta=2");
  EXPECT_EQ(spec.droppers[1].config.effective_depth, 2);
  EXPECT_EQ(spec.droppers[2].label, "threshold");
  EXPECT_EQ(spec.levels[1].n_tasks, 3000);
  EXPECT_DOUBLE_EQ(spec.levels[1].oversubscription, 3.0);
  EXPECT_EQ(spec.engagements.size(), 2u);
  EXPECT_EQ(spec.trials, 3);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.cell_count(), 2u * 2u * 4u * 2u * 2u);
}

TEST(SweepSpec, FromMapZipsTasksAndOversub) {
  const SweepSpec spec = SweepSpec::from_map(
      parse_spec_text("tasks = 2000, 3000\noversub = 2.5, 3.0\ntrials = 1\n"));
  ASSERT_EQ(spec.levels.size(), 2u);
  EXPECT_EQ(spec.levels[0].n_tasks, 2000);
  EXPECT_DOUBLE_EQ(spec.levels[1].oversubscription, 3.0);

  const SweepSpec broadcast = SweepSpec::from_map(
      parse_spec_text("tasks = 500\noversub = 2.5, 3.0, 3.5\ntrials = 1\n"));
  ASSERT_EQ(broadcast.levels.size(), 3u);
  EXPECT_EQ(broadcast.levels[2].n_tasks, 500);

  EXPECT_THROW(SweepSpec::from_map(parse_spec_text(
                   "tasks = 1, 2\noversub = 2.5, 3.0, 3.5\n")),
               std::invalid_argument);
}

TEST(SweepSpec, FromMapRejectsUnknownKeysAndBadValues) {
  try {
    SweepSpec::from_map(parse_spec_text("droper = heuristic\n"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("dropper"), std::string::npos);
  }
  EXPECT_THROW(SweepSpec::from_map(parse_spec_text("trials = 0\n")),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::from_map(parse_spec_text("trials = many\n")),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::from_map(parse_spec_text("scenario = mars\n")),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::from_map(parse_spec_text("engagement = never\n")),
               std::invalid_argument);
  // Out-of-range magnitudes are loud errors, not silent truncation.
  EXPECT_THROW(
      SweepSpec::from_map(parse_spec_text("capacity = 99999999999\n")),
      std::invalid_argument);
  EXPECT_THROW(SweepSpec::from_map(parse_spec_text("seed = -1\n")),
               std::invalid_argument);
  // The levels axis has two spellings; mixing them is ambiguous.
  EXPECT_THROW(SweepSpec::from_map(parse_spec_text(
                   "levels = a:2000:2.5\ntasks = 300\n")),
               std::invalid_argument);
  // ':' is the levels-entry separator, so a label containing it cannot
  // round-trip through to_map — rejected at parse time with a clear
  // error, and at validate() for hand-built specs.
  try {
    SweepSpec::from_map(parse_spec_text("levels = a:b:2000:2.5\n"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("':'"), std::string::npos);
  }
  {
    SweepSpec spec;
    spec.levels = {{"a:b", 2000, 2.5}};
    EXPECT_THROW(spec.validate(), std::invalid_argument);
    // And the fixed rendering round-trips: a ':'-free label re-parses to
    // the identical level.
    spec.levels = {{"20k", 2000, 2.5}};
    const SpecMap map = spec.to_map();
    const SweepSpec reparsed = SweepSpec::from_map(map);
    ASSERT_EQ(reparsed.levels.size(), 1u);
    EXPECT_EQ(reparsed.levels[0].label, "20k");
    EXPECT_EQ(reparsed.levels[0].n_tasks, 2000);
    EXPECT_DOUBLE_EQ(reparsed.levels[0].oversubscription, 2.5);
  }
  // mttr without the mtbf axis would silently disable failure injection.
  EXPECT_THROW(SweepSpec::from_map(parse_spec_text("mttr = 500\n")),
               std::invalid_argument);
}

TEST(SweepSpec, KeyRegistryCoversFromMap) {
  // Every documented key must round through from_map without an
  // unknown-key error (the CLI derives its flag set from this list).
  for (const std::string& key : sweep_spec_keys()) {
    SpecMap map;
    if (key == "name") {
      map[key] = {"x"};
    } else if (key == "scenario") {
      map[key] = {"spec_hc"};
    } else if (key == "mapper") {
      map[key] = {"PAM"};
    } else if (key == "dropper") {
      map[key] = {"heuristic"};
    } else if (key == "levels") {
      map[key] = {"a:300:3.0"};
    } else if (key == "engagement") {
      map[key] = {"every-event"};
    } else if (key == "pattern") {
      map[key] = {"poisson"};
    } else if (key == "adaptive" || key == "conditioning" ||
               key == "approx") {
      map[key] = {"1"};
    } else if (key == "beta") {
      map[key] = {"1.5"};  // beta < 1 is rejected by the dropper registry
    } else if (key == "approx_time_factor" ||
               key == "approx_utility_weight" || key == "oversub" ||
               key == "threshold") {
      map[key] = {"0.5"};
    } else if (key == "mtbf") {
      map[key] = {"60000"};
    } else if (key == "mttr") {
      map["mtbf"] = {"60000"};  // mttr alone is rejected as ambiguous
      map[key] = {"500"};
    } else {
      map[key] = {"2"};
    }
    EXPECT_NO_THROW(SweepSpec::from_map(map)) << "key: " << key;
  }
}

TEST(SweepSpec, ToMapFromMapIsAFixpoint) {
  const SweepSpec first = SweepSpec::from_map(parse_spec_text(
      "name = roundtrip\n"
      "scenario = spec_hc\n"
      "mapper = PAM, MM\n"
      "dropper = heuristic, reactive\n"
      "eta = 1, 3\n"
      "levels = a:2000:2.5, b:3000:3\n"
      "gamma = 2, 4\n"
      "mtbf = 0, 60000\n"
      "trials = 2\n"));
  const SpecMap canonical = first.to_map();
  const SweepSpec second = SweepSpec::from_map(canonical);
  EXPECT_EQ(second.to_map(), canonical);
  EXPECT_EQ(second.cell_count(), first.cell_count());
  // And the canonical text form parses back to the same map.
  EXPECT_EQ(parse_spec_text(spec_to_text(canonical)), canonical);
}

TEST(SweepSpec, ToMapRoundTripsAwkwardDoubles) {
  // The old 6-significant-digit rendering truncated these, so
  // from_map(to_map()) drifted; the shortest-round-trip formatter makes
  // the round trip bitwise for any finite double.
  SweepSpec spec;
  spec.levels = {{"x", 1234567, 0.1234567}};
  spec.gammas = {1.0 / 3.0, 4.000000000000001};
  spec.droppers = {{"heuristic", DropperConfig::heuristic(2, 1.0000001)}};
  const SweepSpec reparsed = SweepSpec::from_map(spec.to_map());
  ASSERT_EQ(reparsed.levels.size(), 1u);
  EXPECT_EQ(reparsed.levels[0].oversubscription, 0.1234567);
  ASSERT_EQ(reparsed.gammas.size(), 2u);
  EXPECT_EQ(reparsed.gammas[0], 1.0 / 3.0);
  EXPECT_EQ(reparsed.gammas[1], 4.000000000000001);
  ASSERT_EQ(reparsed.droppers.size(), 1u);
  EXPECT_EQ(reparsed.droppers[0].config.beta, 1.0000001);
  EXPECT_EQ(reparsed.to_map(), spec.to_map());
}

TEST(ScenarioCache, SharesOneScenarioPerKindAndSeed) {
  ScenarioCache cache;
  const auto a = cache.get(ScenarioKind::SpecHC, 42);
  const auto b = cache.get(ScenarioKind::SpecHC, 42);
  EXPECT_EQ(a.get(), b.get());
  const auto other_seed = cache.get(ScenarioKind::SpecHC, 43);
  EXPECT_NE(a.get(), other_seed.get());
  const auto other_kind = cache.get(ScenarioKind::Homogeneous, 42);
  EXPECT_NE(a.get(), other_kind.get());
  EXPECT_EQ(cache.size(), 3u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // Cleared entries stay alive through the returned shared_ptr.
  EXPECT_FALSE(a->profile.machine_types.empty());
}

void expect_bitwise_equal(const TrialMetrics& a, const TrialMetrics& b) {
  EXPECT_EQ(a.robustness_pct, b.robustness_pct);
  EXPECT_EQ(a.utility_pct, b.utility_pct);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.normalized_cost, b.normalized_cost);
  EXPECT_EQ(a.reactive_drop_share_pct, b.reactive_drop_share_pct);
  EXPECT_EQ(a.completed_on_time, b.completed_on_time);
  EXPECT_EQ(a.completed_late, b.completed_late);
  EXPECT_EQ(a.dropped_reactive_queued, b.dropped_reactive_queued);
  EXPECT_EQ(a.dropped_proactive, b.dropped_proactive);
  EXPECT_EQ(a.expired_unmapped, b.expired_unmapped);
  EXPECT_EQ(a.lost_to_failure, b.lost_to_failure);
  EXPECT_EQ(a.approx_on_time, b.approx_on_time);
  EXPECT_EQ(a.mapping_events, b.mapping_events);
  EXPECT_EQ(a.dropper_invocations, b.dropper_invocations);
}

TEST(SweepRunner, CellsMatchRunExperimentBitwise) {
  const SweepSpec spec = small_spec();
  const SweepReport report = run_sweep(spec);
  ASSERT_EQ(report.cells.size(), 4u);
  for (const SweepCellResult& cell : report.cells) {
    const ExperimentResult expected = run_experiment(cell.config);
    ASSERT_EQ(cell.result.trials.size(), expected.trials.size());
    for (std::size_t t = 0; t < expected.trials.size(); ++t) {
      expect_bitwise_equal(cell.result.trials[t], expected.trials[t]);
    }
    EXPECT_EQ(cell.result.robustness.mean, expected.robustness.mean);
    EXPECT_EQ(cell.result.robustness.ci95, expected.robustness.ci95);
    EXPECT_EQ(cell.result.normalized_cost.mean, expected.normalized_cost.mean);
    EXPECT_EQ(cell.result.reactive_share.mean, expected.reactive_share.mean);
  }
}

TEST(SweepRunner, UsesTheSharedCacheAndStreamsProgress) {
  const SweepSpec spec = small_spec();
  ScenarioCache cache;
  SweepOptions options;
  options.cache = &cache;
  std::atomic<std::size_t> calls{0};
  std::size_t last_total = 0;
  options.on_cell = [&](const SweepCellResult&, std::size_t done,
                        std::size_t total) {
    ++calls;
    EXPECT_GE(done, 1u);
    EXPECT_LE(done, total);
    last_total = total;
  };
  const SweepReport report = run_sweep(spec, options);
  EXPECT_EQ(report.cells.size(), 4u);
  // One scenario (kind, seed) pair serves all four cells.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(calls.load(), 4u);
  EXPECT_EQ(last_total, 4u);
}

TEST(SweepRunner, CellLookupByAxisLabels) {
  const SweepReport report = run_sweep(small_spec());
  const SweepCellResult& cell =
      cell_at(report, {{"mapper", "MM"}, {"dropper", "reactive"}});
  EXPECT_EQ(cell.config.mapper, "MM");
  EXPECT_EQ(cell.config.dropper.kind, DropperConfig::Kind::ReactiveOnly);
  EXPECT_THROW(cell_at(report, {{"mapper", "FCFS"}}), std::out_of_range);
  EXPECT_EQ(find_cell(report, [](const SweepCellResult&) { return false; }),
            nullptr);
  EXPECT_THROW(axis_label(cell.point, "flavor"), std::invalid_argument);
}

TEST(SweepReportEmitters, TableCsvAndJsonAgreeOnCells) {
  const SweepReport report = run_sweep(small_spec());
  EXPECT_EQ(report.active_axes,
            (std::vector<std::string>{"mapper", "dropper"}));

  const Table table = sweep_table(report);
  EXPECT_EQ(table.row_count(), report.cells.size());
  EXPECT_EQ(table.headers().front(), "mapper");

  std::ostringstream csv;
  write_sweep_csv(csv, report);
  EXPECT_NE(csv.str().find("mapper,dropper,robustness"), std::string::npos);

  std::ostringstream json;
  write_sweep_json(json, report);
  EXPECT_NE(json.str().find("taskdrop-sweep/v2"), std::string::npos);
  EXPECT_NE(json.str().find("\"robustness_pct\""), std::string::npos);
  EXPECT_NE(json.str().find("\"mapper\": \"MM\""), std::string::npos);
  // A plain (unsharded) dump carries summaries, not per-trial payloads.
  EXPECT_EQ(json.str().find("\"shard\""), std::string::npos);
  EXPECT_EQ(json.str().find("\"trials\": ["), std::string::npos);
}

TEST(SweepReportEmitters, JsonStaysValidForNonFiniteSummaries) {
  SweepReport report;
  report.name = "nan report";
  report.active_axes = {"mapper"};
  report.cells.resize(1);
  report.cells[0].result.robustness = {std::nan(""), std::nan("")};
  report.cells[0].result.normalized_cost = {
      std::numeric_limits<double>::infinity(), 0.0};
  std::ostringstream json;
  write_sweep_json(json, report);
  // Non-finite summaries degrade to null; the bare inf/nan tokens the
  // default ostream formatting used to emit are invalid JSON.
  EXPECT_NE(json.str().find("\"robustness_pct\": {\"mean\": null, "
                            "\"ci95\": null}"),
            std::string::npos);
  EXPECT_NE(json.str().find("\"normalized_cost\": {\"mean\": null, "
                            "\"ci95\": 0}"),
            std::string::npos);
  EXPECT_EQ(json.str().find("nan"), json.str().find("nan report"));
  EXPECT_EQ(json.str().find("inf"), std::string::npos);
}

TEST(Summaries, SingleTrialCi95IsZeroNotNan) {
  // One trial gives no variance estimate; the paper's convention (and the
  // JSON emitter) need CI95 == 0, never nan.
  const ExperimentResult result =
      summarize_trials({TrialMetrics{.robustness_pct = 73.0}});
  EXPECT_EQ(result.robustness.mean, 73.0);
  EXPECT_EQ(result.robustness.ci95, 0.0);
  EXPECT_TRUE(std::isfinite(result.normalized_cost.ci95));
}

TEST(Engagement, NamesRoundTripAndRejectUnknown) {
  EXPECT_EQ(engagement_from_name("every-event"),
            DropperEngagement::EveryMappingEvent);
  EXPECT_EQ(engagement_from_name("on-deadline-miss"),
            DropperEngagement::OnDeadlineMiss);
  EXPECT_EQ(engagement_name(DropperEngagement::OnDeadlineMiss),
            "on-deadline-miss");
  EXPECT_THROW(engagement_from_name("sometimes"), std::invalid_argument);
}

TEST(RunExperiment, RejectsZeroTrials) {
  ExperimentConfig config;
  config.trials = 0;
  EXPECT_THROW(run_experiment(config), std::invalid_argument);
}

TEST(RunExperiment, RejectsZeroCandidateWindowOnCallingThread) {
  // Two trials run on pool workers: a throw from one of them would
  // std::terminate instead of reaching this EXPECT_THROW.
  ExperimentConfig config;
  config.trials = 2;
  config.candidate_window = 0;
  EXPECT_THROW(run_experiment(config), std::invalid_argument);
}

}  // namespace
}  // namespace taskdrop
