// Sharded sweep execution and shard-report merging: every shard count
// must merge back to the exact unsharded report (trial RNG is seeded per
// (cell, trial), so the partition cannot drift), the JSON round trip must
// be lossless, and malformed merges must be loud errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "exp/sweep.hpp"
#include "metrics/report.hpp"

namespace taskdrop {
namespace {

/// Canonical multi-axis grid (built through from_map so to_map is a
/// fixpoint, the precondition for sharding): 2 levels x 2 mappers x
/// 2 droppers = 8 cells x 3 trials = 24 units. Small tasks keep the
/// whole differential suite in seconds.
SweepSpec shard_spec() {
  return SweepSpec::from_map(parse_spec_text(
      "name = shard differential\n"
      "scenario = spec_hc\n"
      "mapper = PAM, MM\n"
      "dropper = heuristic, reactive\n"
      "levels = a:250:2.5, b:300:3\n"
      "trials = 3\n"
      "seed = 42\n"));
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

void expect_reports_bitwise_equal(const SweepReport& merged,
                                  const SweepReport& unsharded) {
  ASSERT_EQ(merged.cells.size(), unsharded.cells.size());
  EXPECT_EQ(merged.name, unsharded.name);
  EXPECT_EQ(merged.active_axes, unsharded.active_axes);
  for (std::size_t c = 0; c < merged.cells.size(); ++c) {
    const SweepCellResult& a = merged.cells[c];
    const SweepCellResult& b = unsharded.cells[c];
    EXPECT_EQ(a.point.mapper, b.point.mapper);
    EXPECT_EQ(a.point.dropper, b.point.dropper);
    EXPECT_EQ(a.point.level, b.point.level);
    ASSERT_EQ(a.result.trials.size(), b.result.trials.size());
    for (std::size_t t = 0; t < a.result.trials.size(); ++t) {
      expect_bitwise_equal(a.result.trials[t], b.result.trials[t]);
    }
    EXPECT_EQ(a.result.robustness.mean, b.result.robustness.mean);
    EXPECT_EQ(a.result.robustness.ci95, b.result.robustness.ci95);
    EXPECT_EQ(a.result.utility.mean, b.result.utility.mean);
    EXPECT_EQ(a.result.utility.ci95, b.result.utility.ci95);
    EXPECT_EQ(a.result.normalized_cost.mean, b.result.normalized_cost.mean);
    EXPECT_EQ(a.result.normalized_cost.ci95, b.result.normalized_cost.ci95);
    EXPECT_EQ(a.result.reactive_share.mean, b.result.reactive_share.mean);
    EXPECT_EQ(a.result.reactive_share.ci95, b.result.reactive_share.ci95);
  }
  // The strongest form of the contract: the rendered JSON documents match
  // byte for byte (both are complete reports, so both use the plain form).
  std::ostringstream a_json, b_json;
  write_sweep_json(a_json, merged);
  write_sweep_json(b_json, unsharded);
  EXPECT_EQ(a_json.str(), b_json.str());
}

/// Runs shard i/n, round-trips it through the JSON writer/reader exactly
/// as the CLI pipeline does, and returns the parsed shard document.
SweepShardReport run_shard_via_json(const SweepSpec& spec, int index,
                                    int count) {
  SweepOptions options;
  options.shard = ShardSpec{index, count};
  const SweepReport report = run_sweep(spec, options);
  EXPECT_TRUE(report.shard.has_value());
  std::ostringstream json;
  write_sweep_json(json, report);
  std::istringstream in(json.str());
  return read_sweep_shard_json(in);
}

TEST(SweepShards, EveryShardCountMergesBitwiseIdentical) {
  const SweepSpec spec = shard_spec();
  const SweepReport unsharded = run_sweep(spec);
  for (const int count : {1, 2, 3, 7}) {
    std::vector<SweepShardReport> shards;
    for (int i = 0; i < count; ++i) {
      shards.push_back(run_shard_via_json(spec, i, count));
    }
    const SweepReport merged = merge_sweep_reports(shards);
    SCOPED_TRACE("shard count " + std::to_string(count));
    expect_reports_bitwise_equal(merged, unsharded);
  }
}

TEST(SweepShards, OutOfOrderMergeIsIdentical) {
  const SweepSpec spec = shard_spec();
  const SweepReport unsharded = run_sweep(spec);
  std::vector<SweepShardReport> shards;
  for (int i = 0; i < 3; ++i) shards.push_back(run_shard_via_json(spec, i, 3));
  std::reverse(shards.begin(), shards.end());
  expect_reports_bitwise_equal(merge_sweep_reports(shards), unsharded);
}

TEST(SweepShards, PartitionCoversEveryUnitExactlyOnce) {
  const SweepSpec spec = shard_spec();
  const int count = 3;
  std::vector<int> owners(8 * 3, 0);
  for (int i = 0; i < count; ++i) {
    SweepOptions options;
    options.shard = ShardSpec{i, count};
    const SweepReport report = run_sweep(spec, options);
    ASSERT_EQ(report.cells.size(), 8u);
    for (std::size_t c = 0; c < report.cells.size(); ++c) {
      const SweepCellResult& cell = report.cells[c];
      ASSERT_EQ(cell.trial_indices.size(), cell.result.trials.size());
      for (const int t : cell.trial_indices) {
        EXPECT_TRUE(shard_owns(*report.shard, sweep_unit(c, t, spec.trials)));
        ++owners[sweep_unit(c, t, spec.trials)];
      }
    }
  }
  for (const int owner_count : owners) EXPECT_EQ(owner_count, 1);
}

TEST(SweepShards, NonCanonicalValueTokensShardAndMerge) {
  // Labels come from the parsed values, rendered as the spec header
  // renders them, so tokens like "1.0" and "100000" (which the shortest
  // form alone would print as "1" and "1e+05") re-expand to the same cells
  // at merge time.
  const SweepSpec spec = SweepSpec::from_map(parse_spec_text(
      "name = canonical labels\n"
      "mapper = PAM\n"
      "dropper = heuristic\n"
      "beta = 1.0, 1.5\n"
      "mtbf = 0, 120000, 100000\n"
      "mttr = 3000\n"
      "levels = a:250:3\n"
      "trials = 2\n"));
  ASSERT_EQ(spec.cell_count(), 6u);
  EXPECT_EQ(spec.droppers[0].label, "heuristic beta=1");
  EXPECT_EQ(spec.failures[2].label, "mtbf=100000");

  std::vector<SweepShardReport> shards;
  for (int i = 0; i < 2; ++i) shards.push_back(run_shard_via_json(spec, i, 2));
  std::ostringstream merged, unsharded;
  write_sweep_json(merged, merge_sweep_reports(shards));
  write_sweep_json(unsharded, run_sweep(spec));
  EXPECT_EQ(merged.str(), unsharded.str());
}

TEST(SweepShards, DuplicateShardIsRejected) {
  const SweepSpec spec = shard_spec();
  std::vector<SweepShardReport> shards;
  shards.push_back(run_shard_via_json(spec, 0, 2));
  shards.push_back(run_shard_via_json(spec, 0, 2));
  EXPECT_THROW(merge_sweep_reports(shards), std::invalid_argument);
}

TEST(SweepShards, MissingShardIsRejected) {
  const SweepSpec spec = shard_spec();
  std::vector<SweepShardReport> shards;
  shards.push_back(run_shard_via_json(spec, 0, 3));
  shards.push_back(run_shard_via_json(spec, 2, 3));
  EXPECT_THROW(merge_sweep_reports(shards), std::invalid_argument);
  EXPECT_THROW(merge_sweep_reports({}), std::invalid_argument);
}

TEST(SweepShards, MismatchedHeadersAreRejected) {
  const SweepSpec spec = shard_spec();
  // Shard-count disagreement.
  {
    std::vector<SweepShardReport> shards;
    shards.push_back(run_shard_via_json(spec, 0, 2));
    shards.push_back(run_shard_via_json(spec, 1, 3));
    EXPECT_THROW(merge_sweep_reports(shards), std::invalid_argument);
  }
  // Spec disagreement (different seed => different canonical header).
  {
    SweepSpec other = spec;
    other.seed = 43;
    std::vector<SweepShardReport> shards;
    shards.push_back(run_shard_via_json(spec, 0, 2));
    shards.push_back(run_shard_via_json(other, 1, 2));
    EXPECT_THROW(merge_sweep_reports(shards), std::invalid_argument);
  }
  // A trial payload claimed by the wrong shard index.
  {
    std::vector<SweepShardReport> shards;
    shards.push_back(run_shard_via_json(spec, 0, 2));
    shards.push_back(run_shard_via_json(spec, 1, 2));
    ASSERT_FALSE(shards[1].trials.empty());
    shards[0].trials.push_back(shards[1].trials.front());
    EXPECT_THROW(merge_sweep_reports(shards), std::invalid_argument);
  }
}

TEST(SweepShards, ShardOptionsAreValidated) {
  const SweepSpec spec = shard_spec();
  SweepOptions options;
  options.shard = ShardSpec{3, 3};
  EXPECT_THROW(run_sweep(spec, options), std::invalid_argument);
  options.shard = ShardSpec{0, 0};
  EXPECT_THROW(run_sweep(spec, options), std::invalid_argument);
  options.shard = ShardSpec{-1, 2};
  EXPECT_THROW(run_sweep(spec, options), std::invalid_argument);

  options.shard = ShardSpec{0, 2};

  // A hand-built dropper variant list can render to a grid of the same
  // keys and size whose re-expansion orders cells differently — the
  // map-level fixpoint holds, but merging by cell index would attribute
  // payloads to the wrong cells. The guard must compare cell for cell.
  SweepSpec reordered = spec;
  reordered.droppers = {{"heuristic eta=2", DropperConfig::heuristic(2)},
                        {"approx eta=4", DropperConfig::approximate(4)},
                        {"heuristic eta=4", DropperConfig::heuristic(4)},
                        {"approx eta=2", DropperConfig::approximate(2)}};
  EXPECT_THROW(run_sweep(reordered, options), std::invalid_argument);
  // The same variants in grid order are canonical and shard fine.
  SweepSpec ordered = spec;
  ordered.droppers = {{"heuristic eta=2", DropperConfig::heuristic(2)},
                      {"heuristic eta=4", DropperConfig::heuristic(4)},
                      {"approx eta=2", DropperConfig::approximate(2)},
                      {"approx eta=4", DropperConfig::approximate(4)}};
  EXPECT_NO_THROW(run_sweep(ordered, options));
}

TEST(SweepShards, PlainJsonDumpIsNotMergeable) {
  SweepSpec spec = shard_spec();
  spec.trials = 1;
  const SweepReport report = run_sweep(spec);
  std::ostringstream json;
  write_sweep_json(json, report);
  std::istringstream in(json.str());
  EXPECT_THROW(read_sweep_shard_json(in), std::invalid_argument);
}

TEST(SweepShards, ShardJsonRoundTripsNonFiniteTrialValues) {
  const SweepSpec spec = shard_spec();
  SweepOptions options;
  options.shard = ShardSpec{0, 1};
  SweepReport report = run_sweep(spec, options);
  // Force the values JSON cannot represent natively through the round
  // trip: they must come back as the same class, not as null/zero.
  report.cells[0].result.trials[0].normalized_cost =
      std::numeric_limits<double>::infinity();
  report.cells[0].result.trials[1].total_cost =
      -std::numeric_limits<double>::infinity();
  report.cells[0].result.trials[2].utility_pct =
      std::numeric_limits<double>::quiet_NaN();
  std::ostringstream json;
  write_sweep_json(json, report);
  std::istringstream in(json.str());
  const SweepShardReport parsed = read_sweep_shard_json(in);
  const auto find_trial = [&](int trial) -> const TrialMetrics& {
    for (const auto& record : parsed.trials) {
      if (record.cell == 0 && record.trial == trial) return record.metrics;
    }
    throw std::out_of_range("trial not found");
  };
  EXPECT_TRUE(std::isinf(find_trial(0).normalized_cost));
  EXPECT_GT(find_trial(0).normalized_cost, 0.0);
  EXPECT_TRUE(std::isinf(find_trial(1).total_cost));
  EXPECT_LT(find_trial(1).total_cost, 0.0);
  EXPECT_TRUE(std::isnan(find_trial(2).utility_pct));
}

TEST(SweepShards, CorruptedNumbersAreLoudErrors) {
  // The token scanner accepts any run of number characters; conversion
  // must reject tokens strtod/stoll would silently truncate, or a
  // corrupted shard file merges with wrong metrics.
  SweepSpec spec = shard_spec();
  spec.trials = 1;
  SweepOptions options;
  options.shard = ShardSpec{0, 1};
  const SweepReport report = run_sweep(spec, options);
  std::ostringstream json;
  write_sweep_json(json, report);
  const std::string good = json.str();

  const auto corrupt = [&](const std::string& key,
                           const std::string& replacement) {
    std::string text = good;
    const auto pos = text.find("\"" + key + "\": ");
    ASSERT_NE(pos, std::string::npos);
    const auto value_begin = pos + key.size() + 4;
    const auto value_end = text.find_first_of(",}", value_begin);
    text.replace(value_begin, value_end - value_begin, replacement);
    std::istringstream in(text);
    EXPECT_THROW(read_sweep_shard_json(in), std::invalid_argument)
        << key << " = " << replacement;
  };
  corrupt("robustness_pct", "1.2.3");
  corrupt("robustness_pct", "1e");
  corrupt("completed_on_time", "1-2");
}

TEST(SweepShards, WorkerExceptionIsRethrownNotFatal) {
  // A dropper config whose construction fails only inside run_trial: the
  // registry never validated beta here, so make_dropper throws on the
  // pool worker. Before the exception-capture fix this terminated the
  // whole process (ThreadPool jobs must not throw).
  SweepSpec spec = shard_spec();
  DropperConfig bad = DropperConfig::heuristic();
  bad.beta = 0.5;
  spec.droppers = {{"bad beta", bad}};
  try {
    run_sweep(spec);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("beta"), std::string::npos);
  }
}

}  // namespace
}  // namespace taskdrop
