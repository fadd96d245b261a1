// Sharded sweep execution and shard-report merging. A shard I/N is the
// strided lease {I, I, units, N}: every shard count must merge back to the
// exact unsharded report (trial RNG is seeded per (cell, trial), so the
// partition cannot drift), the JSON round trip must be lossless, and
// malformed merges must be loud errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "metrics/report.hpp"

namespace taskdrop {
namespace {

/// Canonical multi-axis grid (built through from_map so to_map is a
/// fixpoint, the precondition for sharding): 2 levels x 2 mappers x
/// 2 droppers = 8 cells x 3 trials = 24 units. Small tasks keep the
/// whole differential suite in seconds.
constexpr std::size_t kGridUnits = 24;

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

/// The lease `--shard=index/count` runs over the spec's unit grid.
SweepLeaseRange shard_lease(const SweepSpec& spec, int index, int count) {
  return {index, static_cast<std::size_t>(index),
          spec.cell_count() * static_cast<std::size_t>(spec.trials),
          static_cast<std::size_t>(count)};
}

std::string json_of(const SweepReport& report) {
  std::ostringstream json;
  write_sweep_json(json, report);
  return json.str();
}

SweepShardReport read_json(const std::string& text) {
  std::istringstream in(text);
  return read_sweep_shard_json(in);
}

/// Runs shard i/n, round-trips it through the JSON writer/reader exactly
/// as the CLI pipeline does, and returns the parsed shard document.
SweepShardReport run_shard_via_json(const SweepSpec& spec, int index,
                                    int count) {
  SweepOptions options;
  options.lease = shard_lease(spec, index, count);
  const SweepReport report = run_sweep(spec, options);
  EXPECT_TRUE(report.lease.has_value());
  return read_json(json_of(report));
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
  std::vector<int> owners(kGridUnits, 0);
  for (int i = 0; i < count; ++i) {
    SweepOptions options;
    options.lease = shard_lease(spec, i, count);
    const SweepReport report = run_sweep(spec, options);
    ASSERT_EQ(report.cells.size(), 8u);
    std::set<std::size_t> units;
    for (std::size_t c = 0; c < report.cells.size(); ++c) {
      const SweepCellResult& cell = report.cells[c];
      ASSERT_EQ(cell.trial_indices.size(), cell.result.trials.size());
      for (const int t : cell.trial_indices) {
        const std::size_t unit = sweep_unit(c, t, spec.trials);
        EXPECT_TRUE(lease_owns(*report.lease, unit));
        units.insert(unit);
        ++owners[unit];
      }
    }
    // Shard I of N owns exactly the round-robin units {u : u mod N = I}.
    std::set<std::size_t> expected;
    for (std::size_t u = static_cast<std::size_t>(i); u < kGridUnits;
         u += count) {
      expected.insert(u);
    }
    EXPECT_EQ(units, expected) << "shard " << i << "/" << count;
  }
  for (const int owner_count : owners) EXPECT_EQ(owner_count, 1);
}

TEST(SweepShards, StridedLeaseOwnsEveryStrideThUnitOfItsRange) {
  const SweepLeaseRange lease{4, 5, 17, 4};
  std::vector<std::size_t> owned;
  for (std::size_t u = 0; u < kGridUnits; ++u) {
    if (lease_owns(lease, u)) owned.push_back(u);
  }
  EXPECT_EQ(owned, (std::vector<std::size_t>{5, 9, 13}));
  // Stride 1 is the contiguous range.
  const SweepLeaseRange contiguous{0, 5, 8};
  EXPECT_EQ(contiguous.stride, 1u);
  EXPECT_FALSE(lease_owns(contiguous, 4));
  EXPECT_TRUE(lease_owns(contiguous, 5));
  EXPECT_TRUE(lease_owns(contiguous, 6));
  EXPECT_TRUE(lease_owns(contiguous, 7));
  EXPECT_FALSE(lease_owns(contiguous, 8));
}

TEST(SweepShards, StridedLeaseHeaderRoundTripsThroughJson) {
  const SweepSpec spec = shard_spec();
  SweepOptions options;
  options.lease = shard_lease(spec, 2, 5);
  const std::string json = json_of(run_sweep(spec, options));
  EXPECT_NE(json.find("\"lease\": {\"id\": 2, \"begin\": 2, \"end\": 24, "
                      "\"stride\": 5}"),
            std::string::npos)
      << json;
  const SweepShardReport parsed = read_json(json);
  EXPECT_EQ(parsed.lease.id, 2);
  EXPECT_EQ(parsed.lease.begin, 2u);
  EXPECT_EQ(parsed.lease.end, kGridUnits);
  EXPECT_EQ(parsed.lease.stride, 5u);
  ASSERT_FALSE(parsed.trials.empty());
  for (const auto& record : parsed.trials) {
    EXPECT_EQ(sweep_unit(record.cell, record.trial, spec.trials) % 5, 2u);
  }
}

TEST(SweepShards, ContiguousLeaseDocumentCarriesNoStrideKey) {
  // Elastic lease documents keep the pre-stride bytes: stride 1 is not
  // written, and a document without the key reads back as stride 1.
  SweepOptions options;
  options.lease = SweepLeaseRange{3, 6, 12};
  const std::string json = json_of(run_sweep(shard_spec(), options));
  EXPECT_NE(json.find("\"lease\": {\"id\": 3, \"begin\": 6, \"end\": 12}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("stride"), std::string::npos);
  EXPECT_EQ(read_json(json).lease.stride, 1u);
}

TEST(SweepShards, ShardIndexBeyondTheGridOwnsNoUnitAndIsRejected) {
  // Shard I >= U of a U-unit grid would own nothing: its lease is empty.
  const SweepSpec spec = shard_spec();
  SweepOptions options;
  for (const int index : {24, 30}) {
    options.lease = shard_lease(spec, index, index + 1);
    EXPECT_THROW(run_sweep(spec, options), std::invalid_argument) << index;
  }
  options.lease = shard_lease(spec, 23, 24);
  const SweepReport last = run_sweep(spec, options);
  std::size_t trials = 0;
  for (const SweepCellResult& cell : last.cells) {
    trials += cell.trial_indices.size();
  }
  EXPECT_EQ(trials, 1u);
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
  // Shard-count disagreement: 0/2 and 1/3 both own unit 4 (a duplicate)
  // and together miss unit 3, so the per-unit checks reject the set.
  {
    std::vector<SweepShardReport> shards;
    shards.push_back(run_shard_via_json(spec, 0, 2));
    shards.push_back(run_shard_via_json(spec, 1, 3));
    EXPECT_THROW(merge_sweep_reports(shards), std::invalid_argument);
    MergeOptions allow;
    allow.allow_reexecuted = true;
    EXPECT_THROW(merge_sweep_reports(shards, allow), std::invalid_argument);
    // A complete set plus a re-executed shard of another count merges only
    // when duplicates are allowed, and then to the unsharded bytes.
    shards = {run_shard_via_json(spec, 0, 2), run_shard_via_json(spec, 1, 2),
              run_shard_via_json(spec, 0, 3)};
    EXPECT_THROW(merge_sweep_reports(shards), std::invalid_argument);
    EXPECT_EQ(json_of(merge_sweep_reports(shards, allow)),
              json_of(run_sweep(spec)));
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
    try {
      merge_sweep_reports(shards);
      FAIL() << "a payload its lease does not own must not merge";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("does not belong to lease 0"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(SweepShards, ShardOptionsAreValidated) {
  const SweepSpec spec = shard_spec();
  SweepOptions options;
  options.lease = SweepLeaseRange{0, 0, kGridUnits + 1, 2};
  EXPECT_THROW(run_sweep(spec, options), std::invalid_argument);
  options.lease = SweepLeaseRange{0, 0, kGridUnits, 0};
  EXPECT_THROW(run_sweep(spec, options), std::invalid_argument);
  options.lease = SweepLeaseRange{-1, 0, kGridUnits, 2};
  EXPECT_THROW(run_sweep(spec, options), std::invalid_argument);

  // A hand-built dropper variant list can render to a grid of the same
  // keys and size whose re-expansion orders cells differently — the
  // map-level fixpoint holds, but merging by cell index would attribute
  // payloads to the wrong cells. The guard must compare cell for cell.
  SweepSpec reordered = spec;
  reordered.droppers = {{"heuristic eta=2", DropperConfig::heuristic(2)},
                        {"approx eta=4", DropperConfig::approximate(4)},
                        {"heuristic eta=4", DropperConfig::heuristic(4)},
                        {"approx eta=2", DropperConfig::approximate(2)}};
  options.lease = shard_lease(reordered, 0, 2);
  EXPECT_THROW(run_sweep(reordered, options), std::invalid_argument);
  // The same variants in grid order are canonical and shard fine.
  SweepSpec ordered = spec;
  ordered.droppers = {{"heuristic eta=2", DropperConfig::heuristic(2)},
                      {"heuristic eta=4", DropperConfig::heuristic(4)},
                      {"approx eta=2", DropperConfig::approximate(2)},
                      {"approx eta=4", DropperConfig::approximate(4)}};
  options.lease = shard_lease(ordered, 0, 2);
  EXPECT_NO_THROW(run_sweep(ordered, options));
}

TEST(SweepShards, PlainJsonDumpIsNotMergeable) {
  SweepSpec spec = shard_spec();
  spec.trials = 1;
  EXPECT_THROW(read_json(json_of(run_sweep(spec))), std::invalid_argument);
}

TEST(SweepShards, ShardJsonRoundTripsNonFiniteTrialValues) {
  const SweepSpec spec = shard_spec();
  SweepOptions options;
  options.lease = shard_lease(spec, 0, 1);
  SweepReport report = run_sweep(spec, options);
  // Force the values JSON cannot represent natively through the round
  // trip: they must come back as the same class, not as null/zero.
  report.cells[0].result.trials[0].normalized_cost =
      std::numeric_limits<double>::infinity();
  report.cells[0].result.trials[1].total_cost =
      -std::numeric_limits<double>::infinity();
  report.cells[0].result.trials[2].utility_pct =
      std::numeric_limits<double>::quiet_NaN();
  const SweepShardReport parsed = read_json(json_of(report));
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
  // corrupted shard file merges with wrong metrics. Integers must also fit
  // their field before narrowing: a trial of 2^32 would alias trial 0.
  SweepSpec spec = shard_spec();
  spec.trials = 1;
  SweepOptions options;
  options.lease = shard_lease(spec, 0, 2);
  const std::string good = json_of(run_sweep(spec, options));
  ASSERT_NO_THROW(read_json(good));

  const auto corrupt = [&](const std::string& key,
                           const std::string& replacement) {
    std::string text = good;
    const auto pos = text.find("\"" + key + "\": ");
    ASSERT_NE(pos, std::string::npos);
    const auto value_begin = pos + key.size() + 4;
    const auto value_end = text.find_first_of(",}", value_begin);
    text.replace(value_begin, value_end - value_begin, replacement);
    EXPECT_THROW(read_json(text), std::invalid_argument)
        << key << " = " << replacement;
  };
  corrupt("robustness_pct", "1.2.3");
  corrupt("robustness_pct", "1e");
  corrupt("completed_on_time", "1-2");
  corrupt("trial", "4294967296");
  corrupt("trial", "-1");
  corrupt("stride", "0");
  corrupt("stride", "-2");
  corrupt("stride", "1.5");
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
