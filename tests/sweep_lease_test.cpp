// Elastic lease coordination: the claim/renew/expire/steal state machine
// must hand every lease to exactly one live worker, dead workers' ranges
// must be reclaimed and re-executed to identical bytes, resuming against a
// partial lease directory must skip landed units, and merging must reject
// divergent re-executions loudly. Plan construction and the crash-safe
// JSON reader round out the crash-consistency contract.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/lease.hpp"
#include "exp/sweep.hpp"
#include "metrics/report.hpp"
#include "util/atomic_file.hpp"
#include "util/spec_parser.hpp"

namespace taskdrop {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the system temp root, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> sequence{0};
    path = fs::temp_directory_path() /
           ("sweep_lease_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(sequence.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  std::string str() const { return path.string(); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

SweepLeaseRange range_of(long long id, std::size_t begin, std::size_t end) {
  SweepLeaseRange lease;
  lease.id = id;
  lease.begin = begin;
  lease.end = end;
  return lease;
}

/// Tiny grid (2 mappers x 2 trials = 4 units) shared by the end-to-end
/// elastic tests; small tasks keep the whole suite in seconds.
SweepSpec lease_spec() {
  return SweepSpec::from_map(parse_spec_text(
      "name = lease differential\n"
      "scenario = spec_hc\n"
      "mapper = PAM, MM\n"
      "dropper = heuristic\n"
      "levels = a:120:2\n"
      "trials = 2\n"
      "seed = 7\n"));
}

std::string json_of(const SweepReport& report) {
  std::ostringstream out;
  write_sweep_json(out, report);
  return out.str();
}

std::vector<SweepShardReport> read_lease_docs(const std::string& dir,
                                              std::size_t count) {
  std::vector<SweepShardReport> docs;
  for (std::size_t i = 0; i < count; ++i) {
    std::ifstream in(dir + "/lease_" + std::to_string(i) + ".json");
    EXPECT_TRUE(static_cast<bool>(in)) << "missing result for lease " << i;
    docs.push_back(read_sweep_shard_json(in));
  }
  return docs;
}

void expect_tiles_grid(const LeasePlan& plan, std::size_t units) {
  ASSERT_FALSE(plan.ranges.empty());
  std::size_t next = 0;
  for (std::size_t i = 0; i < plan.ranges.size(); ++i) {
    EXPECT_EQ(plan.ranges[i].id, static_cast<long long>(i));
    EXPECT_EQ(plan.ranges[i].begin, next);
    EXPECT_LT(plan.ranges[i].begin, plan.ranges[i].end);
    next = plan.ranges[i].end;
  }
  EXPECT_EQ(next, units);
}

// --- Lease plans. -------------------------------------------------------

TEST(LeasePlan, FixedSizeChunksTileTheGrid) {
  const SweepSpec spec = lease_spec();  // 4 units
  const LeasePlan plan =
      LeasePlan::build(spec, 3, lease_cell_weights(spec, ""));
  ASSERT_EQ(plan.ranges.size(), 2u);
  EXPECT_EQ(plan.ranges[0].begin, 0u);
  EXPECT_EQ(plan.ranges[0].end, 3u);
  EXPECT_EQ(plan.ranges[1].begin, 3u);
  EXPECT_EQ(plan.ranges[1].end, 4u);
  expect_tiles_grid(plan, 4);
}

TEST(LeasePlan, WeightBalancedSplitTilesAndIsolatesHeavyCells) {
  // 8 cells x 3 trials = 24 units; the clamp floor gives 16 leases.
  const SweepSpec spec = SweepSpec::from_map(parse_spec_text(
      "name = weighted\n"
      "scenario = spec_hc\n"
      "mapper = PAM, MM\n"
      "dropper = heuristic, reactive\n"
      "levels = a:100:2, b:200:3\n"
      "trials = 3\n"
      "seed = 1\n"));
  std::vector<double> weights(spec.cell_count(), 1.0);
  weights[0] = 1e6;  // one pathologically expensive cell
  const LeasePlan plan = LeasePlan::build(spec, 0, weights);
  expect_tiles_grid(plan, 24);
  EXPECT_EQ(plan.ranges.size(), 16u);
  // The heavy cell's first unit saturates the first quantile on its own,
  // so the first lease must not drag light units along with it.
  EXPECT_EQ(plan.ranges.front().end, 1u);
}

TEST(LeasePlan, TextRoundTripIsExact) {
  const SweepSpec spec = lease_spec();
  const LeasePlan plan =
      LeasePlan::build(spec, 0, lease_cell_weights(spec, ""));
  const LeasePlan reread = LeasePlan::from_text(plan.to_text());
  EXPECT_EQ(reread.spec_map, plan.spec_map);
  ASSERT_EQ(reread.ranges.size(), plan.ranges.size());
  for (std::size_t i = 0; i < plan.ranges.size(); ++i) {
    EXPECT_EQ(reread.ranges[i].id, plan.ranges[i].id);
    EXPECT_EQ(reread.ranges[i].begin, plan.ranges[i].begin);
    EXPECT_EQ(reread.ranges[i].end, plan.ranges[i].end);
  }
}

TEST(LeasePlan, FromTextRejectsCorruptPlans) {
  EXPECT_THROW(LeasePlan::from_text("bogus header\n"), std::invalid_argument);
  EXPECT_THROW(
      LeasePlan::from_text("taskdrop-lease-plan/v1\nleases 1\n"),
      std::invalid_argument);  // truncated: lease line missing
  EXPECT_THROW(LeasePlan::from_text("taskdrop-lease-plan/v1\n"
                                    "leases 2\n"
                                    "lease 0 0 2\n"
                                    "lease 1 3 4\n"  // gap: unit 2 unowned
                                    "spec\nname = x\n"),
               std::invalid_argument);
}

// --- The claim state machine. -------------------------------------------

TEST(LeaseDir, ClaimRenewReleasePublishLifecycle) {
  TempDir tmp;
  const SweepLeaseRange lease = range_of(0, 0, 4);
  const LeaseDir alpha(tmp.str() + "/leases", 60000, "alpha");
  const LeaseDir beta(tmp.str() + "/leases", 60000, "beta");

  EXPECT_EQ(alpha.try_claim(lease), LeaseDir::Claim::Acquired);
  // A live claim is busy for everyone, the owner included on re-entry.
  EXPECT_EQ(beta.try_claim(lease), LeaseDir::Claim::Busy);
  EXPECT_EQ(alpha.try_claim(lease), LeaseDir::Claim::Busy);
  alpha.renew(lease);
  EXPECT_EQ(beta.try_claim(lease), LeaseDir::Claim::Busy);

  // Releasing without publishing frees the lease immediately.
  alpha.release(lease);
  EXPECT_EQ(beta.try_claim(lease), LeaseDir::Claim::Acquired);

  beta.publish_result(lease, "{}\n");
  EXPECT_FALSE(fs::exists(beta.claim_path(lease)));
  EXPECT_TRUE(beta.result_exists(lease));
  EXPECT_EQ(alpha.try_claim(lease), LeaseDir::Claim::Done);
  EXPECT_EQ(read_file(beta.result_path(lease)), "{}\n");
}

TEST(LeaseDir, ExpiredClaimIsStolenExactlyOnceAndHeartbeatPreventsIt) {
  TempDir tmp;
  const SweepLeaseRange lease = range_of(2, 8, 16);
  const LeaseDir dead(tmp.str() + "/leases", 40, "dead");
  const LeaseDir live(tmp.str() + "/leases", 40, "live");

  ASSERT_EQ(dead.try_claim(lease), LeaseDir::Claim::Acquired);
  // Renewal keeps the claim alive well past several timeouts.
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    dead.renew(lease);
  }
  EXPECT_EQ(live.try_claim(lease), LeaseDir::Claim::Busy);

  // Stop renewing: the claim expires and is stolen.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(live.try_claim(lease), LeaseDir::Claim::Stolen);
  // The thief's claim is fresh, so it is busy again for everyone else.
  EXPECT_EQ(dead.try_claim(lease), LeaseDir::Claim::Busy);
}

TEST(LeaseDir, TwoWorkersRacingAClaimHaveExactlyOneWinner) {
  TempDir tmp;
  constexpr int kLeases = 64;
  const LeaseDir alpha(tmp.str() + "/leases", 60000, "alpha");
  const LeaseDir beta(tmp.str() + "/leases", 60000, "beta");

  std::vector<LeaseDir::Claim> results_a(kLeases), results_b(kLeases);
  std::atomic<int> ready{0};
  const auto race = [&](const LeaseDir& dir,
                        std::vector<LeaseDir::Claim>& results) {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    for (int i = 0; i < kLeases; ++i) {
      results[static_cast<std::size_t>(i)] = dir.try_claim(
          range_of(i, static_cast<std::size_t>(i),
                   static_cast<std::size_t>(i) + 1));
    }
  };
  std::thread worker_a(race, std::cref(alpha), std::ref(results_a));
  std::thread worker_b(race, std::cref(beta), std::ref(results_b));
  worker_a.join();
  worker_b.join();

  for (int i = 0; i < kLeases; ++i) {
    const auto a = results_a[static_cast<std::size_t>(i)];
    const auto b = results_b[static_cast<std::size_t>(i)];
    const int acquired = (a == LeaseDir::Claim::Acquired ? 1 : 0) +
                         (b == LeaseDir::Claim::Acquired ? 1 : 0);
    EXPECT_EQ(acquired, 1) << "lease " << i;
    EXPECT_EQ(a == LeaseDir::Claim::Acquired ? b : a, LeaseDir::Claim::Busy)
        << "lease " << i;
  }
}

TEST(LeaseDir, StalePlanForADifferentSpecIsRejected) {
  TempDir tmp;
  const SweepSpec spec = lease_spec();
  const LeaseDir dir(tmp.str() + "/leases", 60000, "w");
  const LeasePlan plan =
      LeasePlan::build(spec, 1, lease_cell_weights(spec, ""));
  dir.publish_or_load_plan(plan);

  SweepSpec other = spec;
  other.seed = 9001;
  const LeasePlan other_plan =
      LeasePlan::build(other, 1, lease_cell_weights(other, ""));
  EXPECT_THROW(dir.publish_or_load_plan(other_plan), std::invalid_argument);
}

// --- End-to-end elastic execution. --------------------------------------

ElasticSweepOptions elastic_options(const std::string& dir,
                                    const std::string& owner) {
  ElasticSweepOptions options;
  options.lease_dir = dir;
  options.lease_timeout_ms = 60000;
  options.lease_units = 1;  // 4 leases for the 4-unit grid
  options.threads = 1;
  options.owner = owner;
  return options;
}

TEST(ElasticSweep, MergedLeaseResultsMatchTheUnshardedReportByteForByte) {
  TempDir tmp;
  const SweepSpec spec = lease_spec();
  const ElasticSweepStats stats =
      run_sweep_elastic(spec, elastic_options(tmp.str() + "/leases", "solo"));
  EXPECT_EQ(stats.leases_total, 4u);
  EXPECT_EQ(stats.leases_run, 4u);
  EXPECT_EQ(stats.leases_stolen, 0u);
  EXPECT_EQ(stats.leases_skipped, 0u);

  const std::vector<SweepShardReport> docs =
      read_lease_docs(tmp.str() + "/leases", 4);
  const SweepReport merged = merge_sweep_reports(docs);
  EXPECT_EQ(json_of(merged), json_of(run_sweep(spec)));
}

TEST(ElasticSweep, ResumeSkipsLandedLeasesAndCompletesTheRest) {
  TempDir tmp;
  const std::string dir = tmp.str() + "/leases";
  const SweepSpec spec = lease_spec();
  run_sweep_elastic(spec, elastic_options(dir, "first"));

  // A dead worker's world: one result lost (never published), the rest
  // landed. The resumed worker must re-run exactly the missing lease.
  ASSERT_TRUE(fs::remove(dir + "/lease_2.json"));
  const ElasticSweepStats resumed =
      run_sweep_elastic(spec, elastic_options(dir, "second"));
  EXPECT_EQ(resumed.leases_run, 1u);
  EXPECT_EQ(resumed.leases_skipped, 3u);

  const SweepReport merged = merge_sweep_reports(read_lease_docs(dir, 4));
  EXPECT_EQ(json_of(merged), json_of(run_sweep(spec)));
}

TEST(ElasticSweep, StolenLeaseReproducesIdenticalBytes) {
  TempDir tmp;
  const std::string dir = tmp.str() + "/leases";
  const SweepSpec spec = lease_spec();
  run_sweep_elastic(spec, elastic_options(dir, "victim"));
  const std::string original = read_file(dir + "/lease_1.json");

  // Forge the crash site: the result vanished and the victim's claim is
  // ancient. The next worker must steal and re-execute to the same bytes.
  ASSERT_TRUE(fs::remove(dir + "/lease_1.json"));
  atomic_write_file(dir + "/lease_1.claim", "owner victim\nheartbeat 1\n");

  ElasticSweepOptions options = elastic_options(dir, "thief");
  options.lease_timeout_ms = 500;
  const ElasticSweepStats stats = run_sweep_elastic(spec, options);
  EXPECT_EQ(stats.leases_run, 1u);
  EXPECT_EQ(stats.leases_stolen, 1u);
  EXPECT_EQ(stats.leases_skipped, 3u);
  EXPECT_EQ(read_file(dir + "/lease_1.json"), original);
}

// --- Merging re-executed and damaged documents. -------------------------

TEST(ElasticSweep, ReexecutedDuplicatesNeedTheFlagAndDivergenceIsFatal) {
  TempDir tmp;
  const std::string dir = tmp.str() + "/leases";
  const SweepSpec spec = lease_spec();
  run_sweep_elastic(spec, elastic_options(dir, "solo"));

  std::vector<SweepShardReport> docs = read_lease_docs(dir, 4);
  const SweepReport merged = merge_sweep_reports(docs);

  // The same lease document twice — the signature of a reclaimed lease
  // whose original owner also finished — is rejected by default ...
  docs.push_back(docs[1]);
  EXPECT_THROW(merge_sweep_reports(docs), std::invalid_argument);
  // ... tolerated under allow_reexecuted when bitwise identical ...
  MergeOptions allow;
  allow.allow_reexecuted = true;
  EXPECT_EQ(json_of(merge_sweep_reports(docs, allow)), json_of(merged));
  // ... and fatal even under the flag when the payloads disagree.
  docs.back().trials.front().metrics.robustness_pct += 1.0;
  try {
    merge_sweep_reports(docs, allow);
    FAIL() << "divergent re-executed payloads must not merge";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("divergent"), std::string::npos)
        << error.what();
  }
}

TEST(ElasticSweep, TruncatedResultFileIsRejectedWithLineAndOffset) {
  TempDir tmp;
  const std::string dir = tmp.str() + "/leases";
  run_sweep_elastic(lease_spec(), elastic_options(dir, "solo"));

  const std::string whole = read_file(dir + "/lease_0.json");
  std::istringstream truncated(whole.substr(0, whole.size() / 2));
  try {
    read_sweep_shard_json(truncated);
    FAIL() << "a truncated shard document must not parse";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("line"), std::string::npos) << message;
    EXPECT_NE(message.find("offset"), std::string::npos) << message;
  }
}

// --- Cost-model lease sizing. -------------------------------------------

TEST(LeaseCellWeights, AnalyticFallbackAndBenchScaling) {
  TempDir tmp;
  const SweepSpec spec = lease_spec();  // cells: (spec_hc, PAM), (spec_hc, MM)

  // No benchmark file: the analytic n_tasks x oversubscription proxy.
  const std::vector<double> analytic = lease_cell_weights(spec, "");
  ASSERT_EQ(analytic.size(), 2u);
  EXPECT_DOUBLE_EQ(analytic[0], 120.0 * 2.0);
  EXPECT_DOUBLE_EQ(analytic[1], 120.0 * 2.0);
  EXPECT_EQ(lease_cell_weights(spec, tmp.str() + "/missing.json"), analytic);

  // Full coverage: each cell priced by linear task-count scaling from its
  // (scenario, mapper) measurement.
  const std::string bench = tmp.str() + "/bench.json";
  atomic_write_file(
      bench,
      "{\"benchmarks\": {\"macro_trial\": {\"benchmarks\": ["
      "{\"run_name\": \"spec_hc/PAM/1k\", \"real_time\": 10.0},"
      "{\"run_name\": \"spec_hc/MM/1k\", \"real_time\": 40.0}]}}}");
  const std::vector<double> measured = lease_cell_weights(spec, bench);
  ASSERT_EQ(measured.size(), 2u);
  EXPECT_DOUBLE_EQ(measured[0], 10.0 * 120.0 / 1000.0);
  EXPECT_DOUBLE_EQ(measured[1], 40.0 * 120.0 / 1000.0);

  // Partial coverage (no MM point): all-or-nothing fallback to analytic —
  // mixing measured and analytic scales would skew the split.
  const std::string partial = tmp.str() + "/partial.json";
  atomic_write_file(
      partial,
      "{\"benchmarks\": {\"macro_trial\": {\"benchmarks\": ["
      "{\"run_name\": \"spec_hc/PAM/1k\", \"real_time\": 10.0}]}}}");
  EXPECT_EQ(lease_cell_weights(spec, partial), analytic);
}

// --- run_sweep lease plumbing. ------------------------------------------

TEST(RunSweep, LeaseRangeBeyondTheGridIsRejected) {
  SweepOptions options;
  options.lease = range_of(0, 0, 5);  // the grid has 4 units
  EXPECT_THROW(run_sweep(lease_spec(), options), std::invalid_argument);
}

}  // namespace
}  // namespace taskdrop
