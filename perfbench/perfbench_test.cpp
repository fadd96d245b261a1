// Unit tests of the benchmark's own helpers. Run as
//   perfbench_test <path to taskdrop_cli>
// (the stream round trip spawns `taskdrop_cli serve`; without the path
// that test is skipped).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "cost/cost_model.hpp"
#include "exp/experiment.hpp"
#include "replay_stream.hpp"
#include "sched/registry.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "traced_layers.hpp"

namespace {

using namespace taskdrop;
using namespace perfbench;

std::string g_cli;

ExperimentConfig small_paper_config() {
  ExperimentConfig config;
  config.scenario = ScenarioKind::SpecHC;
  config.mapper = "PAM";
  config.dropper = DropperConfig::heuristic(2, 1.0);
  config.workload.n_tasks = 400;
  config.workload.oversubscription = 3.0;
  config.seed = 7;
  return config;
}

struct SmallTrial {
  Scenario scenario;
  ReplayLog log;
  std::vector<StreamEvent> events;
};

SmallTrial record_small_trial(const ExperimentConfig& config) {
  SmallTrial t{build_scenario(config), {}, {}};
  const CostModel cost_model(t.scenario.profile.cost_per_hour);
  run_trial(config, t.scenario, cost_model, 0, &t.log);
  t.events = to_stream_events(t.log);
  return t;
}

ReplayedStream replay(const ExperimentConfig& config, const SmallTrial& t) {
  auto mapper = make_mapper(config.mapper, config.candidate_window);
  auto dropper = make_dropper(config.dropper);
  OnlineScheduler scheduler(t.scenario.pet, t.scenario.profile.machine_types,
                            *mapper, *dropper, online_config_for(config));
  return serve_replay(scheduler, t.events);
}

TEST(ReplayStream, DropsStartsAndCarriesArrivalFields) {
  const ExperimentConfig config = small_paper_config();
  const SmallTrial t = record_small_trial(config);
  std::size_t starts = 0, arrivals = 0;
  for (const ReplayEvent& e : t.log.events) {
    if (e.kind == ReplayEvent::Kind::Start) ++starts;
  }
  ASSERT_EQ(t.events.size(), t.log.events.size() - starts);
  for (const StreamEvent& e : t.events) {
    if (e.kind != StreamEvent::Kind::Arrive) continue;
    const TaskSpec& spec = t.log.tasks[arrivals++];
    EXPECT_EQ(e.t, spec.arrival);
    EXPECT_EQ(e.a, spec.type);
    EXPECT_EQ(e.deadline, spec.deadline);
  }
  EXPECT_EQ(arrivals, t.log.tasks.size());
}

TEST(ReplayStream, ServeSemanticsReplayMatchesEngine) {
  const ExperimentConfig config = small_paper_config();
  const SmallTrial t = record_small_trial(config);
  const ReplayedStream got = replay(config, t);
  EXPECT_EQ(got.decisions, t.log.decisions);
  EXPECT_EQ(mismatched_events(got, t.log.decisions), 0);
  ASSERT_EQ(got.offsets.size(), t.events.size() + 1);

  // One altered decision fails exactly the event that emitted it.
  std::vector<Decision> altered = t.log.decisions;
  altered[got.offsets[5]].time += 1;
  ASSERT_LT(got.offsets[5], got.offsets[6]);
  EXPECT_EQ(mismatched_events(got, altered), 1);
}

TEST(ReplayStream, RoundTripsThroughServe) {
  if (g_cli.empty()) GTEST_SKIP() << "no taskdrop_cli path given";
  const ExperimentConfig config = small_paper_config();
  const SmallTrial t = record_small_trial(config);
  const ReplayedStream expected = replay(config, t);

  const std::string dir = ::testing::TempDir();
  const std::string stream = dir + "perfbench_test.stream";
  const std::string log = dir + "perfbench_test.log";
  std::ofstream(stream) << render_stream(t.events);
  const std::string command =
      g_cli + " serve --scenario=spec_hc --mapper=PAM --dropper=heuristic "
              "--eta=2 --beta=1 --capacity=6 --seed=7 --stream=" + stream +
      " --out=" + log + " --stats-out=" + dir + "perfbench_test.stats";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
  std::ostringstream got;
  got << std::ifstream(log).rdbuf();
  EXPECT_EQ(got.str(), render_decisions(t.log.decisions));
  EXPECT_EQ(mismatched_log_events(got.str(), expected), 0);

  // A tampered record fails one event; a missing tail fails the events
  // whose records are gone.
  std::string tampered = got.str();
  tampered[tampered.find("kind=start")] = 'X';
  EXPECT_EQ(mismatched_log_events(tampered, expected), 1);
  const std::string truncated = got.str().substr(0, got.str().size() - 1);
  EXPECT_EQ(mismatched_log_events(truncated, expected), 1);
  std::remove(stream.c_str());
  std::remove(log.c_str());
}

TEST(Percentile, NearestRankReportsCountAndTail) {
  std::vector<double> xs;
  for (int i = 1; i <= 10000; ++i) xs.push_back(i);
  const Tail p999 = nearest_rank(xs, 99.9);
  EXPECT_EQ(p999.value, 9990);
  EXPECT_EQ(p999.count, 10000u);
  EXPECT_EQ(p999.beyond, 10u);
  EXPECT_EQ(nearest_rank(xs, 50.0).value, 5000);
  EXPECT_EQ(nearest_rank(xs, 100.0).beyond, 0u);

  xs.pop_back();
  EXPECT_EQ(nearest_rank(xs, 99.9).beyond, 9u);
  EXPECT_THROW(nearest_rank({}, 50.0), std::invalid_argument);
  EXPECT_THROW(nearest_rank(xs, 0.0), std::invalid_argument);
  EXPECT_THROW(nearest_rank(xs, 100.5), std::invalid_argument);
}

TEST(Spans, SelfTimeSubtractsMergedClippedChildren) {
  SpanRecorder rec;
  const int root = rec.add({"root", 0, 100, -1, 0});
  const int a = rec.add({"child", 10, 40, root, 0});
  rec.add({"child", 30, 60, root, 0});     // overlaps a
  rec.add({"leaf", 15, 20, a, 0});
  rec.add({"late", 90, 120, root, 0});     // runs past the root
  const std::vector<double> self = self_times_ns(rec.spans());
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 30);

  const auto totals = totals_by_name(rec.spans());
  EXPECT_EQ(totals.at("child").calls, 2);
  EXPECT_EQ(totals.at("child").total_ns, 60);
  EXPECT_EQ(totals.at("child").self_ns, 55);
}

TEST(Spans, NestedSpansInheritOwnerAndSumToRoot) {
  SpanRecorder rec;
  {
    ScopedSpan root(rec, "root", 7);
    { ScopedSpan child(rec, "child"); }
    { ScopedSpan child(rec, "child"); }
  }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].owner, 7);
  double self = 0;
  for (const double s : self_times_ns(rec.spans())) self += s;
  EXPECT_EQ(self, static_cast<double>(rec.spans()[0].duration_ns()));

  std::ostringstream trace;
  rec.write_chrome_trace(trace, 2);
  EXPECT_NE(trace.str().find("\"name\":\"child\",\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(trace.str().find("\"id\":2"), std::string::npos);
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 1) g_cli = argv[1];
  return RUN_ALL_TESTS();
}
