// The repository benchmark program. One process, one thread: it builds a
// workload's scenario from --seed, runs the workload for --seconds, checks
// every output against an oracle and prints one JSON result line.
//
//   perfbench --workload=trial_cond|trial_deep|serve_paper --seed=N
//             --seconds=S --trace=0|1 --cli=PATH --work-dir=DIR
//
// --trace=0 measures the end-to-end metrics untraced; --trace=1 is the
// separate traced run that splits time between layers. perfbench/run.py
// builds this binary and adds the host's run context; perfbench/README.md
// explains the workloads and every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "child_process.hpp"
#include "cost/cost_model.hpp"
#include "exp/experiment.hpp"
#include "replay_stream.hpp"
#include "sched/registry.hpp"
#include "spans.hpp"
#include "speed_reference.hpp"
#include "stats.hpp"
#include "traced_layers.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace taskdrop;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
  std::string work_dir;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got '" + arg + "'");
    }
    kv[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  const auto need = [&kv](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      throw std::invalid_argument(std::string("missing --") + key);
    }
    return it->second;
  };
  Args args;
  args.workload = need("workload");
  args.seed = std::stoull(need("seed"));
  args.seconds = std::stod(need("seconds"));
  args.trace = need("trace") == "1";
  args.cli = need("cli");
  args.work_dir = need("work-dir");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// One benchmark workload: a scheduler configuration and how it is driven.
/// A run spreads its work over `scenarios` PETs, each built from a seed
/// derived from --seed: per-event cost and robustness depend on the PET
/// drawn, so one PET per run would make a run's figures depend on its seed
/// far more than on the code under test. The fixed trial set is trial 0 of
/// every PET.
struct Workload {
  ExperimentConfig config;
  int scenarios = 1;
  /// PETs whose trial 0 every decide cycle replays (trial workloads; the
  /// serve workload replays every PET's stream).
  int decide_scenarios = 1;
  /// Driven as `taskdrop_cli serve` streams rather than as trials.
  bool serve = false;
};

Workload make_workload(const std::string& name) {
  Workload w;
  ExperimentConfig& c = w.config;
  c.scenario = ScenarioKind::SpecHC;
  c.mapper = "PAM";
  if (name == "trial_cond") {
    // BENCH_macro's spec_hc/PAM_cond/4k: dropper-bound.
    c.dropper = DropperConfig::heuristic(2, 1.0);
    c.condition_running = true;
    c.queue_capacity = 24;
    c.workload.oversubscription = 6.0;
    c.workload.n_tasks = 4000;
    w.scenarios = 10;
    w.decide_scenarios = 6;
  } else if (name == "trial_deep") {
    // BENCH_macro's spec_hc/PAM_deep/5k: mapper-bound.
    c.dropper = DropperConfig::reactive_only();
    c.workload.oversubscription = 20.0;
    c.candidate_window = 1024;
    c.queue_capacity = 6;
    c.workload.n_tasks = 5000;
    w.scenarios = 48;
    w.decide_scenarios = 16;
  } else if (name == "serve_paper") {
    // The paper's configuration; each PET's trial replayed as a stream.
    c.dropper = DropperConfig::heuristic(2, 1.0);
    c.queue_capacity = 6;
    c.workload.oversubscription = 3.0;
    c.workload.n_tasks = 10000;
    w.scenarios = 12;
    w.serve = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (available: trial_cond, trial_deep, "
                                "serve_paper)");
  }
  return w;
}

// ---------------------------------------------------------------- output

struct Result {
  long long attempted = 0;
  long long failed = 0;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// key -> JSON literal.
  std::vector<std::pair<std::string, std::string>> context;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& json) {
    context.emplace_back(key, json);
  }
  void note(const std::string& key, double value);
  /// A timing scaled to nominal host speed by `factor` (the run's slowdown
  /// for a rate, its inverse for a duration). The raw figure goes to the
  /// run context.
  void scaled(const std::string& name, double raw, double factor,
              const std::string& unit) {
    metric(name, raw * factor, unit);
    note("raw." + name, raw);
  }
};

/// A JSON number with every digit the double holds (shortest round trip).
std::string number(double value) {
  return std::isfinite(value) ? format_double(value) : "null";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

void Result::note(const std::string& key, double value) {
  note(key, number(value));
}

void print_result(const Result& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    out << (i ? ", " : "") << quoted(m.name) << ": {\"value\": "
        << number(m.value) << ", \"unit\": " << quoted(m.unit) << "}";
  }
  out << "}, \"context\": {";
  for (std::size_t i = 0; i < r.context.size(); ++i) {
    out << (i ? ", " : "") << quoted(r.context[i].first) << ": "
        << r.context[i].second;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// --------------------------------------------------------- shared pieces

bool same_metrics(const TrialMetrics& a, const TrialMetrics& b) {
  // Bitwise: a trial is deterministic for a fixed seed and toolchain.
  return std::memcmp(&a.robustness_pct, &b.robustness_pct, sizeof(double)) == 0 &&
         std::memcmp(&a.utility_pct, &b.utility_pct, sizeof(double)) == 0 &&
         std::memcmp(&a.total_cost, &b.total_cost, sizeof(double)) == 0 &&
         std::memcmp(&a.normalized_cost, &b.normalized_cost, sizeof(double)) == 0 &&
         std::memcmp(&a.reactive_drop_share_pct, &b.reactive_drop_share_pct,
                     sizeof(double)) == 0 &&
         a.completed_on_time == b.completed_on_time &&
         a.completed_late == b.completed_late &&
         a.dropped_reactive_queued == b.dropped_reactive_queued &&
         a.dropped_proactive == b.dropped_proactive &&
         a.expired_unmapped == b.expired_unmapped &&
         a.lost_to_failure == b.lost_to_failure &&
         a.approx_on_time == b.approx_on_time &&
         a.mapping_events == b.mapping_events &&
         a.dropper_invocations == b.dropper_invocations;
}

/// One PET of a run: the workload's config carrying this PET's seed, the
/// scenario built from it and its cost model.
struct Cell {
  ExperimentConfig config;
  Scenario scenario;
  CostModel cost_model;
};

/// The k-th scenario seed of a run. Kept below 2^63 because serve parses
/// --seed as a signed integer.
std::uint64_t cell_seed(std::uint64_t seed, int k) {
  return Rng::derive(seed, 0x5ce0 + static_cast<std::uint64_t>(k))() >> 1;
}

/// The run's PETs. Set-up is what a run pays before its first trial:
/// make_scenario plus CostModel for every PET, timed on the wall clock.
struct Cells {
  std::vector<Cell> cells;
  double setup_s = 0.0;
};

Cells build_cells(const Workload& w, std::uint64_t seed) {
  Cells out;
  const Clock::time_point t0 = Clock::now();
  for (int k = 0; k < w.scenarios; ++k) {
    ExperimentConfig config = w.config;
    config.seed = cell_seed(seed, k);
    Scenario scenario = build_scenario(config);
    CostModel cost_model(scenario.profile.cost_per_hour);
    out.cells.push_back(
        Cell{std::move(config), std::move(scenario), std::move(cost_model)});
  }
  out.setup_s = seconds_since(t0);
  return out;
}

/// A recorded engine trial and its serve-protocol stream.
struct Recorded {
  const Cell* cell = nullptr;
  ReplayLog log;
  std::vector<StreamEvent> events;
  TrialMetrics metrics;
};

Recorded record_trial(const Cell& cell, std::size_t trial) {
  Recorded r;
  r.cell = &cell;
  r.metrics =
      run_trial(cell.config, cell.scenario, cell.cost_model, trial, &r.log);
  r.events = to_stream_events(r.log);
  return r;
}

/// Trial 0 of each of the first `count` PETs, recorded.
std::vector<Recorded> record_streams(const Cells& cells, int count) {
  std::vector<Recorded> out;
  for (int k = 0; k < count; ++k) {
    out.push_back(record_trial(cells.cells[static_cast<std::size_t>(k)], 0));
  }
  return out;
}

/// Replays a recorded stream in-process with serve semantics. With
/// `spans`, mapper and dropper calls run inside traced decorators.
ReplayedStream replay_in_process(const Recorded& r,
                                 std::vector<double>* latency_ns,
                                 SpanRecorder* spans = nullptr,
                                 LayerCounts* mapper_counts = nullptr,
                                 LayerCounts* dropper_counts = nullptr,
                                 long long* mapping_events = nullptr,
                                 long long first_owner = 0) {
  const ExperimentConfig& config = r.cell->config;
  auto mapper = make_mapper(config.mapper, config.candidate_window);
  auto dropper = make_dropper(config.dropper);
  std::optional<TracedMapper> traced_mapper;
  std::optional<TracedDropper> traced_dropper;
  Mapper* m = mapper.get();
  Dropper* d = dropper.get();
  if (spans != nullptr) {
    m = &traced_mapper.emplace(*mapper, *spans, *mapper_counts);
    d = &traced_dropper.emplace(*dropper, *spans, *dropper_counts);
  }
  OnlineScheduler scheduler(r.cell->scenario.pet,
                            r.cell->scenario.profile.machine_types, *m, *d,
                            online_config_for(config));
  ReplayedStream out =
      serve_replay(scheduler, r.events, latency_ns, spans, first_owner);
  if (mapping_events != nullptr) *mapping_events += scheduler.mapping_events();
  return out;
}

/// Per-sample medians over a run's cycles. Every unit of work (a trial, a
/// stream, a daemon run, an event) is repeated once per cycle, so its
/// repeats are spread over the whole run; its median then ignores slow
/// stretches of the host that cover less than half the run.
class CycleSamples {
 public:
  explicit CycleSamples(std::size_t units) : samples_(units) {}
  void add(std::size_t unit, double value) { samples_[unit].push_back(value); }
  double median_of(std::size_t unit) const {
    return percentile(samples_[unit], 50.0);
  }
  double sum_of_medians() const {
    double sum = 0.0;
    for (std::size_t u = 0; u < samples_.size(); ++u) sum += median_of(u);
    return sum;
  }
  std::size_t units() const { return samples_.size(); }

 private:
  std::vector<std::vector<double>> samples_;
};

/// One decide cycle: every recorded stream replayed in-process, each event
/// timed into `latency_ns` (events of all streams, in order) and checked
/// against the engine's recorded decisions.
std::vector<ReplayedStream> run_decide_cycle(const std::vector<Recorded>& streams,
                                             CycleSamples& latency_ns,
                                             SpeedReference& speed, Result& r) {
  std::vector<ReplayedStream> out;
  std::vector<double> lat;
  std::size_t event = 0;
  for (const Recorded& rec : streams) {
    speed.sample();
    lat.clear();
    out.push_back(replay_in_process(rec, &lat));
    for (const double x : lat) latency_ns.add(event++, x);
    r.attempted += static_cast<long long>(rec.events.size());
    r.failed += mismatched_events(out.back(), rec.log.decisions);
  }
  return out;
}

std::size_t event_count(const std::vector<Recorded>& streams) {
  std::size_t n = 0;
  for (const Recorded& rec : streams) n += rec.events.size();
  return n;
}

/// decide_p50_us and decide_p999_us over every event's median latency. A
/// tail with fewer than 10 samples beyond p99.9 is not resolvable and
/// fails the run.
void report_decide(const CycleSamples& latency_ns, double slowdown, Result& r) {
  std::vector<double> per_event;
  per_event.reserve(latency_ns.units());
  for (std::size_t e = 0; e < latency_ns.units(); ++e) {
    per_event.push_back(latency_ns.median_of(e));
  }
  std::sort(per_event.begin(), per_event.end());
  const Tail p999 = nearest_rank(per_event, 99.9);
  r.scaled("decide_p50_us", nearest_rank(per_event, 50.0).value / 1e3,
           1.0 / slowdown, "us");
  r.scaled("decide_p999_us", p999.value / 1e3, 1.0 / slowdown, "us");
  r.note("decide_samples", static_cast<double>(p999.count));
  r.note("decide_samples_beyond_p999", static_cast<double>(p999.beyond));
  ++r.attempted;
  if (p999.beyond < 10) ++r.failed;
}

// ------------------------------------------------------------ serve child

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

/// The serve daemon for `config`, reading `stream` and logging to `out`.
std::vector<std::string> serve_argv(const Args& args, const ExperimentConfig& c,
                                    const std::string& stream,
                                    const std::string& out) {
  return {args.cli,
          "serve",
          "--scenario=spec_hc",
          "--mapper=" + c.mapper,
          "--dropper=" + c.dropper.name(),
          "--eta=" + std::to_string(c.dropper.effective_depth),
          "--beta=" + number(c.dropper.beta),
          "--capacity=" + std::to_string(c.queue_capacity),
          "--seed=" + std::to_string(c.seed),
          "--stream=" + stream,
          "--out=" + out,
          "--stats-out=" + out + ".stats"};
}

/// A directory for one run's stream files and daemon logs, removed when
/// the run ends.
class RunDir {
 public:
  explicit RunDir(const Args& args)
      : path_(args.work_dir + "/" + args.workload + "-" +
              std::to_string(getpid())) {
    std::filesystem::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  /// Path prefix for the run's files.
  std::string prefix() const { return path_ + "/"; }

 private:
  std::string path_;
};

/// The daemon's side of a serve run: each PET's recorded trial as a stream
/// file and the log the daemon must write for it, which is the operator<<
/// rendering of the engine's recorded decisions.
class ServeDaemon {
 public:
  ServeDaemon(const Args& args, Spawner& spawner,
              const std::vector<Recorded>& streams)
      : args_(args), spawner_(spawner), streams_(streams), dir_(args) {
    for (std::size_t k = 0; k < streams.size(); ++k) {
      stream_paths_.push_back(dir_.prefix() + std::to_string(k) + ".stream");
      write_file(stream_paths_.back(), render_stream(streams[k].events));
      expected_logs_.push_back(render_decisions(streams[k].log.decisions));
    }
    write_file(dir_.prefix() + "empty.stream", "");
  }

  /// Runs the daemon over stream `k` and checks its log byte for byte;
  /// `replayed` attributes a mismatch to the events whose records differ.
  ChildRun serve(std::size_t k, const ReplayedStream& replayed, Result& r) {
    const std::string log = dir_.prefix() + "serve.log";
    const ChildRun run = spawner_.run(serve_argv(
        args_, streams_[k].cell->config, stream_paths_[k], log));
    const std::string got = read_file(log);
    r.attempted += static_cast<long long>(streams_[k].events.size());
    if (run.exit_code != 0 || got != expected_logs_[k]) {
      r.failed += std::max(1LL, mismatched_log_events(got, replayed));
    }
    return run;
  }

  /// Seconds the last daemon spent inside its decision kernels, read from
  /// the `kernel_time_ms=` field of its stats summary.
  double last_kernel_s() const {
    const std::string stats = read_file(dir_.prefix() + "serve.log.stats");
    const std::string key = "kernel_time_ms=";
    const auto at = stats.find(key);
    if (at == std::string::npos) {
      throw std::runtime_error("serve stats carry no " + key);
    }
    return std::stod(stats.substr(at + key.size())) / 1e3;
  }

  /// Set-up time of the daemon: spawn to exit on an empty stream.
  double setup_s(Result& r) {
    const std::string log = dir_.prefix() + "empty.log";
    const ChildRun run = spawner_.run(serve_argv(
        args_, streams_.front().cell->config, dir_.prefix() + "empty.stream",
        log));
    ++r.attempted;
    if (run.exit_code != 0 || !read_file(log).empty()) ++r.failed;
    return run.wall_s;
  }

 private:
  const Args& args_;
  Spawner& spawner_;
  const std::vector<Recorded>& streams_;
  RunDir dir_;
  std::vector<std::string> stream_paths_;
  std::vector<std::string> expected_logs_;
};

double peak_rss_self_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------ untraced workloads

/// Cycles every run makes at least, whatever --seconds says, so every
/// median has three samples.
constexpr int kMinCycles = 3;

/// Decides whether to start another cycle: always until kMinCycles, then
/// only while one more cycle as long as the last fits in --seconds.
class CycleClock {
 public:
  explicit CycleClock(double seconds) : seconds_(seconds) {}
  bool another() {
    const double now = seconds_since(start_);
    const double last = now - last_end_;
    last_end_ = now;
    return cycles_++ < kMinCycles || now + last <= seconds_;
  }
  int cycles() const { return cycles_ - 1; }

 private:
  double seconds_;
  Clock::time_point start_ = Clock::now();
  double last_end_ = 0.0;
  int cycles_ = 0;
};

/// Reports the run's slowdown and returns it.
double report_speed(const SpeedReference& speed, Result& r) {
  r.note("host_slowdown", speed.slowdown());
  r.note("speed_samples", static_cast<double>(speed.samples()));
  return speed.slowdown();
}

void run_trials(const Args& args, const Workload& w, Result& r) {
  SpeedReference speed;
  speed.sample();
  const Cells cells = build_cells(w, args.seed);
  std::vector<double> setup_s = {cells.setup_s};
  const std::vector<Recorded> streams = record_streams(cells, w.decide_scenarios);
  const std::size_t units = cells.cells.size();
  // Reference metrics per trial: the recorded trials first, the rest from
  // their first run. Every later run must match bit for bit.
  std::vector<std::optional<TrialMetrics>> reference(units);
  for (std::size_t k = 0; k < streams.size(); ++k) {
    reference[k] = streams[k].metrics;
  }

  CycleSamples cpu(units), wall(units), latency_ns(event_count(streams));
  long long mapping_events = 0;
  double peak_rss_mb = 0.0;
  CycleClock clock(args.seconds);
  while (clock.another()) {
    for (std::size_t unit = 0; unit < units; ++unit) {
      const Cell& cell = cells.cells[unit];
      speed.sample();
      const Clock::time_point w0 = Clock::now();
      const double c0 = process_cpu_seconds();
      const TrialMetrics m =
          run_trial(cell.config, cell.scenario, cell.cost_model, 0);
      cpu.add(unit, process_cpu_seconds() - c0);
      wall.add(unit, seconds_since(w0));
      ++r.attempted;
      if (!reference[unit]) {
        reference[unit] = m;
      } else if (!same_metrics(m, *reference[unit])) {
        ++r.failed;
      }
      if (clock.cycles() == 0) mapping_events += m.mapping_events;
    }
    run_decide_cycle(streams, latency_ns, speed, r);
    speed.sample();
    setup_s.push_back(build_cells(w, args.seed).setup_s);
    // Read after the first cycle: later cycles repeat the same work, and
    // only the benchmark's own sample storage grows with their number.
    if (clock.cycles() == 0) peak_rss_mb = peak_rss_self_mb();
  }

  double robustness = 0.0;
  for (const auto& m : reference) robustness += m->robustness_pct;
  robustness /= static_cast<double>(units);
  const double tasks =
      static_cast<double>(w.config.workload.n_tasks) * static_cast<double>(units);

  const double slowdown = report_speed(speed, r);
  r.scaled("tasks_per_cpu_s", tasks / cpu.sum_of_medians(), slowdown, "1/s");
  r.metric("robustness_pct", robustness, "%");
  r.scaled("events_per_s",
           static_cast<double>(mapping_events) / wall.sum_of_medians(),
           slowdown, "1/s");
  report_decide(latency_ns, slowdown, r);
  r.scaled("setup_s", percentile(setup_s, 50.0), 1.0 / slowdown, "s");
  r.metric("peak_rss_mb", peak_rss_mb, "MB");
  r.note("trial_set", static_cast<double>(units));
  r.note("decide_streams", static_cast<double>(streams.size()));
  r.note("cycles", static_cast<double>(clock.cycles()));
}

void run_serve(const Args& args, Spawner& spawner, const Workload& w,
               Result& r) {
  const Cells cells = build_cells(w, args.seed);
  const std::vector<Recorded> streams = record_streams(cells, w.scenarios);
  ServeDaemon daemon(args, spawner, streams);

  double events = 0.0, arrivals = 0.0, robustness = 0.0;
  for (const Recorded& rec : streams) {
    events += static_cast<double>(rec.events.size());
    for (const StreamEvent& e : rec.events) {
      if (e.kind == StreamEvent::Kind::Arrive) arrivals += 1.0;
    }
    robustness += rec.metrics.robustness_pct;
  }
  SpeedReference speed;
  std::vector<double> setup_s;
  for (int i = 0; i < kMinCycles; ++i) {
    speed.sample();
    setup_s.push_back(daemon.setup_s(r));
  }
  CycleSamples wall(streams.size()), cpu(streams.size()),
      latency_ns(event_count(streams));
  double maxrss_mb = 0.0;
  CycleClock clock(args.seconds);
  while (clock.another()) {
    const std::vector<ReplayedStream> replayed =
        run_decide_cycle(streams, latency_ns, speed, r);
    for (std::size_t k = 0; k < streams.size(); ++k) {
      speed.sample();
      const ChildRun run = daemon.serve(k, replayed[k], r);
      wall.add(k, run.wall_s);
      cpu.add(k, run.cpu_s);
      maxrss_mb = std::max(maxrss_mb, run.maxrss_mb);
    }
    speed.sample();
    setup_s.push_back(daemon.setup_s(r));
  }

  const double slowdown = report_speed(speed, r);
  r.scaled("tasks_per_cpu_s", arrivals / cpu.sum_of_medians(), slowdown, "1/s");
  r.metric("robustness_pct", robustness / static_cast<double>(streams.size()),
           "%");
  r.scaled("events_per_s", events / wall.sum_of_medians(), slowdown, "1/s");
  report_decide(latency_ns, slowdown, r);
  r.scaled("setup_s", percentile(setup_s, 50.0), 1.0 / slowdown, "s");
  r.metric("peak_rss_mb", maxrss_mb, "MB");
  r.note("stream_events", events);
  r.note("stream_arrivals", arrivals);
  r.note("cycles", static_cast<double>(clock.cycles()));
}

// --------------------------------------------------------- traced run

/// Spans of one traced pass, with the counts of its decorators.
struct LayerPass {
  SpanRecorder spans;
  LayerCounts mapper;
  LayerCounts dropper;
};

double p99_us(const std::vector<Span>& spans, const char* name) {
  std::vector<double> ns;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      ns.push_back(static_cast<double>(s.duration_ns()));
    }
  }
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  return nearest_rank(ns, 99.0).value / 1e3;
}

double ms(const std::map<std::string, SpanTotals>& t, const char* name,
          double SpanTotals::*field) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.*field / 1e6;
}

double per_call(double total, long long calls) {
  return calls > 0 ? total / static_cast<double>(calls) : 0.0;
}

/// sched.* and core.* from the pass that carries the workload's decisions.
void report_decision_layers(const LayerPass& p, Result& r) {
  const auto t = totals_by_name(p.spans.spans());
  r.metric("sched.map_ms", ms(t, "sched.map_tasks", &SpanTotals::total_ns), "ms");
  r.metric("sched.map_calls", static_cast<double>(p.mapper.calls), "count");
  r.metric("sched.map_p99_us", p99_us(p.spans.spans(), "sched.map_tasks"), "us");
  r.metric("sched.batch_depth_mean",
           per_call(p.mapper.depth_sum, p.mapper.calls), "tasks");
  r.metric("sched.assign_yield",
           per_call(static_cast<double>(p.mapper.yield), p.mapper.calls), "ratio");
  r.metric("core.drop_ms", ms(t, "core.dropper_run", &SpanTotals::total_ns), "ms");
  r.metric("core.drop_calls", static_cast<double>(p.dropper.calls), "count");
  r.metric("core.drop_p99_us", p99_us(p.spans.spans(), "core.dropper_run"), "us");
  r.metric("core.queue_depth_mean",
           per_call(p.dropper.depth_sum, p.dropper.calls), "tasks");
  r.metric("core.drop_yield",
           per_call(static_cast<double>(p.dropper.yield), p.dropper.calls),
           "ratio");
}

/// exp/sim/workload/metrics layers of a traced trial pass. The layers'
/// self times must add up to the traced trial time.
void report_trial_layers(const LayerPass& p, Result& r) {
  const auto t = totals_by_name(p.spans.spans());
  double self_sum = 0.0;
  for (const auto& entry : t) self_sum += entry.second.self_ns;
  const double trial_ms = ms(t, "exp.run_trial", &SpanTotals::total_ns);
  ++r.attempted;
  if (std::fabs(self_sum / 1e6 - trial_ms) > 1e-9 * trial_ms) ++r.failed;
  r.metric("exp.trial_ms", trial_ms, "ms");
  r.metric("exp.self_ms", ms(t, "exp.run_trial", &SpanTotals::self_ns), "ms");
  r.metric("sim.self_ms", ms(t, "sim.engine_run", &SpanTotals::self_ns), "ms");
  r.metric("workload.generate_ms",
           ms(t, "workload.generate_trace", &SpanTotals::total_ns), "ms");
  r.metric("metrics.reduce_ms", ms(t, "metrics.compute", &SpanTotals::total_ns),
           "ms");
}

void report_online_layers(const LayerPass& p, double events,
                          long long mapping_events, double decisions,
                          Result& r) {
  double self_ns = 0.0;
  for (const auto& [name, totals] : totals_by_name(p.spans.spans())) {
    if (name.rfind("online.", 0) == 0) self_ns += totals.self_ns;
  }
  r.metric("online.self_us_per_event", self_ns / 1e3 / events, "us");
  r.metric("online.mapping_events", static_cast<double>(mapping_events), "count");
  r.metric("online.decisions", decisions, "count");
}

/// make_scenario for every PET of the run, median of five traced builds.
double pet_build_ms(const Workload& w, std::uint64_t seed) {
  SpanRecorder spans;
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan all(spans, "pet.build");
    for (int k = 0; k < w.scenarios; ++k) {
      ExperimentConfig config = w.config;
      config.seed = cell_seed(seed, k);
      ScopedSpan span(spans, "pet.make_scenario");
      const Scenario s = build_scenario(config);
    }
  }
  std::vector<double> ns;
  for (const Span& s : spans.spans()) {
    if (s.parent < 0) ns.push_back(static_cast<double>(s.duration_ns()));
  }
  return percentile(std::move(ns), 50.0) / 1e6;
}

/// Spans written to the Chrome trace file: enough for the first trials or
/// streams, small enough to open in a browser.
constexpr std::size_t kTraceFileSpans = 200000;

void run_traced(const Args& args, Spawner& spawner, const Workload& w,
                Result& r) {
  const Cells cells = build_cells(w, args.seed);

  // An untraced reference pass over the trial set (which also warms
  // caches), then each trial untraced and traced back to back: the traced
  // run must reproduce every TrialMetrics field, decision counts included,
  // and the pairs give the tracing overhead.
  std::vector<TrialMetrics> reference;
  for (const Cell& cell : cells.cells) {
    reference.push_back(
        run_trial(cell.config, cell.scenario, cell.cost_model, 0));
  }
  LayerPass trial_layers;
  double untraced_trials_cpu = 0.0, traced_trials_cpu = 0.0;
  for (std::size_t k = 0; k < cells.cells.size(); ++k) {
    const Cell& cell = cells.cells[k];
    double c = process_cpu_seconds();
    const TrialMetrics plain =
        run_trial(cell.config, cell.scenario, cell.cost_model, 0);
    untraced_trials_cpu += process_cpu_seconds() - c;
    c = process_cpu_seconds();
    const TrialMetrics traced = traced_trial(
        cell.config, cell.scenario, cell.cost_model, 0,
        static_cast<long long>(k), trial_layers.spans, trial_layers.mapper,
        trial_layers.dropper);
    traced_trials_cpu += process_cpu_seconds() - c;
    r.attempted += 2;
    if (!same_metrics(plain, reference[k])) ++r.failed;
    if (!same_metrics(traced, reference[k])) ++r.failed;
  }

  // Decide streams replayed in-process, untraced and traced.
  const std::vector<Recorded> streams =
      record_streams(cells, w.serve ? w.scenarios : w.decide_scenarios);
  LayerPass online_layers;
  long long mapping_events = 0;
  double events = 0.0, decisions = 0.0;
  double untraced_online_cpu = 0.0, traced_online_cpu = 0.0;
  std::vector<ReplayedStream> plain;
  for (const Recorded& rec : streams) {
    double c = process_cpu_seconds();
    plain.push_back(replay_in_process(rec, nullptr));
    untraced_online_cpu += process_cpu_seconds() - c;
    c = process_cpu_seconds();
    const ReplayedStream traced = replay_in_process(
        rec, nullptr, &online_layers.spans, &online_layers.mapper,
        &online_layers.dropper, &mapping_events,
        static_cast<long long>(events));
    traced_online_cpu += process_cpu_seconds() - c;
    r.attempted += 2 * static_cast<long long>(rec.events.size());
    r.failed += mismatched_events(plain.back(), rec.log.decisions);
    r.failed += mismatched_events(traced, rec.log.decisions);
    events += static_cast<double>(rec.events.size());
    decisions += static_cast<double>(traced.decisions.size());
  }

  report_decision_layers(w.serve ? online_layers : trial_layers, r);
  report_trial_layers(trial_layers, r);
  report_online_layers(online_layers, events, mapping_events, decisions, r);

  // serve wall = set-up + decide + the CLI's parse/validate/format/write
  // loop; the last term is what tools.serve_loop_us_per_event isolates.
  // The decide term is the daemon's own kernel timer, which covers the
  // same span as the in-process samples but in the same process run as
  // the wall time it is taken from. Each term is a median over cycles.
  double serve_loop_us = 0.0;
  if (w.serve) {
    ServeDaemon daemon(args, spawner, streams);
    CycleSamples wall_s(streams.size()), kernel_s(streams.size());
    std::vector<double> setup_s;
    for (int cycle = 0; cycle < kMinCycles; ++cycle) {
      for (std::size_t k = 0; k < streams.size(); ++k) {
        wall_s.add(k, daemon.serve(k, plain[k], r).wall_s);
        kernel_s.add(k, daemon.last_kernel_s());
      }
      setup_s.push_back(daemon.setup_s(r));
    }
    serve_loop_us = (wall_s.sum_of_medians() -
                     percentile(setup_s, 50.0) * static_cast<double>(streams.size()) -
                     kernel_s.sum_of_medians()) *
                    1e6 / events;
  }
  r.metric("tools.serve_loop_us_per_event", serve_loop_us, "us");
  r.metric("pet.build_ms", pet_build_ms(w, args.seed), "ms");
  const double untraced = w.serve ? untraced_online_cpu : untraced_trials_cpu;
  const double traced = w.serve ? traced_online_cpu : traced_trials_cpu;
  r.metric("bench.trace_overhead_pct", (traced / untraced - 1.0) * 100.0, "%");

  const std::string trace_path =
      args.work_dir + "/trace-" + args.workload + ".json";
  std::ofstream trace_out(trace_path);
  (w.serve ? online_layers : trial_layers)
      .spans.write_chrome_trace(trace_out, kTraceFileSpans);
  r.note("trace_file", quoted(trace_path));
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to run from a build without NDEBUG "
               "(assertions on, not an optimised build)\n";
  return 2;
#endif
  try {
    // Forked first, while perfbench is still small (see Spawner).
    Spawner spawner;
    const Args args = parse_args(argc, argv);
    const Workload w = make_workload(args.workload);
    Result r;
    r.note("workload", quoted(args.workload));
    r.note("seed", std::to_string(args.seed));
    r.note("scenarios", static_cast<double>(w.scenarios));
    r.note("compiler", quoted(PERFBENCH_COMPILER));
    r.note("cxx_flags", quoted(PERFBENCH_CXX_FLAGS));
    r.note("build_type", quoted(PERFBENCH_BUILD_TYPE));
    const Clock::time_point t0 = Clock::now();
    if (args.trace) {
      run_traced(args, spawner, w, r);
    } else if (w.serve) {
      run_serve(args, spawner, w, r);
    } else {
      run_trials(args, w, r);
    }
    r.note("run_wall_s", seconds_since(t0));
    print_result(r);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
}
