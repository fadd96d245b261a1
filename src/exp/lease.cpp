#include "exp/lease.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exp/scenario_cache.hpp"
#include "metrics/report.hpp"
#include "util/atomic_file.hpp"

namespace taskdrop {
namespace {

const char* const kPlanSchema = "taskdrop-lease-plan/v1";

/// Unique per-process suffix for steal renames: two thieves must never
/// pick the same destination name even when they share an owner string.
std::string unique_suffix() {
  static std::atomic<unsigned long long> sequence{0};
  return std::to_string(static_cast<long long>(::getpid())) + "." +
         std::to_string(sequence.fetch_add(1));
}

/// Renews a claim's heartbeat from a background thread while the owning
/// worker computes the lease body.
class HeartbeatGuard {
 public:
  HeartbeatGuard(const LeaseDir& dir, const SweepLeaseRange& lease,
                 std::int64_t period_ms)
      : dir_(dir),
        lease_(lease),
        period_ms_(std::max<std::int64_t>(period_ms, 1)),
        thread_([this] { run(); }) {}

  HeartbeatGuard(const HeartbeatGuard&) = delete;
  HeartbeatGuard& operator=(const HeartbeatGuard&) = delete;

  ~HeartbeatGuard() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                         [&] { return stopped_; })) {
      lock.unlock();
      try {
        dir_.renew(lease_);
      } catch (const std::exception&) {
        // A failed renewal must not terminate the process (exceptions may
        // not escape a thread body); the claim simply ages toward being
        // stolen, and the bitwise re-execution contract makes that safe.
      }
      lock.lock();
    }
  }

  const LeaseDir& dir_;
  const SweepLeaseRange lease_;
  const std::int64_t period_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace

LeasePlan LeasePlan::build(const SweepSpec& spec) {
  spec.validate();
  LeasePlan plan;
  plan.spec_map = canonical_spec_map(spec);
  const std::vector<SweepCell> cells = expand(spec);
  const std::size_t trials = static_cast<std::size_t>(spec.trials);
  const std::size_t units = cells.size() * trials;

  // Each unit weighs its cell's n_tasks * oversubscription, and cuts land
  // at the cumulative-weight quantiles, so cells of larger levels spread
  // over more leases instead of serializing the tail.
  const auto weight = [&cells](std::size_t cell) {
    return static_cast<double>(cells[cell].config.workload.n_tasks) *
           cells[cell].config.workload.oversubscription;
  };
  const std::size_t target =
      std::min(units, std::clamp<std::size_t>(units / 8, 16, 256));
  double total = 0.0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    total += weight(c) * static_cast<double>(trials);
  }
  std::size_t begin = 0;
  double cumulative = 0.0;
  for (std::size_t u = 0; u < units; ++u) {
    cumulative += weight(u / trials);
    const std::size_t lease_index = plan.ranges.size();
    if (lease_index + 1 == target) break;  // the final lease takes the rest
    const std::size_t units_after = units - (u + 1);
    const std::size_t leases_after = target - lease_index - 1;
    const bool quota_met =
        cumulative >= total * static_cast<double>(lease_index + 1) /
                          static_cast<double>(target);
    // Never cut so late that a later lease would come up empty.
    if ((quota_met || units_after == leases_after) &&
        units_after >= leases_after) {
      plan.ranges.push_back(
          {static_cast<long long>(lease_index), begin, u + 1});
      begin = u + 1;
    }
  }
  plan.ranges.push_back(
      {static_cast<long long>(plan.ranges.size()), begin, units});
  return plan;
}

std::string LeasePlan::to_text() const {
  std::ostringstream out;
  out << kPlanSchema << "\n";
  out << "leases " << ranges.size() << "\n";
  for (const SweepLeaseRange& lease : ranges) {
    out << "lease " << lease.id << " " << lease.begin << " " << lease.end
        << "\n";
  }
  out << "spec\n" << spec_to_text(spec_map);
  // Every worker re-reads the plan from disk, so the spec must survive the
  // text round trip exactly (a sweep name containing a comma would not).
  if (parse_spec_text(spec_to_text(spec_map)) != spec_map) {
    throw std::invalid_argument(
        "lease plan: spec map does not round-trip through its text "
        "rendering — rename the sweep (no commas, brackets or newlines)");
  }
  return out.str();
}

LeasePlan LeasePlan::from_text(const std::string& text) {
  std::istringstream in(text);
  const auto fail = [](const std::string& message) -> void {
    throw std::invalid_argument("lease plan: " + message);
  };
  std::string line;
  if (!std::getline(in, line) || line != kPlanSchema) {
    fail("unsupported plan header (expected \"" + std::string(kPlanSchema) +
         "\")");
  }
  std::size_t count = 0;
  {
    if (!std::getline(in, line)) fail("truncated plan: no lease count");
    std::istringstream fields(line);
    std::string word;
    if (!(fields >> word >> count) || word != "leases") {
      fail("malformed lease count line '" + line + "'");
    }
  }
  LeasePlan plan;
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) fail("truncated plan: missing lease line");
    std::istringstream fields(line);
    std::string word;
    SweepLeaseRange lease;
    if (!(fields >> word >> lease.id >> lease.begin >> lease.end) ||
        word != "lease") {
      fail("malformed lease line '" + line + "'");
    }
    lease.validate();
    // The ranges must tile the unit grid in order: plan files are written
    // by LeasePlan::build, so anything else is hand-edited or corrupt.
    if (lease.id != static_cast<long long>(i) ||
        lease.begin != (plan.ranges.empty() ? 0 : plan.ranges.back().end)) {
      fail("lease ranges do not tile the unit grid in order at " +
           lease_text(lease));
    }
    plan.ranges.push_back(lease);
  }
  if (plan.ranges.empty()) fail("plan holds no leases");
  if (!std::getline(in, line) || line != "spec") {
    fail("truncated plan: missing spec section");
  }
  std::ostringstream spec_text;
  while (std::getline(in, line)) spec_text << line << "\n";
  plan.spec_map = parse_spec_text(spec_text.str());
  return plan;
}

LeaseDir::LeaseDir(std::string dir, std::int64_t timeout_ms, std::string owner)
    : dir_(std::move(dir)), timeout_ms_(timeout_ms), owner_(std::move(owner)) {
  if (dir_.empty()) {
    throw std::invalid_argument("lease dir: empty directory path");
  }
  if (timeout_ms_ < 1) {
    throw std::invalid_argument("lease timeout must be >= 1 ms, got " +
                                std::to_string(timeout_ms_));
  }
  if (owner_.empty()) {
    throw std::invalid_argument("lease dir: empty owner name");
  }
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create lease dir " + dir_ + ": " +
                             std::strerror(errno));
  }
}

std::string LeaseDir::plan_path() const { return dir_ + "/plan.txt"; }

std::string LeaseDir::claim_path(const SweepLeaseRange& lease) const {
  return dir_ + "/lease_" + std::to_string(lease.id) + ".claim";
}

std::string LeaseDir::result_path(const SweepLeaseRange& lease) const {
  return dir_ + "/lease_" + std::to_string(lease.id) + ".json";
}

bool LeaseDir::result_exists(const SweepLeaseRange& lease) const {
  return ::access(result_path(lease).c_str(), F_OK) == 0;
}

LeasePlan LeaseDir::publish_or_load_plan(const LeasePlan& plan) const {
  // First writer wins; every worker (the winner included) adopts the file,
  // so a directory keeps the partition it was begun with, whatever plan
  // this build would compute.
  atomic_create_file(plan_path(), plan.to_text());
  std::ifstream in(plan_path());
  if (!in) throw std::runtime_error("cannot read " + plan_path());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  LeasePlan agreed = LeasePlan::from_text(buffer.str());
  if (agreed.spec_map != plan.spec_map) {
    throw std::invalid_argument(
        "lease dir " + dir_ +
        " holds a plan for a different sweep spec — point --lease-dir at a "
        "fresh directory (or finish/remove the old sweep first)");
  }
  return agreed;
}

namespace {

/// Claim-file content: owner for diagnostics, heartbeat for expiry.
std::string claim_stamp(const std::string& owner) {
  return "owner " + owner + "\nheartbeat " + std::to_string(monotonic_ms()) +
         "\n";
}

/// Heartbeat of an existing claim file; false when the file vanished or is
/// unreadable (the caller re-examines the directory state).
bool read_heartbeat(const std::string& path, std::int64_t* heartbeat) {
  std::ifstream in(path);
  if (!in) return false;
  std::string word;
  while (in >> word) {
    if (word == "heartbeat") return static_cast<bool>(in >> *heartbeat);
  }
  return false;
}

}  // namespace

LeaseDir::Claim LeaseDir::try_claim(const SweepLeaseRange& lease) const {
  const std::string claim = claim_path(lease);
  for (;;) {
    if (result_exists(lease)) return Claim::Done;
    if (atomic_create_file(claim, claim_stamp(owner_))) {
      // The result may have been published between the existence check and
      // the claim (owner finished, dropped its claim); yield ownership.
      if (result_exists(lease)) {
        release(lease);
        return Claim::Done;
      }
      return Claim::Acquired;
    }
    std::int64_t heartbeat = 0;
    if (!read_heartbeat(claim, &heartbeat)) continue;  // vanished: re-check
    if (monotonic_ms() - heartbeat <= timeout_ms_) return Claim::Busy;
    // Expired claim: steal it. The rename moves the dead claim out of the
    // way atomically — when several workers race for the corpse, exactly
    // one rename succeeds and the losers re-examine the directory.
    const std::string dead = claim + ".dead." + unique_suffix();
    if (::rename(claim.c_str(), dead.c_str()) != 0) continue;
    ::unlink(dead.c_str());
    if (atomic_create_file(claim, claim_stamp(owner_))) {
      if (result_exists(lease)) {
        release(lease);
        return Claim::Done;
      }
      return Claim::Stolen;
    }
    // Another worker slipped its claim in after our steal; it is live.
    return Claim::Busy;
  }
}

void LeaseDir::renew(const SweepLeaseRange& lease) const {
  atomic_write_file(claim_path(lease), claim_stamp(owner_));
}

void LeaseDir::release(const SweepLeaseRange& lease) const {
  ::unlink(claim_path(lease).c_str());
}

void LeaseDir::publish_result(const SweepLeaseRange& lease,
                              const std::string& json) const {
  // Result first, claim second: a crash between the two leaves a claim
  // that expires and gets stolen, and the thief's try_claim finds the
  // result and reports Done — never a lost or half-written result.
  atomic_write_file(result_path(lease), json);
  release(lease);
}

ElasticSweepStats run_sweep_elastic(const SweepSpec& spec,
                                    const ElasticSweepOptions& options) {
  spec.validate();
  if (options.lease_dir.empty()) {
    throw std::invalid_argument("elastic sweep: lease_dir is required");
  }
  const std::string owner =
      options.owner.empty() ? "pid-" + std::to_string(::getpid())
                            : options.owner;
  const LeaseDir dir(options.lease_dir, options.lease_timeout_ms, owner);
  const LeasePlan plan = dir.publish_or_load_plan(LeasePlan::build(spec));

  const auto emit = [&](const std::string& line) {
    if (options.on_event) options.on_event(line);
  };

  ElasticSweepStats stats;
  stats.leases_total = plan.ranges.size();
  std::vector<bool> finished(plan.ranges.size(), false);
  std::vector<bool> ran(plan.ranges.size(), false);

  ScenarioCache cache;
  const std::int64_t poll_ms =
      std::clamp<std::int64_t>(options.lease_timeout_ms / 4, 10, 500);
  // Start each worker's scan at a different lease so simultaneous launches
  // fan out instead of hammering lease 0 in lockstep.
  const std::size_t scan_offset =
      std::hash<std::string>{}(owner) % plan.ranges.size();

  for (;;) {
    bool progressed = false;
    for (std::size_t scan = 0; scan < plan.ranges.size(); ++scan) {
      const std::size_t i = (scan + scan_offset) % plan.ranges.size();
      if (finished[i]) continue;
      const SweepLeaseRange& lease = plan.ranges[i];
      const LeaseDir::Claim claim = dir.try_claim(lease);
      if (claim == LeaseDir::Claim::Done) {
        finished[i] = true;
        progressed = true;
        if (!ran[i]) {
          ++stats.leases_skipped;
          emit(lease_text(lease) + " already done");
        }
        continue;
      }
      if (claim == LeaseDir::Claim::Busy) continue;
      const bool stolen = claim == LeaseDir::Claim::Stolen;
      emit(lease_text(lease) + (stolen ? " stolen from expired claim"
                                       : " acquired"));
      SweepReport report;
      {
        HeartbeatGuard heartbeat(dir, lease, options.lease_timeout_ms / 3);
        try {
          SweepOptions sweep_options;
          sweep_options.threads = options.threads;
          sweep_options.cache = &cache;
          sweep_options.lease = lease;
          report = run_sweep(spec, sweep_options);
        } catch (...) {
          // Free the claim so another worker can take over immediately
          // instead of waiting out the timeout; then surface the failure.
          heartbeat.stop();
          dir.release(lease);
          throw;
        }
      }
      std::ostringstream json;
      write_sweep_json(json, report);
      dir.publish_result(lease, json.str());
      finished[i] = true;
      ran[i] = true;
      ++stats.leases_run;
      if (stolen) ++stats.leases_stolen;
      progressed = true;
      emit(lease_text(lease) + " published");
    }
    if (std::find(finished.begin(), finished.end(), false) ==
        finished.end()) {
      break;
    }
    if (!progressed) {
      // Everything left is held by live workers: wait for their results to
      // land or their heartbeats to expire.
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  }
  return stats;
}

}  // namespace taskdrop
