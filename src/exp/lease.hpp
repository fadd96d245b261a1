#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/sweep.hpp"

namespace taskdrop {

// --- Elastic lease-based sweep execution. A lease directory is a
// filesystem coordinator shared by any number of worker processes on one
// host: the unit grid (flat cell-major (cell, trial) indices, see
// sweep_unit) is partitioned into contiguous (stride-1) leases by a plan
// file, and each range is claimed through an atomically created claim
// file carrying a monotonic heartbeat. Workers renew their heartbeat while
// computing, publish the range's mergeable shard JSON atomically, and
// release; a worker that finds a claim whose heartbeat is older than the
// timeout steals it (rename-away, so exactly one thief wins) and re-runs
// the range. Deterministic per-(cell, trial) seeding makes re-execution safe:
// a stolen range reproduces the exact bytes, and merge_sweep_reports with
// allow_reexecuted verifies that bitwise. Killing every worker and
// re-launching resumes for free — ranges whose result files landed are
// skipped.
//
// Directory layout (`<dir>/`):
//   plan.txt           the agreed partition (first writer wins)
//   lease_<id>.claim   live claim: "owner <name>" + "heartbeat <ms>" lines
//   lease_<id>.json    published result (mergeable shard JSON)

/// The partition of the unit grid into contiguous leases. The plan is
/// agreed through the directory: the first worker publishes its plan
/// atomically and every later worker adopts it verbatim, so a directory
/// keeps the partition it was begun with, even under a build that would
/// cut the grid differently.
struct LeasePlan {
  /// Canonical spec rendering (canonical_spec_map) the plan was built for.
  SpecMap spec_map;
  std::vector<SweepLeaseRange> ranges;

  /// Cuts the U = cells.size() * trials units into K = min(U, clamp(U/8,
  /// 16, 256)) contiguous leases at the quantiles of a cumulative weight:
  /// each unit weighs its cell's n_tasks * oversubscription, so cells of
  /// larger levels get shorter leases. Equal slices of U/8 and of U/4
  /// were each about 10% slower on some grid and worker shape (README,
  /// "Elastic sweeps").
  static LeasePlan build(const SweepSpec& spec);

  /// Versioned text form stored as plan.txt; from_text(to_text()) is
  /// exact. Throws std::invalid_argument when the spec map does not
  /// round-trip through spec_to_text (pathological names).
  std::string to_text() const;
  static LeasePlan from_text(const std::string& text);
};

/// The filesystem coordinator for one lease directory. All operations are
/// crash-safe: claim files are created exclusively via link(2) staging and
/// results via tmp+rename, so readers never observe partial content.
class LeaseDir {
 public:
  enum class Claim {
    Acquired,  ///< claim created; caller owns the lease
    Stolen,    ///< expired claim reclaimed; caller owns the lease
    Busy,      ///< live claim held elsewhere
    Done,      ///< result already published
  };

  /// `owner` names this worker in claim files (diagnostics only; steal
  /// uniqueness comes from rename, not the name).
  LeaseDir(std::string dir, std::int64_t timeout_ms, std::string owner);

  const std::string& dir() const { return dir_; }
  const std::string& owner() const { return owner_; }

  /// Publishes `plan` as plan.txt unless one exists, then loads whichever
  /// won. Throws std::invalid_argument when the directory's plan was built
  /// for a different spec (a stale lease dir must not silently corrupt a
  /// new sweep).
  LeasePlan publish_or_load_plan(const LeasePlan& plan) const;

  /// Tries to take ownership of `lease`: Done when its result file exists,
  /// Acquired on a fresh claim, Stolen when an expired claim was reclaimed,
  /// Busy when a live claim (heartbeat within the timeout) is held
  /// elsewhere.
  Claim try_claim(const SweepLeaseRange& lease) const;

  /// Overwrites the claim's heartbeat with the current monotonic time.
  /// Harmlessly resurrects a claim file after a concurrent steal — the
  /// thief's published result wins, and try_claim checks results first.
  void renew(const SweepLeaseRange& lease) const;

  /// Abandons a claim without publishing (error paths), so another worker
  /// can claim the lease immediately instead of waiting out the timeout.
  void release(const SweepLeaseRange& lease) const;

  /// Atomically publishes the lease's mergeable shard JSON, then drops the
  /// claim.
  void publish_result(const SweepLeaseRange& lease,
                      const std::string& json) const;

  bool result_exists(const SweepLeaseRange& lease) const;

  std::string plan_path() const;
  std::string claim_path(const SweepLeaseRange& lease) const;
  std::string result_path(const SweepLeaseRange& lease) const;

 private:
  std::string dir_;
  std::int64_t timeout_ms_;
  std::string owner_;
};

struct ElasticSweepOptions {
  /// Lease directory (created if absent). Required.
  std::string lease_dir;
  /// A claim whose heartbeat is older than this is considered dead and
  /// gets stolen. Must comfortably exceed the renewal period (timeout/3).
  std::int64_t lease_timeout_ms = 30000;
  /// Worker threads per lease (run_sweep semantics; 0 = hardware).
  std::size_t threads = 0;
  /// Worker name for claim files; empty derives "pid-<pid>".
  std::string owner;
  /// Progress lines ("lease 3 [24, 48) acquired", ...), serialized.
  std::function<void(const std::string&)> on_event;
};

struct ElasticSweepStats {
  std::size_t leases_total = 0;
  std::size_t leases_run = 0;      ///< computed by this worker
  std::size_t leases_stolen = 0;   ///< of leases_run, reclaimed from dead owners
  std::size_t leases_skipped = 0;  ///< result already present at first visit
};

/// Runs the spec's unit grid through the lease directory until every lease
/// has a published result, claiming and computing whatever is free and
/// waiting out (or stealing) leases held elsewhere. Heartbeats are renewed
/// from a background thread while a lease computes. Returns per-worker
/// stats; after it returns, `merge --allow-reexecuted` over
/// <dir>/lease_*.json reproduces the unsharded report byte for byte.
ElasticSweepStats run_sweep_elastic(const SweepSpec& spec,
                                    const ElasticSweepOptions& options);

}  // namespace taskdrop
