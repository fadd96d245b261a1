#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "online/online_scheduler.hpp"

namespace taskdrop {

/// Deterministic, versioned text serialization of full OnlineScheduler
/// state — the survivability half of the online admission service: a
/// daemon killed mid-stream restores from its last snapshot and continues
/// emitting a decision stream byte-identical to the uninterrupted run
/// (tests/online_snapshot_test.cpp and the serve kill-and-resume smoke
/// lock this down).
///
/// Format (one record per line, space-separated tokens, '\n' line ends):
///
///   taskdrop-online-snapshot v2
///   config n=<K> pet=<fingerprint>
///   <key> = <value>                               (K lines, spec_to_text)
///   clock now=<tick>
///   flags deadline_miss_pending=<0|1>
///   counters mapping_events=.. dropper_invocations=.. shed=..
///   mapper name=<name> state=<token|->
///   tasks n=<N>
///   T <id> <type> <arrival> <deadline> <state> <approx> <machine>
///     ... <start> <finish> <drop> <actual>        (N lines, one line each)
///   machines n=<M>
///   M <id> <type> <up> <running> <run_start> <run_end> <run_token>
///     ... <busy> <offer> q <k> <ids...>           (M lines, one line each)
///   batch n=<K> <ids in arrival order...>
///   end taskdrop-online-snapshot
///
/// What is serialized is exactly the *logical* state: the task table, machine
/// queues and execution status, the batch queue (arrival order), the
/// advisory-offer latches, the clock, the deadline-miss latch, the event
/// counters and the mapper's cross-event state, beside a PET content
/// fingerprint and the driver's configuration echo (serve: the cell's spec map
/// without `name` and the trial-only keys, plus the shed watermarks). restore()
/// refuses any other echo or PET, and any v1 snapshot, whose echo held neither
/// the dropper nor the candidate window. Completion chains, CDF views and every
/// revision-keyed memo are *derived* state and deliberately not serialized:
/// rebuilding them from the logical state is bit-identical to the incrementally
/// maintained originals (the chain-vs-rebuild lockdown suite), and the
/// droppers' examined-revision skips are pure optimisations whose
/// re-examination reproduces the identical decisions.
///
/// snapshot()/restore() live on OnlineScheduler (implemented in
/// snapshot.cpp); the helpers here are the string conveniences and the
/// PET fingerprint shared with tests.

/// FNV-1a content fingerprint of a PET matrix (shape + every cell's
/// lattice and probability bits). Two scenarios that differ in seed or
/// kind differ here, so restore() can reject a snapshot taken against a
/// different PET.
std::uint64_t pet_fingerprint(const PetMatrix& pet);

/// Convenience: snapshot to / restore from a string.
std::string snapshot_to_string(const OnlineScheduler& scheduler,
                               const SpecMap& echo);
void restore_from_string(OnlineScheduler& scheduler,
                         const std::string& snapshot, const SpecMap& echo);

}  // namespace taskdrop
