#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dropper.hpp"
#include "sched/mapper.hpp"

namespace taskdrop {

/// Named construction of mapping heuristics. The paper's six: "MM"
/// (alias "MinMin"), "MSD", "PAM", "FCFS", "SJF", "EDF". Extras provided by
/// this repo: "PAMD" (PAM with batch-queue deferring re-enabled), "MaxMin",
/// "MET", "RR". Case-sensitive; throws std::invalid_argument for unknown
/// names and for a candidate window below 1.
std::unique_ptr<Mapper> make_mapper(const std::string& name,
                                    int candidate_window = 256);

/// All registered mapper names, in the order the paper's figures use them.
std::vector<std::string> mapper_names();

/// Declarative dropping-mechanism configuration used by the experiment
/// harness and the registry.
struct DropperConfig {
  enum class Kind {
    ReactiveOnly,  ///< NullDropper: reactive deadline drops only
    Heuristic,     ///< ProactiveHeuristicDropper (the paper's contribution)
    Optimal,       ///< OptimalDropper (exhaustive subset search)
    Threshold,     ///< ThresholdDropper (PAM+Threshold baseline)
    Approx,        ///< ApproxDropper (drop-or-downgrade; section VI
                   ///< future-work extension — requires the engine's
                   ///< approximate-computing model to be enabled)
  };

  Kind kind = Kind::Heuristic;
  int effective_depth = 2;      ///< eta   (Heuristic, Approx)
  double beta = 1.0;            ///< beta  (Heuristic, Approx)
  double base_threshold = 0.5;  ///< Threshold
  bool adaptive_threshold = true;

  static DropperConfig reactive_only() {
    return DropperConfig{Kind::ReactiveOnly, 2, 1.0, 0.5, true};
  }
  static DropperConfig heuristic(int eta = 2, double beta = 1.0) {
    return DropperConfig{Kind::Heuristic, eta, beta, 0.5, true};
  }
  static DropperConfig optimal() {
    return DropperConfig{Kind::Optimal, 2, 1.0, 0.5, true};
  }
  static DropperConfig threshold(double base = 0.5, bool adaptive = true) {
    return DropperConfig{Kind::Threshold, 2, 1.0, base, adaptive};
  }
  static DropperConfig approximate(int eta = 2, double beta = 1.0) {
    return DropperConfig{Kind::Approx, eta, beta, 0.5, true};
  }

  /// Text-driven construction: `name` is one of dropper_names() and
  /// `params` tunes it ("eta", "beta", "threshold", "adaptive"). Parameters
  /// that do not apply to the named kind are ignored so a sweep can hand
  /// every dropper the same grid point; unknown parameter keys and
  /// malformed values throw std::invalid_argument, as do unknown names
  /// (listing the available set).
  static DropperConfig from_spec(
      const std::string& name,
      const std::map<std::string, std::string>& params = {});

  /// The registry name this config round-trips through ("heuristic", ...).
  std::string name() const;

  bool operator==(const DropperConfig&) const = default;
};

/// All registered dropper names, in the order the paper introduces them.
std::vector<std::string> dropper_names();

std::unique_ptr<Dropper> make_dropper(const DropperConfig& config);

}  // namespace taskdrop
