#include "sched/registry.hpp"

#include <stdexcept>

#include "util/spec_parser.hpp"

#include "core/approx_dropper.hpp"
#include "core/null_dropper.hpp"
#include "core/optimal_dropper.hpp"
#include "core/proactive_heuristic_dropper.hpp"
#include "core/threshold_dropper.hpp"
#include "sched/edf.hpp"
#include "sched/fcfs.hpp"
#include "sched/max_min.hpp"
#include "sched/met.hpp"
#include "sched/min_min.hpp"
#include "sched/msd.hpp"
#include "sched/pam.hpp"
#include "sched/round_robin.hpp"
#include "sched/sjf.hpp"

namespace taskdrop {
namespace {

/// from_spec inputs come from files and CLI flags; the util/spec_parser
/// whole-string parses make "2x" and overflow loud errors.
std::string param_context(const std::string& key) {
  return "dropper parameter " + key;
}

}  // namespace

std::unique_ptr<Mapper> make_mapper(const std::string& name,
                                    int candidate_window) {
  // A window below 1 admits no candidate: every mapper would assign
  // nothing and every task would expire unmapped.
  if (candidate_window < 1) {
    throw std::invalid_argument("mapper candidate window must be >= 1, got " +
                                std::to_string(candidate_window));
  }
  if (name == "MM" || name == "MinMin") {
    return std::make_unique<MinMinMapper>(candidate_window);
  }
  if (name == "MSD") return std::make_unique<MsdMapper>(candidate_window);
  if (name == "PAM") return std::make_unique<PamMapper>(candidate_window);
  if (name == "PAMD") {
    // Deferring PAM: threshold 0.3, Gentry et al.'s default regime.
    return std::make_unique<PamMapper>(candidate_window, 0.3);
  }
  if (name == "MaxMin") return std::make_unique<MaxMinMapper>(candidate_window);
  if (name == "MET") return std::make_unique<MetMapper>(candidate_window);
  if (name == "RR") return std::make_unique<RoundRobinMapper>(candidate_window);
  if (name == "FCFS") return std::make_unique<FcfsMapper>(candidate_window);
  if (name == "SJF") return std::make_unique<SjfMapper>(candidate_window);
  if (name == "EDF") return std::make_unique<EdfMapper>(candidate_window);
  throw std::invalid_argument("unknown mapper: " + name + " (available: " +
                              join_spec_list(mapper_names()) + ")");
}

std::vector<std::string> mapper_names() {
  return {"MSD", "MM", "PAM", "FCFS", "EDF", "SJF", "MaxMin", "MET", "RR",
          "PAMD"};
}

DropperConfig DropperConfig::from_spec(
    const std::string& name, const std::map<std::string, std::string>& params) {
  DropperConfig config;
  if (name == "reactive") {
    config = reactive_only();
  } else if (name == "heuristic") {
    config = heuristic();
  } else if (name == "optimal") {
    config = optimal();
  } else if (name == "threshold") {
    config = threshold();
  } else if (name == "approx") {
    config = approximate();
  } else {
    throw std::invalid_argument("unknown dropper: " + name +
                                " (available: " +
                                join_spec_list(dropper_names()) + ")");
  }
  const bool tunable_depth =
      config.kind == Kind::Heuristic || config.kind == Kind::Approx;
  for (const auto& [key, value] : params) {
    if (key == "eta") {
      if (tunable_depth) {
        config.effective_depth = parse_spec_int(param_context(key), value);
        if (config.effective_depth < 1) {
          throw std::invalid_argument("dropper parameter eta must be >= 1, "
                                      "got " + value);
        }
      }
    } else if (key == "beta") {
      if (tunable_depth) {
        config.beta = parse_spec_double(param_context(key), value);
        if (config.beta < 1.0) {
          throw std::invalid_argument("dropper parameter beta must be >= 1, "
                                      "got " + value);
        }
      }
    } else if (key == "threshold") {
      if (config.kind == Kind::Threshold) {
        config.base_threshold = parse_spec_double(param_context(key), value);
      }
    } else if (key == "adaptive") {
      if (config.kind == Kind::Threshold) {
        config.adaptive_threshold = parse_spec_bool(param_context(key), value);
      }
    } else {
      throw std::invalid_argument(
          "unknown dropper parameter: " + key +
          " (available: eta, beta, threshold, adaptive)");
    }
  }
  return config;
}

std::string DropperConfig::name() const {
  switch (kind) {
    case Kind::ReactiveOnly: return "reactive";
    case Kind::Heuristic: return "heuristic";
    case Kind::Optimal: return "optimal";
    case Kind::Threshold: return "threshold";
    case Kind::Approx: return "approx";
  }
  return "?";
}

std::vector<std::string> dropper_names() {
  return {"reactive", "heuristic", "optimal", "threshold", "approx"};
}

std::unique_ptr<Dropper> make_dropper(const DropperConfig& config) {
  switch (config.kind) {
    case DropperConfig::Kind::ReactiveOnly:
      return std::make_unique<NullDropper>();
    case DropperConfig::Kind::Heuristic:
      return std::make_unique<ProactiveHeuristicDropper>(
          ProactiveHeuristicDropper::Params{config.effective_depth,
                                            config.beta});
    case DropperConfig::Kind::Optimal:
      return std::make_unique<OptimalDropper>();
    case DropperConfig::Kind::Threshold:
      return std::make_unique<ThresholdDropper>(ThresholdDropper::Params{
          config.base_threshold, config.adaptive_threshold});
    case DropperConfig::Kind::Approx:
      return std::make_unique<ApproxDropper>(
          ApproxDropper::Params{config.effective_depth, config.beta});
  }
  throw std::invalid_argument("unknown dropper kind");
}

}  // namespace taskdrop
