#pragma once

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "online/online_scheduler.hpp"
#include "online/snapshot.hpp"
#include "online/stream_event.hpp"
#include "sched/registry.hpp"

namespace taskdrop::test {

/// A live-mode serve stack: the scheduler and the PET, mapper and dropper
/// it runs on, all owned. Built in place (a factory returns it as a
/// prvalue), since the scheduler refers to the other three.
struct ServeStack {
  PetMatrix pet;
  std::unique_ptr<Mapper> mapper;
  std::unique_ptr<Dropper> dropper;
  OnlineScheduler scheduler;

  ServeStack(PetMatrix pet_matrix, std::vector<MachineTypeId> fleet,
             const std::string& mapper_name,
             const DropperConfig& dropper_config,
             const OnlineConfig& config = {})
      : pet(std::move(pet_matrix)),
        mapper(make_mapper(mapper_name)),
        dropper(make_dropper(dropper_config)),
        scheduler(pet, std::move(fleet), *mapper, *dropper, config) {}
};

/// One event's decisions, one line each, as the serve daemon logs them.
inline std::string render(const std::vector<Decision>& decisions) {
  std::ostringstream out;
  for (const Decision& decision : decisions) out << decision << '\n';
  return out.str();
}

/// Feeds one event through serve's step (every Start offer confirmed at
/// once) and renders its decisions.
inline std::string apply(OnlineScheduler& scheduler, const StreamEvent& event) {
  return render(apply_stream_event(scheduler, event));
}

/// Runs `script[0..split)` on a stack from `make`, snapshots, restores into
/// an entirely fresh stack from `make` (new mapper, new dropper, new
/// scheduler) and finishes the script there — the kill-and-resume
/// scenario. Returns the rendered decisions of the whole script.
template <class MakeStack>
std::string run_split(const std::vector<StreamEvent>& script,
                      std::size_t split, const SpecMap& echo,
                      const MakeStack& make) {
  auto first = make();
  std::string out;
  for (std::size_t i = 0; i < split; ++i) {
    out += apply(first.scheduler, script[i]);
  }
  const std::string snapshot = snapshot_to_string(first.scheduler, echo);
  auto second = make();
  restore_from_string(second.scheduler, snapshot, echo);
  for (std::size_t i = split; i < script.size(); ++i) {
    out += apply(second.scheduler, script[i]);
  }
  return out;
}

}  // namespace taskdrop::test
