#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.hpp"
#include "pet/pet_matrix.hpp"
#include "prob/fft.hpp"
#include "prob/pmf.hpp"

namespace taskdrop::test {

/// Pmf from an initializer list of (time, probability) impulses.
inline Pmf pmf_of(std::initializer_list<std::pair<Tick, double>> impulses,
                  Tick stride = 1) {
  return Pmf::from_impulses(
      std::vector<std::pair<Tick, double>>(impulses.begin(), impulses.end()),
      stride);
}

/// A frozen PET matrix whose cells are explicit PMFs. `cells[t][m]` is the
/// impulse list for task type t on machine type m. Deterministic cells
/// (single impulses) make hand-computed expectations exact.
inline PetMatrix pet_of(
    std::vector<std::vector<std::vector<std::pair<Tick, double>>>> cells,
    Tick stride = 1) {
  const int task_types = static_cast<int>(cells.size());
  const int machine_types = static_cast<int>(cells.front().size());
  PetMatrix pet(task_types, machine_types);
  for (int t = 0; t < task_types; ++t) {
    for (int m = 0; m < machine_types; ++m) {
      pet.set(t, m,
              Pmf::from_impulses(cells[static_cast<std::size_t>(t)]
                                      [static_cast<std::size_t>(m)],
                                 stride));
    }
  }
  pet.freeze();
  return pet;
}

/// 1 task type x 1 machine type PET with the given execution PMF.
inline PetMatrix single_cell_pet(
    std::initializer_list<std::pair<Tick, double>> impulses, Tick stride = 1) {
  return pet_of({{std::vector<std::pair<Tick, double>>(impulses.begin(),
                                                       impulses.end())}},
                stride);
}

/// Restores the production FFT crossover (fft_min_bins) whatever a test
/// does to it.
class FftGateGuard {
 public:
  FftGateGuard() : saved_(fft_min_bins()) {}
  ~FftGateGuard() { set_fft_min_bins(saved_); }
  FftGateGuard(const FftGateGuard&) = delete;
  FftGateGuard& operator=(const FftGateGuard&) = delete;

 private:
  std::size_t saved_;
};

/// First sweep cell matching the predicate, or nullptr.
inline const SweepCellResult* find_cell(
    const SweepReport& report,
    const std::function<bool(const SweepCellResult&)>& pred) {
  for (const SweepCellResult& cell : report.cells) {
    if (pred(cell)) return &cell;
  }
  return nullptr;
}

/// The unique sweep cell whose point matches every (axis, label) pair;
/// throws std::out_of_range when absent.
inline const SweepCellResult& cell_at(
    const SweepReport& report,
    std::initializer_list<std::pair<const char*, std::string>> where) {
  const SweepCellResult* found = find_cell(report, [&](const auto& cell) {
    for (const auto& [axis, label] : where) {
      if (axis_label(cell.point, axis) != label) return false;
    }
    return true;
  });
  if (found == nullptr) {
    std::string description;
    for (const auto& [axis, label] : where) {
      if (!description.empty()) description += ", ";
      description += std::string(axis) + "=" + label;
    }
    throw std::out_of_range("sweep cell not found: " + description);
  }
  return *found;
}

}  // namespace taskdrop::test
