// Test helper: one scenario run as a one-cell paired sweep on the lab
// engine (lab::paired_spec).
//
// Every call uses the same cell parameters, so two calls with the same seed
// and replication count derive the same rep seeds and draw the same
// instances: the runs are paired on common random numbers and differ only
// in their scenarios.
#pragma once

#include <cstddef>
#include <cstdint>

#include "lab/catalog.hpp"
#include "lab/engine.hpp"

namespace gridtrust::test_support {

inline lab::ManifestCell run_paired_cell(const sim::Scenario& scenario,
                                         std::size_t replications,
                                         std::uint64_t seed) {
  lab::SweepSpec spec = lab::paired_spec(
      {{"scenario", {"fixed"}}},
      [scenario](const lab::Cell&) { return scenario; });
  spec.name = "paired_cell";
  spec.replications = replications;
  spec.seed = seed;
  return lab::run_sweep(spec).manifest.cells.front();
}

}  // namespace gridtrust::test_support
