// Rendering sweep manifests as the repo's uniform TextTables.
//
// Formatting used to be hand-rolled per bench; migrated benches and the
// gridtrust_lab CLI now render straight from the Manifest, so the numbers a
// table shows are exactly the numbers the manifest (and any committed
// baseline) records.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "lab/manifest.hpp"
#include "lab/spec.hpp"

namespace gridtrust::lab {

/// Generic grid rendering: one row per cell, one column per axis, then one
/// `mean ± ci95` column per display metric (all metrics when the spec names
/// none).
TextTable sweep_table(const SweepSpec& spec, const Manifest& manifest);

/// The exact layout of the paper's Tables 4-9 (task-count rows, Using-trust
/// No/Yes pairs) from a manifest whose cells carry the paired metrics
/// (unaware.*, aware.*, improvement_pct); throws PreconditionError when a
/// cell lacks one.
TextTable paper_schedule_table(const std::string& title,
                               const Manifest& manifest);

/// One "tasks=50: improvement 23.0% (95% CI half-width 3.2%, n=50)" line
/// per cell of a paired sweep.
std::vector<std::string> paired_summaries(const Manifest& manifest);

}  // namespace gridtrust::lab
