// Rendering sweep manifests as the repo's uniform TextTables.
//
// Formatting used to be hand-rolled per bench; migrated benches and the
// gridtrust_lab CLI now render straight from the Manifest, so the numbers a
// table shows are exactly the numbers the manifest (and any committed
// baseline) records.
#pragma once

#include <ostream>
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

/// How print_run_summary reports one finished run.
struct RunSummary {
  std::string stats;           ///< run-stats line(s) printed after `expected:`
  std::string outcome_counts;  ///< detail printed as `outcome: <o> (<counts>)`
  bool show_outcome = false;   ///< print the outcome even for a clean run
  bool csv = false;            ///< CSV instead of the ASCII table
  bool paper_layout = false;   ///< paper_schedule_table, not sweep_table
  std::string out_path;        ///< write the manifest here (empty = don't)
};

/// Reports a finished run the same way for the CLI and the benches: the
/// table, paired summaries, `expected:`, the stats, the outcome line plus
/// one line per failure (whenever the run is not complete, a cell failed,
/// or `show_outcome`), and the manifest written atomically to `out_path`.
/// Returns the run's exit code (outcome_exit_code).
int print_run_summary(std::ostream& out, const SweepSpec& spec,
                      const Manifest& manifest, const RunSummary& summary);

}  // namespace gridtrust::lab
