// The registered experiment catalog.
//
// Every named sweep the `gridtrust_lab` CLI (and the migrated bench
// binaries) can run is declared here: the six paper schedule tables, the
// chaos robustness sweep, the ESC-pricing and batch-interval ablations, and
// the CI smoke spec.  Each entry in this registry has a matching section in
// docs/experiments-catalog.md — keep the two in sync (CONTRIBUTING.md,
// "Adding an experiment").  `paired_spec` is the one trust-aware vs
// unaware runner; benches, examples and tests build their sweeps with it.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "lab/spec.hpp"
#include "sim/experiment.hpp"

namespace gridtrust::lab {

/// All registered specs, in catalog order.
const std::vector<SweepSpec>& builtin_specs();

/// Lookup by name; nullptr when unknown.
const SweepSpec* find_spec(const std::string& name);

/// Named suites (groups of spec names): "tables" is the six-table paper
/// suite, "ablations" the ablation sweeps, "all" everything registered.
const std::vector<std::pair<std::string, std::vector<std::string>>>& suites();

/// Expands `name` to spec names: a suite name expands to its members, a
/// spec name to itself; empty when neither exists.
std::vector<std::string> resolve_run_names(const std::string& name);

/// A trust-aware vs trust-unaware sweep over `axes`, the comparison behind
/// the paper's Tables 4-9.  Each replication draws one instance of
/// `scenario_for(cell)` from its rep seed and schedules it twice on common
/// random numbers: trust-unaware, then trust-aware.  The spec comes back
/// with `axes`, `run`, `finalize` and `display_metrics` set; callers name
/// it and set replications, seed and presentation.
///
/// Per-replication metrics: `unaware.*` and `aware.*` (makespan,
/// utilization_pct, mean_flow_time, flow_time_p95, batches) and
/// `makespan_diff`, whose ci95 is the paired confidence interval.  A
/// scenario with a non-empty chaos config also reports
/// `chaos.faults_injected`, the fault windows applied to the drawn EEC
/// matrix.  `finalize` derives `improvement_pct` (the improvement of the
/// mean makespans) and `significant` (1 when the paired CI excludes zero).
SweepSpec paired_spec(std::vector<Axis> axes,
                      std::function<sim::Scenario(const Cell&)> scenario_for);

}  // namespace gridtrust::lab
