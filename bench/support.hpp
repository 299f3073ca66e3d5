// Shared scaffolding for the bench binaries.
//
// Three families live here:
//
//   * Catalog-backed benches (the six paper tables, the chaos robustness
//     sweep, the pricing and batch-interval ablations) are thin wrappers
//     over the lab sweep engine: `add_lab_flags` + `run_catalog_spec` run a
//     registered spec (src/lab/catalog.cpp, docs/experiments-catalog.md)
//     and render it.  The numbers they print are exactly the numbers
//     `gridtrust_lab run <spec>` records in a manifest.
//
//   * Scenario benches that explore parameters no catalog spec fixes keep
//     the original flag set: `add_common_flags` + `builder_from_flags` /
//     `scenario_from_flags`.  Their trust-aware vs unaware comparisons run
//     on the same engine through `run_paired_sweep` (lab::paired_spec).
//
//   * Closed-loop benches run chaos campaigns on a small fixed-shape Grid
//     whose resource domains are pinned to known conduct:
//     `closed_loop_builder`.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "lab/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario_builder.hpp"

namespace gridtrust::bench {

/// Registers the flags shared by every scenario bench (including the obs
/// --metrics-out flag).
void add_common_flags(CliParser& cli);

/// Seeds a ScenarioBuilder from the parsed shared flags (machines,
/// arrival rate, ESC pricing, table correlation).  Mode, heuristic, and
/// heterogeneity stay at their defaults; callers layer those on top.
sim::ScenarioBuilder builder_from_flags(const CliParser& cli);

/// Builds the base scenario for Tables 4-9 from parsed flags.
sim::Scenario scenario_from_flags(const CliParser& cli);

/// Runs a paired trust-aware vs unaware sweep (lab::paired_spec) over
/// `axes` serially, with --replications and --seed from the shared flags,
/// and returns its manifest: one cell per grid point, in row-major order.
lab::Manifest run_paired_sweep(
    const CliParser& cli, const std::string& name, std::vector<lab::Axis> axes,
    std::function<sim::Scenario(const lab::Cell&)> scenario_for);

/// A closed-loop campaign scenario: 6 machines, `client_domains` CDs, and
/// one RD per entry of `rd_conduct`, pinned to that latent conduct mean
/// (chaos::pinned_rd_conduct).
sim::ScenarioBuilder closed_loop_builder(std::size_t client_domains,
                                         const std::vector<double>& rd_conduct);

/// Registers the flags shared by every catalog-backed bench: engine
/// overrides (--replications, --seed, --jobs), output
/// (--out manifest path, --csv), and the obs --metrics-out flag.
void add_lab_flags(CliParser& cli);

/// Engine options from parsed `add_lab_flags` flags.
lab::EngineOptions engine_options_from_flags(const CliParser& cli);

/// Runs one registered catalog spec on the sweep engine and prints it:
/// the paper's Tables 4-9 layout when `paper_layout`, the generic sweep
/// grid otherwise, through lab::print_run_summary (the CLI's printer).
/// Writes the manifest when --out is set.  Returns the SweepRun so callers
/// can layer acceptance checks on the manifest.
lab::SweepRun run_catalog_spec(const CliParser& cli,
                               const std::string& spec_name,
                               bool paper_layout);

/// Complete main body for the six table benches: runs `spec_name` and
/// renders it in the paper's layout.  Returns the run's exit code
/// (lab::outcome_exit_code) so mains can
/// `return run_paper_table_spec(cli, "table4")`.
int run_paper_table_spec(const CliParser& cli, const std::string& spec_name);

}  // namespace gridtrust::bench
