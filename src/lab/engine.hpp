// The sweep engine: expands a SweepSpec's grid, fans (cell, replication)
// units out over a ThreadPool, and aggregates the RunReports into a
// Manifest.
//
// Determinism contract: every unit's seed is derive_rep_seed(master seed,
// cell parameter hash, replication index) — a pure function of the spec, not
// of scheduling — and every unit writes into a preallocated slot, so running
// with one worker, sixteen workers, or the shared pool produces bit-identical
// manifests.  The checkpoint journal (lab/journal.hpp) is the one store of
// finished cells: resumed and fresh cells are indistinguishable in the
// output.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lab/manifest.hpp"
#include "lab/spec.hpp"

namespace gridtrust::lab {

/// Execution knobs.  None of these can change the *numbers* — they decide
/// how failures, crashes, and interruptions are handled around the pure
/// (cell, rep_seed) computation.
struct EngineOptions {
  /// Worker threads: 1 = serial in the calling thread, N >= 2 = a pool of N,
  /// 0 = the process-wide ThreadPool::shared() sized to the hardware.
  std::size_t jobs = 1;
  /// Override the spec's master seed / replication count for this run.
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> replications;

  /// Percentage of the sweep's (cell, replication) units allowed to fail
  /// before the run aborts.  Each unit runs once; a failed cell is
  /// journaled and re-runs on the next run with the same journal.  0
  /// (default) keeps the historical strict contract: the first failed
  /// unit's exception is rethrown (after every other unit has been
  /// attempted).  > 0 downgrades a within-budget run to outcome `partial`
  /// instead of throwing.
  double failure_budget_pct = 0.0;
  /// Checkpoint journal path: the one recovery path for finished cells.
  /// If the file holds a journal of this sweep (spec hash) written by this
  /// build, its `ok` cells re-load and only the remainder runs; a journal
  /// of another sweep or build is ignored with a warning.  Then every
  /// finalized cell, ok or failed, is flushed here via atomic
  /// write-temp-then-rename as it finishes.  A file whose header does not
  /// parse throws PreconditionError and is left untouched.  Empty disables.
  std::string journal_path;
  /// Cooperative cancellation (the CLI points this at its signal flag).
  /// Once set, no new unit starts; in-flight units drain, fully-finished
  /// cells are journaled, the rest are marked `skipped`, and the manifest
  /// outcome becomes `interrupted`.
  const std::atomic<bool>* cancel = nullptr;
  /// Test aid: artificial latency (ms) added to every unit, to widen the
  /// interruption window in kill/resume tests.  Never changes results.
  std::uint64_t unit_sleep_ms = 0;

  /// Restrict the run to these grid indices (the supervisor's shards).
  /// Cells outside the subset are left untouched in the manifest and do
  /// not count toward the failure budget or the outcome.  nullptr (the
  /// default) runs the whole grid.  Values must be valid grid indices.
  const std::vector<std::size_t>* cell_subset = nullptr;
  /// Fired after a *fresh* cell finalizes — after its journal flush, for
  /// ok and failed cells alike (resumed cells never fire).  Runs under the
  /// engine's finalize lock; keep it cheap.  The supervisor's scripted
  /// worker faults count cells from here.
  std::function<void()> on_cell_complete;
  /// Fired after every (cell, replication) unit finishes, ok or failed —
  /// the supervisor's workers derive heartbeats from this.
  std::function<void()> on_unit_complete;
};

/// One engine run: the manifest plus execution facts that deliberately stay
/// *out* of the manifest (so manifests stay byte-stable across jobs and
/// resume configurations).
struct SweepRun {
  Manifest manifest;
  std::size_t cells = 0;
  std::size_t units_run = 0;     ///< (cell, replication) pairs computed fresh
  std::size_t units_failed = 0;  ///< units whose runner threw
  std::size_t cells_failed = 0;
  std::size_t cells_skipped = 0;  ///< never (fully) ran: interrupted
  std::size_t cells_resumed = 0;  ///< re-loaded from the journal
  double wall_seconds = 0.0;
};

/// Runs the sweep.  Throws PreconditionError on a spec without a runner,
/// with an empty axis, or on a journal file whose header does not parse.
/// Runner exceptions are contained per unit (see
/// EngineOptions::failure_budget_pct); with the default zero budget the
/// first failed unit's exception is rethrown once every unit has been
/// attempted, after the journal (if any) has been flushed.
SweepRun run_sweep(const SweepSpec& spec, const EngineOptions& options = {});

/// The manifest header run_sweep would produce for (spec, seed,
/// replications) — identity fields only, `cells` empty.  The supervisor
/// merges shard journals under exactly this header so the merged document
/// is byte-identical to a single-process run's.
Manifest manifest_header(const SweepSpec& spec, std::uint64_t seed,
                         std::size_t replications);

/// The git revision baked in at configure time ("unknown" outside a git
/// checkout).  Recorded in manifests; ignored by compare_manifests.
std::string git_revision();

}  // namespace gridtrust::lab
