#include "lab/engine.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/log.hpp"
#include "common/retry.hpp"
#include "common/stats.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "lab/journal.hpp"
#include "obs/metrics.hpp"

namespace gridtrust::lab {

namespace {

const obs::Counter kCellsRun("lab.cells_run");
const obs::Counter kUnitsRun("lab.units_run");
const obs::Counter kFailures("lab.failures");
const obs::Histogram kUnitNs("lab.unit_ns", obs::duration_bounds_ns());

/// Aggregates one cell's per-replication reports (the [begin, end) slice of
/// the flat unit-result array) in first-seen metric order.  Failed units
/// hold default-constructed (empty) reports, so they contribute nothing and
/// each metric's n records the surviving sample count.
AggregateSet aggregate_reports(const std::vector<obs::RunReport>& all,
                               std::size_t begin, std::size_t end) {
  AggregateSet out;
  std::vector<std::string> order;
  std::unordered_set<std::string> seen;
  for (std::size_t r = begin; r < end; ++r) {
    for (const std::string& name : all[r].names()) {
      if (seen.insert(name).second) order.push_back(name);
    }
  }
  for (const std::string& name : order) {
    RunningStats stats;
    for (std::size_t r = begin; r < end; ++r) {
      // Series entries are per-replication vectors; summaries are about
      // scalars, so they are skipped by design (documented in spec.hpp).
      if (!all[r].has(name)) continue;
      try {
        stats.add(all[r].get(name));
      } catch (const PreconditionError&) {
        continue;  // a series under this name
      }
    }
    if (stats.count() == 0) continue;
    out.set(name, MetricAggregate{stats.mean(), stats.ci95_halfwidth(),
                                  stats.count()});
  }
  return out;
}

/// How one (cell, replication) unit ended.
enum class UnitState : unsigned char { kNotRun, kOk, kFailed };

}  // namespace

std::string git_revision() {
#ifdef GRIDTRUST_GIT_REV
  return GRIDTRUST_GIT_REV;
#else
  return "unknown";
#endif
}

Manifest manifest_header(const SweepSpec& spec, std::uint64_t seed,
                         std::size_t replications) {
  Manifest manifest;
  manifest.spec = spec.name;
  manifest.title = spec.title;
  manifest.git_rev = git_revision();
  manifest.seed = seed;
  manifest.replications = replications;
  manifest.tolerance_pct = spec.tolerance_pct;
  // The hash records the sweep as actually run (overrides applied).
  SweepSpec effective = spec;
  effective.seed = seed;
  effective.replications = replications;
  manifest.spec_hash = hash_hex(effective.content_hash());
  return manifest;
}

SweepRun run_sweep(const SweepSpec& spec, const EngineOptions& options) {
  GT_REQUIRE(spec.run != nullptr,
             "spec \"" + spec.name + "\" has no runner");
  // gt-lint: allow(GT001 wall_seconds is engine metadata, never exported)
  const auto t0 = std::chrono::steady_clock::now();

  const std::uint64_t seed = options.seed.value_or(spec.seed);
  const std::size_t replications =
      options.replications.value_or(spec.replications);
  GT_REQUIRE(replications >= 1, "need at least one replication");

  SweepRun run;
  run.manifest = manifest_header(spec, seed, replications);

  const std::vector<Cell> cells = spec.cells();
  run.manifest.cells.resize(cells.size());

  // Shard restriction: only subset cells are eligible to run, resume, or
  // count toward the budget; the rest stay default-initialized (the
  // supervisor overwrites them from sibling shards during the merge).
  std::vector<char> eligible(cells.size(), 1);
  std::size_t eligible_count = cells.size();
  if (options.cell_subset != nullptr) {
    std::fill(eligible.begin(), eligible.end(), 0);
    eligible_count = 0;
    for (const std::size_t i : *options.cell_subset) {
      GT_REQUIRE(i < cells.size(),
                 "cell_subset index " + std::to_string(i) +
                     " outside the grid (" + std::to_string(cells.size()) +
                     " cells)");
      if (eligible[i] == 0) ++eligible_count;
      eligible[i] = 1;
    }
  }
  run.cells = eligible_count;

  // The checkpoint journal holds every finalized cell, ok or failed, and
  // is re-flushed atomically after each one, so a crash at any instant
  // leaves a parseable record of all finished work.  `journal_slot` maps a
  // grid index to its record, so a re-run replaces the old record.
  constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  Journal journal;
  journal.spec = spec.name;
  journal.spec_hash = run.manifest.spec_hash;
  journal.seed = seed;
  journal.replications = replications;
  std::vector<std::size_t> journal_slot(cells.size(), kNoSlot);
  const bool journaling = !options.journal_path.empty();
  const auto journal_record = [&](std::size_t i, ManifestCell record) {
    if (journal_slot[i] == kNoSlot) {
      journal_slot[i] = journal.cells.size();
      journal.cells.push_back(std::move(record));
    } else {
      journal.cells[journal_slot[i]] = std::move(record);
    }
  };

  // Resume: a journal of this sweep written by this build re-anchors onto
  // the grid (select_cell_records picks one record per cell).  Only `ok`
  // cells short-circuit; a failed record stays in the journal until this
  // run's fresh record for that cell replaces it.  Any other journal is
  // ignored and overwritten below; load_journal throws, before anything is
  // written, when the file's header does not parse.
  std::vector<char> done(cells.size(), 0);
  if (journaling) {
    journal.build = build_id();
    std::vector<Journal> previous;
    if (std::optional<Journal> loaded = load_journal(options.journal_path)) {
      if (loaded->spec_hash == run.manifest.spec_hash) {
        previous.push_back(std::move(*loaded));
      } else {
        log_warn("journal ", options.journal_path, " records spec ",
                 loaded->spec, "/", loaded->spec_hash, ", not this sweep (",
                 spec.name, "/", run.manifest.spec_hash,
                 "); ignoring its cells");
      }
    }
    const std::vector<const ManifestCell*> picked =
        select_cell_records(cells, previous);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (picked[i] == nullptr || eligible[i] == 0) continue;
      journal_record(i, *picked[i]);
      if (picked[i]->status != CellStatus::kOk) continue;
      run.manifest.cells[i] = *picked[i];
      done[i] = 1;
      ++run.cells_resumed;
    }
  }

  std::vector<std::size_t> missing;  // indices into `cells`
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (eligible[i] != 0 && done[i] == 0) missing.push_back(i);
  }

  if (journaling) {
    // Flush the header (plus any resumed records) before work starts,
    // so even a crash in the first cell leaves a resumable journal.
    atomic_write_file(options.journal_path, journal_to_jsonl(journal));
  }

  // Fan out (cell, replication) units over the pool; every unit owns a
  // preallocated slot, so execution order cannot affect the results.  Each
  // unit runs once and is fault-contained: a throw from the runner is
  // recorded as a structured UnitFailure instead of aborting the sweep.
  const std::size_t units = missing.size() * replications;
  std::vector<obs::RunReport> reports(units);
  std::vector<UnitState> unit_states(units, UnitState::kNotRun);
  std::vector<UnitFailure> unit_failures(units);

  // Counts tracked atomically because workers update them concurrently.
  std::atomic<std::size_t> units_run{0};
  std::atomic<std::size_t> units_failed{0};

  // With the zero failure budget the contract is "rethrow the first
  // failure": keep the failed unit's exception with the lowest index so
  // the choice is deterministic under any worker interleaving.
  FirstErrorSlot first_error;

  // Per-cell countdown: the worker that completes a cell's last unit
  // finalizes it (aggregate + journal flush) immediately, so
  // checkpoints land as cells finish, not at the end of the sweep.
  auto remaining =
      std::make_unique<std::atomic<std::size_t>[]>(missing.size());
  for (std::size_t m = 0; m < missing.size(); ++m) {
    remaining[m].store(replications, std::memory_order_relaxed);
  }
  Mutex finalize_mutex;  // serializes journal flushes

  const auto finalize_cell = [&](std::size_t m) {
    const std::size_t i = missing[m];
    const Cell& cell = cells[i];
    kCellsRun.add();

    ManifestCell out;
    out.index = cell.index;
    out.params = cell.params;
    out.param_hash = hash_hex(cell_param_hash(cell));
    out.replications = replications;
    for (std::size_t rep = 0; rep < replications; ++rep) {
      const std::size_t unit = m * replications + rep;
      if (unit_states[unit] == UnitState::kFailed) {
        out.failures.push_back(unit_failures[unit]);
      }
    }
    out.status =
        out.failures.empty() ? CellStatus::kOk : CellStatus::kFailed;
    out.metrics =
        aggregate_reports(reports, m * replications, (m + 1) * replications)
            .entries();
    if (out.status == CellStatus::kOk && spec.finalize) {
      AggregateSet aggregate;
      for (const auto& [name, metric] : out.metrics) {
        aggregate.set(name, metric);
      }
      try {
        spec.finalize(cell, aggregate);
        out.metrics = aggregate.entries();
      } catch (...) {
        const std::exception_ptr error = std::current_exception();
        UnitFailure failure;
        failure.rep = replications;  // sentinel: not a replication failure
        failure.seed = seed;
        failure.error_class = classify_error(error);
        failure.message = "finalize: " + describe_error(error);
        out.failures.push_back(std::move(failure));
        out.status = CellStatus::kFailed;
        units_failed.fetch_add(1, std::memory_order_relaxed);
        kFailures.add();
        first_error.note((m + 1) * replications - 1, error);
      }
    }

    const MutexLock lock(&finalize_mutex);
    run.manifest.cells[i] = out;
    if (journaling) {
      journal_record(i, std::move(out));
      atomic_write_file(options.journal_path, journal_to_jsonl(journal));
    }
    // Fired after the journal flush, so a subscriber sees only cells the
    // journal already holds.
    if (options.on_cell_complete) options.on_cell_complete();
  };

  const auto run_unit = [&](std::size_t unit) {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      return;  // drained: state stays kNotRun, cell countdown stays short
    }
    const std::size_t m = unit / replications;
    const Cell& cell = cells[missing[m]];
    const std::size_t rep = unit % replications;
    const std::uint64_t rep_seed =
        derive_rep_seed(seed, cell_param_hash(cell), rep);
    kUnitsRun.add();
    units_run.fetch_add(1, std::memory_order_relaxed);

    try {
      obs::ScopedTimer timer(kUnitNs);
      if (options.unit_sleep_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.unit_sleep_ms));
      }
      reports[unit] = spec.run(cell, rep_seed);
      unit_states[unit] = UnitState::kOk;
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      UnitFailure failure;
      failure.rep = rep;
      failure.seed = rep_seed;
      failure.error_class = classify_error(error);
      failure.message = describe_error(error);
      unit_failures[unit] = std::move(failure);
      unit_states[unit] = UnitState::kFailed;
      units_failed.fetch_add(1, std::memory_order_relaxed);
      kFailures.add();
      first_error.note(unit, error);
    }

    // acq_rel: the finalizing (last) decrementer must observe every other
    // unit's report/state writes.
    if (remaining[m].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finalize_cell(m);
    }
    if (options.on_unit_complete) options.on_unit_complete();
  };

  ThreadPool* pool = nullptr;
  std::unique_ptr<ThreadPool> owned;
  if (options.jobs == 0) pool = &ThreadPool::shared();
  if (options.jobs >= 2) {
    owned = std::make_unique<ThreadPool>(options.jobs);
    pool = owned.get();
  }
  if (pool != nullptr) {
    pool->parallel_for(units, run_unit);
  } else {
    for (std::size_t unit = 0; unit < units; ++unit) run_unit(unit);
  }

  run.units_run = units_run.load();
  run.units_failed = units_failed.load();

  // Cells whose countdown never hit zero were cut short by cancellation:
  // mark them skipped (partial replications are never aggregated, so a
  // resumed run stays bit-identical to an uninterrupted one).
  bool any_skipped = false;
  for (std::size_t m = 0; m < missing.size(); ++m) {
    if (remaining[m].load(std::memory_order_acquire) == 0) {
      if (run.manifest.cells[missing[m]].status == CellStatus::kFailed) {
        ++run.cells_failed;
      }
      continue;
    }
    any_skipped = true;
    ++run.cells_skipped;
    const Cell& cell = cells[missing[m]];
    ManifestCell& out = run.manifest.cells[missing[m]];
    out.index = cell.index;
    out.params = cell.params;
    out.param_hash = hash_hex(cell_param_hash(cell));
    out.replications = replications;
    out.status = CellStatus::kSkipped;
  }

  const bool cancelled =
      options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed);
  if (cancelled && any_skipped) {
    run.manifest.outcome = RunOutcome::kInterrupted;
  } else if (run.units_failed > 0) {
    const std::size_t total_units = eligible_count * replications;
    const double failed_pct = 100.0 *
                              static_cast<double>(run.units_failed) /
                              static_cast<double>(total_units);
    if (failed_pct > options.failure_budget_pct) {
      // Over budget (or strict zero-budget mode): the journal already
      // holds every completed cell, so completed work survives the throw.
      first_error.rethrow_if_error();
    }
    run.manifest.outcome = RunOutcome::kPartial;
  }

  run.wall_seconds =
      // gt-lint: allow(GT001 wall_seconds goes to the terminal, not manifest)
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return run;
}

}  // namespace gridtrust::lab
