#include "lab/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/subprocess.hpp"
#include "obs/metrics.hpp"

namespace gridtrust::lab {

namespace {

const obs::Counter kWorkersSpawned("lab.supervisor.workers_spawned");
const obs::Counter kWorkersLost("lab.supervisor.workers_lost");
const obs::Counter kWorkersRespawned("lab.supervisor.workers_respawned");
const obs::Counter kCellsReassigned("lab.supervisor.cells_reassigned");
const obs::Counter kHeartbeatsMissed("lab.supervisor.heartbeats_missed");

// Frame protocol (child -> coordinator): heartbeats only, each a single
// "H" byte.  Finished cells travel through the shard journals, which the
// coordinator merges once every worker is done.
constexpr char kFrameHeartbeat = 'H';

/// Coordinator poll cadence: short enough that heartbeat deadlines are
/// checked promptly, long enough not to busy-spin a single-core box.
constexpr int kPollMs = 25;

/// The child's SIGTERM flag.  File-scope because signal handlers cannot
/// capture; only ever set in a forked worker, so the parent's copy stays
/// false.
std::atomic<bool> g_worker_cancel{false};

extern "C" void worker_term_handler(int) {
  g_worker_cancel.store(true, std::memory_order_relaxed);
}

std::string shard_journal_path(const std::string& shard_dir,
                               std::size_t worker) {
  return shard_dir + "/shard-" + std::to_string(worker) + ".journal";
}

/// The worker process body: run the engine serially over this shard,
/// resuming from and journaling into the shard journal, heartbeating.  A
/// shard journal left by another sweep or build is ignored and overwritten
/// (engine contract), so a re-run with new overrides in the same shard dir
/// just recomputes.
int worker_main(const FrameWriter& writer, const SweepSpec& spec,
                const EngineOptions& engine,
                const std::vector<std::size_t>& subset,
                const std::string& journal_path, double heartbeat_interval_s,
                const chaos::WorkerFaultPlan* plan) {
  // A coordinator that died mid-run closes the pipe; without this the
  // resulting SIGPIPE would kill the worker silently instead of surfacing
  // a classified system_error exit.
  std::signal(SIGPIPE, SIG_IGN);
  g_worker_cancel.store(false, std::memory_order_relaxed);
  std::signal(SIGTERM, worker_term_handler);

  writer.send(std::string(1, kFrameHeartbeat));  // early sign of life

  EngineOptions options = engine;
  options.jobs = 1;  // the parallelism IS the process fan-out
  options.cell_subset = &subset;
  options.journal_path = journal_path;  // missing file == empty journal
  // Workers never abort on failures: every failed cell is journaled for
  // the coordinator, which owns the run-level budget decision.
  options.failure_budget_pct = 100.0;
  options.cancel = &g_worker_cancel;

  std::size_t fresh_cells = 0;
  if (plan != nullptr) {
    // Fired after the cell's journal flush (engine contract), so the
    // scripted death always strikes after durable progress.
    options.on_cell_complete = [&] {
      if (++fresh_cells == plan->after_cells) self_signal(plan->signal);
    };
  }
  double last_heartbeat = monotonic_seconds();
  options.on_unit_complete = [&] {
    const double now = monotonic_seconds();
    if (now - last_heartbeat >= heartbeat_interval_s) {
      writer.send(std::string(1, kFrameHeartbeat));
      last_heartbeat = now;
    }
  };

  return outcome_exit_code(run_sweep(spec, options).manifest.outcome);
}

/// One worker slot's supervision state.
struct WorkerSlot {
  std::vector<std::size_t> subset;  // grid indices owned by this shard
  ChildProcess child;
  FrameReader reader{-1};
  double last_seen = 0.0;
  std::size_t respawns = 0;     // replacements consumed
  std::size_t incarnation = 0;  // spawn count (fault plans key on this)
  bool done = false;            // shard finished (complete/partial)
  bool interrupted = false;     // shard drained on SIGTERM
  bool dead = false;            // surrendered (non-transient / budget out)
  ErrorClass death_class = ErrorClass::kUnknown;
  std::string death_reason;

  bool live() const { return !done && !interrupted && !dead; }
};

/// `ok` cells of this sweep already journaled by a shard (used to size
/// reassignments).
std::size_t journaled_ok_cells(const std::string& path,
                               const std::string& spec_hash) {
  try {
    std::optional<Journal> journal = load_journal(path);
    if (journal && journal->spec_hash == spec_hash) {
      std::size_t ok = 0;
      for (const ManifestCell& cell : journal->cells) {
        if (cell.status == CellStatus::kOk) ++ok;
      }
      return ok;
    }
  } catch (const PreconditionError&) {
    // Corrupt header: the replacement worker will fail on it too — but
    // that is *its* triage to report.
  }
  return 0;
}

}  // namespace

void SupervisorCounters::to_report(obs::RunReport& report) const {
  report.set_count("lab.supervisor.workers_spawned", workers_spawned);
  report.set_count("lab.supervisor.workers_lost", workers_lost);
  report.set_count("lab.supervisor.workers_respawned", workers_respawned);
  report.set_count("lab.supervisor.cells_reassigned", cells_reassigned);
  report.set_count("lab.supervisor.heartbeats_missed", heartbeats_missed);
}

ShardMerge merge_shards(const SweepSpec& spec, std::uint64_t seed,
                        std::size_t replications,
                        std::vector<Journal> journals) {
  ShardMerge merge;
  merge.manifest = manifest_header(spec, seed, replications);
  const std::vector<Cell> cells = spec.cells();
  merge.manifest.cells.resize(cells.size());

  std::erase_if(journals, [&](const Journal& journal) {
    if (journal.spec_hash == merge.manifest.spec_hash) return false;
    log_warn("dropping shard journal for spec ", journal.spec,
             ": foreign spec hash");
    return true;
  });
  const std::vector<const ManifestCell*> picked =
      select_cell_records(cells, journals);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    ManifestCell& slot = merge.manifest.cells[i];
    if (picked[i] != nullptr) {
      slot = *picked[i];
      merge.units_failed += slot.failures.size();
      continue;
    }
    slot.index = cells[i].index;
    slot.params = cells[i].params;
    slot.param_hash = hash_hex(cell_param_hash(cells[i]));
    slot.replications = replications;
    slot.status = CellStatus::kSkipped;
    merge.missing.push_back(i);
  }
  return merge;
}

SupervisorRun run_supervised(const SweepSpec& spec,
                             const EngineOptions& engine,
                             const SupervisorOptions& options) {
  GT_REQUIRE(options.workers >= 1, "need at least one worker");
  GT_REQUIRE(!options.shard_dir.empty(),
             "supervised runs need a shard directory");
  GT_REQUIRE(engine.journal_path.empty(),
             "supervised runs own their journals; use --shard-dir");
  GT_REQUIRE(spec.run != nullptr, "spec \"" + spec.name + "\" has no runner");
  for (const chaos::WorkerFaultPlan& plan : options.fault_plans) {
    chaos::validate_plan(plan);
    GT_REQUIRE(plan.worker < options.workers,
               "fault plan targets worker " + std::to_string(plan.worker) +
                   " of " + std::to_string(options.workers));
  }
  std::filesystem::create_directories(options.shard_dir);
  (void)build_id();  // digest the binary once, before any worker forks

  const double t0 = monotonic_seconds();
  const std::uint64_t seed = engine.seed.value_or(spec.seed);
  const std::size_t replications =
      engine.replications.value_or(spec.replications);
  const std::vector<Cell> cells = spec.cells();

  SupervisorRun run;
  run.cells = cells.size();
  // No worker for an empty shard: a spec with fewer cells than --workers
  // forks one worker per cell.
  run.workers = std::min(options.workers, cells.size());
  const std::string spec_hash =
      manifest_header(spec, seed, replications).spec_hash;

  std::vector<WorkerSlot> slots(run.workers);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    slots[i % run.workers].subset.push_back(i);
  }

  const auto fault_plan_for =
      [&](std::size_t worker,
          std::size_t incarnation) -> const chaos::WorkerFaultPlan* {
    for (const chaos::WorkerFaultPlan& plan : options.fault_plans) {
      if (plan.worker == worker && incarnation < plan.incarnations) {
        return &plan;
      }
    }
    return nullptr;
  };

  const auto spawn = [&](std::size_t w) {
    WorkerSlot& slot = slots[w];
    const std::string journal = shard_journal_path(options.shard_dir, w);
    const chaos::WorkerFaultPlan* plan = fault_plan_for(w, slot.incarnation);
    // Siblings' read ends must not survive into the child: a worker that
    // outlives a crashed coordinator would otherwise hold sibling pipes
    // open and mask their EOFs.
    std::vector<int> close_in_child;
    for (const WorkerSlot& other : slots) {
      if (other.child.valid() && other.child.channel_fd() >= 0) {
        close_in_child.push_back(other.child.channel_fd());
      }
    }
    slot.child = ChildProcess::spawn(
        [&, plan, journal](const FrameWriter& writer) {
          return worker_main(writer, spec, engine, slot.subset, journal,
                             options.heartbeat_interval_s, plan);
        },
        close_in_child);
    slot.reader = FrameReader(slot.child.channel_fd());
    slot.last_seen = monotonic_seconds();
    ++slot.incarnation;
    ++run.counters.workers_spawned;
    kWorkersSpawned.add();
  };

  for (std::size_t w = 0; w < run.workers; ++w) spawn(w);

  // Every frame is a heartbeat: its arrival (not its content) is what
  // refreshes the slot's deadline.
  const auto drain_slot = [&](WorkerSlot& slot) {
    std::vector<std::string> frames;
    slot.reader.drain(frames);
    if (!frames.empty()) slot.last_seen = monotonic_seconds();
  };

  // A lost worker (abnormal exit or hang) lands here: transient classes
  // respawn after a backoff until the slot's budget runs out, then the
  // shard's remaining cells are surrendered to the merge as failures.
  const auto triage = [&](std::size_t w, ErrorClass error_class,
                          const std::string& reason) {
    WorkerSlot& slot = slots[w];
    ++run.counters.workers_lost;
    kWorkersLost.add();
    log_warn("worker ", w, " lost (", to_string(error_class), "): ", reason);
    if (is_transient(error_class) && slot.respawns < options.max_respawns) {
      ++slot.respawns;
      const std::uint64_t backoff =
          options.respawn_backoff.backoff_ms(slot.respawns, error_class);
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      const std::size_t already_ok = journaled_ok_cells(
          shard_journal_path(options.shard_dir, w), spec_hash);
      const std::size_t remaining =
          slot.subset.size() - std::min(already_ok, slot.subset.size());
      run.counters.cells_reassigned += remaining;
      kCellsReassigned.add(static_cast<double>(remaining));
      ++run.counters.workers_respawned;
      kWorkersRespawned.add();
      spawn(w);
    } else {
      slot.dead = true;
      slot.death_class = error_class;
      slot.death_reason = reason;
    }
  };

  bool termed = false;  // SIGTERM fan-out already done
  for (;;) {
    bool any_live = false;
    std::vector<int> fds(slots.size(), -1);
    for (std::size_t w = 0; w < slots.size(); ++w) {
      if (slots[w].live()) {
        any_live = true;
        fds[w] = slots[w].child.channel_fd();
      }
    }
    if (!any_live) break;

    if (!termed && options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      for (WorkerSlot& slot : slots) {
        if (slot.live()) slot.child.send_signal(SIGTERM);
      }
      termed = true;
    }

    for (const std::size_t w : wait_readable(fds, kPollMs)) {
      drain_slot(slots[w]);
    }

    const double now = monotonic_seconds();
    for (std::size_t w = 0; w < slots.size(); ++w) {
      WorkerSlot& slot = slots[w];
      if (!slot.live()) continue;

      if (const std::optional<ExitStatus> exit = slot.child.poll_exit()) {
        slot.child.close_channel();
        if (!exit->signaled &&
            (exit->code == outcome_exit_code(RunOutcome::kComplete) ||
             exit->code == outcome_exit_code(RunOutcome::kPartial))) {
          slot.done = true;
        } else if (!exit->signaled &&
                   exit->code == outcome_exit_code(RunOutcome::kInterrupted)) {
          slot.interrupted = true;
        } else if (termed) {
          // Cancellation is in flight: deaths past the SIGTERM fan-out are
          // expected (the signal can land before a fresh child installs its
          // handler) and must not trigger respawns — a replacement would
          // never see the already-delivered SIGTERM and run to completion.
          slot.interrupted = true;
        } else {
          triage(w, classify_exit(*exit), exit->describe());
        }
        continue;
      }

      if (now - slot.last_seen > options.heartbeat_timeout_s) {
        ++run.counters.heartbeats_missed;
        kHeartbeatsMissed.add();
        slot.child.send_signal(SIGKILL);
        (void)slot.child.wait_exit();
        slot.child.close_channel();
        if (termed) {
          slot.interrupted = true;  // hung during drain-out: still cancelled
        } else {
          triage(w, ErrorClass::kTimeout,
                 "no heartbeat for " +
                     std::to_string(options.heartbeat_timeout_s) + " s");
        }
      }
    }
  }

  // Merge the shard journals: they hold every finalized cell, ok or failed.
  std::vector<Journal> journals;
  for (std::size_t w = 0; w < slots.size(); ++w) {
    try {
      if (std::optional<Journal> journal = load_journal(
              shard_journal_path(options.shard_dir, w))) {
        journals.push_back(std::move(*journal));
      }
    } catch (const PreconditionError& e) {
      log_warn("shard ", w, " journal unusable: ", e.what());
    }
  }
  ShardMerge merge =
      merge_shards(spec, seed, replications, std::move(journals));
  run.manifest = std::move(merge.manifest);

  // Cells no shard accounted for: an interrupted shard's are legitimately
  // skipped (they re-run on resume); a dead shard's become structured
  // failures carrying the triage verdict.
  const bool cancelled = options.cancel != nullptr &&
                         options.cancel->load(std::memory_order_relaxed);
  bool any_skipped = false;
  for (const std::size_t i : merge.missing) {
    WorkerSlot& slot = slots[i % run.workers];
    ManifestCell& cell = run.manifest.cells[i];
    if (slot.interrupted || (cancelled && !slot.dead)) {
      any_skipped = true;
      continue;  // merge_shards already marked it skipped
    }
    UnitFailure failure;
    failure.rep = replications;  // sentinel: the whole cell was lost
    failure.seed = seed;
    failure.error_class = slot.dead ? slot.death_class : ErrorClass::kUnknown;
    failure.message = "worker " + std::to_string(i % run.workers) +
                      " died: " +
                      (slot.dead ? slot.death_reason : "shard incomplete");
    failure.attempts = slot.respawns + 1;
    cell.status = CellStatus::kFailed;
    cell.failures.push_back(std::move(failure));
    ++merge.units_failed;
  }

  for (const ManifestCell& cell : run.manifest.cells) {
    if (cell.status == CellStatus::kFailed) ++run.cells_failed;
  }

  if (cancelled && any_skipped) {
    run.manifest.outcome = RunOutcome::kInterrupted;
  } else if (merge.units_failed > 0) {
    const std::size_t total_units = cells.size() * replications;
    const double failed_pct = 100.0 *
                              static_cast<double>(merge.units_failed) /
                              static_cast<double>(total_units);
    if (failed_pct > engine.failure_budget_pct) {
      for (const ManifestCell& cell : run.manifest.cells) {
        if (cell.status != CellStatus::kFailed) continue;
        throw std::runtime_error(
            "supervised sweep over failure budget; first failure (cell " +
            std::to_string(cell.index) + "): " + cell.failures.front().message);
      }
    }
    run.manifest.outcome = RunOutcome::kPartial;
  }

  run.wall_seconds = monotonic_seconds() - t0;
  return run;
}

}  // namespace gridtrust::lab
