// sweep_probe — the sweep benchmark's instrumented view of
// `gridtrust_lab run`.
//
//   sweep_probe <spec> [--mode setup|units] [--seed S] [--replications R]
//       [--jobs N | --workers N --shard-dir DIR] [--out PATH]
//       [--units-out PATH] [--reports] [--trace] [--metrics-out PATH]
//
// Runs one catalog spec through the library calls `gridtrust_lab run` makes
// (lab::find_spec, lab::run_sweep or lab::run_supervised, lab::to_json,
// atomic_write_file, with the CLI's default retry and failure-budget
// settings), but with SweepSpec::run wrapped by a unit decorator.  The
// decorator changes no result: manifests are byte-identical to the CLI's.
//
//   --mode setup  prints {"first_unit_ns":T,...}, T being the CLOCK_MONOTONIC
//                 stamp at which the first unit started, in any thread or
//                 forked worker.  The caller subtracts its launch stamp.
//   --mode units  times every unit and writes one JSON line per unit to
//                 --units-out: {"cell","seed","ns"} plus, with --reports, the
//                 unit's RunReport and, with --trace (sweep_probe_traced
//                 only), its layer spans (spans.hpp).  Prints the sweep and
//                 manifest-write times.  --metrics-out installs the obs
//                 registry exactly as gridtrust_lab does.
#include <sys/mman.h>

#include <atomic>
#include <iostream>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/fs.hpp"
#include "lab/catalog.hpp"
#include "lab/engine.hpp"
#include "lab/supervisor.hpp"
#include "obs/export.hpp"
#include "spans.hpp"

namespace {

using namespace gridtrust;

/// One finished unit, kept in memory until the sweep ends.
struct UnitRecord {
  std::size_t cell = 0;
  std::uint64_t seed = 0;
  std::uint64_t ns = 0;
  std::string report;  ///< RunReport JSON (with --reports)
  std::string trace;   ///< UnitTrace JSON (with --trace)
};

/// Earliest unit start across threads and forked workers: a shared
/// anonymous mapping survives fork, so workers write where the parent reads.
/// It lives until the process exits.
std::atomic<std::uint64_t>* shared_first_unit_stamp() {
  void* page = mmap(nullptr, sizeof(std::atomic<std::uint64_t>),
                    PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (page == MAP_FAILED) throw std::runtime_error("mmap failed");
  return new (page) std::atomic<std::uint64_t>(0);
}

void note_first(std::atomic<std::uint64_t>& first, std::uint64_t stamp) {
  std::uint64_t seen = first.load();
  while ((seen == 0 || stamp < seen) &&
         !first.compare_exchange_weak(seen, stamp)) {
  }
}

int run(const std::string& spec_name, const CliParser& cli) {
  const lab::SweepSpec* found = lab::find_spec(spec_name);
  if (found == nullptr) {
    std::cerr << "sweep_probe: unknown spec " << spec_name << "\n";
    return 2;
  }
  const std::string mode = cli.get_string("mode");
  if (mode != "setup" && mode != "units") {
    std::cerr << "sweep_probe: --mode must be setup or units\n";
    return 2;
  }
  const std::int64_t workers = cli.get_int("workers");
  if (mode == "units" && workers > 0) {
    std::cerr << "sweep_probe: --mode units records in-process units only; "
                 "use --jobs\n";
    return 2;
  }
  const bool keep_reports = cli.get_flag("reports");
  const bool trace = cli.get_flag("trace");
#ifndef SWEEP_PROBE_TRACED
  if (trace) {
    std::cerr << "sweep_probe: --trace needs sweep_probe_traced\n";
    return 2;
  }
#endif

  // The CLI's defaults (src/lab/main.cpp): one attempt, a fully tolerant
  // failure budget, the default heartbeat and respawn settings.
  lab::EngineOptions options;
  options.jobs = static_cast<std::size_t>(cli.get_int("jobs"));
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  if (cli.was_set("replications")) {
    options.replications =
        static_cast<std::size_t>(cli.get_int("replications"));
  }
  options.failure_budget_pct = 100.0;

  std::atomic<std::uint64_t>& first = *shared_first_unit_stamp();
  std::mutex records_mutex;
  std::vector<UnitRecord> records;

  lab::SweepSpec spec = *found;
  const auto inner = found->run;
  spec.run = [&](const lab::Cell& cell, std::uint64_t rep_seed) {
    const std::uint64_t start = sweepbench::now_ns();
    note_first(first, start);
    if (mode == "setup") return inner(cell, rep_seed);
    sweepbench::UnitTrace unit_trace;
    if (trace) sweepbench::set_active_unit(&unit_trace);
    obs::RunReport report = inner(cell, rep_seed);
    const std::uint64_t ns = sweepbench::now_ns() - start;
    if (trace) sweepbench::set_active_unit(nullptr);
    UnitRecord record{cell.index, rep_seed, ns, {}, {}};
    if (keep_reports) record.report = report.to_json();
    if (trace) record.trace = unit_trace.to_json();
    const std::lock_guard<std::mutex> lock(records_mutex);
    records.push_back(std::move(record));
    return report;
  };

  obs::MetricsExportScope metrics(cli.get_string("metrics-out"));
  const std::uint64_t sweep_start = sweepbench::now_ns();
  lab::Manifest manifest;
  std::size_t cells_failed = 0;
  if (workers > 0) {
    lab::SupervisorOptions sup;
    sup.workers = static_cast<std::size_t>(workers);
    sup.shard_dir = cli.get_string("shard-dir");
    if (sup.shard_dir.empty()) sup.shard_dir = spec.name + ".shards";
    lab::SupervisorRun supervised = lab::run_supervised(spec, options, sup);
    manifest = std::move(supervised.manifest);
    cells_failed = supervised.cells_failed;
  } else {
    lab::SweepRun swept = lab::run_sweep(spec, options);
    manifest = std::move(swept.manifest);
    cells_failed = swept.cells_failed;
  }
  const std::uint64_t sweep_ns = sweepbench::now_ns() - sweep_start;

  const std::uint64_t write_start = sweepbench::now_ns();
  const std::string out_path = cli.get_string("out");
  if (!out_path.empty()) atomic_write_file(out_path, lab::to_json(manifest));
  const std::uint64_t write_ns = sweepbench::now_ns() - write_start;

  const std::string units_path = cli.get_string("units-out");
  if (!units_path.empty()) {
    std::string lines;
    for (const UnitRecord& r : records) {
      lines += "{\"cell\":" + std::to_string(r.cell) +
               ",\"seed\":" + std::to_string(r.seed) +
               ",\"ns\":" + std::to_string(r.ns);
      if (!r.report.empty()) lines += ",\"report\":" + r.report;
      if (!r.trace.empty()) lines += ",\"trace\":" + r.trace;
      lines += "}\n";
    }
    atomic_write_file(units_path, lines);
  }

  std::cout << "{\"first_unit_ns\":" << first.load()
            << ",\"sweep_ns\":" << sweep_ns
            << ",\"manifest_write_ns\":" << write_ns
            << ",\"units\":" << records.size()
            << ",\"cells\":" << manifest.cells.size()
            << ",\"cells_failed\":" << cells_failed
            << ",\"outcome\":\"" << lab::to_string(manifest.outcome)
            << "\"}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("sweep_probe",
                "Runs one catalog spec like `gridtrust_lab run`, timing its "
                "units (sweepbench/METRICS.md)");
  cli.add_string("mode", "units", "setup | units");
  cli.add_int("jobs", 1, "worker threads (as gridtrust_lab --jobs)");
  cli.add_int("workers", 0, "worker processes (as gridtrust_lab --workers)");
  cli.add_string("shard-dir", "", "shard journal directory for --workers");
  cli.add_int("seed", 20020815, "master seed");
  cli.add_int("replications", 0, "replication-count override");
  cli.add_string("out", "", "manifest output path");
  cli.add_string("units-out", "", "per-unit JSON lines output path");
  cli.add_flag("reports", "keep each unit's RunReport in --units-out");
  cli.add_flag("trace", "record layer spans (sweep_probe_traced only)");
  obs::add_metrics_flags(cli);
  try {
    if (argc < 2 || std::string(argv[1]).rfind("--", 0) == 0) {
      std::cout << cli.usage();
      return 2;
    }
    std::vector<const char*> flag_argv{argv[0]};
    for (int i = 2; i < argc; ++i) flag_argv.push_back(argv[i]);
    cli.parse(static_cast<int>(flag_argv.size()), flag_argv.data());
    return run(argv[1], cli);
  } catch (const std::exception& e) {
    std::cerr << "sweep_probe: " << e.what() << "\n";
    return 2;
  }
}
