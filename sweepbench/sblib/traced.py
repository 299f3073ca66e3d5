"""The traced run (--trace 1): per-layer metrics, verified against the program.

Passes, all at the run's seed and replication count:
  1. gridtrust_lab --jobs 1 --metrics-out: the program's own counters and
     histograms.
  2. sweep_probe_traced --trace: layer spans per unit (probe/spans.hpp),
     its own --metrics-out, and every unit's RunReport.
  3. sweep_probe --jobs 1: per-unit RunReports and durations of the
     undecorated library, the engine's time outside units, manifest write.
  4. sweep_probe --jobs N: the parallel tail.
  5. gridtrust_lab --jobs 1 without and with --metrics-out, alternating,
     until the time budget is spent: the metrics overhead.
The traced pass is accepted only if it is the same traffic: its manifest
and per-unit reports equal the program's, its counters equal the
program's exactly, its span counts equal the program's call counters, and
no unit's spans cover more than the unit's own time.
"""

import json
import math
import statistics
import time
from pathlib import Path
from typing import Dict, List

from .checks import OutputCheck
from .passes import Runner

# (traced total, program counter) pairs that must agree exactly.
CALL_COUNTS = (
    ("probe.record_transaction", "trust.transactions"),
    ("trust.evaluate.calls", "trust.gamma_evals"),
    ("probe.map_batch", "sched.batches_mapped"),
    ("probe.select_machine", "sched.heuristic_invocations"),
    ("probe.des_events_executed", "des.events_executed"),
    ("econ.clear.calls", "econ.market_rounds"),
)

# Program counters reported as per-layer counts.
COUNTERS = (
    "sched.batches_mapped", "sched.heuristic_invocations",
    "des.events_executed", "trust.table_writes", "trust.gamma_evals",
    "trust.reputation_scans", "trust.reputation_records_scanned",
    "trust.decay_applications", "econ.market_rounds",
)


def _read_units(path: Path) -> List[dict]:
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


def _read_bytes(path: Path):
    return path.read_bytes() if path.is_file() else None


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def _totals(units: List[dict]) -> Dict[str, int]:
    """Sums the traced units' layer self times, calls and probes."""
    totals: Dict[str, int] = {"unit_ns": 0, "covered_ns": 0}
    for unit in units:
        totals["unit_ns"] += unit["ns"]
        totals["covered_ns"] += unit["trace"]["covered_ns"]
        for layer, value in unit["trace"]["layers"].items():
            for key in ("self_ns", "calls"):
                name = f"{layer}.{key}"
                totals[name] = totals.get(name, 0) + value[key]
        for probe, value in unit["trace"]["probes"].items():
            name = f"probe.{probe}"
            totals[name] = totals.get(name, 0) + value
    return totals


def _hist(dump: dict, name: str, field: str) -> float:
    return dump.get("histograms", {}).get(name, {}).get(field, 0)


def _verify(program: dict, traced: dict, totals: Dict[str, int],
            traced_units: List[dict], plain_units: List[dict],
            split_ns: int) -> List[str]:
    problems = []
    for kind in ("counters", "gauges"):
        if program.get(kind) != traced.get(kind):
            problems.append(f"traced {kind} differ from the program's")
    counts = {name: h["count"]
              for name, h in program.get("histograms", {}).items()}
    if counts != {name: h["count"]
                  for name, h in traced.get("histograms", {}).items()}:
        problems.append("traced histogram counts differ from the program's")
    counters = program.get("counters", {})
    for total, counter in CALL_COUNTS:
        if totals.get(total, 0) != counters.get(counter, 0):
            problems.append(f"{total} = {totals.get(total, 0)} but the "
                            f"program counted {counter} = "
                            f"{counters.get(counter, 0)}")
    for probe in ("probe.map_batch_outside_trms",
                  "probe.select_machine_outside_trms"):
        if totals.get(probe, 0):
            problems.append(f"{probe} = {totals[probe]}: mapping ran "
                            "outside sim::run_trms")
    if split_ns > totals.get("sim.trms.self_ns", 0):
        problems.append("mapping + selection histograms exceed run_trms time")
    for unit in traced_units:
        if unit["trace"]["covered_ns"] > unit["ns"]:
            problems.append(f"unit ({unit['cell']}, {unit['seed']}): spans "
                            f"cover {unit['trace']['covered_ns']} ns of "
                            f"{unit['ns']} ns")
            break
    reports = {(u["cell"], u["seed"]): u["report"] for u in plain_units}
    traced_reports = {(u["cell"], u["seed"]): u["report"]
                      for u in traced_units}
    if reports != traced_reports:
        problems.append("traced per-unit RunReports differ from the "
                        "undecorated probe's")
    return problems


def _p99(values: List[int]) -> int:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def measure(runner: Runner, binaries, check: OutputCheck, seconds: float):
    deadline = time.monotonic() + seconds

    program_dump = runner.fresh("program-metrics").with_suffix(".json")
    program = runner.lab_pass("serial", metrics_out=program_dump)
    check.add("program --metrics-out pass", program.manifest,
              program.exit_code)

    paths = {name: runner.fresh(name).with_suffix(".json") for name in (
        "traced-manifest", "traced-units", "traced-metrics",
        "plain-manifest", "plain-units", "parallel-manifest",
        "parallel-units")}
    traced = runner.probe(binaries.probe_traced, "serial", [
        "--mode", "units", "--trace", "--reports",
        "--out", str(paths["traced-manifest"]),
        "--units-out", str(paths["traced-units"]),
        "--metrics-out", str(paths["traced-metrics"])])
    check.add("traced probe", _read_bytes(paths["traced-manifest"]),
              traced["exit_code"])
    plain = runner.probe(binaries.probe, "serial", [
        "--mode", "units", "--reports",
        "--out", str(paths["plain-manifest"]),
        "--units-out", str(paths["plain-units"])])
    check.add("plain probe", _read_bytes(paths["plain-manifest"]),
              plain["exit_code"])
    parallel = runner.probe(binaries.probe, "parallel", [
        "--mode", "units",
        "--out", str(paths["parallel-manifest"]),
        "--units-out", str(paths["parallel-units"])])
    check.add("parallel probe", _read_bytes(paths["parallel-manifest"]),
              parallel["exit_code"])

    off, on = [], []
    while len(off) < 2 or time.monotonic() < deadline:
        bare = runner.lab_pass("serial")
        check.add("overhead pass", bare.manifest, bare.exit_code)
        dump = runner.fresh("overhead-metrics").with_suffix(".json")
        metered = runner.lab_pass("serial", metrics_out=dump)
        check.add("overhead pass --metrics-out", metered.manifest,
                  metered.exit_code)
        dump.unlink(missing_ok=True)
        off.append(bare.wall_s)
        on.append(metered.wall_s)

    program_metrics = _load_json(program_dump)
    traced_metrics = _load_json(paths["traced-metrics"])
    traced_units = _read_units(paths["traced-units"])
    plain_units = _read_units(paths["plain-units"])
    parallel_units = _read_units(paths["parallel-units"])
    for path in [program_dump, *paths.values()]:
        path.unlink(missing_ok=True)

    if not (traced_units and plain_units and parallel_units
            and program_metrics and traced_metrics):
        check.problems.append("a traced-run pass produced no output")
        return {}, {}

    totals = _totals(traced_units)
    map_ns = _hist(traced_metrics, "sched.map_batch_ns", "sum")
    select_ns = _hist(traced_metrics, "sched.select_machine_ns", "sum")
    problems = _verify(program_metrics, traced_metrics, totals, traced_units,
                       plain_units, map_ns + select_ns)
    if problems:
        check.problems.extend(problems)
        check.failed += check.units
    counters = program_metrics.get("counters", {})

    def self_s(layer: str) -> float:
        return totals.get(f"{layer}.self_ns", 0) / 1e9

    def calls(layer: str) -> int:
        return totals.get(f"{layer}.calls", 0)

    batch_count = _hist(traced_metrics, "sched.batch_size", "count")
    served = counters.get("econ.served", 0)
    offered = served + counters.get("econ.rejected_budget", 0) + \
        counters.get("econ.rejected_deadline", 0)
    plain_ns = [u["ns"] for u in plain_units]
    metrics = {
        "workload.generate_s": (self_s("workload"), "s"),
        "workload.generate_calls": (calls("workload"), "count"),
        "sched.trust_costs_s": (self_s("sched.trust_costs"), "s"),
        "sched.trust_costs_calls": (calls("sched.trust_costs"), "count"),
        "sched.map_batch_s": (map_ns / 1e9, "s"),
        "sched.batch_size_mean": (
            _hist(traced_metrics, "sched.batch_size", "sum") / batch_count
            if batch_count else 0.0, "tasks"),
        "sched.select_machine_s": (select_ns / 1e9, "s"),
        "sim.trms_self_s": (self_s("sim.trms") - (map_ns + select_ns) / 1e9,
                            "s"),
        "trust.observe_s": (self_s("trust.observe"), "s"),
        "trust.observe_calls": (calls("trust.observe"), "count"),
        "trust.refresh_s": (self_s("trust.refresh"), "s"),
        "trust.refresh_calls": (calls("trust.refresh"), "count"),
        "trust.evaluate_s": (self_s("trust.evaluate"), "s"),
        "econ.clear_s": (self_s("econ.clear"), "s"),
        "econ.served_frac": (served / offered if offered else 0.0, "ratio"),
        "econ.round_self_s": (self_s("econ.round"), "s"),
        "chaos.round_self_s": (self_s("chaos.round"), "s"),
        "lab.unit_p50_ms": (statistics.median(plain_ns) / 1e6, "ms"),
        "lab.unit_p99_ms": (_p99(plain_ns) / 1e6, "ms"),
        "lab.unit_samples": (len(plain_ns), "count"),
        "lab.aggregate_s": ((plain["sweep_ns"] - sum(plain_ns)) / 1e9, "s"),
        "lab.manifest_write_s": (plain["manifest_write_ns"] / 1e9, "s"),
        "lab.parallel_tail_idle_s": (
            (parallel["sweep_ns"] -
             sum(u["ns"] for u in parallel_units) / runner.n) / 1e9, "s"),
        "obs.metrics_overhead_pct": (
            100.0 * (statistics.median(on) / statistics.median(off) - 1.0),
            "%"),
        "trace.unattributed_frac": (
            (totals["unit_ns"] - totals["covered_ns"]) / totals["unit_ns"],
            "ratio"),
    }
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    overhead = [100.0 * (b / a - 1.0) for a, b in zip(off, on)]
    return metrics, {"obs.metrics_overhead_pct": overhead}
