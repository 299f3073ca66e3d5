"""End-to-end passes (--trace 0): units/s per mode, set-up time, peak RSS.

One cycle runs gridtrust_lab once per mode (--jobs 1, --jobs N, --workers
N) and then the plain probe once per mode at one replication, which stamps
the start of the first unit.  Cycles repeat until the time budget is spent;
every metric is the median over cycles (peak RSS is the maximum).
"""

import statistics
import time

from .checks import OutputCheck
from .passes import MODES, Runner

SETUP_REPLICATIONS = 1  # set-up work does not depend on the replication count


def measure(runner: Runner, probe, check: OutputCheck, seconds: float):
    rates = {mode: [] for mode in MODES}
    setups = []
    peak_rss_kb = 0
    deadline = time.monotonic() + seconds
    while True:
        for mode in MODES:
            result = runner.lab_pass(mode)
            units = check.add(f"{mode} pass", result.manifest,
                              result.exit_code)
            rates[mode].append(units / result.wall_s)
            peak_rss_kb = max(peak_rss_kb, result.max_rss_kb)
        setup_s = 0.0
        for mode in MODES:
            summary = runner.probe(probe, mode, ["--mode", "setup"],
                                   replications=SETUP_REPLICATIONS)
            if summary["exit_code"] != 0 or summary.get("cells_failed") \
                    or not summary.get("first_unit_ns"):
                check.problems.append(f"{mode} set-up probe failed")
                continue
            setup_s += (summary["first_unit_ns"] - summary["launch_ns"]) / 1e9
        setups.append(setup_s)
        if time.monotonic() >= deadline:
            break
    samples = {
        "serial_units_per_s": (rates["serial"], "units/s"),
        "parallel_units_per_s": (rates["parallel"], "units/s"),
        "workers_units_per_s": (rates["workers"], "units/s"),
        "setup_s": (setups, "s"),
    }
    metrics = {name: (statistics.median(values), unit)
               for name, (values, unit) in samples.items()}
    metrics["peak_rss_mb"] = (peak_rss_kb / 1024.0, "MiB")
    return metrics, {name: values for name, (values, _) in samples.items()}
