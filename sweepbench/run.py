#!/usr/bin/env python3
"""Sweep benchmark for gridtrust: end-to-end cost of catalog sweeps.

    python3 sweepbench/run.py --workload batch_map|trust_campaign|market
        [--seed N] [--seconds S] [--trace 0|1]

Builds gridtrust_lab and the probes from this checkout (Release, under
.bench_build/), then measures one workload for about S seconds:

  --trace 0  gridtrust_lab run <spec> at --jobs 1, --jobs N and --workers N
             (N = usable CPUs), tracing and result cache off, plus set-up
             probes; prints the end-to-end metrics.
  --trace 1  one traced run at --jobs 1 and its verification; prints the
             per-layer metrics.

Every manifest is checked (sblib/checks.py).  Prints a table of the metrics
with their units, a `context:` line (compiler, flags, build type, git rev,
CPUs, load average before and after), and as the last line one JSON object
{"correct","attempted","failed","metrics"}.  Exits 0 when the output check
passes, 1 when it fails, 2 when the program cannot be built or run.
sweepbench/METRICS.md defines every metric.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from sblib import build, e2e, traced  # noqa: E402
from sblib.checks import OutputCheck, load_reference  # noqa: E402
from sblib.passes import Runner  # noqa: E402
from sblib.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed passed to the program as --seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement budget of this run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        binaries = build.build(ROOT, traced=args.trace == 1)
    except (build.BuildError, OSError) as error:
        build.warn(f"cannot build the program: {error}")
        return 2
    context = build.build_context(binaries)
    if not context["release"]:
        build.warn(f"CMAKE_BUILD_TYPE is {context['cmake_build_type']!r}, "
                   "not Release: these timings do not describe a release "
                   "build")

    n = len(os.sched_getaffinity(0))
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(binaries.lab, work, workload, args.seed, n)
    check = OutputCheck(load_reference(workload, args.seed))
    load_before = os.getloadavg()
    started = time.monotonic()
    try:
        if args.trace:
            metrics, samples = traced.measure(runner, binaries, check,
                                              args.seconds)
        else:
            metrics, samples = e2e.measure(runner, binaries.probe, check,
                                           args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.monotonic() - started
    load_after = os.getloadavg()

    git_rev = json.loads(check.baseline)["git_rev"] \
        if check.baseline is not None else "unknown"

    failed_frac = check.failed / check.attempted if check.attempted else 1.0
    print(f"sweepbench {workload.name}: {workload.spec} x "
          f"{workload.replications} "
          f"replications, seed {args.seed}, N = {n}, "
          f"{'traced run' if args.trace else 'end-to-end'}, "
          f"{elapsed:.1f} s")
    rows = [(name, value, unit) for name, (value, unit) in metrics.items()]
    if not args.trace:
        rows.append(("failed_unit_frac", failed_frac, "ratio"))
    for name, value, unit in rows:
        spread = ""
        if len(samples.get(name, ())) >= 2:
            values = samples[name]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g}"
        print(f"  {name:<36} {value:>16.6g}  {unit:<8} {spread}".rstrip())
    for problem in check.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    context.update(git_rev=git_rev, nproc=os.cpu_count(), usable_cpus=n,
                   loadavg_before=list(load_before),
                   loadavg_after=list(load_after))
    print("context: " + json.dumps(context, sort_keys=True))
    result = {
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if check.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
