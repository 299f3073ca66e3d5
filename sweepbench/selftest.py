#!/usr/bin/env python3
"""Self-tests of the sweep benchmark, smoke-sized (one cycle per run).

    python3 sweepbench/selftest.py [workload ...]

For each workload (all by default) this checks that:
  1. a --trace 0 run at the default seed passes its output check, prints
     every end-to-end metric of BENCHMARK.json with its unit, and prints
     failed_unit_frac;
  2. the output check accepts a default-seed manifest of gridtrust_lab
     against the recorded reference, which is that manifest's reference
     text byte for byte, and rejects it against a tampered reference;
  3. a different seed changes the generated manifest;
  4. a --trace 1 run passes its verification and prints every per-layer
     metric of BENCHMARK.json with its unit.
It also checks that BENCHMARK.json records each workload's spec and
replication override.  Exits 0 when every check passes.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from sblib import build  # noqa: E402
from sblib.checks import (REFERENCE_DIR, OutputCheck,  # noqa: E402
                          load_reference, reference_text)
from sblib.passes import Runner  # noqa: E402
from sblib.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run(workload: str, *extra: str):
    """Runs the benchmark; returns (exit code, stdout lines, result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, lines, result


def printed_with_unit(lines, name: str, unit: str) -> bool:
    """True when a table row reads `name value unit ...`."""
    return any(line.split()[:1] == [name] and line.split()[2:3] == [unit]
               for line in lines)


def check_metrics(result, lines, declared) -> list:
    problems = []
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = (result or {}).get("metrics", {}).get(name)
        if got is None or got.get("unit") != unit:
            problems.append(f"{name} [{unit}] missing from the result")
        if not printed_with_unit(lines, name, unit):
            problems.append(f"{name} [{unit}] missing from the table")
    return problems


def check_output_check(workload, lab: Path, scratch: Path) -> list:
    """Drives OutputCheck on real gridtrust_lab manifests."""
    problems = []
    n = len(os.sched_getaffinity(0))
    manifest = Runner(lab, scratch, workload, DEFAULT_SEED,
                      n).lab_pass("serial").manifest
    if manifest is None:
        return ["default-seed gridtrust_lab pass wrote no manifest"]
    reference = load_reference(workload, DEFAULT_SEED)

    check = OutputCheck(reference)
    check.add("default seed", manifest, 0)
    if not check.correct:
        problems.append("the output check rejects the default-seed manifest: "
                        + "; ".join(check.problems[:3]))
    recorded = (REFERENCE_DIR / f"{workload.name}.json").read_text()
    if reference_text(json.loads(manifest)) != recorded:
        problems.append("the reference file is not the default-seed "
                        "manifest's reference text")

    tampered = copy.deepcopy(reference)
    metric = next(iter(tampered["cells"][0]["metrics"].values()))
    metric["mean"] += 1.0
    check = OutputCheck(tampered)
    check.add("tampered", manifest, 0)
    if check.correct or check.failed == 0:
        problems.append("a tampered reference was not caught")

    other = Runner(lab, scratch, workload, DEFAULT_SEED + 1,
                   n).lab_pass("serial").manifest
    if other is None:
        problems.append("other-seed gridtrust_lab pass wrote no manifest")
    elif json.loads(other)["cells"] == json.loads(manifest)["cells"]:
        problems.append("a different seed left the manifest unchanged")
    return problems


def selftest(name: str, declared: dict, lab: Path, scratch: Path) -> list:
    problems = []
    code, lines, result = run(name)
    if code != 0 or not result or not result["correct"]:
        problems.append(f"default-seed run failed (exit {code})")
    problems += check_metrics(result, lines, declared["end_to_end"])
    if not printed_with_unit(lines, "failed_unit_frac", "ratio"):
        problems.append("failed_unit_frac [ratio] missing from the table")

    problems += check_output_check(WORKLOADS[name], lab, scratch)

    code, lines, result = run(name, "--trace", "1")
    if code != 0 or not result or not result["correct"]:
        problems.append(f"traced run failed (exit {code})")
    problems += check_metrics(result, lines, declared["per_layer"])
    return problems


def check_declared(declared: dict) -> list:
    """BENCHMARK.json names this file's workloads with their spec and
    replication override."""
    problems = []
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from sblib")
    for entry in declared["workloads"]:
        workload = WORKLOADS.get(entry["name"])
        if workload and f"spec {workload.spec} at --replications " \
                f"{workload.replications}:" not in entry["why"]:
            problems.append(f"{entry['name']}: why does not record its spec "
                            "and replication override")
    return problems


def main(argv) -> int:
    names = argv or sorted(WORKLOADS)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for problem in check_declared(declared):
        failures += 1
        print(f"BENCHMARK.json: {problem}")
    lab = build.build(ROOT, traced=False).lab
    scratch = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        for name in names:
            problems = selftest(name, declared, lab, scratch)
            failures += len(problems)
            print(f"{name}: {'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print(f"  {problem}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
