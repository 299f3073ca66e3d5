"""Runs one pass of a spec: gridtrust_lab as a user would, or a probe."""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from .workloads import Workload

# How a pass executes: --jobs 1, --jobs N, or --workers N.
MODES = ("serial", "parallel", "workers")


@dataclass
class PassResult:
    wall_s: float
    max_rss_kb: int
    exit_code: int
    manifest: Optional[bytes]  # None when the pass wrote none


def mode_flags(mode: str, n: int, shard_dir: Path) -> List[str]:
    if mode == "serial":
        return ["--jobs", "1"]
    if mode == "parallel":
        return ["--jobs", str(n)]
    return ["--workers", str(n), "--shard-dir", str(shard_dir)]


def _spawn(cmd: List[str], errors: Path, stdout=subprocess.DEVNULL):
    """Runs `cmd` to completion; returns (wall s, max RSS KiB, exit, stdout).

    Standard error goes to the file `errors` and is echoed on failure.
    os.wait4 gives the child's own rusage, whose maximum RSS covers the
    descendants it reaped (the --workers supervisor's workers).
    """
    with open(errors, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=err)
        captured = proc.stdout.read() if stdout == subprocess.PIPE else b""
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    if proc.returncode != 0:
        print(errors.read_text(errors="replace").rstrip(), file=sys.stderr)
    errors.unlink()
    return wall, usage.ru_maxrss, proc.returncode, captured


class Runner:
    """Owns the scratch directory of one benchmark run."""

    def __init__(self, lab: Path, work: Path, workload: Workload, seed: int,
                 n: int):
        self.lab = lab
        self.work = work
        self.workload = workload
        self.seed = seed
        self.replications = workload.replications
        self.n = n
        self._counter = 0

    def fresh(self, stem: str) -> Path:
        """A path in the work directory no earlier pass used."""
        self._counter += 1
        return self.work / f"{stem}-{self._counter}"

    def lab_pass(self, mode: str, metrics_out: Optional[Path] = None
                 ) -> PassResult:
        """`gridtrust_lab run <spec>` in one mode; tracing and cache off."""
        out = self.fresh("manifest").with_suffix(".json")
        shards = self.fresh("shards")
        cmd = [str(self.lab), "run", self.workload.spec,
               "--seed", str(self.seed),
               "--replications", str(self.replications),
               *mode_flags(mode, self.n, shards), "--out", str(out)]
        if metrics_out is not None:
            cmd += ["--metrics-out", str(metrics_out)]
        wall, rss, code, _ = _spawn(cmd, self.fresh("stderr"))
        manifest = out.read_bytes() if out.is_file() else None
        if out.is_file():
            out.unlink()
        shutil.rmtree(shards, ignore_errors=True)
        return PassResult(wall, rss, code, manifest)

    def probe(self, binary: Path, mode: str, extra: List[str],
              replications: Optional[int] = None) -> dict:
        """Runs a probe (sweepbench/probe) and parses its summary line.

        Returns the summary plus `launch_ns`, the CLOCK_MONOTONIC stamp taken
        just before the process was spawned, and `exit_code`.
        """
        shards = self.fresh("shards")
        reps = self.replications if replications is None else replications
        cmd = [str(binary), self.workload.spec, "--seed", str(self.seed),
               "--replications", str(reps),
               *mode_flags(mode, self.n, shards), *extra]
        launch_ns = time.monotonic_ns()
        _, _, code, out = _spawn(cmd, self.fresh("stderr"),
                                 stdout=subprocess.PIPE)
        shutil.rmtree(shards, ignore_errors=True)
        summary = {}
        lines = out.decode(errors="replace").strip().splitlines()
        if code == 0 and lines:
            summary = json.loads(lines[-1])
        summary.update(launch_ns=launch_ns, exit_code=code)
        return summary
