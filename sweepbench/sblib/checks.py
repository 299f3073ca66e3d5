"""The output check: every manifest of a run must be the same document.

A run's first manifest is its baseline; every later manifest (any mode) must
be byte-identical to it.  At the catalog's default seed the baseline's cells
must also equal the reference recorded from the seed commit at the
workload's replication count (sweepbench/reference/; git_rev is ignored).
A unit fails when its cell is not `ok`, differs from the baseline or from
the reference, or when its pass exited non-zero.  A pass holds as many
units as its manifest's cells have replications; a pass that wrote no
manifest is counted at the baseline's size.
"""

import json
from pathlib import Path
from typing import List, Optional

from .workloads import DEFAULT_SEED, Workload

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "reference"


def load_reference(workload: Workload, seed: int) -> Optional[dict]:
    """The reference a run is held to; None off the default seed."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())


def units_in(document: dict) -> int:
    """(cell, replication) units of a manifest or reference."""
    return sum(cell["replications"] for cell in document["cells"])


def reference_text(manifest: dict) -> str:
    """What a reference file keeps of a manifest: identity and cells, one
    cell per line."""
    header = {key: manifest[key] for key in ("spec", "seed", "replications")}
    cells = ",\n".join(json.dumps(cell) for cell in manifest["cells"])
    return json.dumps(header)[:-1] + ', "cells": [\n' + cells + "\n]}\n"


class OutputCheck:
    def __init__(self, reference: Optional[dict]):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.baseline: Optional[bytes] = None
        self._baseline_cells: List[dict] = []
        self.reference = reference

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    @property
    def units(self) -> int:
        """Units of one pass: the baseline's, else the reference's, else 1."""
        if self._baseline_cells:
            return units_in({"cells": self._baseline_cells})
        if self.reference is not None:
            return units_in(self.reference)
        return 1

    def add(self, label: str, manifest: Optional[bytes],
            exit_code: int) -> int:
        """Checks one full pass's manifest; returns the units it held."""
        if exit_code != 0 or manifest is None:
            units = self.units
            self.attempted += units
            self.failed += units
            self.problems.append(f"{label}: exit {exit_code}, no manifest")
            return units
        document = json.loads(manifest)
        units = units_in(document)
        self.attempted += units
        cells = document["cells"]
        bad = {c["index"] for c in cells if c["status"] != "ok"}
        for index in sorted(bad):
            self.problems.append(f"{label}: cell {index} not ok")
        if self.baseline is None:
            self.baseline = manifest
            self._baseline_cells = cells
            if self.reference is not None:
                bad |= self._diff(label, "reference", cells,
                                  self.reference["cells"])
                for key in ("spec", "seed", "replications"):
                    if document[key] != self.reference[key]:
                        self.problems.append(
                            f"{label}: {key} differs from the reference")
        elif manifest != self.baseline:
            bad |= self._diff(label, "the first manifest", cells,
                              self._baseline_cells)
            if not bad:
                self.problems.append(
                    f"{label}: manifest header differs from the first")
        self.failed += sum(c["replications"] for c in cells
                           if c["index"] in bad)
        return units

    def _diff(self, label: str, what: str, cells: List[dict],
              expected: List[dict]) -> set:
        bad = set()
        by_index = {c["index"]: c for c in expected}
        for cell in cells:
            if by_index.get(cell["index"]) != cell:
                bad.add(cell["index"])
                self.problems.append(
                    f"{label}: cell {cell['index']} differs from {what}")
        if len(cells) != len(expected):
            self.problems.append(f"{label}: cell count differs from {what}")
        return bad
