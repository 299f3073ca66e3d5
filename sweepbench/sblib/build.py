"""Builds gridtrust_lab and the probes from the checkout's sources.

Two CMake trees under <root>/.bench_build: `gridtrust` is the repository's
own build (Release, only the gridtrust_lab target is built), and `probe` is
sweepbench/probe, which links the static libraries gridtrust_lab links.
Both trees are configured on every run, so the git rev the program records
and the probe's archive list always match the sources; configuring and
building an unchanged tree costs a dependency check.
"""

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path


class BuildError(RuntimeError):
    pass


@dataclass(frozen=True)
class Binaries:
    lab: Path
    probe: Path
    probe_traced: Path
    gridtrust_build: Path


def _run(cmd, log: Path) -> None:
    with open(log, "ab") as out:
        out.write(("$ " + " ".join(map(str, cmd)) + "\n").encode())
        out.flush()
        code = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
    if code != 0:
        tail = log.read_text(errors="replace").splitlines()[-40:]
        raise BuildError(
            f"command failed ({code}): {' '.join(map(str, cmd))}\n"
            + "\n".join(tail)
        )


def _link_archives(gt: Path, target: str) -> list:
    """The static libraries `target` links, in link order, as absolute paths.

    Read from the CMake file API reply of the gridtrust tree (the query is
    placed before configuring), so the list follows the sources' own CMake
    files whatever the generator.
    """
    reply = gt / ".cmake" / "api" / "v1" / "reply"
    indexes = sorted(reply.glob("index-*.json"))
    if not indexes:
        raise BuildError(f"{gt} has no CMake file API reply")
    index = json.loads(indexes[-1].read_text())
    codemodel = next(r for r in index["reply"].values()
                     if r.get("kind") == "codemodel")
    model = json.loads((reply / codemodel["jsonFile"]).read_text())
    for entry in model["configurations"][0]["targets"]:
        if entry["name"] == target:
            details = json.loads((reply / entry["jsonFile"]).read_text())
            break
    else:
        raise BuildError(f"{gt} defines no target {target}")
    build_dir = gt / details["paths"]["build"]
    archives = [(build_dir / fragment["fragment"]).resolve()
                for fragment in details["link"]["commandFragments"]
                if fragment["role"] == "libraries"
                and fragment["fragment"].endswith(".a")]
    if not archives:
        raise BuildError(f"{target} links no static libraries")
    return archives


def build(root: Path, traced: bool) -> Binaries:
    """Configures and builds what a run needs."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BuildError(f"{root} holds no gridtrust sources to build")
    out = root / ".bench_build"
    out.mkdir(exist_ok=True)
    log = out / "build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    gt = out / "gridtrust"
    probe = out / "probe"
    query = gt / ".cmake" / "api" / "v1" / "query" / "codemodel-v2"
    query.parent.mkdir(parents=True, exist_ok=True)
    query.touch()
    _run(["cmake", "-S", root, "-B", gt, "-DCMAKE_BUILD_TYPE=Release"], log)
    _run(["cmake", "--build", gt, "--target", "gridtrust_lab_cli", "-j", jobs],
         log)
    archives = ";".join(map(str, _link_archives(gt, "gridtrust_lab_cli")))
    _run(["cmake", "-S", root / "sweepbench" / "probe", "-B", probe,
          "-DCMAKE_BUILD_TYPE=Release", f"-DGRIDTRUST_ROOT={root}",
          f"-DGRIDTRUST_BUILD={gt}", f"-DGRIDTRUST_ARCHIVES={archives}"], log)
    targets = ["sweep_probe"] + (["sweep_probe_traced"] if traced else [])
    _run(["cmake", "--build", probe, "--target", *targets, "-j", jobs], log)
    return Binaries(lab=gt / "gridtrust_lab", probe=probe / "sweep_probe",
                    probe_traced=probe / "sweep_probe_traced",
                    gridtrust_build=gt)


def build_context(binaries: Binaries) -> dict:
    """Compiler, flags and build type of the gridtrust tree, from its cache."""
    cache = {}
    text = (binaries.gridtrust_build / "CMakeCache.txt").read_text()
    for line in text.splitlines():
        match = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
        if match:
            cache[match.group(1)] = match.group(2)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    version = ""
    compiler_id = ""
    for info in binaries.gridtrust_build.glob(
            "CMakeFiles/*/CMakeCXXCompiler.cmake"):
        body = info.read_text()
        found = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', body)
        version = found.group(1) if found else ""
        found = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', body)
        compiler_id = found.group(1) if found else ""
    flags = " ".join(
        f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                    cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""))
        if f)
    return {
        "compiler": f"{compiler_id} {version}".strip(),
        "compiler_path": cache.get("CMAKE_CXX_COMPILER", ""),
        "cxx_flags": flags,
        "cmake_build_type": build_type,
        "release": build_type == "Release",
    }


def warn(message: str) -> None:
    print(f"sweepbench: {message}", file=sys.stderr)
