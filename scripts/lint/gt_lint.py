#!/usr/bin/env python3
"""gt-lint: determinism & concurrency static analysis for the gridtrust tree.

Usage: gt_lint.py [FILE ...] [--changed [BASE]] [--baseline FILE]
                  [--update-baseline] [--self-test] [--list-rules]

The lab engine's headline guarantee — manifests bit-identical across
`--jobs 1/4/8` and across SIGKILL + a `--journal` re-run — rests on
invariants no compiler checks.  This analyzer enforces them mechanically
(stdlib-only, same dependency posture as check_markdown_links.py):

  GT001  banned nondeterminism sources: std::rand / std::random_device /
         time( anywhere under src/; wall clocks (system_clock, steady_clock,
         high_resolution_clock) outside src/obs and src/common.  Simulation
         time flows through des::Simulator::now(); wall time is observability.
  GT002  range-for / iterator loops over unordered_map/unordered_set inside
         a function that also touches an exporter/JSON/manifest symbol —
         hash-order iteration must never reach exported bytes.  Sort at the
         export boundary or use an ordered container.
  GT003  raw std::mt19937 / std engines / srand / hex seed literals outside
         the seed-derivation helpers (src/common/rng.*).  All randomness is
         PCG32 seeded via splitmix64 so parallel replications are identical
         to serial ones.
  GT004  naked std::thread / std::jthread / std::async / .detach() outside
         src/common/thread_pool.* — all concurrency rides the shared pool so
         sweeps stay deterministic and interruptible.
  GT005  include hygiene for headers under src/*/: #pragma once required,
         project includes are quoted "module/file.hpp" paths (no "../", no
         <bits/...>, no deprecated C compatibility headers).
  GT006  naked process primitives (fork / vfork / exec* / kill / killpg /
         raise / waitpid / wait3 / wait4) outside src/common/subprocess.* —
         mirroring GT004's thread posture: all process supervision rides
         ChildProcess / self_signal so workers are reaped, triaged, and
         never leaked.
  GT007  unannotated lock/data association: a class that declares a mutex
         member (std::mutex / std::shared_mutex / gridtrust::Mutex /
         SharedMutex) alongside other mutable data members must carry at
         least one GT_GUARDED_BY in its body.  The Clang thread-safety
         analysis (src/common/annotations.hpp) can only check what is
         annotated; GT007 is the GCC-side net that keeps new mutexes from
         entering the tree unannotated.

`--changed [BASE]` lints only files changed since BASE (default HEAD),
skipping paths git reports but that no longer exist on disk (deleted or
renamed away), so pre-push hooks never crash mid-rename.

False positives are silenced inline with a reason:

    foo();  // gt-lint: allow(GT001 wall time feeds retry deadline only)

A standalone `// gt-lint: allow(...)` comment line applies to the next line.
Legacy findings live in the checked-in baseline (scripts/lint/
gt_lint_baseline.txt): baselined findings do not fail the run, new ones do,
and baseline entries that no longer match anything are reported as removable
so the debt is burned down explicitly.  Exit codes: 0 clean, 1 violations,
2 usage/internal error.
"""
import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DEFAULT_BASELINE = Path(__file__).resolve().parent / "gt_lint_baseline.txt"
SOURCE_GLOBS = ("*.hpp", "*.cpp", "*.h", "*.cc")

# Directories (relative to the repo root) whose wall-clock usage is
# legitimate: obs measures wall time by design, common owns the clock-free
# primitives plus the thread pool's bookkeeping.
CLOCK_EXEMPT_DIRS = ("src/obs", "src/common")
# The seed-derivation helpers: the only places allowed to hold raw seed
# material.  Everything else receives seeds as explicit arguments.
SEED_HELPER_FILES = ("src/common/rng.hpp", "src/common/rng.cpp")
THREAD_POOL_FILES = ("src/common/thread_pool.hpp", "src/common/thread_pool.cpp")
# The process-supervision module: the only sanctioned home of raw
# fork/exec/kill/waitpid calls (GT006).
SUBPROCESS_FILES = ("src/common/subprocess.hpp", "src/common/subprocess.cpp")

ALLOW = re.compile(r"//\s*gt-lint:\s*allow\(\s*(GT\d{3}(?:\s*,\s*GT\d{3})*)"
                   r"([^)]*)\)")
FIXTURE_DIRECTIVE = re.compile(
    r"//\s*gt-lint-fixture:\s*path=(\S+)\s+expect=(\S+)")


class Finding:
    """One rule violation at a specific line."""

    def __init__(self, rule, path, line_no, line_text, message):
        self.rule = rule
        self.path = path  # repo-relative, '/'-separated
        self.line_no = line_no
        self.line_text = line_text
        self.message = message

    def key(self):
        """Line-number-independent fingerprint used by the baseline, so
        unrelated edits above a legacy finding do not churn the file."""
        return f"{self.path}|{self.rule}|{normalize(self.line_text)}"

    def __str__(self):
        return (f"{self.path}:{self.line_no}: {self.rule}: {self.message}\n"
                f"    {self.line_text.strip()}")


def normalize(text):
    return re.sub(r"\s+", " ", text.strip())


def strip_comments_and_strings(line):
    """Blanks out // comments, string and char literals so rule regexes do
    not fire on prose.  Block comments are handled per-file by the caller."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '/' and i + 1 < n and line[i + 1] == '/':
            break
        if c in ('"', "'"):
            quote = c
            out.append(' ')
            i += 1
            while i < n:
                if line[i] == '\\':
                    out.append('  ')
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(' ')
                    i += 1
                    break
                out.append(' ')
                i += 1
            continue
        out.append(c)
        i += 1
    return ''.join(out)


def code_lines(text):
    """Returns the file's lines with comments/strings blanked (1-based list
    parallel to the raw lines).  Tracks /* */ block comments across lines."""
    raw = text.splitlines()
    code = []
    in_block = False
    for line in raw:
        buf = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if line.startswith("//", i):
                break
            buf.append(line[i])
            i += 1
        code.append(strip_comments_and_strings(''.join(buf)))
    return raw, code


def allowed_rules(raw_lines, line_no):
    """Rules suppressed at `line_no` (1-based): same-line allow, or a
    standalone allow comment on the previous line."""
    rules = set()
    for candidate in (line_no, line_no - 1):
        if candidate < 1 or candidate > len(raw_lines):
            continue
        line = raw_lines[candidate - 1]
        match = ALLOW.search(line)
        if not match:
            continue
        standalone = line.strip().startswith("//")
        if candidate == line_no or standalone:
            rules.update(r.strip() for r in match.group(1).split(","))
    return rules


# --------------------------------------------------------------------------
# GT001 — nondeterminism sources
# --------------------------------------------------------------------------

GT001_EVERYWHERE = [
    (re.compile(r"\bstd::rand\b|\bstd::srand\b"),
     "std::rand is global, seedless state; use gridtrust::Rng"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic by construction; seeds come "
     "from the experiment spec"),
    (re.compile(r"(?<![:\w.>])time\s*\(\s*(?:NULL|nullptr|0|&|\))"),
     "time() reads the wall clock; simulation time is des::Simulator::now()"),
]
GT001_CLOCKS = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\b")


def rule_gt001(path, raw, code):
    for i, line in enumerate(code, start=1):
        for pattern, why in GT001_EVERYWHERE:
            if pattern.search(line):
                yield Finding("GT001", path, i, raw[i - 1], why)
        if GT001_CLOCKS.search(line):
            if any(path.startswith(d + "/") for d in CLOCK_EXEMPT_DIRS):
                continue
            yield Finding(
                "GT001", path, i, raw[i - 1],
                "wall clock outside obs/common; simulation paths must be "
                "pure functions of (scenario, seed)")


# --------------------------------------------------------------------------
# GT002 — unordered iteration reaching an export boundary
# --------------------------------------------------------------------------

UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*"
    r"(?:const\s*)?&?\s*(\w+)\s*[;={(,)]")
RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;:()]*?:\s*([^)]+)\)")
ITER_BEGIN = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")
EXPORT_SYMBOL = re.compile(
    r"\bto_json\b|\bto_csv\b|\bjson_number\b|\bjson_escape\b|\bJsonValue\b|"
    r"\bRunReport\b|\bManifest\w*\b|\bmanifest\b|\bexport\w*\b|"
    r"\bserialize\w*\b|\bSnapshot\b|\bappend_json\w*\b")


def function_regions(code):
    """Yields (start_line, end_line) of brace-balanced function bodies,
    heuristically: a '{' whose opening statement has a parameter list and is
    not a namespace/class/enum/control construct.  Nested blocks (ifs,
    lambdas) stay inside their enclosing region."""
    depth = 0
    stmt = []          # text since the last ; { or } at the current depth
    regions = []
    open_stack = []    # (depth_before_brace, is_function, start_line)
    for i, line in enumerate(code, start=1):
        if line.lstrip().startswith('#'):
            continue  # preprocessor lines never open a function body
        for ch in line:
            if ch == '{':
                text = normalize(''.join(stmt))
                is_fn = bool(re.search(r"\)\s*(?:const|noexcept|override|"
                                       r"final|->\s*[\w:<>,&*\s]+)?\s*$",
                                       text)) and not re.search(
                    r"\b(?:namespace|class|struct|enum|union|if|for|while|"
                    r"switch|catch|do)\b[^()]*$", text)
                already_in_fn = any(f for _, f, _ in open_stack)
                open_stack.append((depth, is_fn and not already_in_fn, i))
                depth += 1
                stmt = []
            elif ch == '}':
                depth -= 1
                if open_stack:
                    _, was_fn, start = open_stack.pop()
                    if was_fn:
                        regions.append((start, i))
                stmt = []
            elif ch == ';':
                stmt = []
            else:
                stmt.append(ch)
        stmt.append(' ')
    return regions


def rule_gt002(path, raw, code):
    all_text = '\n'.join(code)
    unordered_vars = set(UNORDERED_DECL.findall(all_text))
    for start, end in function_regions(code):
        body = code[start - 1:end]
        body_text = '\n'.join(body)
        if not EXPORT_SYMBOL.search(body_text):
            continue
        for offset, line in enumerate(body):
            line_no = start + offset
            exprs = [m.group(1) for m in RANGE_FOR.finditer(line)]
            hit = None
            for expr in exprs:
                expr = expr.strip()
                if "unordered" in expr:
                    hit = expr
                    break
                var = re.match(r"(\w+)\s*$", expr)
                if var and var.group(1) in unordered_vars:
                    hit = var.group(1)
                    break
            if hit is None and ("for" in line or "while" in line):
                for var in ITER_BEGIN.findall(line):
                    if var in unordered_vars:
                        hit = var
                        break
            if hit is not None:
                yield Finding(
                    "GT002", path, line_no, raw[line_no - 1],
                    f"iteration over unordered container '{hit}' in a "
                    "function that touches an export/JSON/manifest symbol; "
                    "hash order must not reach exported bytes — sort at the "
                    "boundary or use an ordered container")


# --------------------------------------------------------------------------
# GT003 — raw engines / seed literals outside the seed-derivation helpers
# --------------------------------------------------------------------------

GT003_ENGINES = re.compile(
    r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux\d+(?:_base)?|knuth_b)\b|\bsrand\s*\(")
GT003_SEED_LITERAL = re.compile(
    r"\bRng\s+\w+\s*[({]\s*0x[0-9a-fA-F]{8,}|"
    r"\b(?:Rng|seed\w*|Seed\w*)\s*[({=]\s*0x[0-9a-fA-F]{8,}")


def rule_gt003(path, raw, code):
    exempt = path in SEED_HELPER_FILES
    for i, line in enumerate(code, start=1):
        if GT003_ENGINES.search(line):
            yield Finding(
                "GT003", path, i, raw[i - 1],
                "raw standard-library engine; all randomness flows through "
                "gridtrust::Rng (PCG32 + splitmix64 streams)")
        if not exempt and GT003_SEED_LITERAL.search(line):
            yield Finding(
                "GT003", path, i, raw[i - 1],
                "hex seed literal outside common/rng; seeds are derived via "
                "splitmix64 from the experiment spec")


# --------------------------------------------------------------------------
# GT004 — naked threads outside the shared pool
# --------------------------------------------------------------------------

GT004_PATTERN = re.compile(
    r"\bstd::(?:thread|jthread|async)\b|\.\s*detach\s*\(\s*\)")


def rule_gt004(path, raw, code):
    if path in THREAD_POOL_FILES:
        return
    for i, line in enumerate(code, start=1):
        if GT004_PATTERN.search(line):
            yield Finding(
                "GT004", path, i, raw[i - 1],
                "naked thread primitive outside common/thread_pool; use "
                "ThreadPool::shared() so sweeps stay deterministic and "
                "interruptible")


# --------------------------------------------------------------------------
# GT005 — include hygiene for headers under src/
# --------------------------------------------------------------------------

QUOTED_INCLUDE = re.compile(r'#\s*include\s+"([^"]+)"')
ANGLE_INCLUDE = re.compile(r"#\s*include\s+<([^>]+)>")
PROJECT_INCLUDE_FORM = re.compile(r"^[a-z_0-9]+/[A-Za-z0-9_./]+\.(?:hpp|h)$")
DEPRECATED_C_HEADERS = {
    "assert.h": "cassert", "ctype.h": "cctype", "errno.h": "cerrno",
    "float.h": "cfloat", "limits.h": "climits", "math.h": "cmath",
    "signal.h": "csignal", "stdarg.h": "cstdarg", "stddef.h": "cstddef",
    "stdint.h": "cstdint", "stdio.h": "cstdio", "stdlib.h": "cstdlib",
    "string.h": "cstring", "time.h": "ctime",
}


def rule_gt005(path, raw, code):
    is_header = path.endswith((".hpp", ".h"))
    if is_header and not any("#pragma once" in l for l in code):
        yield Finding("GT005", path, 1, raw[0] if raw else "",
                      "header is missing #pragma once")
    for i, line in enumerate(raw, start=1):
        quoted = QUOTED_INCLUDE.search(line)
        if quoted:
            target = quoted.group(1)
            if ".." in target.split("/"):
                yield Finding("GT005", path, i, line,
                              "relative ../ include; use the repo-rooted "
                              '"module/file.hpp" form')
            elif not PROJECT_INCLUDE_FORM.match(target):
                yield Finding(
                    "GT005", path, i, line,
                    'quoted include must be a repo-rooted "module/file.hpp" '
                    "path (system headers use <...>)")
        angle = ANGLE_INCLUDE.search(line)
        if angle:
            target = angle.group(1)
            if target.startswith("bits/"):
                yield Finding("GT005", path, i, line,
                              "<bits/...> is libstdc++ internal; include the "
                              "standard header instead")
            elif target in DEPRECATED_C_HEADERS:
                yield Finding(
                    "GT005", path, i, line,
                    f"C compatibility header <{target}>; use "
                    f"<{DEPRECATED_C_HEADERS[target]}>")
            elif PROJECT_INCLUDE_FORM.match(target) and "/" in target and \
                    (REPO_ROOT / "src" / target).exists():
                yield Finding("GT005", path, i, line,
                              "project header included with <...>; use the "
                              'quoted "module/file.hpp" form')


# --------------------------------------------------------------------------
# GT006 — naked process primitives outside common/subprocess
# --------------------------------------------------------------------------

# The lookbehind keeps method calls (`child.kill(`, `proc->kill(`) out while
# still catching the globally-qualified `::fork(` form; the name list covers
# creation (fork/exec*), signaling (kill/killpg/raise), and reaping
# (waitpid/wait3/wait4).
GT006_PATTERN = re.compile(
    r"(?<![\w.>])(?:fork|vfork|execl|execle|execlp|execv|execve|execvp|"
    r"execvpe|kill|killpg|raise|waitpid|wait3|wait4)\s*\(")


def rule_gt006(path, raw, code):
    if path in SUBPROCESS_FILES:
        return
    for i, line in enumerate(code, start=1):
        if GT006_PATTERN.search(line):
            yield Finding(
                "GT006", path, i, raw[i - 1],
                "naked process primitive outside common/subprocess; use "
                "ChildProcess / self_signal so workers are reaped, triaged, "
                "and never leaked")


# --------------------------------------------------------------------------
# GT007 — mutex member without any GT_GUARDED_BY in the class body
# --------------------------------------------------------------------------

GT007_MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:(?:gridtrust::)?(?:Mutex|SharedMutex)|"
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex))\s+(\w+)\s*(?:;|\{\s*\}\s*;)")
GT007_GUARDED = re.compile(r"\bGT_(?:PT_)?GUARDED_BY\s*\(")
# Lines that are never the guarded data we care about: non-storage
# declarations, immutable members, and types that synchronize themselves.
GT007_SKIP_MEMBER = re.compile(
    r"^\s*(?:static\b|using\b|friend\b|typedef\b|template\b|return\b|"
    r"public\s*:|private\s*:|protected\s*:|const\b|constexpr\b)|"
    r"\bstd::atomic\b|\bstd::condition_variable\b|\bCondVar\b")


def class_regions(code):
    """Yields (start_line, end_line, member_lines) for class/struct bodies.
    `member_lines` are the line numbers at the class's direct member depth
    (brace-free lines only, so nested blocks and inline method bodies are
    excluded) — a heuristic matched to the tree's one-declaration-per-line
    style, pinned down by the GT007 fixtures."""
    regions = []
    open_stack = []  # entries: [is_class_body, start_line, member_lines]
    stmt = []
    for i, line in enumerate(code, start=1):
        if line.lstrip().startswith('#'):
            continue
        if ('{' not in line and '}' not in line and open_stack
                and open_stack[-1][0]):
            open_stack[-1][2].append(i)
        for ch in line:
            if ch == '{':
                text = normalize(''.join(stmt))
                is_class = bool(
                    re.search(r"\b(?:class|struct|union)\b", text)
                    and not re.search(r"\benum\s+(?:class|struct)\b", text)
                    and not re.search(r"\)\s*(?:const|noexcept|override|"
                                      r"final)?\s*$", text))
                open_stack.append([is_class, i, []])
                stmt = []
            elif ch == '}':
                if open_stack:
                    is_class, start, members = open_stack.pop()
                    if is_class:
                        regions.append((start, i, members))
                stmt = []
            elif ch == ';':
                stmt = []
            else:
                stmt.append(ch)
        stmt.append(' ')
    return regions


def rule_gt007(path, raw, code):
    for start, end, member_lines in class_regions(code):
        body_text = '\n'.join(code[start - 1:end])
        if GT007_GUARDED.search(body_text):
            continue
        mutexes = []
        data_members = 0
        for line_no in member_lines:
            line = code[line_no - 1]
            mutex = GT007_MUTEX_MEMBER.match(line)
            if mutex:
                mutexes.append((line_no, mutex.group(1)))
                continue
            if GT007_SKIP_MEMBER.search(line):
                continue
            # Data member heuristic: a brace-free line that declares storage
            # ends with ';' and has no parameter list.
            if '(' not in line and re.search(r"\w[\w\]>]*\s*(?:=[^;]*)?;\s*$",
                                             line):
                data_members += 1
        if mutexes and data_members > 0:
            for line_no, name in mutexes:
                yield Finding(
                    "GT007", path, line_no, raw[line_no - 1],
                    f"mutex member '{name}' in a class whose data members "
                    "carry no GT_GUARDED_BY; annotate the lock/data "
                    "association (common/annotations.hpp) so the Clang "
                    "thread-safety analysis can check it")


RULES = [rule_gt001, rule_gt002, rule_gt003, rule_gt004, rule_gt005,
         rule_gt006, rule_gt007]
RULE_DOCS = {
    "GT001": "banned nondeterminism sources (rand/random_device/time/clocks)",
    "GT002": "unordered-container iteration reaching an export boundary",
    "GT003": "raw std engines / seed literals outside common/rng",
    "GT004": "naked std::thread/jthread/async/detach outside the pool",
    "GT005": "include hygiene for src/ headers",
    "GT006": "naked fork/exec/kill/waitpid outside common/subprocess",
    "GT007": "mutex member without any GT_GUARDED_BY in the class body",
}


def lint_text(path, text):
    """Runs every rule over one file's text; `path` is repo-relative with
    '/' separators.  Returns the unsuppressed findings."""
    raw, code = code_lines(text)
    findings = []
    for rule in RULES:
        for finding in rule(path, raw, code):
            if finding.rule not in allowed_rules(raw, finding.line_no):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line_no, f.rule))
    return findings


def lint_file(path):
    rel = path.resolve().relative_to(REPO_ROOT).as_posix()
    return lint_text(rel, path.read_text(encoding="utf-8", errors="replace"))


def default_targets():
    files = []
    for glob in SOURCE_GLOBS:
        files.extend((REPO_ROOT / "src").rglob(glob))
    return sorted(files)


def partition_changed(paths):
    """Splits candidate paths into (existing, missing).  `git diff` output
    can name files that are no longer on disk — a deletion staged after the
    diff base, or the old half of a rename — and linting those must skip
    with a notice, never crash."""
    existing, missing = [], []
    for path in paths:
        (existing if path.is_file() else missing).append(path)
    return existing, missing


def changed_targets(base):
    """Source files under src/ changed since `base` and still present."""
    import subprocess
    result = subprocess.run(
        ["git", "diff", "--name-only", "--diff-filter=ACMR", base, "--",
         "src"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(
            f"git diff against {base!r} failed: {result.stderr.strip()}")
    suffixes = tuple(g.lstrip("*") for g in SOURCE_GLOBS)
    candidates = sorted(REPO_ROOT / line
                        for line in result.stdout.splitlines()
                        if line.endswith(suffixes))
    targets, skipped = partition_changed(candidates)
    for path in skipped:
        print(f"gt-lint: skipping deleted/renamed file: "
              f"{path.relative_to(REPO_ROOT).as_posix()}")
    return targets


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------

def read_baseline(path):
    """Baseline file: one fingerprint per line ('#' comments allowed),
    'path|rule|normalized line'.  Returns key -> count."""
    counts = {}
    if not path.exists():
        return counts
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        counts[line] = counts.get(line, 0) + 1
    return counts


def write_baseline(path, findings):
    lines = [
        "# gt-lint baseline: known legacy findings, one fingerprint per",
        "# line ('path|rule|normalized source line').  New findings fail",
        "# the run; entries here are tracked debt.  Regenerate with:",
        "#   python3 scripts/lint/gt_lint.py --update-baseline",
        "# Remove entries as the underlying findings are fixed (stale",
        "# entries are reported as removable).",
    ]
    lines.extend(sorted(f.key() for f in findings))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def split_by_baseline(findings, baseline_counts):
    remaining = dict(baseline_counts)
    new, known = [], []
    for finding in findings:
        key = finding.key()
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            known.append(finding)
        else:
            new.append(finding)
    stale = sorted(k for k, count in remaining.items() if count > 0)
    return new, known, stale


# --------------------------------------------------------------------------
# Self-test over tests/lint fixtures
# --------------------------------------------------------------------------

def parse_fixture(path):
    """Fixtures declare their virtual path and expected findings in a
    directive:  // gt-lint-fixture: path=src/des/x.cpp expect=GT001:4,GT001:9
    (expect=none for clean/suppressed fixtures)."""
    text = path.read_text(encoding="utf-8")
    match = FIXTURE_DIRECTIVE.search(text)
    if not match:
        raise ValueError(f"{path}: missing gt-lint-fixture directive")
    virtual_path, expect = match.group(1), match.group(2)
    expected = set()
    if expect != "none":
        for item in expect.split(","):
            rule, _, line_no = item.partition(":")
            expected.add((rule, int(line_no)))
    return virtual_path, expected, text


def self_test(fixtures_dir):
    # Top-level glob, not rglob: subdirectories of tests/lint/ belong to
    # other checkers (include_graph fixtures carry no gt-lint directive).
    fixtures = sorted(
        p for g in SOURCE_GLOBS for p in Path(fixtures_dir).glob(g))
    if not fixtures:
        print(f"self-test: no fixtures under {fixtures_dir}", file=sys.stderr)
        return 2
    failures = 0
    all_findings = []
    for fixture in fixtures:
        virtual_path, expected, text = parse_fixture(fixture)
        findings = lint_text(virtual_path, text)
        got = {(f.rule, f.line_no) for f in findings}
        if got == expected:
            print(f"self-test: PASS {fixture.name} "
                  f"({len(findings)} finding(s))")
        else:
            failures += 1
            print(f"self-test: FAIL {fixture.name}: expected "
                  f"{sorted(expected)}, got {sorted(got)}")
        all_findings.extend(findings)

    # Baseline round-trip: everything the fixtures flag, baselined, must
    # come back clean — and a fabricated entry must surface as stale.
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        baseline_path = Path(tmp) / "baseline.txt"
        write_baseline(baseline_path, all_findings)
        counts = read_baseline(baseline_path)
        new, known, stale = split_by_baseline(all_findings, counts)
        if new or stale or len(known) != len(all_findings):
            failures += 1
            print(f"self-test: FAIL baseline round-trip: new={len(new)} "
                  f"stale={len(stale)} known={len(known)}")
        else:
            print("self-test: PASS baseline round-trip "
                  f"({len(known)} finding(s) masked)")
        with baseline_path.open("a", encoding="utf-8") as fh:
            fh.write("src/ghost/gone.cpp|GT001|std::rand()\n")
        counts = read_baseline(baseline_path)
        _, _, stale = split_by_baseline(all_findings, counts)
        if stale == ["src/ghost/gone.cpp|GT001|std::rand()"]:
            print("self-test: PASS stale baseline entry reported removable")
        else:
            failures += 1
            print(f"self-test: FAIL stale detection, got {stale}")

    # --changed hardening: paths git names but that no longer exist on disk
    # must be partitioned out (skipped with a notice), not opened.
    with tempfile.TemporaryDirectory() as tmp:
        live = Path(tmp) / "live.cpp"
        live.write_text("int x = 0;\n", encoding="utf-8")
        gone = Path(tmp) / "renamed_away.cpp"
        targets, skipped = partition_changed([live, gone])
        if targets == [live] and skipped == [gone]:
            print("self-test: PASS --changed skips deleted/renamed paths")
        else:
            failures += 1
            print(f"self-test: FAIL --changed partition: targets={targets} "
                  f"skipped={skipped}")
    print(f"self-test: {'FAIL' if failures else 'OK'} "
          f"({len(fixtures)} fixtures, {failures} failure(s))")
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="determinism & concurrency lint for gridtrust")
    parser.add_argument("files", nargs="*", type=Path,
                        help="files to lint (default: src/**/*.{hpp,cpp})")
    parser.add_argument("--changed", nargs="?", const="HEAD", metavar="BASE",
                        help="lint only files changed since BASE (default "
                             "HEAD); deleted/renamed paths are skipped")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from current findings")
    parser.add_argument("--self-test", action="store_true",
                        help="check the rules against tests/lint fixtures")
    parser.add_argument("--fixtures", type=Path,
                        default=REPO_ROOT / "tests" / "lint",
                        help="fixture directory for --self-test")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, doc in sorted(RULE_DOCS.items()):
            print(f"{rule}  {doc}")
        return 0
    if args.self_test:
        return self_test(args.fixtures)

    if args.changed is not None:
        if args.files:
            print("gt-lint: --changed and explicit FILE arguments are "
                  "mutually exclusive", file=sys.stderr)
            return 2
        try:
            targets = changed_targets(args.changed)
        except RuntimeError as error:
            print(f"gt-lint: {error}", file=sys.stderr)
            return 2
        if not targets:
            print("gt-lint: OK — no changed source files to lint")
            return 0
    else:
        targets = args.files or default_targets()
    findings = []
    for target in targets:
        if not target.exists():
            print(f"gt-lint: no such file: {target}", file=sys.stderr)
            return 2
        findings.extend(lint_file(target))

    if args.update_baseline:
        write_baseline(args.baseline, findings)
        print(f"gt-lint: wrote {len(findings)} finding(s) to {args.baseline}")
        return 0

    new, known, stale = split_by_baseline(findings,
                                          read_baseline(args.baseline))
    for finding in new:
        print(finding)
    for entry in stale:
        print(f"gt-lint: stale baseline entry (removable): {entry}")
    status = "FAIL" if new else "OK"
    print(f"gt-lint: {status} — checked {len(targets)} file(s): "
          f"{len(new)} new, {len(known)} baselined, {len(stale)} stale")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
