"""Same-bytes check: do two revisions write the same reports and CSVs?

Run from the repository root:

    python tools/samebytes.py REV [--head REV2] [--seeds 1-3] [--expect FIELD[:X] ...] [--expect-file PATH]

REV's files are taken with ``git archive`` and extracted into a temporary
directory, so nothing is written under ``.git`` and no network is needed;
the other side is the working tree this script runs from, or the files of
``--head``, taken the same way.  Both trees run the same jobs, each tree
in one process through its own ``brightpath.cli.main``:

- every seeded scenario of the four workloads of this tree's
  ``perfbench/workloads.py`` (read only), for each seed, with the argv that
  ``perfbench/run.py`` gives it;
- each kind's default run, with the method and ``--timeseries`` variants
  that CI runs;
- CI's hand-written five-, four- and twelve-level gate and compare
  configs, a ``--timeseries`` run of the four-level full gate, whose
  stage times end at t3 = 1.7, the linear gate whose stage times fall off
  an equal grid of 1 007 steps, and the closed 160-segment polyline loop.

Reports are compared field by field without ``diagnostics.wall_time_ms``,
CSVs byte for byte, and exit codes as they are.  A field is the dotted path
of dict keys to a value, with list indices dropped (``unitaries.full``,
``comparisons.sweep.leakage``); a CSV that differs names its moved columns
(``csv.pop_1``).  Each moved field is printed with the number of runs it
moved in and its largest absolute and relative change; then every run whose
exit code is not 0 in either tree.  The exit code is 1 on any difference
that no ``--expect FIELD`` names (an exit code counts as the field
``exit_code``), on an expected field that did not move, or if a tree's
runs do not import its own ``src``; else 0.  ``--expect FIELD:X`` names a
field that may move by at most X in absolute value: a larger change, or a
change between values that are not both numbers, counts as unexpected.
``--expect-file PATH`` reads more expectations, one ``FIELD[:X]`` a line
(blank lines and ``#`` comments skipped).  CI passes
``tools/expected_moves.txt`` with ``--seeds 1-12``, the seeds the file is
measured on (a field may move in some seeds only), where a change that moves report bytes
declares its moves; as an expectation that matches no move fails, the
file holds exactly one change's moves, and the next change empties it.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("gates", "adiabatic_sweep", "timeseries", "loops")
# Each kind's default run, as CI runs it: (name, argv, writes a CSV).
DEFAULT_RUNS = (
    ("default-selftest", ["selftest"], False),
    ("default-gate", ["gate", "--method", "effective", "--method", "full"], False),
    ("default-compare", ["compare"], False),
    ("default-stirap-timeseries", ["stirap"], True),
    ("default-gate-full-timeseries", ["gate", "--method", "full"], True),
    ("default-gate-effective-timeseries", ["gate", "--method", "effective"], True),
    ("default-morris-shore", ["morris-shore"], False),
    ("default-loop", ["loop"], False),
)
# CI's hand-written gates: five levels; four and twelve on stage times that
# end at t3 = 1.7, so the full route's progress clock rescales them.
_SMOOTH = {"phase": 0.9, "theta_schedule": "smooth", "phi_schedule": "smooth", "full_steps": 16384}
_GATE5 = {**_SMOOTH, "n": 5, "psi": [[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.0], [0.0, 0.0]], "stage_times": [0.3, 0.55, 1.0]}
_GATE4 = {**_SMOOTH, "n": 4, "psi": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0], [0.0, 0.0]], "stage_times": [0.4, 0.9, 1.7]}
_GATE12 = {
    **_SMOOTH,
    "n": 12,
    "psi": [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]] + [[0.0, 0.0]] * 8,
    "stage_times": [0.4, 0.9, 1.7],
    "omega_T": 2000.0,
}
_SWEEP = {"omega_T_list": [250.0, 1000.0, 4000.0]}
# CI's closed 160-segment polyline off the parameter origin.
_LOOP160 = [
    [
        0.8 + 0.3 * math.cos(0.5 + 2 * math.pi * i / 160),
        0.7 + 0.25 * math.sin(0.5 + 2 * math.pi * i / 160),
        0.0,
        0.2 * math.sin(1.0 + 2 * math.pi * i / 160),
    ]
    for i in range(160)
]
_BOTH = ["--method", "effective", "--method", "full"]
# CI's config runs: (name, kind, parameters, argv after the config, writes a CSV).
CONFIG_RUNS = (
    ("ci-gate5", "gate", {**_GATE5, "methods": ["full"], "omega_T": 2000.0}, [], False),
    ("ci-compare5", "compare", {**_GATE5, **_SWEEP}, [], False),
    ("ci-gate4", "gate", {**_GATE4, "omega_T": 2000.0}, _BOTH, False),
    ("ci-compare4", "compare", {**_GATE4, **_SWEEP}, [], False),
    ("ci-gate4-full-timeseries", "gate", {**_GATE4, "omega_T": 2000.0}, ["--method", "full"], True),
    ("ci-gate12", "gate", _GATE12, _BOTH, False),
    ("ci-gate-offgrid", "gate", {"stage_times": [0.3, 0.55, 1.0], "steps": 1007}, [], False),
    ("ci-loop160", "loop", {"samples": _LOOP160 + _LOOP160[:1]}, [], False),
)
# Runs in a tree's own interpreter: argv[1] holds [name, argv] jobs, and
# argv[2] receives the exit codes and the path brightpath was imported from.
RUNNER = """
import contextlib, io, json, sys
import brightpath.cli
codes = {}
for name, argv in json.load(open(sys.argv[1])):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes[name] = brightpath.cli.main(argv)
        except Exception as exc:
            codes[name] = f"{type(exc).__name__}: {exc}"
json.dump({"module": brightpath.cli.__file__, "codes": codes}, open(sys.argv[2], "w"))
"""


def _seeds(text: str) -> list[int]:
    """'1-3' or '1,4,7' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _workloads():
    """This tree's ``perfbench/workloads.py``, imported without writing bytecode."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _jobs(seeds: list[int], configs: str) -> list[tuple[str, list[str], bool]]:
    """Every (name, argv without --out/--timeseries, writes a CSV) to run."""
    workloads, jobs = _workloads(), []
    for workload in WORKLOADS:
        for seed in seeds:
            for scenario in workloads.generate(workload, seed):
                name = f"{workload}-s{seed}-{scenario.name}"
                path = os.path.join(configs, name + ".json")
                with open(path, "wb") as handle:
                    handle.write(scenario.config_bytes())
                jobs.append((name, [scenario.kind, "--config", path], scenario.timeseries))
    for name, kind, parameters, argv, csv in CONFIG_RUNS:
        path = os.path.join(configs, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"kind": kind, "parameters": parameters}, handle)
        jobs.append((name, [kind, "--config", path] + argv, csv))
    return jobs + [(name, list(argv), csv) for name, argv, csv in DEFAULT_RUNS]


def _git(*args: str) -> str:
    return subprocess.run(("git", "-C", ROOT) + args, check=True, capture_output=True, text=True).stdout.strip()


def _extract(commit: str, tree: str) -> None:
    """Write ``commit``'s files into the directory ``tree``, from ``git archive``."""
    archive = subprocess.run(("git", "-C", ROOT, "archive", "--format=tar", commit), check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as files:
        if hasattr(tarfile, "data_filter"):  # 3.12, and 3.10.12 / 3.11.4 on
            files.extractall(tree, filter="data")
        else:  # older releases take no filter; git archive's own output is trusted
            files.extractall(tree)


def _run_tree(tree: str, jobs, out: str) -> subprocess.Popen:
    """Start one process that runs every job on ``tree``'s ``src``, writing
    into ``out``."""
    os.makedirs(out)
    argvs = [
        (name, argv + ["--out", os.path.join(out, name + ".json")] + (["--timeseries", os.path.join(out, name + ".csv")] if csv else []))
        for name, argv, csv in jobs
    ]
    with open(os.path.join(out, "jobs.json"), "w") as handle:
        json.dump(argvs, handle)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    command = (sys.executable, "-c", RUNNER, os.path.join(out, "jobs.json"), os.path.join(out, "codes.json"))
    return subprocess.Popen(command, cwd=out, env=env)


def _fields(value, path: str = "", out=None) -> dict[str, list]:
    """A report's leaves by field: dict keys joined by dots, list indices
    dropped, so a field holds its leaves in order."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            _fields(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for item in value:
            _fields(item, path, out)
    else:
        out.setdefault(path, []).append(value)
    return out


def _report(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except FileNotFoundError:
        return None
    report.get("diagnostics", {}).pop("wall_time_ms", None)
    return report


def _csv(path: str):
    """A CSV's bytes, or None if it is missing."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def _columns(text: bytes | None):
    """The header and the float columns of a CSV, or None if it is missing
    or a field is not a float."""
    try:
        header, *rows = [line.split(",") for line in text.decode().splitlines()]
        return header, [[float(field) for field in column] for column in zip(*rows)]
    except (AttributeError, ValueError):
        return None


class Moves:
    """Each moved field: the runs it moved in, its largest absolute and
    relative changes over the moves between two numbers (None if none),
    and whether any move was not between two numbers."""

    def __init__(self):
        self.fields: dict[str, list] = {}

    def add(self, field: str, run: str, old, new) -> None:
        entry = self.fields.setdefault(field, [set(), None, None, False])
        entry[0].add(run)
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in (old, new)):
            change = abs(new - old)
            relative = change / abs(old) if old else math.inf
            entry[1], entry[2] = max(entry[1] or 0.0, change), max(entry[2] or 0.0, relative)
        else:
            entry[3] = True

    def compare_reports(self, run: str, old, new) -> None:
        """Add each field of two reports (None: missing) whose leaves differ
        in their ``repr``; a field with a different number of leaves moves
        as a whole."""
        if old is None or new is None:
            if (old is None) != (new is None):
                self.add("report", run, None, None)
            return
        old, new = _fields(old), _fields(new)
        for field in sorted(old.keys() | new.keys()):
            a, b = old.get(field, []), new.get(field, [])
            if len(a) != len(b):
                self.add(field, run, None, None)
                continue
            for x, y in zip(a, b):
                if repr(x) != repr(y):
                    self.add(field, run, x, y)

    def compare_csv(self, run: str, old_path: str, new_path: str) -> None:
        """Add each column of two CSVs whose fields differ in their ``repr``;
        a missing CSV, or a header or length that differs, moves ``csv``."""
        old, new = _csv(old_path), _csv(new_path)
        if old == new:
            return
        old, new = _columns(old), _columns(new)
        if old is None or new is None or old[0] != new[0] or [len(c) for c in old[1]] != [len(c) for c in new[1]]:
            self.add("csv", run, None, None)
            return
        for name, a, b in zip(old[0], old[1], new[1]):
            for x, y in zip(a, b):
                if repr(x) != repr(y):
                    self.add(f"csv.{name}", run, x, y)


def _expectation(text: str) -> tuple[str, float | None]:
    """``FIELD`` as (FIELD, None): any move; ``FIELD:X`` as (FIELD, X)."""
    field, colon, bound = text.rpartition(":")
    return (field, float(bound)) if colon else (text, None)


def _expectation_file(path: str) -> list[tuple[str, float | None]]:
    """The expectations of a file: one ``FIELD[:X]`` per line that is neither
    blank nor a ``#`` comment."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.split("#", 1)[0].strip() for line in handle]
    return [_expectation(line) for line in lines if line]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the base revision")
    parser.add_argument("--head", help="a revision to compare with REV (default: this working tree)")
    parser.add_argument("--seeds", default="1-3", help="workload seeds, e.g. 1-3 or 1,4 (default 1-3)")
    parser.add_argument(
        "--expect",
        action="append",
        default=[],
        type=_expectation,
        metavar="FIELD[:X]",
        help="a field allowed to move, by at most X in absolute value when X is given (repeatable)",
    )
    parser.add_argument("--expect-file", metavar="PATH", help="a file of expectations, one FIELD[:X] a line")
    args = parser.parse_args(argv)
    if args.expect_file:
        args.expect += _expectation_file(args.expect_file)
    started = time.perf_counter()
    sides = {"base": _git("rev-parse", "--verify", args.rev + "^{commit}")}
    if args.head:
        sides["head"] = _git("rev-parse", "--verify", args.head + "^{commit}")
    with tempfile.TemporaryDirectory(prefix="samebytes-") as work:
        trees, running = {"head": ROOT}, {}
        try:
            for side, commit in sides.items():
                trees[side] = os.path.join(work, side)
                _extract(commit, trees[side])
            configs = os.path.join(work, "configs")
            os.makedirs(configs)
            jobs = _jobs(_seeds(args.seeds), configs)
            # One process per tree, both at once: a tree's runs are serial.
            running = {side: _run_tree(trees[side], jobs, os.path.join(work, "out-" + side)) for side in ("base", "head")}
            failed = [side for side, process in running.items() if process.wait() != 0]
        finally:
            for process in running.values():
                if process.poll() is None:
                    process.kill()
                    process.wait()
        if failed:
            print(f"the runner of {', '.join(failed)} failed")
            return 1
        codes = {}
        for side in ("base", "head"):
            with open(os.path.join(work, "out-" + side, "codes.json")) as handle:
                done = json.load(handle)
            if not done["module"].startswith(os.path.join(trees[side], "src") + os.sep):
                print(f"the {side} runs imported brightpath from {done['module']}, not from {trees[side]}")
                return 1
            codes[side] = done["codes"]
        moves = Moves()
        for name, _, csv in jobs:
            old, new = (os.path.join(work, "out-" + side, name) for side in ("base", "head"))
            if codes["base"][name] != codes["head"][name]:
                moves.add("exit_code", name, codes["base"][name], codes["head"][name])
            moves.compare_reports(name, _report(old + ".json"), _report(new + ".json"))
            if csv:
                moves.compare_csv(name, old + ".csv", new + ".csv")
    head = sides["head"][:12] if "head" in sides else "the working tree"
    print(f"samebytes: {head} against {sides['base'][:12]} ({args.rev}), seeds {args.seeds}: {len(jobs)} runs per tree, {time.perf_counter() - started:.1f} s")
    unexpected, bounds = 0, dict(args.expect)
    for field, (runs, change, relative, opaque) in sorted(moves.fields.items()):
        bound = bounds.get(field)
        allowed = field in bounds and (bound is None or (not opaque and change <= bound))
        unexpected += not allowed
        size = f"max |change| {change:.3g}, max relative {relative:.3g}" if change is not None else "not numbers"
        size += ", and moves that are not numbers" if opaque and change is not None else ""
        within = "" if bound is None else f" (bound {bound:.3g})"
        print(f"  {'expected' if allowed else 'MOVED':<9}{field}: {len(runs)} run(s), {size}{within}")
    for name, _, _ in jobs:
        if codes["base"][name] != 0 or codes["head"][name] != 0:
            print(f"  exit code {codes['base'][name]} -> {codes['head'][name]}: {name}")
    for field in sorted(set(bounds) - set(moves.fields)):
        unexpected += 1
        print(f"  {'STILL':<9}{field}: expected to move, did not")
    print(f"{unexpected} unexpected moved or unmoved field(s)" if unexpected else "no unexpected difference")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
