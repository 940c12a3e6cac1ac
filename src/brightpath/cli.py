"""Command-line front end: scenario configs in, machine-readable reports out.

Subcommands: ``gate``, ``loop``, ``compare``, ``morris-shore``, ``stirap``,
``selftest``.  Scenarios are described by a JSON config (``--config``) or by
per-kind defaults; ``--steps``, ``--method`` and ``--tolerance`` override
the config.  Reports are JSON (stdout or ``--out``), time series are CSV
(``--timeseries``).  Complex numbers serialize as [re, im] pairs, matrices
row-major; angles are radians and frequencies are in units of the mean Rabi
frequency.

Exit codes: 0 pass, 2 tolerance failure, 3 config error, 4 numerical
precondition failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from typing import Any

import numpy as np

from . import __version__, acceptance
from .berry import (
    ParameterPath,
    effective_dark_block,
    holonomy,
    rectangle_loop,
    u_y_analytic,
    u_z_analytic,
)
from .errors import BrightpathError, ConfigError
from .floatrepr import format_rows
from .gates import (
    MIN_GATE_STEPS,
    GateSpec,
    compose_gate,
    extract_geometric_phase,
    logical_block,
    measure_gate,
    simulate_full_gate,
    simulate_gate,
    stirap_trajectory,
    stirap_transfer,
)
from .linalg import matrix_distance
from .morris_shore import TwoManifoldSystem, morris_shore_transform
from .propagators import MAX_STEPS, AdiabaticRunConfig, StateTrace

KINDS = ("gate", "loop", "compare", "morris-shore", "stirap", "selftest")
# The kinds whose runs have a state trajectory to write with --timeseries.
TIMESERIES_KINDS = ("stirap", "gate")
# A time series writes arg<psi|state> as 0.0 at or below this overlap, on
# the scale of the amplitude error, where the angle carries no digits.
PHASE_OVERLAP_FLOOR = 1e-6
# The most levels (rows + cols) of a seeded random Morris-Shore matrix: this
# bounds the rows x cols draw before anything is allocated.
MAX_MORRIS_SHORE_LEVELS = 1024
# The largest stirap theta_end: past ~1e154 the Gram entries of a step overflow.
MAX_THETA_END = 1e150

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

DEFAULT_PARAMETERS: dict[str, dict[str, Any]] = {
    "gate": {
        "n": 3,
        "psi": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0], [0.0, 0.0]],
        "phase": 1.0471975511965976,
        "stage_times": [0.25, 0.5, 1.0],
        "theta_schedule": "linear",
        "phi_schedule": "linear",
        "steps": 10000,
        "methods": ["effective"],
        "omega_T": 2000.0,
        "full_steps": 65536,
        "tolerance": 1e-6,
    },
    "loop": {
        "plane": "theta1-theta2",
        "side_a": 1.0,
        "side_b": 0.8,
        "points_per_edge": 32,
        "steps": 64,
        "methods": ["effective", "berry"],
        "tolerance": 1e-6,
    },
    "compare": {
        "n": 3,
        "psi": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0], [0.0, 0.0]],
        "phase": 1.0471975511965976,
        "stage_times": [0.25, 0.5, 1.0],
        "theta_schedule": "smooth",
        "phi_schedule": "smooth",
        "omega_T_list": [250.0, 1000.0, 4000.0],
        "full_steps": 65536,
        "require_decreasing": True,
        "tolerance": 1e-2,
    },
    "morris-shore": {
        "rows": 5,
        "cols": 2,
        "matrix": None,
        "rank_tol": 1e-12,
        "tolerance": 1e-12,
    },
    "stirap": {
        "theta_end": 1.5707963267948966,
        "steps": 4096,
        "ramp": "linear",
        "tolerance": 1e-8,
    },
    "selftest": {},
}

# Keys a kind accepts beyond its defaults; they are echoed only when given.
OPTIONAL_PARAMETERS = {"loop": {"samples"}}
LOOP_PLANES = ("theta1-theta2", "theta2-phi3")


# ---------------------------------------------------------------------------
# serialization helpers


def complex_to_pairs(matrix: np.ndarray) -> list:
    """Row-major nesting with each entry as an [re, im] pair."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def pairs_to_complex(data, field: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field}: expected nested [re, im] arrays") from exc
    _require(bool(np.all(np.isfinite(arr))), field, "entries must be finite")
    if arr.ndim == 2 and arr.shape[1] == 2:
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    if arr.ndim == 1:
        return arr.astype(complex)
    raise ConfigError(f"{field}: expected [re, im] pairs, got shape {arr.shape}")


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{field}: {message}")


def _number(value, field: str, lo=None, hi=None, integer=False):
    """A finite number as an int (``integer``) or a float.  JSON's NaN and
    Infinity, bools and integers beyond the double range are not numbers."""
    try:
        finite = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        finite = False
    _require(finite, field, "must be a finite number")
    if integer:
        _require(isinstance(value, int) or value.is_integer(), field, "must be an integer")
    value = int(value) if integer else float(value)
    if lo is not None:
        _require(value >= lo, field, f"must be >= {lo}")
    if hi is not None:
        _require(value <= hi, field, f"must be <= {hi}")
    return value


def _methods(value, allowed: tuple[str, ...]) -> list:
    _require(isinstance(value, list) and value, "methods", "must be a non-empty list")
    for method in value:
        _require(method in allowed, "methods", f"unsupported method {method!r}")
    return value


# ---------------------------------------------------------------------------
# scenario configuration


class ScenarioConfig:
    """A scenario parsed once: kind, the parameter map it echoes, the RNG
    seed, and the domain objects and numbers its runner reads.

    Parsing checks JSON types, finiteness and the CLI's own minima; each
    domain rule is checked by the constructor that owns it (``GateSpec``,
    ``AdiabaticRunConfig``, ``rectangle_loop``, ``ParameterPath``,
    ``TwoManifoldSystem``, ``stirap_trajectory``).  A scenario's total
    steps are bounded here too (``_check_budget``).  Nothing proportional
    to a step count is built here.
    """

    def __init__(self, kind: str, parameters: dict[str, Any] | None = None, seed: int = 7):
        if kind not in KINDS:
            raise ConfigError(f"kind: unknown scenario kind {kind!r}; expected one of {KINDS}")
        _require(parameters is None or isinstance(parameters, dict), "parameters", "must be an object")
        known = set(DEFAULT_PARAMETERS[kind]) | OPTIONAL_PARAMETERS.get(kind, set())
        unknown = sorted(map(str, set(parameters or {}) - known))
        if unknown:
            raise ConfigError(f"{', '.join(unknown)}: unknown parameter for kind {kind!r}; expected {sorted(known)}")
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("seed: must be a non-negative integer")
        self.kind = kind
        self.parameters = {**DEFAULT_PARAMETERS[kind], **(parameters or {})}
        self.seed = seed
        self._parse()

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        return cls(**_read_config(path))

    def echo(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "parameters": _jsonable(self.parameters)}

    def _build(self, renamed: dict[str, str], make, **arguments):
        """``make(**arguments)``: a domain constructor, the one place its rules
        are checked.  An error it raises becomes a ConfigError led by the field
        of the argument its message starts with: the ``renamed`` field, the
        argument itself when it is a config field, else the first renamed one."""
        try:
            return make(**arguments)
        except (ValueError, BrightpathError) as exc:
            named = re.match(r"\w*", str(exc)).group()
            field = renamed.get(named, named if named in self.parameters else next(iter(renamed.values())))
            raise ConfigError(f"{field}: {exc}") from exc

    def _parse(self) -> None:
        p = self.parameters
        self.tolerance = _number(p["tolerance"], "tolerance", lo=0.0) if "tolerance" in p else 0.0
        if self.kind in ("gate", "compare"):
            times = p["stage_times"]
            _require(isinstance(times, (list, tuple)) and len(times) == 3, "stage_times", "must be [t1, t2, t3]")
            t1, t2, t3 = (_number(t, "stage_times") for t in times)
            self.spec = self._build(
                {"phase_twist": "phase", "t1": "stage_times"},
                GateSpec,
                n=_number(p["n"], "n", integer=True),
                psi=pairs_to_complex(p["psi"], "psi"),
                phase_twist=_number(p["phase"], "phase"),
                t1=t1,
                t2=t2,
                t3=t3,
                theta_schedule=p["theta_schedule"],
                phi_schedule=p["phi_schedule"],
            )
            full_steps = _number(p["full_steps"], "full_steps", integer=True)
            if self.kind == "gate":
                omega_field, omegas = "omega_T", [p["omega_T"]]
            else:
                omega_field, omegas = "omega_T_list", p["omega_T_list"]
                _require(isinstance(omegas, list) and len(omegas) >= 2, omega_field, "must list at least two omega_T values")
            run_fields = {"omega_T": omega_field, "steps": "full_steps"}
            self.full_runs = [
                self._build(run_fields, AdiabaticRunConfig, omega_T=_number(omega_T, omega_field), steps=full_steps)
                for omega_T in omegas
            ]
        if self.kind == "gate":
            self.steps = _number(p["steps"], "steps", lo=MIN_GATE_STEPS, hi=MAX_STEPS, integer=True)
            self.methods = _methods(p["methods"], ("effective", "full"))
        if self.kind == "compare":
            self.require_decreasing = p["require_decreasing"]
            _require(isinstance(self.require_decreasing, bool), "require_decreasing", "must be true or false")
        if self.kind == "loop":
            if p.get("samples") is None:
                self.plane = p["plane"]
                _require(self.plane in LOOP_PLANES, "plane", f"must be one of {LOOP_PLANES}")
                coord_a, coord_b = self.plane.split("-")
                self.path = self._build(
                    {"coord_a": "plane"},
                    rectangle_loop,
                    coord_a=coord_a,
                    coord_b=coord_b,
                    side_a=_number(p["side_a"], "side_a", lo=1e-12),
                    side_b=_number(p["side_b"], "side_b", lo=1e-12),
                    points_per_edge=_number(p["points_per_edge"], "points_per_edge", lo=2, integer=True),
                )
            else:
                self.plane = None
                try:
                    samples = np.asarray(p["samples"], dtype=float)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(f"samples: {exc}") from exc
                _require(samples.ndim == 2, "samples", "must be an (m, 4) array")
                self.path = self._build({"samples": "samples"}, ParameterPath, samples=samples, closed=True)
            self.steps = _number(p["steps"], "steps", lo=1, hi=MAX_STEPS, integer=True)
            self.methods = _methods(p["methods"], ("effective", "berry"))
        if self.kind == "morris-shore":
            if p["matrix"] is not None:
                self.system = self._build({"v": "matrix"}, TwoManifoldSystem, v=pairs_to_complex(p["matrix"], "matrix"))
            else:
                # The seeded random matrix is drawn at run time.
                self.system = None
                self.shape = (_number(p["rows"], "rows", lo=1, integer=True), _number(p["cols"], "cols", lo=1, integer=True))
                levels = sum(self.shape)
                _require(levels <= MAX_MORRIS_SHORE_LEVELS, "rows", f"rows + cols must be <= {MAX_MORRIS_SHORE_LEVELS}, got {levels}")
            self.rank_tol = _number(p["rank_tol"], "rank_tol", lo=0.0)
        if self.kind == "stirap":
            self.theta_end = _number(p["theta_end"], "theta_end", lo=0.0, hi=MAX_THETA_END)
            self.steps = _number(p["steps"], "steps", lo=10, hi=MAX_STEPS, integer=True)
            self.ramp = p["ramp"]
            self.trajectory = self._build({"ramp": "ramp"}, stirap_trajectory, theta_end=self.theta_end, ramp=self.ramp)
        self._check_budget()

    def _check_budget(self) -> None:
        """Bound the steps of a whole scenario, not only of each run: the
        full oracle's steps summed over its runs, plus the effective route's
        ``steps``, or segments x ``steps`` for a loop, must be at most
        ``MAX_STEPS``.  A route the scenario does not run counts nothing.
        The error names the field that holds most of the work."""
        work = {}
        if self.kind == "compare" or (self.kind == "gate" and "full" in self.methods):
            work["full_steps"] = sum(run.steps for run in self.full_runs)
        if self.kind == "stirap" or (self.kind == "gate" and "effective" in self.methods):
            work["steps"] = self.steps
        if self.kind == "loop":
            work["steps"] = (len(self.path.samples) - 1) * (self.steps if "effective" in self.methods else 1)
        total = sum(work.values())
        if total > MAX_STEPS:
            field = max(work, key=work.get)
            raise ConfigError(f"{field}: the scenario takes {total} steps over all its runs; the budget is {MAX_STEPS}")


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


# ---------------------------------------------------------------------------
# scenario execution


def _diagnostics(**fields) -> dict:
    """The diagnostics block every report carries; a kind leaves 0 in the
    fields it has no such quantity for."""
    zero = {"unitarity_error": 0.0, "leakage": 0.0, "dark_block_distance_exact": 0.0, "dark_block_distance_phase": 0.0}
    return {**zero, "steps": 0, **fields}


def _trace(start: np.ndarray, writer) -> StateTrace | None:
    """A trace of ``start`` into the sink ``writer(start)``, or None with no writer."""
    return None if writer is None else StateTrace(start, writer(start))


def _run_gate(config: ScenarioConfig, writer=None) -> dict:
    spec = config.spec
    analytic = compose_gate(spec)
    results = {}
    if "effective" in config.methods:
        # A time series follows the full method, from psi on n+1 levels, when it runs.
        results["effective"] = simulate_gate(spec, config.steps, None if "full" in config.methods else _trace(spec.psi, writer))
    if "full" in config.methods:
        (results["full"],) = simulate_full_gate(spec, config.full_runs, _trace(np.append(spec.psi, 0.0), writer))
    unitaries = {"analytic": analytic.matrix}
    blocks = {"analytic": logical_block(analytic, spec.n)}
    comparisons: dict[str, float] = {}
    diag = _diagnostics(steps=config.steps, unitarity_error=max([0.0] + [r.unitarity_error for r in results.values()]))
    measures = measure_gate(blocks["analytic"], list(results.values()))
    for (name, result), (block, exact, phase, leak) in zip(results.items(), measures):
        unitaries[name], blocks[name] = result.unitary.matrix, block
        comparisons[f"{name}_vs_analytic_phase"] = phase
        if name == "effective":
            comparisons["effective_vs_analytic_exact"] = exact
            diag["geometric_phase"] = extract_geometric_phase(result.unitary, spec.psi)
        else:
            diag["leakage"] = leak
    diag["dark_block_distance_exact"] = comparisons.get("effective_vs_analytic_exact", 0.0)
    diag["dark_block_distance_phase"] = comparisons.get(
        "effective_vs_analytic_phase", comparisons.get("full_vs_analytic_phase", 0.0)
    )
    checks = [diag["dark_block_distance_exact"] <= config.tolerance]
    if "full" in results:
        checks.append(comparisons["full_vs_analytic_phase"] <= max(config.tolerance, 1e-2))
    return {
        "unitaries": unitaries,
        "dark_blocks": blocks,
        "comparisons": comparisons,
        "diagnostics": diag,
        "passed": bool(all(checks)),
    }


def _run_loop(config: ScenarioConfig) -> dict:
    path = config.path
    unitaries: dict[str, np.ndarray] = {}
    blocks: dict[str, np.ndarray] = {}
    comparisons: dict[str, float] = {}
    if "berry" in config.methods:
        hol = holonomy(path)
        unitaries["berry"] = hol.matrix
        blocks["berry"] = hol.matrix
    if "effective" in config.methods:
        blk = effective_dark_block(path, steps_per_segment=config.steps)
        blocks["effective"] = blk
    if config.plane is not None and "berry" in blocks:
        analytic = {"theta1-theta2": u_y_analytic, "theta2-phi3": u_z_analytic}[config.plane](path).matrix
        blocks["analytic"] = analytic
        comparisons["berry_vs_analytic_exact"] = matrix_distance(blocks["berry"], analytic, "exact")
    if "berry" in blocks and "effective" in blocks:
        comparisons["berry_vs_effective_exact"] = matrix_distance(
            blocks["berry"], blocks["effective"], "exact"
        )
    primary = max(comparisons.values()) if comparisons else 0.0
    diag = _diagnostics(
        dark_block_distance_exact=primary,
        dark_block_distance_phase=min(
            (matrix_distance(blocks[a], blocks[b], "up_to_global_phase") for a in blocks for b in blocks if a < b),
            default=0.0,
        ),
        steps=config.steps,
    )
    return {
        "unitaries": unitaries,
        "dark_blocks": blocks,
        "comparisons": comparisons,
        "diagnostics": diag,
        "passed": bool(primary <= config.tolerance),
    }


def _run_compare(config: ScenarioConfig) -> dict:
    spec = config.spec
    geo_block = logical_block(compose_gate(spec), spec.n)
    results = simulate_full_gate(spec, config.full_runs)
    sweep = [
        {"omega_T": run_config.omega_T, "distance_phase": distance, "leakage": leak}
        for run_config, (_, _, distance, leak) in zip(config.full_runs, measure_gate(geo_block, results))
    ]
    worst_unitarity = max(result.unitarity_error for result in results)
    distances = [entry["distance_phase"] for entry in sweep]
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    passed = distances[-1] <= config.tolerance and (decreasing or not config.require_decreasing)
    diag = _diagnostics(
        unitarity_error=worst_unitarity,
        leakage=max(entry["leakage"] for entry in sweep),
        dark_block_distance_phase=distances[-1],
        steps=config.full_runs[0].steps,
    )
    return {
        "dark_blocks": {"analytic": geo_block},
        "comparisons": {"sweep": sweep, "strictly_decreasing": decreasing},
        "diagnostics": diag,
        "passed": bool(passed),
    }


def _run_morris_shore(config: ScenarioConfig) -> dict:
    sys_ = config.system
    if sys_ is None:
        rng = np.random.default_rng(config.seed)
        sys_ = TwoManifoldSystem(rng.normal(size=config.shape) + 1j * rng.normal(size=config.shape))
    decomposition = morris_shore_transform(sys_, rank_tol=config.rank_tol)
    scale = float(np.linalg.norm(sys_.v))
    residual = decomposition.reconstruct() - sys_.v
    recon = float(np.linalg.norm(residual)) / scale
    # The drive's only nonzero blocks are V and V^dag, and conjugation is
    # exact, so the rebuilt drive differs from the original by exactly
    # ``residual`` and its conjugate transpose.
    drive_err = float(np.max(np.abs(residual))) / scale
    diag = _diagnostics(dark_block_distance_exact=recon, dark_block_distance_phase=drive_err)
    return {
        "comparisons": {
            "pairs": decomposition.rank,
            "dark_states": int(decomposition.dark_ground.shape[0]),
            "couplings": [float(g) for g in decomposition.couplings],
            "reconstruction_error": recon,
            "drive_rebuild_error": drive_err,
        },
        "diagnostics": diag,
        "passed": bool(recon <= config.tolerance and drive_err <= max(config.tolerance, 1e-10)),
    }


def _run_stirap(config: ScenarioConfig, writer=None) -> dict:
    trace = _trace(np.array([1.0, 0.0], dtype=complex), writer)
    report = stirap_transfer(config.theta_end, steps=config.steps, ramp=config.ramp, trace=trace)
    diag = _diagnostics(
        dark_block_distance_exact=report.deviation,
        dark_block_distance_phase=report.deviation,
        steps=config.steps,
    )
    return {
        "comparisons": {
            "final_state": complex_to_pairs(report.final_state)[0],
            "expected_state": complex_to_pairs(report.expected_state)[0],
            "deviation": report.deviation,
            "transfer_population": report.transfer_population,
        },
        "diagnostics": diag,
        "passed": bool(report.deviation <= config.tolerance),
    }


def _run_selftest(config: ScenarioConfig) -> dict:
    results = acceptance.run_all(config.seed)
    lines = [{"criterion": r.number, "name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    return {
        "comparisons": {"criteria": lines},
        "diagnostics": _diagnostics(),
        "passed": bool(all(r.passed for r in results)),
    }


_RUNNERS = {
    "gate": _run_gate,
    "loop": _run_loop,
    "compare": _run_compare,
    "morris-shore": _run_morris_shore,
    "stirap": _run_stirap,
    "selftest": _run_selftest,
}


def run_scenario(config: ScenarioConfig, writer=None) -> dict:
    """Execute one scenario and assemble the report dictionary: the config's
    ``tolerance``, and empty ``unitaries`` and ``dark_blocks`` unless the
    runner fills them.  Given a ``writer`` (``TIMESERIES_KINDS`` only), the
    runner traces its route from the route's start state into ``writer(start)``."""
    started = time.perf_counter()
    runner = _RUNNERS[config.kind]
    body = {"unitaries": {}, "dark_blocks": {}, **(runner(config) if writer is None else runner(config, writer))}
    wall_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "schema": "brightpath.report.v1",
        "version": __version__,
        "scenario": config.echo(),
        "unitaries": {name: complex_to_pairs(matrix) for name, matrix in body["unitaries"].items()},
        "dark_blocks": {name: complex_to_pairs(matrix) for name, matrix in body["dark_blocks"].items()},
        "comparisons": _jsonable(body["comparisons"]),
        "diagnostics": {**_jsonable(body["diagnostics"]), "wall_time_ms": wall_ms},
        "passed": body["passed"],
        "tolerance": config.tolerance,
    }
    return report


# ---------------------------------------------------------------------------
# time series


def emit_timeseries(config: ScenarioConfig, path: str) -> dict:
    """Run one scenario and write its ``t,leakage,pop_1..pop_N,phase_psi``
    CSV in the same pass; return the report.

    The state starts in level 1 (``stirap``) or in psi (``gate``, embedded
    in the n+1 levels when the full method runs, whose route and progress
    clock the CSV then follows).  Each block's rows are written before the
    next block is built.  A path that cannot be opened is a ``ConfigError``
    before the run; a run that fails leaves no CSV behind.
    """
    if config.kind not in TIMESERIES_KINDS:
        raise ConfigError(f"kind: scenario {config.kind!r} does not support time series; expected one of {TIMESERIES_KINDS}")
    try:
        handle = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"timeseries: cannot write {path}: {exc}") from exc
    with handle:
        try:
            return run_scenario(config, functools.partial(TimeseriesWriter, handle))
        except BaseException as exc:
            handle.close()
            if os.path.isfile(path):
                os.remove(path)
            if isinstance(exc, OSError):
                raise ConfigError(f"timeseries: cannot write {path}: {exc}") from exc
            raise


class TimeseriesWriter:
    """A ``StateTrace`` sink that writes CSV: the header when made, then one
    row per recorded state of each ``(times, states, coupled)`` block it is
    given.

    Columns: the time; the leakage, 1 minus the population outside the
    ``coupled`` states; each level's population; and the phase of the
    overlap with ``reference`` (0.0 when |overlap| <= ``PHASE_OVERLAP_FLOOR``).
    A block takes a handful of whole-column numpy calls and no loop over
    its rows: the overlaps are one ``einsum``, and a population is libm
    ``hypot`` then ``pow`` (``np.float_power`` with the scalar exponent 2.0
    calls that ``pow``), which keeps the bits of the scalar
    ``abs(amp) ** 2`` where ``np.abs`` or ``np.square`` can differ in the
    last bit.  Every field is the shortest round-trip ``repr`` of its
    float, the block's text from one ``format_rows`` call.  The states come from the trace's blocked scan, so a field
    differs from one of a step-by-step product by rounding only.
    """

    def __init__(self, handle, reference: np.ndarray):
        self.handle, self.reference = handle, reference
        dim = len(reference)
        handle.write("t,leakage," + ",".join(f"pop_{i + 1}" for i in range(dim)) + ",phase_psi\n")

    def __call__(self, times: np.ndarray, states: np.ndarray, coupled: np.ndarray) -> None:
        # Population outside the coupled states: the dark subspace.
        amplitudes = np.einsum("rkd,rd->rk", coupled.conj(), states)
        dark = (states.conj() * states).real.sum(axis=1) - (np.abs(amplitudes) ** 2).sum(axis=1)
        overlap = np.einsum("rd,d->r", states, self.reference.conj())
        table = np.empty((len(times), states.shape[1] + 3))
        table[:, 0] = times
        table[:, 1] = np.maximum(0.0, 1.0 - dark)
        table[:, 2:-1] = np.float_power(np.hypot(states.real, states.imag), 2.0)
        table[:, -1] = np.where(np.hypot(overlap.real, overlap.imag) > PHASE_OVERLAP_FLOOR, np.angle(overlap), 0.0)
        self.handle.write(format_rows(table))


# ---------------------------------------------------------------------------
# argument parsing / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brightpath",
        description="Holonomic dark-subspace evolution: gates, loops, and cross-method checks.",
    )
    parser.add_argument("--version", action="version", version=f"brightpath {__version__}")
    # Every kind takes the same options: one set of actions shared by all.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON scenario config file")
    common.add_argument("--steps", type=int, help="override the scenario step count")
    common.add_argument(
        "--method",
        action="append",
        choices=("effective", "berry", "full"),
        help="restrict to one or more methods (repeatable)",
    )
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    common.add_argument("--timeseries", help="write a CSV time series to this path")
    common.add_argument("--tolerance", type=float, help="override the pass/fail tolerance")
    common.add_argument("--seed", type=int, help="override the scenario seed")
    sub = parser.add_subparsers(dest="kind", required=True, metavar="|".join(KINDS))
    for kind in KINDS:
        sub.add_parser(kind, help=f"run a {kind} scenario", parents=[common])
    return parser


def _read_config(path: str) -> dict[str, Any]:
    """A config file's top level: ``kind`` and optional ``parameters`` and
    ``seed``, the arguments of ``ScenarioConfig``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    unknown = set(raw) - {"kind", "parameters", "seed"}
    if unknown:
        raise ConfigError(f"config: unknown top-level keys {sorted(unknown)}")
    if "kind" not in raw:
        raise ConfigError("config: missing required key 'kind'")
    return raw


def _config_from_args(args) -> ScenarioConfig:
    """The file's (or the defaults') scenario with the command-line overrides
    merged into its parameters, parsed once."""
    raw = _read_config(args.config) if args.config else {"kind": args.kind}
    if raw["kind"] != args.kind:
        raise ConfigError(f"kind: config file is for {raw['kind']!r} but the {args.kind!r} subcommand was invoked")
    methods = list(dict.fromkeys(args.method)) if args.method else None
    fields = {"full_steps" if args.kind == "compare" else "steps": args.steps, "methods": methods, "tolerance": args.tolerance}
    overrides = {field: value for field, value in fields.items() if value is not None}
    parameters = raw.get("parameters")
    # Parameters that are not an object are left for ScenarioConfig to refuse.
    if overrides and (parameters is None or isinstance(parameters, dict)):
        raw["parameters"] = {**(parameters or {}), **overrides}
    if args.seed is not None:
        raw["seed"] = args.seed
    return ScenarioConfig(**raw)


# One parser per process, built on the first call to main, not at import.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        report = emit_timeseries(config, args.timeseries) if args.timeseries else run_scenario(config)
        payload = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(payload + "\n")
            except OSError as exc:
                raise ConfigError(f"out: cannot write {args.out}: {exc}") from exc
        else:
            print(payload)
        if config.kind == "selftest":
            for entry in report["comparisons"]["criteria"]:
                status = "PASS" if entry["passed"] else "FAIL"
                print(
                    f"[{status}] criterion {entry['criterion']} ({entry['name']}): {entry['detail']}",
                    file=sys.stderr,
                )
        if not report["passed"]:
            return EXIT_TOLERANCE
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BrightpathError, ValueError) as exc:
        print(f"numerical precondition failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
