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
import json
import math
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
from .gates import (
    MIN_GATE_STEPS,
    GateSpec,
    compose_gate,
    gate_coupling_schedule,
    logical_block,
    simulate_gate,
    stage_trajectory,
    stirap_trajectory,
    stirap_transfer,
)
from .linalg import matrix_distance, projector_from_frame
from .morris_shore import TwoManifoldSystem, morris_shore_transform
from .propagators import (
    FULL_BLOCK,
    MAX_STEPS,
    AdiabaticRunConfig,
    dark_block,
    evolve_full_adiabatic,
    evolve_full_sweep,
    evolve_state_full,
    evolve_state_time_ordered,
    leakage,
)

KINDS = ("gate", "loop", "compare", "morris-shore", "stirap", "selftest")
# The kinds whose runs have a state trajectory to write with --timeseries.
TIMESERIES_KINDS = ("stirap", "gate")
# A time series writes arg<psi|state> as 0.0 at or below this overlap, on
# the scale of the amplitude error, where the angle carries no digits.
PHASE_OVERLAP_FLOOR = 1e-6
# The most levels (rows + cols) of a seeded random Morris-Shore matrix: this
# bounds both the rows x cols draw and the (rows + cols)^2 drive Hamiltonian
# before anything is allocated.
MAX_MORRIS_SHORE_LEVELS = 1024

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
    ``TwoManifoldSystem``, ``stirap_trajectory``).  Nothing proportional to
    a step count is built here.
    """

    def __init__(self, kind: str, parameters: dict[str, Any] | None = None, seed: int = 7):
        if kind not in KINDS:
            raise ConfigError(f"kind: unknown scenario kind {kind!r}; expected one of {KINDS}")
        _require(parameters is None or isinstance(parameters, dict), "parameters", "must be an object")
        known = set(DEFAULT_PARAMETERS[kind]) | OPTIONAL_PARAMETERS.get(kind, set())
        unknown = sorted(map(str, set(parameters or {}) - known))
        if unknown:
            raise ConfigError(f"{', '.join(unknown)}: unknown parameter for kind {kind!r}; expected {sorted(known)}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError("seed: must be an integer")
        self.kind = kind
        self.parameters = {**DEFAULT_PARAMETERS[kind], **(parameters or {})}
        self.seed = seed
        self._parse()

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
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
        return cls(raw["kind"], raw.get("parameters"), raw.get("seed", 7))

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
            self.theta_end = _number(p["theta_end"], "theta_end", lo=0.0)
            self.steps = _number(p["steps"], "steps", lo=10, hi=MAX_STEPS, integer=True)
            self.ramp = p["ramp"]
            self.trajectory = self._build({"ramp": "ramp"}, stirap_trajectory, theta_end=self.theta_end, ramp=self.ramp)


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


def _run_gate(config: ScenarioConfig) -> dict:
    spec = config.spec
    analytic = compose_gate(spec)
    geo_block = logical_block(analytic, spec.n)
    unitaries = {"analytic": analytic.matrix}
    blocks = {"analytic": geo_block}
    comparisons: dict[str, float] = {}
    diag = _diagnostics(steps=config.steps)

    if "effective" in config.methods:
        report = simulate_gate(spec, steps=config.steps)
        unitaries["effective"] = report.simulated_unitary.matrix
        blocks["effective"] = logical_block(report.simulated_unitary, spec.n)
        comparisons["effective_vs_analytic_exact"] = report.distance_exact
        comparisons["effective_vs_analytic_phase"] = report.distance_phase
        diag["geometric_phase"] = report.geometric_phase
        diag["unitarity_error"] = max(diag["unitarity_error"], report.propagation.unitarity_error)

    if "full" in config.methods:
        result = evolve_full_adiabatic(gate_coupling_schedule(spec), config.full_runs[0])
        logical = np.eye(spec.n - 1, spec.n + 1, dtype=complex)
        blk = dark_block(result.unitary, logical, logical)
        unitaries["full"] = result.unitary.matrix
        blocks["full"] = blk
        comparisons["full_vs_analytic_phase"] = matrix_distance(blk, geo_block, "up_to_global_phase")
        diag["leakage"] = leakage(result.unitary, logical, projector_from_frame(logical))
        diag["unitarity_error"] = max(diag["unitarity_error"], result.unitarity_error)

    primary_exact = comparisons.get("effective_vs_analytic_exact", 0.0)
    primary_phase = comparisons.get(
        "effective_vs_analytic_phase", comparisons.get("full_vs_analytic_phase", 0.0)
    )
    diag["dark_block_distance_exact"] = primary_exact
    diag["dark_block_distance_phase"] = primary_phase
    tolerance = config.tolerance
    checks = [primary_exact <= tolerance]
    if "full" in config.methods:
        checks.append(comparisons["full_vs_analytic_phase"] <= max(tolerance, 1e-2))
    return {
        "unitaries": unitaries,
        "dark_blocks": blocks,
        "comparisons": comparisons,
        "diagnostics": diag,
        "passed": bool(all(checks)),
        "tolerance": tolerance,
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
    tolerance = config.tolerance
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
        "passed": bool(primary <= tolerance),
        "tolerance": tolerance,
    }


def _run_compare(config: ScenarioConfig) -> dict:
    spec = config.spec
    schedule = gate_coupling_schedule(spec)
    geo_block = logical_block(compose_gate(spec), spec.n)
    logical = np.eye(spec.n - 1, spec.n + 1, dtype=complex)
    p_logical = projector_from_frame(logical)
    sweep = []
    worst_unitarity = 0.0
    for run_config, result in zip(config.full_runs, evolve_full_sweep(schedule, config.full_runs)):
        blk = dark_block(result.unitary, logical, logical)
        sweep.append(
            {
                "omega_T": run_config.omega_T,
                "distance_phase": matrix_distance(blk, geo_block, "up_to_global_phase"),
                "leakage": leakage(result.unitary, logical, p_logical),
            }
        )
        worst_unitarity = max(worst_unitarity, result.unitarity_error)
    distances = [entry["distance_phase"] for entry in sweep]
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    tolerance = config.tolerance
    passed = distances[-1] <= tolerance and (decreasing or not config.require_decreasing)
    diag = _diagnostics(
        unitarity_error=worst_unitarity,
        leakage=max(entry["leakage"] for entry in sweep),
        dark_block_distance_phase=distances[-1],
        steps=config.full_runs[0].steps,
    )
    return {
        "unitaries": {},
        "dark_blocks": {"analytic": geo_block},
        "comparisons": {"sweep": sweep, "strictly_decreasing": decreasing},
        "diagnostics": diag,
        "passed": bool(passed),
        "tolerance": tolerance,
    }


def _run_morris_shore(config: ScenarioConfig) -> dict:
    sys_ = config.system
    if sys_ is None:
        rng = np.random.default_rng(config.seed)
        sys_ = TwoManifoldSystem(rng.normal(size=config.shape) + 1j * rng.normal(size=config.shape))
    decomposition = morris_shore_transform(sys_, rank_tol=config.rank_tol)
    scale = float(np.linalg.norm(sys_.v))
    recon = float(np.linalg.norm(decomposition.reconstruct() - sys_.v)) / scale
    rebuilt = TwoManifoldSystem(decomposition.reconstruct()).drive_hamiltonian()
    drive_err = float(np.max(np.abs(rebuilt - sys_.drive_hamiltonian()))) / scale
    tolerance = config.tolerance
    diag = _diagnostics(dark_block_distance_exact=recon, dark_block_distance_phase=drive_err)
    return {
        "unitaries": {},
        "dark_blocks": {},
        "comparisons": {
            "pairs": decomposition.rank,
            "dark_states": int(decomposition.dark_ground.shape[0]),
            "couplings": [float(g) for g in decomposition.couplings],
            "reconstruction_error": recon,
            "drive_rebuild_error": drive_err,
        },
        "diagnostics": diag,
        "passed": bool(recon <= tolerance and drive_err <= max(tolerance, 1e-10)),
        "tolerance": tolerance,
    }


def _run_stirap(config: ScenarioConfig) -> dict:
    report = stirap_transfer(config.theta_end, steps=config.steps, ramp=config.ramp)
    tolerance = config.tolerance
    diag = _diagnostics(
        dark_block_distance_exact=report.deviation,
        dark_block_distance_phase=report.deviation,
        steps=config.steps,
    )
    return {
        "unitaries": {},
        "dark_blocks": {},
        "comparisons": {
            "final_state": complex_to_pairs(report.final_state)[0],
            "expected_state": complex_to_pairs(report.expected_state)[0],
            "deviation": report.deviation,
            "transfer_population": report.transfer_population,
        },
        "diagnostics": diag,
        "passed": bool(report.deviation <= tolerance),
        "tolerance": tolerance,
    }


def _run_selftest(config: ScenarioConfig) -> dict:
    results = acceptance.run_all(config.seed)
    lines = [{"criterion": r.number, "name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    return {
        "unitaries": {},
        "dark_blocks": {},
        "comparisons": {"criteria": lines},
        "diagnostics": _diagnostics(),
        "passed": bool(all(r.passed for r in results)),
        "tolerance": 0.0,
    }


_RUNNERS = {
    "gate": _run_gate,
    "loop": _run_loop,
    "compare": _run_compare,
    "morris-shore": _run_morris_shore,
    "stirap": _run_stirap,
    "selftest": _run_selftest,
}


def run_scenario(config: ScenarioConfig) -> dict:
    """Execute one scenario and assemble the report dictionary."""
    started = time.perf_counter()
    body = _RUNNERS[config.kind](config)
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
        "tolerance": body["tolerance"],
    }
    return report


# ---------------------------------------------------------------------------
# time series


def check_timeseries_kind(kind: str) -> None:
    """Reject a scenario kind that has no time series to write."""
    if kind not in TIMESERIES_KINDS:
        raise ConfigError(f"kind: scenario {kind!r} does not support time series; expected one of {TIMESERIES_KINDS}")


def emit_timeseries(config: ScenarioConfig, path: str, record_every: int = 1) -> None:
    """Write a ``t,leakage,pop_1..pop_N,phase_psi`` CSV for one scenario.

    Supported kinds (``TIMESERIES_KINDS``): ``stirap`` (state starts in
    level 1), ``gate`` with the effective method (state starts in psi) and
    ``gate`` with the full method (psi embedded in the n+1-level system).
    """
    write_timeseries(path, *_timeseries_states(config, record_every))


def _timeseries_states(config: ScenarioConfig, record_every: int):
    """(times, states, reference, bright_at) of one scenario: the recorded
    states, the state the phase is measured against, and a function giving
    the bright (and excited) states at an array of times, shape (M, k, dim)."""
    check_timeseries_kind(config.kind)
    if config.kind == "stirap":
        trajectory = config.trajectory
        reference = np.array([1.0, 0.0], dtype=complex)
        times, states = evolve_state_time_ordered(trajectory, 0.0, 1.0, config.steps, reference, record_every)
        return times, states, reference, lambda t: trajectory.sample(t)[0]
    spec = config.spec
    trajectory = stage_trajectory(spec)
    if "full" not in config.methods:
        times, states = evolve_state_time_ordered(trajectory, 0.0, spec.t3, config.steps, spec.psi, record_every)
        return times, states, spec.psi, lambda t: trajectory.sample(t)[0]
    reference = np.zeros(spec.n + 1, dtype=complex)
    reference[: spec.n] = spec.psi
    times, states = evolve_state_full(gate_coupling_schedule(spec), config.full_runs[0], reference, record_every)

    def bright_at(t: np.ndarray) -> np.ndarray:
        # The bright state embedded in n+1 levels, and the excited level.
        bright = np.zeros((len(t), 2, spec.n + 1), dtype=complex)
        bright[:, 0, : spec.n] = trajectory.sample(t * spec.t3)[0][:, 0]
        bright[:, 1, spec.n] = 1.0
        return bright

    return times, states, reference, bright_at


def write_timeseries(path: str, times: np.ndarray, states: np.ndarray, reference: np.ndarray, bright_at) -> None:
    """Write one row per recorded state, ``FULL_BLOCK`` rows at a time.

    Columns: the time; the leakage, 1 minus the population outside
    ``bright_at(times)``; each level's population; and the phase of the
    overlap with ``reference`` (0.0 when |overlap| <= ``PHASE_OVERLAP_FLOOR``).
    Every field is the shortest round-trip ``repr`` of the float that the
    scalar formulas give: a population is libm ``hypot`` then ``pow``, and
    each overlap is one ``np.vdot``, because the array forms of both
    (``np.abs``, ``**2``, ``einsum``, ``@``) can differ in the last bit.
    """
    dim = states.shape[1]
    header = "t,leakage," + ",".join(f"pop_{i + 1}" for i in range(dim)) + ",phase_psi\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header)
        for lo in range(0, len(times), FULL_BLOCK):
            t, psi = times[lo : lo + FULL_BLOCK], states[lo : lo + FULL_BLOCK]
            # Population outside the bright (and excited) states: the dark subspace.
            amplitudes = np.einsum("rkd,rd->rk", bright_at(t).conj(), psi)
            dark = (psi.conj() * psi).real.sum(axis=1) - (np.abs(amplitudes) ** 2).sum(axis=1)
            overlap = np.array([np.vdot(reference, row) for row in psi])
            table = np.empty((len(t), dim + 3))
            table[:, 0] = t
            table[:, 1] = np.maximum(0.0, 1.0 - dark)
            magnitudes = np.hypot(psi.real, psi.imag).ravel().tolist()
            table[:, 2:-1] = np.reshape([math.pow(m, 2.0) for m in magnitudes], psi.shape)
            table[:, -1] = np.where(np.hypot(overlap.real, overlap.imag) > PHASE_OVERLAP_FLOOR, np.angle(overlap), 0.0)
            handle.write(repr(table.tolist())[2:-2].replace("], [", "\n").replace(", ", ",") + "\n")


# ---------------------------------------------------------------------------
# argument parsing / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brightpath",
        description="Holonomic dark-subspace evolution: gates, loops, and cross-method checks.",
    )
    parser.add_argument("--version", action="version", version=f"brightpath {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True, metavar="|".join(KINDS))
    for kind in KINDS:
        one = sub.add_parser(kind, help=f"run a {kind} scenario")
        one.add_argument("--config", help="JSON scenario config file")
        one.add_argument("--steps", type=int, help="override the scenario step count")
        one.add_argument(
            "--method",
            action="append",
            choices=("effective", "berry", "full"),
            help="restrict to one or more methods (repeatable)",
        )
        one.add_argument("--out", help="write the JSON report here instead of stdout")
        one.add_argument("--timeseries", help="write a CSV time series to this path")
        one.add_argument("--tolerance", type=float, help="override the pass/fail tolerance")
        one.add_argument("--seed", type=int, help="override the scenario seed")
    return parser


def _config_from_args(args) -> ScenarioConfig:
    if args.config:
        config = ScenarioConfig.from_file(args.config)
        if config.kind != args.kind:
            raise ConfigError(
                f"kind: config file is for {config.kind!r} but the {args.kind!r} subcommand was invoked"
            )
    else:
        config = ScenarioConfig(args.kind)
    overrides: dict[str, Any] = {}
    if args.steps is not None:
        overrides["steps" if args.kind != "compare" else "full_steps"] = args.steps
    if args.method:
        overrides["methods"] = list(dict.fromkeys(args.method))
    if args.tolerance is not None:
        overrides["tolerance"] = args.tolerance
    if overrides or args.seed is not None:
        merged = dict(config.parameters)
        merged.update(overrides)
        config = ScenarioConfig(config.kind, merged, args.seed if args.seed is not None else config.seed)
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.timeseries:
            check_timeseries_kind(config.kind)
        report = run_scenario(config)
        if args.timeseries:
            try:
                emit_timeseries(config, args.timeseries)
            except OSError as exc:
                raise ConfigError(f"timeseries: cannot write {args.timeseries}: {exc}") from exc
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
