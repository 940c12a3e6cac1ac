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
from .morris_shore import TwoManifoldSystem, morris_shore_transform, to_general_hamiltonian
from .propagators import (
    AdiabaticRunConfig,
    dark_block,
    evolve_full_adiabatic,
    evolve_state_full,
    evolve_state_time_ordered,
    leakage,
)

KINDS = ("gate", "loop", "compare", "morris-shore", "stirap", "selftest")

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


# ---------------------------------------------------------------------------
# serialization helpers


def complex_to_pairs(matrix: np.ndarray) -> list:
    """Row-major nesting with each entry as an [re, im] pair."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def pairs_to_complex(data, field: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
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


def _is_finite_number(value) -> bool:
    """An int or a finite float; bools and JSON's NaN and Infinity are not."""
    return not isinstance(value, bool) and (isinstance(value, int) or isinstance(value, float) and math.isfinite(value))


def _number(params: dict, field: str, lo=None, hi=None, integer=False):
    value = params[field]
    _require(_is_finite_number(value), field, "must be a finite number")
    if integer:
        _require(float(value).is_integer(), field, "must be an integer")
        value = int(value)
    if lo is not None:
        _require(value >= lo, field, f"must be >= {lo}")
    if hi is not None:
        _require(value <= hi, field, f"must be <= {hi}")
    return value


# ---------------------------------------------------------------------------
# scenario configuration


class ScenarioConfig:
    """A validated scenario: kind, parameter map, and RNG seed."""

    def __init__(self, kind: str, parameters: dict[str, Any] | None = None, seed: int = 7):
        if kind not in KINDS:
            raise ConfigError(f"kind: unknown scenario kind {kind!r}; expected one of {KINDS}")
        merged = dict(DEFAULT_PARAMETERS[kind])
        merged.update(parameters or {})
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError("seed: must be an integer")
        self.kind = kind
        self.parameters = merged
        self.seed = seed
        self._validate()

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

    # -- validation against the owning modules' preconditions ----------------

    def _validate(self) -> None:
        p = self.parameters
        if self.kind in ("gate", "compare"):
            n = _number(p, "n", lo=2, integer=True)
            psi = pairs_to_complex(p["psi"], "psi")
            _require(psi.shape == (n,), "psi", f"must have {n} components")
            _require(abs(np.vdot(psi, psi).real - 1.0) < 1e-10, "psi", "must be normalized")
            _require(abs(psi[n - 1]) < 1e-12, "psi", "must not touch the auxiliary level")
            _number(p, "phase")
            times = p["stage_times"]
            _require(
                isinstance(times, (list, tuple)) and len(times) == 3 and all(map(_is_finite_number, times)),
                "stage_times",
                "must be [t1, t2, t3] of finite numbers",
            )
            _require(0 < times[0] < times[1] < times[2], "stage_times", "must satisfy 0 < t1 < t2 < t3")
            for field in ("theta_schedule", "phi_schedule"):
                _require(p[field] in ("linear", "smooth"), field, "must be 'linear' or 'smooth'")
        if self.kind == "gate":
            _number(p, "steps", lo=100, integer=True)
            _number(p, "full_steps", lo=10, integer=True)
            _number(p, "omega_T", lo=np.finfo(float).tiny)
            _require(
                isinstance(p["methods"], list) and p["methods"], "methods", "must be a non-empty list"
            )
            for method in p["methods"]:
                _require(method in ("effective", "full"), "methods", f"unsupported method {method!r}")
        if self.kind == "compare":
            _number(p, "full_steps", lo=10, integer=True)
            _require(
                isinstance(p["omega_T_list"], list) and len(p["omega_T_list"]) >= 2,
                "omega_T_list",
                "must list at least two omega_T values",
            )
            for value in p["omega_T_list"]:
                _require(_is_finite_number(value) and value > 0, "omega_T_list", "entries must be finite and > 0")
        if self.kind == "loop":
            if p.get("samples") is None:
                _require(
                    p["plane"] in ("theta1-theta2", "theta2-phi3"),
                    "plane",
                    "must be 'theta1-theta2' or 'theta2-phi3'",
                )
                _number(p, "side_a", lo=1e-12)
                _number(p, "side_b", lo=1e-12)
                _number(p, "points_per_edge", lo=2, integer=True)
            else:
                samples = np.asarray(p["samples"], dtype=float)
                _require(samples.ndim == 2 and samples.shape[1] == 4, "samples", "must be an (m, 4) array")
                _require(bool(np.all(np.isfinite(samples))), "samples", "entries must be finite")
            _number(p, "steps", lo=1, integer=True)
            for method in p["methods"]:
                _require(method in ("effective", "berry"), "methods", f"unsupported method {method!r}")
        if self.kind == "morris-shore":
            if p.get("matrix") is not None:
                matrix = pairs_to_complex(p["matrix"], "matrix")
                _require(matrix.ndim == 2, "matrix", "must be a 2-D coupling matrix")
            else:
                _number(p, "rows", lo=1, integer=True)
                _number(p, "cols", lo=1, integer=True)
            _number(p, "rank_tol", lo=0.0)
        if self.kind == "stirap":
            _number(p, "theta_end", lo=0.0)
            _number(p, "steps", lo=10, integer=True)
            _require(p["ramp"] in ("linear", "smooth"), "ramp", "must be 'linear' or 'smooth'")
        if "tolerance" in p:
            _number(p, "tolerance", lo=0.0)


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


def _gate_spec(p: dict) -> GateSpec:
    t1, t2, t3 = (float(x) for x in p["stage_times"])
    return GateSpec(
        n=int(p["n"]),
        psi=pairs_to_complex(p["psi"], "psi"),
        phase_twist=float(p["phase"]),
        t1=t1,
        t2=t2,
        t3=t3,
        theta_schedule=p["theta_schedule"],
        phi_schedule=p["phi_schedule"],
    )


def _logical_frame(n: int, embedded_dim: int) -> np.ndarray:
    return np.eye(n - 1, embedded_dim, dtype=complex)


def _run_gate(config: ScenarioConfig) -> dict:
    p = config.parameters
    spec = _gate_spec(p)
    analytic = compose_gate(spec)
    geo_block = logical_block(analytic, spec.n)
    unitaries = {"analytic": analytic.matrix}
    blocks = {"analytic": geo_block}
    comparisons: dict[str, float] = {}
    diag = _diagnostics(steps=int(p["steps"]))

    if "effective" in p["methods"]:
        report = simulate_gate(spec, steps=int(p["steps"]))
        unitaries["effective"] = report.simulated_unitary.matrix
        blocks["effective"] = logical_block(report.simulated_unitary, spec.n)
        comparisons["effective_vs_analytic_exact"] = report.distance_exact
        comparisons["effective_vs_analytic_phase"] = report.distance_phase
        diag["geometric_phase"] = report.geometric_phase
        diag["unitarity_error"] = max(diag["unitarity_error"], report.propagation.unitarity_error)

    if "full" in p["methods"]:
        schedule = gate_coupling_schedule(spec)
        run_config = AdiabaticRunConfig(omega_T=float(p["omega_T"]), steps=int(p["full_steps"]))
        result = evolve_full_adiabatic(schedule, run_config)
        logical = _logical_frame(spec.n, spec.n + 1)
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
    tolerance = float(p["tolerance"])
    checks = [primary_exact <= tolerance]
    if "full" in p["methods"]:
        checks.append(comparisons["full_vs_analytic_phase"] <= max(tolerance, 1e-2))
    return {
        "unitaries": unitaries,
        "dark_blocks": blocks,
        "comparisons": comparisons,
        "diagnostics": diag,
        "passed": bool(all(checks)),
        "tolerance": tolerance,
    }


def _loop_path(p: dict) -> ParameterPath:
    if p.get("samples") is not None:
        return ParameterPath(np.asarray(p["samples"], dtype=float), closed=True)
    coord_a, coord_b = p["plane"].split("-")
    return rectangle_loop(coord_a, coord_b, float(p["side_a"]), float(p["side_b"]), int(p["points_per_edge"]))


def _run_loop(config: ScenarioConfig) -> dict:
    p = config.parameters
    path = _loop_path(p)
    unitaries: dict[str, np.ndarray] = {}
    blocks: dict[str, np.ndarray] = {}
    comparisons: dict[str, float] = {}
    if "berry" in p["methods"]:
        hol = holonomy(path)
        unitaries["berry"] = hol.matrix
        blocks["berry"] = hol.matrix
    if "effective" in p["methods"]:
        blk = effective_dark_block(path, steps_per_segment=int(p["steps"]))
        blocks["effective"] = blk
    if p.get("samples") is None and "berry" in blocks:
        analytic = None
        if p["plane"] == "theta1-theta2":
            analytic = u_y_analytic(path).matrix
        elif p["plane"] == "theta2-phi3":
            analytic = u_z_analytic(path).matrix
        if analytic is not None:
            blocks["analytic"] = analytic
            comparisons["berry_vs_analytic_exact"] = matrix_distance(blocks["berry"], analytic, "exact")
    if "berry" in blocks and "effective" in blocks:
        comparisons["berry_vs_effective_exact"] = matrix_distance(
            blocks["berry"], blocks["effective"], "exact"
        )
    tolerance = float(p["tolerance"])
    primary = max(comparisons.values()) if comparisons else 0.0
    diag = _diagnostics(
        dark_block_distance_exact=primary,
        dark_block_distance_phase=min(
            (matrix_distance(blocks[a], blocks[b], "up_to_global_phase") for a in blocks for b in blocks if a < b),
            default=0.0,
        ),
        steps=int(p["steps"]),
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
    p = config.parameters
    spec = _gate_spec(p)
    schedule = gate_coupling_schedule(spec)
    geo_block = logical_block(compose_gate(spec), spec.n)
    logical = _logical_frame(spec.n, spec.n + 1)
    p_logical = projector_from_frame(logical)
    sweep = []
    worst_unitarity = 0.0
    for omega_T in p["omega_T_list"]:
        result = evolve_full_adiabatic(
            schedule, AdiabaticRunConfig(omega_T=float(omega_T), steps=int(p["full_steps"]))
        )
        blk = dark_block(result.unitary, logical, logical)
        sweep.append(
            {
                "omega_T": float(omega_T),
                "distance_phase": matrix_distance(blk, geo_block, "up_to_global_phase"),
                "leakage": leakage(result.unitary, logical, p_logical),
            }
        )
        worst_unitarity = max(worst_unitarity, result.unitarity_error)
    distances = [entry["distance_phase"] for entry in sweep]
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    tolerance = float(p["tolerance"])
    passed = distances[-1] <= tolerance and (decreasing or not p["require_decreasing"])
    diag = _diagnostics(
        unitarity_error=worst_unitarity,
        leakage=max(entry["leakage"] for entry in sweep),
        dark_block_distance_phase=distances[-1],
        steps=int(p["full_steps"]),
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
    p = config.parameters
    if p.get("matrix") is not None:
        v = pairs_to_complex(p["matrix"], "matrix")
    else:
        rng = np.random.default_rng(config.seed)
        v = rng.normal(size=(int(p["rows"]), int(p["cols"]))) + 1j * rng.normal(
            size=(int(p["rows"]), int(p["cols"]))
        )
    sys_ = TwoManifoldSystem(v)
    decomposition = morris_shore_transform(sys_, rank_tol=float(p["rank_tol"]))
    scale = float(np.linalg.norm(sys_.v))
    recon = float(np.linalg.norm(decomposition.reconstruct() - sys_.v)) / scale
    rebuilt = to_general_hamiltonian(decomposition).hamiltonian(0.0).matrix
    drive_err = float(np.max(np.abs(rebuilt - sys_.drive_hamiltonian()))) / scale
    tolerance = float(p["tolerance"])
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
    p = config.parameters
    report = stirap_transfer(float(p["theta_end"]), steps=int(p["steps"]), ramp=p["ramp"])
    tolerance = float(p["tolerance"])
    diag = _diagnostics(
        dark_block_distance_exact=report.deviation,
        dark_block_distance_phase=report.deviation,
        steps=int(p["steps"]),
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
    lines = [
        {
            "criterion": r.number,
            "name": r.name,
            "passed": r.passed,
            "detail": r.detail,
        }
        for r in results
    ]
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


def emit_timeseries(config: ScenarioConfig, path: str, record_every: int = 1) -> None:
    """Write a ``t,leakage,pop_1..pop_N,phase_psi`` CSV for one scenario.

    Supported kinds: ``stirap`` (state starts in level 1), ``gate`` with the
    effective method (state starts in psi) and ``gate`` with the full method
    (psi embedded in the n+1-level system).
    """
    p = config.parameters
    if config.kind == "stirap":
        trajectory = stirap_trajectory(float(p["theta_end"]), p["ramp"])
        start = np.array([1.0, 0.0], dtype=complex)
        times, states = evolve_state_time_ordered(
            trajectory.h_eff, 0.0, 1.0, int(p["steps"]), start, record_every
        )
        reference = start

        def dark_population(t, state):
            frame = trajectory.value(t)[0]
            bright_amp = np.vdot(frame, state)
            return float(np.vdot(state, state).real - abs(bright_amp) ** 2)

    elif config.kind == "gate":
        spec = _gate_spec(p)
        reference = spec.psi
        if "full" in p["methods"]:
            schedule = gate_coupling_schedule(spec)
            start = np.zeros(spec.n + 1, dtype=complex)
            start[: spec.n] = spec.psi
            run_config = AdiabaticRunConfig(omega_T=float(p["omega_T"]), steps=int(p["full_steps"]))
            times, states = evolve_state_full(schedule, run_config, start, record_every)
            trajectory = stage_trajectory(spec)
            reference = start

            def dark_population(t, state):
                frame = np.zeros(spec.n + 1, dtype=complex)
                frame[: spec.n] = trajectory.value(t * spec.t3)[0]
                bright_amp = np.vdot(frame, state)
                excited_amp = state[spec.n]
                return float(
                    np.vdot(state, state).real - abs(bright_amp) ** 2 - abs(excited_amp) ** 2
                )

        else:
            trajectory = stage_trajectory(spec)
            start = spec.psi
            times, states = evolve_state_time_ordered(
                trajectory.h_eff, 0.0, spec.t3, int(p["steps"]), start, record_every
            )

            def dark_population(t, state):
                frame = trajectory.value(t)[0]
                bright_amp = np.vdot(frame, state)
                return float(np.vdot(state, state).real - abs(bright_amp) ** 2)

    else:
        raise ConfigError(f"kind: scenario {config.kind!r} does not support time series")

    dim = states.shape[1]
    header = "t,leakage," + ",".join(f"pop_{i + 1}" for i in range(dim)) + ",phase_psi"
    lines = [header]
    for t, state in zip(times, states):
        leak = max(0.0, 1.0 - dark_population(t, state))
        pops = ",".join(repr(float(abs(amp) ** 2)) for amp in state)
        overlap = complex(np.vdot(reference, state))
        phase = float(np.angle(overlap)) if abs(overlap) > 1e-12 else 0.0
        lines.append(f"{float(t)!r},{leak!r},{pops},{phase!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


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
    except BrightpathError as exc:
        print(f"numerical precondition failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"numerical precondition failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
