"""Seeded scenario generators for the four benchmark workloads.

Every workload is a fixed set of strata (scenario shapes whose cost is set
by the stratum: kind, n, step counts, polyline length), and the seed draws
only the continuous inputs inside each stratum: psi, twist, stage times,
schedules, omega*T values, loop sides and loop shapes.  So two seeds give
different inputs of the same cost, and the same seed gives byte-identical
config files.  Inputs come from ``random.Random`` seeded with a string, so
they do not depend on the numpy version.

The program sees only the JSON configs written from these scenarios; each
kind's default tolerance applies (no config sets ``tolerance``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

# Why each workload exists and which input properties it varies.  The
# sentences are the contract for what the workload measures.
WORKLOADS = {
    "gates": {
        "why": "gate scenarios with the effective and full methods at 10 000 / 65 536 steps; "
        "the per-step effective loop is ~90% of each scenario and the batched full oracle ~8%",
        "varies": "n in {3,4,5} incl. the n=5 CPHASE case (|3>, pi); random psi on the logical "
        "levels; random twist and omega*T; linear or smooth schedules; stage times drawn "
        "from a continuous range, so breakpoints fall off the step grid",
    },
    "adiabatic_sweep": {
        "why": "compare scenarios whose batched full oracle does all of the work and the effective "
        "route is never called; factor arrays from 1 MiB to 576 MiB cross L2 and L3, so this "
        "is also the memory workload",
        "varies": "full_steps ladder 2^12..2^20 with n rising 3..5, the rungs up to 2^16 three "
        "times per pass; random psi, twist, stage times and omega*T lists on smooth schedules",
    },
    "timeseries": {
        "why": "gate and stirap scenarios run with --timeseries: the propagation layer is used "
        "through per-step state snapshots and scalar schedule calls, and cli writes the CSV",
        "varies": "full and effective gate time series (n in {3,4,5}), linear and smooth "
        "stirap ramps; random psi, twist, stage times, schedules and theta_end",
    },
    "loops": {
        "why": "loop scenarios with both methods: the only workload that reaches berry and the "
        "coupling-form route, as 128+ short 64-step propagations, so per-call overhead counts",
        "varies": "rectangles in the theta1-theta2 and theta2-phi3 planes with random sides; "
        "smooth closed polylines inside 0 <= theta1, theta2 <= pi/2 that do not start at the origin",
    },
}

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class Scenario:
    """One CLI invocation: ``brightpath <kind> --config <file> [--timeseries]``."""

    name: str
    kind: str
    parameters: dict
    seed: int
    timeseries: bool = False

    def config_bytes(self) -> bytes:
        body = {"kind": self.kind, "seed": self.seed, "parameters": self.parameters}
        return (json.dumps(body, indent=2, sort_keys=True) + "\n").encode("utf-8")

    def expected_rows(self) -> int:
        """Data rows the time-series CSV must hold (one per step plus t=0)."""
        p = self.parameters
        if self.kind == "stirap":
            return p.get("steps", 4096) + 1
        if "full" in p["methods"]:
            return p["full_steps"] + 1
        return p["steps"] + 1


def _logical_psi(rng: random.Random, n: int) -> list:
    """Random normalized state on levels 0..n-2; the auxiliary level n-1 stays empty."""
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n - 1)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [[a.real / norm, a.imag / norm] for a in amps] + [[0.0, 0.0]]


def _basis_psi(n: int, level: int) -> list:
    return [[1.0 if i == level else 0.0, 0.0] for i in range(n)]


def _stage_times(rng: random.Random) -> list:
    t1 = rng.uniform(0.15, 0.35)
    t2 = t1 + rng.uniform(0.15, 0.35)
    return [t1, t2, t2 + rng.uniform(0.3, 0.6)]


def _schedule(rng: random.Random) -> str:
    return rng.choice(("linear", "smooth"))


def _gate_body(rng: random.Random, n: int, theta_schedule: str) -> dict:
    return {
        "n": n,
        "psi": _logical_psi(rng, n),
        "phase": rng.uniform(-math.pi, math.pi),
        "stage_times": _stage_times(rng),
        "theta_schedule": theta_schedule,
        "phi_schedule": _schedule(rng),
    }


def _gates(rng: random.Random) -> list[Scenario]:
    out = []
    for n, theta_schedule in ((3, "linear"), (3, "smooth"), (4, _schedule(rng)), (5, "linear"), (5, "smooth")):
        params = _gate_body(rng, n, theta_schedule)
        if n == 5 and theta_schedule == "linear":
            params.update(psi=_basis_psi(5, 3), phase=math.pi)  # the CPHASE case
        params.update(
            steps=10000, full_steps=65536, methods=["effective", "full"], omega_T=rng.uniform(1500.0, 3000.0)
        )
        out.append(Scenario(f"gate-n{n}-{theta_schedule}", "gate", params, rng.randrange(2**31)))
    return out


# (log2 full_steps, n, number of omega*T values); cost rises monotonically
# along the ladder.  The per-scenario percentiles fall on the cheap rungs
# (up to 2^16), whose times spread most, so each cheap rung runs three times
# per pass, with its own inputs and spread between the costly rungs: the
# percentiles then rest on six samples of a rung per run instead of two.
SWEEP_LADDER = ((12, 3, 3), (13, 3, 3), (14, 3, 3), (15, 4, 3), (16, 4, 3), (17, 4, 2), (18, 5, 2), (19, 5, 2), (20, 5, 2))
_CHEAP, _COSTLY = SWEEP_LADDER[:5], SWEEP_LADDER[5:]
SWEEP_ORDER = (*_CHEAP, *_COSTLY[:2], *_CHEAP, _COSTLY[2], *_CHEAP, _COSTLY[3])

def _omega_t_list(rng: random.Random, count: int) -> list:
    lo, hi = (150.0, 400.0), (2500.0, 6000.0)
    values = [rng.uniform(*lo)]
    if count == 3:
        values.append(rng.uniform(800.0, 1500.0))
    values.append(rng.uniform(*hi))
    return values


def _adiabatic_sweep(rng: random.Random) -> list[Scenario]:
    out, copies = [], {}
    for log_steps, n, count in SWEEP_ORDER:
        copies[log_steps] = copies.get(log_steps, 0) + 1
        params = _gate_body(rng, n, "smooth")
        params.update(phi_schedule="smooth", full_steps=2**log_steps, omega_T_list=_omega_t_list(rng, count))
        name = f"compare-2^{log_steps}-n{n}-{copies[log_steps]}"
        out.append(Scenario(name, "compare", params, rng.randrange(2**31)))
    return out


def _timeseries(rng: random.Random) -> list[Scenario]:
    out = []
    for n in (3, 5):
        params = _gate_body(rng, n, _schedule(rng))
        params.update(methods=["full"], full_steps=16384, omega_T=rng.uniform(1500.0, 3000.0))
        out.append(Scenario(f"gate-full-n{n}", "gate", params, rng.randrange(2**31), timeseries=True))
    for n in (3, 4):
        params = _gate_body(rng, n, _schedule(rng))
        params.update(methods=["effective"], steps=4096)
        out.append(Scenario(f"gate-effective-n{n}", "gate", params, rng.randrange(2**31), timeseries=True))
    for ramp in ("linear", "smooth"):
        params = {"theta_end": rng.uniform(math.pi / 4, HALF_PI), "ramp": ramp}
        out.append(Scenario(f"stirap-{ramp}", "stirap", params, rng.randrange(2**31), timeseries=True))
    return out


POLYLINE_SEGMENTS = 160


def _polyline(rng: random.Random) -> list:
    """Smooth closed curve in (theta1, theta2) with a phi3 wobble.

    Centre and radii keep both angles inside [0, pi/2]; the start angle is
    random, so the loop never starts at the parameter origin.
    """
    c1, c2 = rng.uniform(0.5, 1.07), rng.uniform(0.5, 1.07)
    r1 = rng.uniform(0.15, min(c1, HALF_PI - c1) - 0.02)
    r2 = rng.uniform(0.15, min(c2, HALF_PI - c2) - 0.02)
    start, wobble, offset = rng.uniform(0, 2 * math.pi), rng.uniform(0.0, 0.4), rng.uniform(0, 2 * math.pi)
    samples = []
    for i in range(POLYLINE_SEGMENTS):
        s = 2 * math.pi * i / POLYLINE_SEGMENTS
        samples.append(
            [c1 + r1 * math.cos(start + s), c2 + r2 * math.sin(start + s), 0.0, wobble * math.sin(offset + s)]
        )
    samples.append(list(samples[0]))
    return samples


def _loops(rng: random.Random) -> list[Scenario]:
    out = []
    for plane in ("theta1-theta2", "theta2-phi3"):
        for i in range(2):
            params = {"plane": plane, "side_a": rng.uniform(0.3, 1.5), "side_b": rng.uniform(0.3, 1.5)}
            out.append(Scenario(f"loop-{plane}-{i}", "loop", params, rng.randrange(2**31)))
    for i in range(2):
        out.append(Scenario(f"loop-polyline-{i}", "loop", {"samples": _polyline(rng)}, rng.randrange(2**31)))
    return out


_GENERATORS = {"gates": _gates, "adiabatic_sweep": _adiabatic_sweep, "timeseries": _timeseries, "loops": _loops}


def generate(workload: str, seed: int) -> list[Scenario]:
    """The workload's seeded scenario set, in run order."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def _shrink(scenario: Scenario) -> Scenario:
    """A cheap copy of a scenario that takes the same code path."""
    p = dict(scenario.parameters)
    if scenario.kind == "gate":
        p.update(steps=100, full_steps=256)
    elif scenario.kind == "compare":
        p.update(full_steps=256)
    elif scenario.kind == "stirap":
        p.update(steps=64)
    elif scenario.kind == "loop":
        p.update(steps=4)
        if "samples" in p:
            p["samples"] = p["samples"][:: POLYLINE_SEGMENTS // 8]
            p["samples"].append(p["samples"][0])
            p["samples"] = [[a / 8 for a in row] for row in p["samples"]]
        else:
            p.update(side_a=0.2, side_b=0.2, points_per_edge=4)
    return Scenario("warmup-" + scenario.name, scenario.kind, p, scenario.seed, scenario.timeseries)


def warmup(scenarios: list[Scenario]) -> list[Scenario]:
    """One shrunken scenario per distinct route in the set; their outcomes are not checked."""
    seen, out = set(), []
    for s in scenarios:
        route = (s.kind, tuple(s.parameters.get("methods", ())), s.timeseries, "samples" in s.parameters)
        if route not in seen:
            seen.add(route)
            out.append(_shrink(s))
    return out
