"""Per-layer timing of brightpath from outside the package.

The tracer wraps the public functions and classes of each module at every
name that callers actually look up.  Modules bind with ``from .x import y``,
so ``propagators.expm_hermitian``, ``berry.evolve_time_ordered`` and
``cli.simulate_gate`` are separate bindings of one function; each gets the
wrapper.  Classes are timed by wrapping ``__init__`` in place, which keeps
``isinstance`` checks intact.  Methods are wrapped on the class.

Every wrapped call records a span (id, name, start, end, parent id,
scenario id) in memory.  A span's self time is its duration minus the time
its direct child spans cover; ``busy_s`` sums durations of outermost calls
of a name only, so recursion is not counted twice.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from collections import defaultdict

# (layer name, module, attribute path, stats reported)
TRACED = (
    ("linalg.expm_hermitian", "linalg", "expm_hermitian", ("calls", "self_s")),
    ("linalg.HermitianOperator", "linalg", "HermitianOperator", ("calls", "self_s")),
    ("linalg.UnitaryOperator", "linalg", "UnitaryOperator", ("calls", "self_s")),
    ("linalg.check_orthonormal", "linalg", "check_orthonormal", ("calls", "self_s")),
    ("effective.BrightTrajectory.h_eff", "effective", "BrightTrajectory.h_eff", ("calls", "self_s")),
    ("effective.h_eff_multi", "effective", "h_eff_multi", ("calls", "self_s")),
    ("effective.h_eff_couplings", "effective", "h_eff_couplings", ("calls", "self_s")),
    ("propagators.evolve_time_ordered", "propagators", "evolve_time_ordered", ("calls", "steps", "busy_s", "self_s")),
    ("propagators.evolve_full_adiabatic", "propagators", "evolve_full_adiabatic", ("calls", "steps", "busy_s", "self_s")),
    ("propagators.evolve_state_full", "propagators", "evolve_state_full", ("calls", "steps", "busy_s", "self_s")),
    (
        "propagators.evolve_state_time_ordered",
        "propagators",
        "evolve_state_time_ordered",
        ("calls", "steps", "busy_s", "self_s"),
    ),
    ("propagators.dark_block", "propagators", "dark_block", ("calls", "self_s")),
    ("propagators.leakage", "propagators", "leakage", ("calls", "self_s")),
    ("lambda_system.CouplingSet", "lambda_system", "CouplingSet", ("calls", "self_s")),
    ("lambda_system.bright_state", "lambda_system", "bright_state", ("calls", "self_s")),
    ("lambda_system.couplings_from_angles", "lambda_system", "couplings_from_angles", ("calls", "self_s")),
    ("lambda_system.coupling_rates_from_angles", "lambda_system", "coupling_rates_from_angles", ("calls", "self_s")),
    ("berry.holonomy", "berry", "holonomy", ("calls", "busy_s", "self_s")),
    ("berry.effective_dark_block", "berry", "effective_dark_block", ("calls", "busy_s", "self_s")),
    ("berry.connection_at", "berry", "connection_at", ("calls", "self_s")),
    ("gates.simulate_gate", "gates", "simulate_gate", ("calls", "busy_s", "self_s")),
    ("gates.stirap_transfer", "gates", "stirap_transfer", ("calls", "busy_s", "self_s")),
    ("gates.compose_gate", "gates", "compose_gate", ("calls", "self_s")),
    # Evaluations of the callable that gate_coupling_schedule returns:
    # scalar calls and ``.sample`` both count.
    ("gates.coupling_schedule", "gates", "gate_coupling_schedule", ("calls", "self_s")),
    ("cli.ScenarioConfig", "cli", "ScenarioConfig", ("calls", "self_s")),
    ("cli.run_scenario", "cli", "run_scenario", ("calls", "busy_s", "self_s")),
    ("cli.emit_timeseries", "cli", "emit_timeseries", ("calls", "busy_s", "self_s")),
    ("cli.main", "cli", "main", ("self_s",)),
)

FACTOR_BYTES = "propagators.evolve_full_adiabatic.factor_bytes_computed"
OVERHEAD = "trace.overhead_s"
UNITS = {"calls": "count", "steps": "count", "busy_s": "s", "self_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {f"{name}.{stat}": UNITS[stat] for name, _, _, stats in TRACED for stat in stats}
    units[FACTOR_BYTES] = "B"
    units[OVERHEAD] = "s"
    return units


def _steps_of(function):
    """Extract the step count of a propagator call from its bound arguments."""
    signature = inspect.signature(function)

    def steps(args, kwargs) -> int:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if "config" in bound.arguments:
            return int(bound.arguments["config"].steps)
        return int(bound.arguments["steps"])

    return steps


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.scenario = ""
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)
        self.steps = defaultdict(int)
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        self.factor_bytes = 0
        self._stack: list[list] = []
        self._depth = defaultdict(int)

    def wrap(self, name: str, function, steps_of=None, after=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            span_id = len(self.spans)
            self.spans.append(None)
            frame = [span_id, 0.0]  # id, time covered by direct children
            self._stack.append(frame)
            self._depth[name] += 1
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._depth[name] -= 1
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[span_id] = (span_id, name, start, end, parent, self.scenario)
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if not self._depth[name]:
                    self.busy_s[name] += duration
            if steps_of is not None:
                self.steps[name] += steps_of(args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def _rebind(self, original, replacement) -> None:
        """Point every brightpath-module name bound to ``original`` at ``replacement``."""
        for module_name, module in list(sys.modules.items()):
            if module_name != "brightpath" and not module_name.startswith("brightpath."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, replacement)

    def _record_factor_bytes(self, args, kwargs, result) -> None:
        dim = result.unitary.dim
        self.factor_bytes = max(self.factor_bytes, int(result.steps) * dim * dim * 16)

    def _wrap_schedule_factory(self, name: str, factory):
        def instrumented(*args, **kwargs):
            schedule = factory(*args, **kwargs)
            wrapped = self.wrap(name, schedule)
            wrapped.sample = self.wrap(name, schedule.sample)
            return wrapped

        return instrumented

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, path, stats in TRACED:
            module = sys.modules[f"brightpath.{module_name}"]
            owner_name, _, attribute = path.rpartition(".")
            if owner_name:  # a method, wrapped on its class
                owner = getattr(module, owner_name)
                self._set(owner, attribute, self.wrap(name, vars(owner)[attribute]))
                continue
            original = getattr(module, attribute)
            if isinstance(original, type):  # a class, timed through __init__
                self._set(original, "__init__", self.wrap(name, vars(original)["__init__"]))
            elif name == "gates.coupling_schedule":
                self._rebind(original, self._wrap_schedule_factory(name, original))
            else:
                steps_of = _steps_of(original) if "steps" in stats else None
                after = self._record_factor_bytes if name == "propagators.evolve_full_adiabatic" else None
                self._rebind(original, self.wrap(name, original, steps_of, after))

    def uninstall(self) -> None:
        for owner, attribute, value in reversed(self._patches):
            setattr(owner, attribute, value)
        self._patches.clear()

    def totals(self) -> dict[str, float]:
        """Per-layer stats accumulated since the last reset."""
        out = {}
        for name, _, _, stats in TRACED:
            table = {"calls": self.calls, "steps": self.steps, "self_s": self.self_s, "busy_s": self.busy_s}
            for stat in stats:
                out[f"{name}.{stat}"] = table[stat][name]
        out[FACTOR_BYTES] = self.factor_bytes
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as handle:
            handle.write("id,name,start,end,parent,scenario\n")
            for span in self.spans:
                handle.write("%d,%s,%r,%r,%d,%s\n" % span)
