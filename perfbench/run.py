"""Benchmark of brightpath's three holonomy routes through its public CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload gates --seed 1 --seconds 24 --trace 0

One process runs one workload: a single closed-loop client calls
``brightpath.cli.main`` in-process on the workload's seeded JSON configs,
one scenario after another, with no extra threads.  The scenario set is run
``passes`` times; the pass count comes from ``--seconds`` and the pass time
measured at the seed commit on the 2-core reference VM (NOMINAL_PASS_S), so
the parent and a change run the same work and their sample counts match.

Times are reported at a reference machine speed.  A shared host runs this
process up to ~1.6x slower for seconds to minutes at a time, which moves
raw wall times by 15-30% between runs.  So after every set-up and every
scenario, outside the timed spans, a fixed speed probe runs once for every
PROBE_EVERY_S of the span (at least once), and the span's time is scaled
by PROBE_REFERENCE_S / (the mean of those probes).  A slow spell thus
moves only the spans it overlaps, each in proportion to its length.  The
probe is CPU-bound Python and small-matrix work, like the effective route.
It does not follow the memory-bound batched products of adiabatic_sweep,
whose spread it widened, so that workload's scenario times stay raw wall
times (UNSCALED_RUNS); set-up times are scaled on every workload.  Raw wall
times are printed too and kept in the ``--detail`` record.

Each scenario passes only when ``main`` returns 0, the re-read report's own
distances are within its tolerance, and (time series) the CSV has one row
per step with populations summing to 1 within 1e-9.  Failures are counted
by cause: exit2/exit3/exit4, exception, check.  Reports must be
byte-identical across passes apart from ``wall_time_ms``; a mismatch makes
``correct`` false.

``--trace 0`` prints the end-to-end metrics.  ``op_tail_s`` is the highest
percentile with TAIL_BEYOND samples beyond it; a run holds only 18-38
scenario samples, so this lands on p44-p74, not on a far tail.
``--trace 1`` runs every scenario twice per round, untraced and traced back
to back (the order alternates between scenarios and rounds), and prints
the per-layer metrics of the traced runs (see layertrace.py) and the
tracing overhead: the median over rounds of the traced minus the untraced
round time.  The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Seconds one pass over the scenario set took at the seed commit on the
# 2-core reference VM; passes = max(2, round(seconds / nominal)).
NOMINAL_PASS_S = {"gates": 5.7, "adiabatic_sweep": 15.9, "timeseries": 7.0, "loops": 6.7}
SETUP_REPEATS = 15
POPULATION_TOL = 1e-9
FULL_ORACLE_FLOOR = 1e-2  # the CLI checks full-oracle distances at max(tolerance, 1e-2)
TAIL_BEYOND = 10
# Probe time that defines the reference machine speed (the probe's typical
# time on the 2-core reference VM); see the module docstring.
PROBE_REFERENCE_S = 0.005
PROBE_EVERY_S = 0.25
# Workloads whose scenario times are not speed-scaled; see the module docstring.
UNSCALED_RUNS = {"adiabatic_sweep"}
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}

WALL_TIME = re.compile(rb'"wall_time_ms": [^,\n}]+')


def _limit_blas_threads() -> None:
    """Cap BLAS/OpenMP pools at nproc before numpy loads."""
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)


def _import_fresh():
    """Import brightpath from this checkout's ``src``, dropping any loaded copy."""
    for name in [m for m in sys.modules if m == "brightpath" or m.startswith("brightpath.")]:
        del sys.modules[name]
    cli = importlib.import_module("brightpath.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"brightpath imported from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# output checks


def _check_report(scenario, report: dict) -> str | None:
    """Re-check the report's own distances against its tolerance; None if fine."""
    p = scenario.parameters
    if report.get("scenario", {}).get("kind") != scenario.kind:
        return "report echoes another kind"
    echoed = report["scenario"]["parameters"]
    if any(echoed.get(k) != v for k, v in p.items()):
        return "report echoes other parameters"
    tol = float(report["tolerance"])
    comp = report["comparisons"]
    if scenario.kind == "gate":
        required = []
        if "effective" in p["methods"]:
            required.append(("effective_vs_analytic_exact", tol))
        if "full" in p["methods"]:
            required.append(("full_vs_analytic_phase", max(tol, FULL_ORACLE_FLOOR)))
        for key, bound in required:
            if key not in comp:
                return f"missing {key}"
            if not comp[key] <= bound:
                return f"{key} = {comp[key]:.3e} > {bound:.1e}"
    elif scenario.kind == "loop":
        keys = ["berry_vs_effective_exact"] + ([] if "samples" in p else ["berry_vs_analytic_exact"])
        for key in keys:
            if key not in comp:
                return f"missing {key}"
            if not comp[key] <= tol:
                return f"{key} = {comp[key]:.3e} > {tol:.1e}"
    elif scenario.kind == "compare":
        sweep = comp["sweep"]
        distances = [entry["distance_phase"] for entry in sweep]
        if [entry["omega_T"] for entry in sweep] != [float(v) for v in p["omega_T_list"]]:
            return "sweep does not cover omega_T_list"
        if not all(a > b for a, b in zip(distances, distances[1:])):
            return "sweep distances not strictly decreasing"
        if not distances[-1] <= tol:
            return f"final distance {distances[-1]:.3e} > {tol:.1e}"
    elif scenario.kind == "stirap":
        if not comp["deviation"] <= tol:
            return f"deviation = {comp['deviation']:.3e} > {tol:.1e}"
    if report["passed"] is not True:
        return "report says passed=false"
    return None


def _check_csv(scenario, data: bytes) -> str | None:
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    pops = [i for i, name in enumerate(header) if name.startswith("pop_")]
    if header[:2] != ["t", "leakage"] or header[-1] != "phase_psi" or not pops:
        return "bad CSV header"
    if len(lines) - 1 != scenario.expected_rows():
        return f"CSV has {len(lines) - 1} rows, expected {scenario.expected_rows()}"
    for row in lines[1:]:
        fields = row.split(",")
        total = math.fsum(float(fields[i]) for i in pops)
        if not abs(total - 1.0) <= POPULATION_TOL:
            return f"populations sum to {total!r} at t={fields[0]}"
    return None


def _run_one(cli, scenario, config: str, out: str, csv: str):
    """One scenario through ``main``: (failure cause or None, digest, detail)."""
    for stale in (out, csv):
        if os.path.exists(stale):
            os.remove(stale)
    argv = [scenario.kind, "--config", config, "--out", out]
    if scenario.timeseries:
        argv += ["--timeseries", csv]
    try:
        code = cli.main(argv)
    except Exception as exc:  # any escape from main is a failed scenario, not a benchmark crash
        return "exception", None, "".join(traceback.format_exception_only(type(exc), exc)).strip()
    if code not in (0, 2):
        return f"exit{code}", None, f"main returned {code}"
    raw = _read(out)
    digest = hashlib.sha256(WALL_TIME.sub(b"", raw))
    problem = _check_report(scenario, json.loads(raw))
    if scenario.timeseries:
        data = _read(csv)
        digest.update(data)
        problem = problem or _check_csv(scenario, data)
    cause = "exit2" if code == 2 else ("check" if problem else None)
    return cause, digest.hexdigest(), problem


# ---------------------------------------------------------------------------
# set-up and passes


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write_configs(directory: str, scenarios) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, scenario in enumerate(scenarios):
        path = os.path.join(directory, f"{index:02d}-{scenario.name}.json")
        with open(path, "wb") as handle:
            handle.write(scenario.config_bytes())
        paths.append(path)
    return paths


def _setup_once(workloads, workload: str, seed: int, directory: str):
    """Import, generate and write the inputs, warm every route up; timed as one set-up."""
    started = time.perf_counter()
    cli = _import_fresh()
    scenarios = workloads.generate(workload, seed)
    configs = _write_configs(directory, scenarios)
    warm = workloads.warmup(scenarios)
    for path, scenario in zip(_write_configs(os.path.join(directory, "warmup"), warm), warm):
        _run_one(cli, scenario, path, path + ".out", path + ".csv")
    return time.perf_counter() - started, cli, scenarios, configs


_PROBE_MATRIX = ((0.0, 1.0, 0.5j, 0.0), (1.0, 0.3, 0.2, 0.1j), (-0.5j, 0.2, 0.0, 0.7), (0.0, -0.1j, 0.7, -0.4))


def _speed_probe() -> float:
    """Seconds this process takes for a fixed piece of brightpath-like work.

    The work mirrors one effective-route step (small Hermitian eigh, phase
    exponential, matrix products, unitarity norm) in a Python loop, plus one
    batched einsum like the full oracle's.  It uses no brightpath code, so
    its time tracks only how fast the machine runs this process right now.
    """
    import numpy as np

    h = np.array(_PROBE_MATRIX, dtype=complex)
    u = np.eye(4, dtype=complex)
    batch = np.broadcast_to(np.eye(4, dtype=complex), (2048, 4, 4))
    started = time.perf_counter()
    for k in range(100):
        w, v = np.linalg.eigh(h * (1.0 + 1e-3 * k))
        u = ((v * np.exp(-1e-3j * w)) @ v.conj().T) @ u
        np.linalg.norm(u.conj().T @ u - np.eye(4))
    np.einsum("mij,mjk->mik", batch, batch)
    return time.perf_counter() - started


def _speed_after(span_s: float) -> float:
    """Speed factor for a span that just ended, from probes run right after it.

    One probe runs for every PROBE_EVERY_S of the span (at least one); the
    factor is PROBE_REFERENCE_S over their mean time.
    """
    count = max(1, round(span_s / PROBE_EVERY_S))
    return PROBE_REFERENCE_S / statistics.fmean(_speed_probe() for _ in range(count))


def _tail(values: list[float]):
    """Highest percentile with at least TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(values)
    # With TAIL_BEYOND samples or fewer no percentile qualifies: report the maximum, at p100.
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _environment() -> dict:
    import numpy as np

    def read(path: str) -> str:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()

    env = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
    try:
        models = [line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")]
        env["cpu_model"] = models[0] if models else "unknown"
    except OSError:
        env["cpu_model"] = "unknown"
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            level, kind = read(f"{base}/{index}/level"), read(f"{base}/{index}/type")
            if level in ("2", "3") and kind == "Unified":
                env[f"L{level}"] = {
                    "size": read(f"{base}/{index}/size"),
                    "shared_cpu_list": read(f"{base}/{index}/shared_cpu_list"),
                }
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env["blas"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    env["blas_threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    env["blas_threads"] = _blas_threads()
    return env


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS itself, if it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write the full run record as JSON to this path")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "brightpath")):
        print(f"no brightpath sources under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import layertrace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    _limit_blas_threads()

    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _benchmark(args, workloads, layertrace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _benchmark(args, workloads, layertrace, work: str) -> int:
    setup_times, setup_speeds, config_sets = [], [], []
    for repeat in range(SETUP_REPEATS):
        elapsed, cli, scenarios, configs = _setup_once(
            workloads, args.workload, args.seed, os.path.join(work, f"setup{repeat}")
        )
        setup_times.append(elapsed)
        setup_speeds.append(_speed_after(elapsed))
        config_sets.append([_read(path) for path in configs])
    generator_stable = all(s == config_sets[0] for s in config_sets)

    scale_runs = args.workload not in UNSCALED_RUNS
    passes = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    tracer = layertrace.Tracer() if args.trace else None
    if tracer is not None:
        passes = max(2, passes // 2)  # rounds, each running every scenario untraced and traced
    run_dir = os.path.join(work, "run")
    os.makedirs(run_dir)
    pass_wall = {False: [], True: []}
    pass_scaled = {False: [], True: []}
    op_wall: list[float] = []
    op_scaled: list[float] = []
    op_by_scenario: dict[str, list[float]] = {s.name: [] for s in scenarios}
    layer_runs: list[tuple[dict, float]] = []
    outcomes: list[list[tuple]] = []
    for index in range(passes):
        modes = (False,) if tracer is None else (False, True)
        rows = {traced: [] for traced in modes}
        wall = dict.fromkeys(modes, 0.0)
        scaled = dict.fromkeys(modes, 0.0)
        if tracer is not None:
            tracer.reset()
        for i, (scenario, config) in enumerate(zip(scenarios, configs)):
            stem = os.path.join(run_dir, f"{i:02d}")
            # Untraced and traced back to back, the order alternating between scenarios and rounds.
            for traced in modes if (index + i) % 2 == 0 else modes[::-1]:
                if traced:
                    tracer.scenario = f"{index}:{scenario.name}"
                    tracer.install()
                try:
                    t0 = time.perf_counter()
                    rows[traced].append(_run_one(cli, scenario, config, stem + ".json", stem + ".csv"))
                    elapsed = time.perf_counter() - t0
                finally:
                    if traced:
                        tracer.uninstall()
                at_reference = elapsed * (_speed_after(elapsed) if scale_runs else 1.0)
                wall[traced] += elapsed
                scaled[traced] += at_reference
                if not traced:
                    op_wall.append(elapsed)
                    op_scaled.append(at_reference)
                    op_by_scenario[scenario.name].append(elapsed)
        for traced in modes:
            pass_wall[traced].append(wall[traced])
            pass_scaled[traced].append(scaled[traced])
            outcomes.append(rows[traced])
        if tracer is not None:
            layer_runs.append((tracer.totals(), scaled[True] / wall[True]))

    # Determinism: every pass, traced or not, must give the same outcomes and reports.
    mismatches = [
        scenarios[i].name
        for i in range(len(scenarios))
        if len({(row[i][0], row[i][1]) for row in outcomes}) != 1
    ]
    attempted = sum(len(row) for row in outcomes)
    causes: dict[str, int] = {}
    for row in outcomes:
        for cause, _, _ in row:
            if cause:
                causes[cause] = causes.get(cause, 0) + 1
    failed = sum(causes.values())
    correct = generator_stable and not mismatches

    raw = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(pass_wall[False]),
        "op_p50_s": statistics.median(op_wall),
        "op_tail_s": _tail(op_wall)[0],
    }
    tail_pct = _tail(op_scaled)[1]
    speed = math.fsum(op_scaled) / math.fsum(op_wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": args.workload,
        **workloads.WORKLOADS[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "scenarios": [s.name for s in scenarios],
        "runs_scaled": scale_runs,
        "speed_factor": speed,
        "setup_speed_factors": setup_speeds,
        "wall_s": raw,
        "setup_s_samples": setup_times,
        "pass_s": pass_wall[False],
        "traced_pass_s": pass_wall[True],
        "op_s": op_wall,
        "op_s_scaled": op_scaled,
        "op_samples": len(op_wall),
        "op_s_median_by_scenario": {name: statistics.median(v) for name, v in op_by_scenario.items()},
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": TAIL_BEYOND,
        "attempted": attempted,
        "failed": failed,
        "failures_by_cause": causes,
        "failed_scenarios": sorted(
            {f"{scenarios[i].name}: {row[i][0]} ({row[i][2]})" for row in outcomes for i in range(len(row)) if row[i][0]}
        ),
        "ops_failed_frac": failed / attempted,
        "report_mismatches": mismatches,
        "report_digests": {s.name: outcomes[0][i][1] for i, s in enumerate(scenarios)},
        "generator_stable": generator_stable,
        "environment": _environment(),
    }

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}{' (untraced + traced)' if args.trace else ''}"
          f"  scenarios/pass {len(scenarios)}")
    for line in record["failed_scenarios"]:
        print(f"  failed: {line}")
    print(f"  ops_failed_frac = {failed}/{attempted} = {failed / attempted:.4f}  by cause {causes}")
    print(f"  determinism: {'ok' if not mismatches else 'MISMATCH in ' + ', '.join(mismatches)}"
          f"; generator {'stable' if generator_stable else 'UNSTABLE'}")
    print(f"  speed factor {speed:.4f} ({'scaled' if scale_runs else 'not applied'}), set-up median "
          f"{statistics.median(setup_speeds):.4f}; wall: " + ", ".join(f"{k} {v:.5g} s" for k, v in raw.items()))

    if not args.trace:
        values = {
            "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_speeds)),
            "run_s": statistics.median(pass_scaled[False]),
            "op_p50_s": statistics.median(op_scaled),
            "op_tail_s": _tail(op_scaled)[0],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
            "run_s": f"median of {passes} passes",
            "op_p50_s": f"n={len(op_scaled)}",
            "op_tail_s": f"p{tail_pct:.1f}, {TAIL_BEYOND} beyond, n={len(op_scaled)}",
            "peak_rss_mb": "ru_maxrss",
        }
    else:
        units = layertrace.metric_units()
        totals = {
            name: statistics.median(run[name] * (speed if unit == "s" else 1.0) for run, speed in layer_runs)
            for name, unit in units.items()
            if name != layertrace.OVERHEAD
        }
        totals[layertrace.OVERHEAD] = statistics.median(
            traced - untraced for traced, untraced in zip(pass_scaled[True], pass_scaled[False])
        )
        record["layer_split"] = _layer_split(totals, statistics.median(pass_scaled[True]))
        check, predicate = PREDICTIONS[args.workload]
        record["layer_split"]["prediction"] = {"claim": check, "confirmed": predicate(totals)}
        record["layer_split"]["lines"].append(f"prediction: {check}: {'confirmed' if predicate(totals) else 'NOT confirmed'}")
        for line in record["layer_split"]["lines"]:
            print(f"  {line}")
        metrics = {name: _metric(totals[name], unit) for name, unit in units.items()}
        notes = {layertrace.OVERHEAD: f"median over {passes} rounds of traced minus untraced round time"}
        spans_dir = os.path.join(HERE, "_out")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.write_spans(os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.csv.gz"))
    record["metrics"] = metrics
    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {entry['value']!r} {entry['unit']}{note}")
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# The layer split each workload was chosen for, checked on the traced pass.
PREDICTIONS = {
    "gates": (
        "evolve_time_ordered (with effective.*) holds over half the busy time; the full oracle runs too",
        lambda t: t["propagators.evolve_time_ordered.busy_s"] > t["cli.run_scenario.busy_s"] / 2
        and t["propagators.evolve_full_adiabatic.calls"] > 0,
    ),
    "adiabatic_sweep": (
        "zero effective-route calls; evolve_full_adiabatic holds over half the busy time",
        lambda t: t["effective.BrightTrajectory.h_eff.calls"] + t["effective.h_eff_multi.calls"]
        + t["effective.h_eff_couplings.calls"] + t["propagators.evolve_time_ordered.calls"] == 0
        and t["propagators.evolve_full_adiabatic.busy_s"] > t["cli.run_scenario.busy_s"] / 2,
    ),
    "timeseries": (
        "gates.coupling_schedule.calls ~ evolve_state_full steps (one scalar call per step)",
        lambda t: t["propagators.evolve_state_full.steps"] > 0
        and 1.0 <= t["gates.coupling_schedule.calls"] / t["propagators.evolve_state_full.steps"] <= 1.01,
    ),
    "loops": (
        "berry.effective_dark_block holds over half the busy time; berry.holonomy under 5%",
        lambda t: t["berry.effective_dark_block.busy_s"] > t["cli.run_scenario.busy_s"] / 2
        and t["berry.holonomy.busy_s"] < 0.05 * t["cli.run_scenario.busy_s"],
    ),
}


def _layer_split(totals: dict, traced_pass_s: float) -> dict:
    """Self time per module as a share of the traced pass, plus the busiest spans."""
    modules: dict[str, float] = {}
    for name, value in totals.items():
        if name.endswith(".self_s"):
            module = name.split(".", 1)[0]
            modules[module] = modules.get(module, 0.0) + value
    shares = {m: v / traced_pass_s for m, v in sorted(modules.items(), key=lambda kv: -kv[1])}
    busy = {n[: -len(".busy_s")]: v / traced_pass_s for n, v in totals.items() if n.endswith(".busy_s") and v}
    lines = ["self-time share by module: " + ", ".join(f"{m} {s:.1%}" for m, s in shares.items())]
    lines.append("busy share: " + ", ".join(f"{n} {s:.1%}" for n, s in sorted(busy.items(), key=lambda kv: -kv[1])))
    return {"module_self_share": shares, "busy_share": busy, "lines": lines}


if __name__ == "__main__":
    sys.exit(main())
