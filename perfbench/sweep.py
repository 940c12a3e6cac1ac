"""Run every workload over several seeds and summarise the spread.

Usage (from the repository root):

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/trajectory/<label>.json
    python3 perfbench/sweep.py --seeds 11-20 --baseline perfbench/trajectory/<label>.json

Each (workload, seed) is one ``run.py`` process, run one after another for
BENCHMARK.json's ``run_seconds``.  The summary's label is the basename of
``--out``.
For every end-to-end metric the summary gives the ten values, their median
and quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the bound in BENCHMARK.json, and the same
spread of the raw wall times before speed scaling.  ``--trace-seed``
adds one traced run per workload for the per-layer numbers and the
measured layer split.  ``--baseline`` compares medians with an earlier
summary: a metric is worse when its median exceeds the baseline's by more
than its bound, and reports of a seed both summaries ran must be
byte-identical apart from ``wall_time_ms``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "_out")) as tmp:
        detail = os.path.join(tmp, "detail.json")
        command = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--detail", detail,
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
        with open(detail, encoding="utf-8") as handle:
            return json.loads(done.stdout.strip().splitlines()[-1]), json.load(handle)


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    baseline = None
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)

    label = os.path.splitext(os.path.basename(args.out))[0] if args.out else ""
    summary = {"label": label, "seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    worse = []
    for workload in workloads.WORKLOADS:
        results, details = [], []
        for seed in summary["seeds"]:
            result, detail = _run(workload, seed, seconds, 0)
            results.append(result)
            details.append(detail)
            print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "why": details[0]["why"],
            "varies": details[0]["varies"],
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "failures_by_cause": {},
            "failed_scenarios": sorted({line.split(" (")[0] for d in details for line in d["failed_scenarios"]}),
            "op_samples": details[0]["op_samples"],
            "op_tail_percentile": details[0]["op_tail_percentile"],
            "passes": details[0]["passes"],
            "report_digests": {str(seed): d["report_digests"] for seed, d in zip(summary["seeds"], details)},
            "op_s_median_by_scenario": {str(seed): d["op_s_median_by_scenario"] for seed, d in zip(summary["seeds"], details)},
            "metrics": {},
        }
        for d in details:
            for cause, count in d["failures_by_cause"].items():
                entry["failures_by_cause"][cause] = entry["failures_by_cause"].get(cause, 0) + count
        entry["ops_failed_frac"] = entry["failed"] / entry["attempted"]
        print(f"{workload}: correct {entry['correct']}, ops_failed_frac {entry['failed']}/{entry['attempted']} "
              f"by cause {entry['failures_by_cause']}, op samples {entry['op_samples']} "
              f"(tail p{entry['op_tail_percentile']:.1f})")
        if baseline and workload in baseline["workloads"]:
            before = baseline["workloads"][workload]["report_digests"]
            differ = [seed for seed, digests in entry["report_digests"].items() if before.get(seed, digests) != digests]
            print(f"  {workload}: reports {'identical to' if not differ else 'DIFFERENT from'} baseline for shared seeds")
            if differ:
                worse.append(f"{workload} reports differ for seeds {differ}")
        for name in results[0]["metrics"]:
            stats = _stats([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["bound"] = bounds.get(name)
            entry["metrics"][name] = stats
            line = (f"  {workload:16s} {name:12s} median {stats['median']:.5g} {stats['unit']}  "
                    f"q1 {stats['q1']:.5g}  q3 {stats['q3']:.5g}  spread {stats['spread']:.2%}  bound {stats['bound']}")
            if baseline and workload in baseline["workloads"]:
                base = baseline["workloads"][workload]["metrics"][name]["median"]
                change = stats["median"] / base - 1.0
                line += f"  vs baseline {change:+.2%}"
                if stats["bound"] is not None and change > stats["bound"]:
                    worse.append(f"{workload} {name} {change:+.2%}")
            print(line, flush=True)
        entry["wall_s"] = {name: _stats([d["wall_s"][name] for d in details]) for name in details[0]["wall_s"]}
        entry["speed_factor"] = [d["speed_factor"] for d in details]
        print("  wall-time spreads before speed scaling: "
              + ", ".join(f"{name} {stats['spread']:.2%}" for name, stats in entry["wall_s"].items()), flush=True)
        if args.trace_seed is not None:
            result, detail = _run(workload, args.trace_seed, seconds, 1)
            entry["traced"] = {
                "seed": args.trace_seed,
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "layer_split": detail["layer_split"],
            }
            for line in detail["layer_split"]["lines"]:
                print(f"  {workload} traced: {line}", flush=True)
        summary["workloads"][workload] = entry
    summary["environment"] = details[-1]["environment"]
    summary["environment"]["adiabatic_sweep_largest_factor_bytes_computed"] = max(
        2**log_steps * (n + 1) ** 2 * 16 for log_steps, n, _ in workloads.SWEEP_LADDER
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if worse:
        print("worse than baseline by more than the bound: " + "; ".join(worse))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
