"""Tests of the benchmark itself: seeded inputs, checks, tracing.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_configs(workload, tmp_path):
    first = run._write_configs(str(tmp_path / "a"), workloads.generate(workload, 17))
    again = run._write_configs(str(tmp_path / "b"), workloads.generate(workload, 17))
    other = workloads.generate(workload, 18)
    assert [run._read(p) for p in first] == [run._read(p) for p in again]
    assert [s.config_bytes() for s in other] != [run._read(p) for p in first]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_configs_are_valid_scenarios(workload, tmp_path):
    from brightpath.cli import ScenarioConfig

    scenarios = workloads.generate(workload, 5)
    for path, scenario in zip(run._write_configs(str(tmp_path), scenarios), scenarios):
        config = ScenarioConfig.from_file(path)
        assert config.kind == scenario.kind
        assert "tolerance" not in scenario.parameters  # each kind's default tolerance


def test_polylines_stay_in_domain_and_avoid_origin():
    for seed in range(20):
        for scenario in workloads.generate("loops", seed):
            samples = scenario.parameters.get("samples")
            if samples is None:
                continue
            assert samples[0] == samples[-1]
            assert max(abs(a) for a in samples[0][:2]) > 0.1
            for theta1, theta2, _, _ in samples:
                assert 0.0 <= theta1 <= workloads.HALF_PI and 0.0 <= theta2 <= workloads.HALF_PI


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {k: v["why"] for k, v in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert set(run.NOMINAL_PASS_S) == set(workloads.WORKLOADS) == set(run.PREDICTIONS)


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 41)]
    assert run._tail(values) == (30.0, 75.0)
    assert run._tail(values[:5]) == (5.0, 100.0)


def test_speed_factor_probes_once_per_interval_of_the_span(monkeypatch):
    probes = iter([2.0, 4.0, 6.0, 3.0, 1.0])
    monkeypatch.setattr(run, "_speed_probe", lambda: next(probes) * run.PROBE_REFERENCE_S)
    assert run._speed_after(4 * run.PROBE_EVERY_S) == pytest.approx(1 / 3.75)  # four probes
    assert run._speed_after(0.01) == pytest.approx(1.0)  # at least one


def test_csv_check_counts_rows_and_population_sums():
    scenario = workloads.Scenario("s", "stirap", {"steps": 2}, 1, timeseries=True)
    good = b"t,leakage,pop_1,pop_2,phase_psi\n0.0,0.0,1.0,0.0,0.0\n0.5,0.0,0.5,0.5,0.0\n1.0,0.0,0.0,1.0,0.0\n"
    assert run._check_csv(scenario, good) is None
    assert "rows" in run._check_csv(scenario, good.rsplit(b"1.0,0.0,0.0,1.0", 1)[0])
    assert "sum" in run._check_csv(scenario, good.replace(b"0.5,0.5", b"0.5,0.4"))


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    cli = run._import_fresh()
    hermitian_init = sys.modules["brightpath.linalg"].HermitianOperator.__init__
    modules = {name: dict(vars(m)) for name, m in sys.modules.items() if name.startswith("brightpath")}
    scenario = workloads.generate("loops", 3)[0]
    small = workloads.Scenario(scenario.name, "loop", dict(scenario.parameters, steps=4), 1)
    (config,) = run._write_configs(str(tmp_path), [small])
    plain = run._run_one(cli, small, config, str(tmp_path / "a.json"), str(tmp_path / "a.csv"))

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = run._run_one(cli, small, config, str(tmp_path / "b.json"), str(tmp_path / "b.csv"))
        for module in ("berry", "propagators", "brightpath"):  # a binding per importing module
            name = module if module == "brightpath" else f"brightpath.{module}"
            assert vars(sys.modules[name])["expm_hermitian"] is not modules[name]["expm_hermitian"]
    finally:
        tracer.uninstall()
    assert traced[:2] == plain[:2]  # same outcome and report apart from wall_time_ms
    totals = tracer.totals()
    assert totals["berry.effective_dark_block.calls"] == 1
    assert totals["propagators.evolve_time_ordered.steps"] == 4 * totals["propagators.evolve_time_ordered.calls"]
    assert totals["lambda_system.couplings_from_angles.calls"] == totals["propagators.evolve_time_ordered.steps"]
    for span in tracer.spans:
        assert span[3] >= span[2]
    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert all(after[k] is v for k, v in before.items()), name
    assert sys.modules["brightpath.linalg"].HermitianOperator.__init__ is hermitian_init
