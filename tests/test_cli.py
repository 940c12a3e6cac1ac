import json

import numpy as np
import pytest

from brightpath.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_TOLERANCE,
    ScenarioConfig,
    complex_to_pairs,
    emit_timeseries,
    main,
    pairs_to_complex,
    run_scenario,
)
from brightpath.errors import ConfigError


def strip_timing(report):
    clone = json.loads(json.dumps(report))
    clone["diagnostics"].pop("wall_time_ms")
    return clone


class TestSerialization:
    def test_complex_round_trip(self, rng):
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        again = pairs_to_complex(complex_to_pairs(m), "matrix")
        np.testing.assert_array_equal(again, m)

    def test_vector_pairs(self):
        v = pairs_to_complex([[1.0, 2.0], [0.0, -1.0]], "psi")
        np.testing.assert_array_equal(v, [1 + 2j, -1j])

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigError):
            pairs_to_complex([[[1, 2, 3]]], "psi")


class TestScenarioConfig:
    def test_defaults_validate_for_every_kind(self):
        for kind in ("gate", "loop", "compare", "morris-shore", "stirap", "selftest"):
            ScenarioConfig(kind)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ScenarioConfig("teleport")

    def test_field_path_in_message(self):
        with pytest.raises(ConfigError, match="psi"):
            ScenarioConfig("gate", {"psi": [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]})
        with pytest.raises(ConfigError, match="steps"):
            ScenarioConfig("gate", {"steps": 3})
        with pytest.raises(ConfigError, match="methods"):
            ScenarioConfig("gate", {"methods": ["berry"]})
        with pytest.raises(ConfigError, match="omega_T"):
            ScenarioConfig("gate", {"omega_T": -1.0})

    def test_from_file_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "gate", "bogus": 1}')
        with pytest.raises(ConfigError, match="bogus"):
            ScenarioConfig.from_file(str(path))
        path.write_text("not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ScenarioConfig.from_file(str(path))


class TestRunScenario:
    def test_gate_report_contents(self):
        report = run_scenario(ScenarioConfig("gate", {"steps": 2000}))
        assert report["passed"]
        assert report["schema"] == "brightpath.report.v1"
        assert report["comparisons"]["effective_vs_analytic_exact"] < 1e-6
        diag = report["diagnostics"]
        for key in (
            "unitarity_error",
            "leakage",
            "dark_block_distance_exact",
            "dark_block_distance_phase",
            "steps",
            "wall_time_ms",
        ):
            assert key in diag
            assert diag[key] >= 0
        # Config echo re-validates: the schema round-trips.
        echo = report["scenario"]
        ScenarioConfig(echo["kind"], echo["parameters"], echo["seed"])

    def test_gate_with_full_method(self):
        report = run_scenario(
            ScenarioConfig(
                "gate",
                {
                    "methods": ["effective", "full"],
                    "steps": 2000,
                    "full_steps": 8192,
                    "omega_T": 500.0,
                    "theta_schedule": "smooth",
                    "phi_schedule": "smooth",
                },
            )
        )
        assert report["passed"]
        assert report["comparisons"]["full_vs_analytic_phase"] < 1e-2
        assert report["diagnostics"]["leakage"] < 1e-3

    def test_loop_cross_tabulation(self):
        report = run_scenario(ScenarioConfig("loop"))
        assert report["passed"]
        assert report["comparisons"]["berry_vs_effective_exact"] < 1e-6
        assert report["comparisons"]["berry_vs_analytic_exact"] < 1e-8

    def test_loop_explicit_samples(self):
        square = [
            [0.0, 0.0, 0.0, 0.0],
            [0.05, 0.0, 0.0, 0.0],
            [0.05, 0.05, 0.0, 0.0],
            [0.0, 0.05, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
        report = run_scenario(ScenarioConfig("loop", {"samples": square, "steps": 16}))
        assert report["passed"]

    def test_compare_sweep_decreases(self):
        report = run_scenario(
            ScenarioConfig("compare", {"omega_T_list": [250.0, 1000.0], "full_steps": 16384})
        )
        assert report["passed"]
        assert report["comparisons"]["strictly_decreasing"]

    def test_morris_shore_counts(self):
        report = run_scenario(ScenarioConfig("morris-shore"))
        assert report["passed"]
        assert report["comparisons"]["pairs"] == 2
        assert report["comparisons"]["dark_states"] == 3
        assert report["comparisons"]["reconstruction_error"] < 1e-12

    def test_stirap_defaults(self):
        report = run_scenario(ScenarioConfig("stirap", {"steps": 512}))
        assert report["passed"]
        assert abs(report["comparisons"]["transfer_population"] - 1.0) < 1e-8

    def test_determinism_modulo_wall_time(self):
        config = {"steps": 1500}
        one = run_scenario(ScenarioConfig("gate", config, seed=11))
        two = run_scenario(ScenarioConfig("gate", config, seed=11))
        assert json.dumps(strip_timing(one), sort_keys=True) == json.dumps(strip_timing(two), sort_keys=True)

    def test_morris_shore_seed_determinism(self):
        one = run_scenario(ScenarioConfig("morris-shore", seed=3))
        two = run_scenario(ScenarioConfig("morris-shore", seed=3))
        other = run_scenario(ScenarioConfig("morris-shore", seed=4))
        assert json.dumps(strip_timing(one), sort_keys=True) == json.dumps(strip_timing(two), sort_keys=True)
        assert one["comparisons"]["couplings"] != other["comparisons"]["couplings"]


class TestTimeseries:
    def test_stirap_population_transfer_columns(self, tmp_path):
        path = tmp_path / "stirap.csv"
        emit_timeseries(ScenarioConfig("stirap", {"steps": 256}), str(path))
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,leakage,pop_1,pop_2,phase_psi"
        data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
        pop1, pop2 = data[:, 2], data[:, 3]
        assert pop1[0] == 1.0
        assert pop1[-1] < 1e-8
        assert pop2[-1] > 1.0 - 1e-8
        assert np.all(np.diff(pop1) <= 1e-12)
        assert np.all(data[:, 1] < 1e-9)

    def test_null_ramp_rows_identical(self, tmp_path):
        path = tmp_path / "flat.csv"
        emit_timeseries(ScenarioConfig("stirap", {"theta_end": 0.0, "steps": 64}), str(path))
        rows = path.read_text().strip().splitlines()[1:]
        stripped = {row.split(",", 1)[1] for row in rows}
        assert len(stripped) == 1

    def test_full_gate_leakage_column_small(self, tmp_path):
        path = tmp_path / "gate.csv"
        config = ScenarioConfig(
            "gate",
            {
                "methods": ["full"],
                "full_steps": 16384,
                "omega_T": 2000.0,
                "theta_schedule": "smooth",
                "phi_schedule": "smooth",
            },
        )
        emit_timeseries(config, str(path), record_every=64)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,leakage,pop_1,pop_2,pop_3,pop_4,phase_psi"
        leak = [float(row.split(",")[1]) for row in rows[1:]]
        assert max(leak) < 1e-3

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_timeseries(ScenarioConfig("stirap", {"steps": 128}), str(a))
        emit_timeseries(ScenarioConfig("stirap", {"steps": 128}), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unsupported_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_timeseries(ScenarioConfig("morris-shore"), str(tmp_path / "x.csv"))


class TestMainExitCodes:
    def test_pass_is_zero(self, capsys):
        assert main(["stirap", "--steps", "256"]) == EXIT_OK
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["passed"]

    def test_tolerance_failure_is_two(self, capsys):
        assert main(["gate", "--steps", "1000", "--tolerance", "1e-18"]) == EXIT_TOLERANCE

    def test_config_error_is_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "gate", "parameters": {"steps": -5}}')
        assert main(["gate", "--config", str(bad)]) == EXIT_CONFIG
        assert main(["gate", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG

    def test_kind_mismatch_is_three(self, tmp_path, capsys):
        cfg = tmp_path / "loop.json"
        cfg.write_text('{"kind": "loop"}')
        assert main(["gate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_numerical_failure_is_four(self, tmp_path, capsys):
        coarse = {
            "kind": "loop",
            "parameters": {
                "samples": [
                    [0.0, 0.0, 0.0, 0.0],
                    [0.5, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                ]
            },
        }
        cfg = tmp_path / "coarse.json"
        cfg.write_text(json.dumps(coarse))
        assert main(["loop", "--config", str(cfg)]) == EXIT_NUMERICAL

    @pytest.mark.parametrize(
        "kind, parameters",
        [
            ("gate", {"phase": float("nan")}),
            ("stirap", {"theta_end": float("inf")}),
            ("compare", {"omega_T_list": [1, float("inf")]}),
            ("gate", {"stage_times": [0.25, 0.5, float("inf")]}),
            ("loop", {"side_a": float("inf")}),
            ("loop", {"samples": [[0.0] * 4, [float("nan"), 0.0, 0.0, 0.0], [0.0] * 4]}),
            ("morris-shore", {"matrix": [[[float("nan"), 0.0], [1.0, 0.0]]]}),
        ],
    )
    def test_non_finite_number_is_three(self, kind, parameters, tmp_path, capsys):
        cfg = tmp_path / "nonfinite.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": parameters}))  # NaN / Infinity literals
        assert main([kind, "--config", str(cfg)]) == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err

    def test_report_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["morris-shore", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["version"]
        assert capsys.readouterr().out == ""

    def test_method_override(self, capsys):
        assert main(["loop", "--method", "berry"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert "effective" not in report["dark_blocks"]
