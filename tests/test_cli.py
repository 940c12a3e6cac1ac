import dataclasses
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brightpath import cli
from brightpath.cli import (
    DEFAULT_PARAMETERS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_TOLERANCE,
    MAX_THETA_END,
    PHASE_OVERLAP_FLOOR,
    ScenarioConfig,
    TimeseriesWriter,
    complex_to_pairs,
    emit_timeseries,
    main,
    pairs_to_complex,
    run_scenario,
)
from brightpath.errors import ConfigError
from brightpath import gates
from brightpath.gates import compose_gate, simulate_full_gate, simulate_gate, stage_trajectory
from brightpath.morris_shore import TwoManifoldSystem, morris_shore_transform
from brightpath.propagators import FULL_BLOCK, MAX_STEPS, StateTrace, evolve_time_ordered


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

    @pytest.mark.parametrize(
        "kind, parameters, field",
        [
            ("gate", {"n": 1}, "n"),
            ("gate", {"psi": [[1.0, 0.0], [0.0, 0.0]]}, "psi"),
            ("gate", {"psi": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}, "psi"),
            ("gate", {"stage_times": [0.5, 0.25, 1.0]}, "stage_times"),
            ("gate", {"theta_schedule": "bogus"}, "theta_schedule"),
            ("compare", {"phi_schedule": "bogus"}, "phi_schedule"),
            ("gate", {"full_steps": 5}, "full_steps"),
            ("compare", {"omega_T_list": [250.0, -1.0]}, "omega_T_list"),
            ("loop", {"side_b": 1e7}, "side_b"),
            ("morris-shore", {"matrix": [[1.0, 0.0]]}, "matrix"),
            ("stirap", {"ramp": "bogus"}, "ramp"),
        ],
    )
    def test_domain_errors_lead_with_the_field(self, kind, parameters, field):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            ScenarioConfig(kind, parameters)

    def test_parsed_objects(self):
        gate = ScenarioConfig("gate", {"methods": ["full"], "omega_T": 500, "stage_times": [1, 2, 3]})
        assert (gate.spec.t1, gate.spec.t3, gate.steps, gate.methods) == (1.0, 3.0, 10000, ["full"])
        assert [(run.omega_T, run.steps) for run in gate.full_runs] == [(500.0, 65536)]
        compare = ScenarioConfig("compare", {"full_steps": 4096})
        assert [(run.omega_T, run.steps) for run in compare.full_runs] == [(250.0, 4096), (1000.0, 4096), (4000.0, 4096)]
        loop = ScenarioConfig("loop", {"points_per_edge": 40})
        assert loop.plane == "theta1-theta2" and loop.path.samples.shape == (161, 4)
        assert ScenarioConfig("loop", {"samples": [[0.0] * 4] * 3}).plane is None
        assert ScenarioConfig("morris-shore").system is None
        assert ScenarioConfig("morris-shore", {"matrix": [[[1.0, 0.0]], [[0.0, 1.0]]]}).system.v.shape == (2, 1)

    @pytest.mark.parametrize(
        "kind, parameters",
        [("gate", {"step": 50}), ("loop", {"side_c": 1.0}), ("morris-shore", {"steps": 5})],
    )
    def test_unknown_parameter_rejected(self, kind, parameters):
        (key,) = parameters
        with pytest.raises(ConfigError, match=f"^{key}: unknown parameter for kind '{kind}'"):
            ScenarioConfig(kind, parameters)

    def test_optional_samples_not_echoed(self):
        assert "samples" not in ScenarioConfig("loop").echo()["parameters"]

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

    @pytest.mark.parametrize(
        "n, psi",
        [
            (4, [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0], [0.0, 0.0]]),
            (12, [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]] + [[0.0, 0.0]] * 8),
        ],
    )
    def test_dark_blocks_are_the_corners_of_the_unitaries(self, n, psi, tmp_path, capsys):
        # CI's four- and twelve-level gates: each route's dark block is the
        # top-left (n-1) x (n-1) corner of its unitary, zero signs included.
        smooth = {"theta_schedule": "smooth", "phi_schedule": "smooth", "full_steps": 16384, "omega_T": 2000.0}
        parameters = {"n": n, "psi": psi, "phase": 0.9, "stage_times": [0.4, 0.9, 1.7], **smooth}
        cfg = tmp_path / "gate.json"
        cfg.write_text(json.dumps({"kind": "gate", "parameters": parameters}))
        assert main(["gate", "--config", str(cfg), "--method", "effective", "--method", "full"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        for route in ("effective", "full"):
            corner = np.array(report["unitaries"][route])[: n - 1, : n - 1]
            block = np.array(report["dark_blocks"][route])
            np.testing.assert_array_equal(block, corner)
            np.testing.assert_array_equal(np.signbit(block), np.signbit(corner))

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

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), cols=st.integers(1, 6), rank=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_morris_shore_drive_rebuild_error_is_that_of_the_rebuilt_drive(self, seed, rows, cols, rank):
        # The field is taken from the residual of V alone; it must be the
        # same float as max|H(rebuilt) - H(V)| / ||V|| over the two
        # (rows + cols)-level drive Hamiltonians, on random, rank-deficient
        # and wide (rows < cols) matrices.
        rng = np.random.default_rng(seed)
        rank = min(rank, rows, cols)
        factors = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in ((rows, rank), (rank, cols))]
        config = ScenarioConfig("morris-shore", {"matrix": complex_to_pairs(factors[0] @ factors[1])})
        system = config.system
        rebuilt = TwoManifoldSystem(morris_shore_transform(system, rank_tol=config.rank_tol).reconstruct())
        drive_difference = np.max(np.abs(rebuilt.drive_hamiltonian() - system.drive_hamiltonian()))
        report = run_scenario(config)
        assert report["comparisons"]["drive_rebuild_error"] == float(drive_difference) / float(np.linalg.norm(system.v))

    def test_stirap_defaults(self):
        report = run_scenario(ScenarioConfig("stirap", {"steps": 512}))
        assert report["passed"]
        assert abs(report["comparisons"]["transfer_population"] - 1.0) < 1e-8

    def test_determinism_modulo_wall_time(self):
        config = {"steps": 1500}
        one = run_scenario(ScenarioConfig("gate", config, seed=11))
        two = run_scenario(ScenarioConfig("gate", config, seed=11))
        assert json.dumps(strip_timing(one), sort_keys=True) == json.dumps(strip_timing(two), sort_keys=True)

    def test_wall_time_is_the_run_in_milliseconds(self, monkeypatch):
        # perf_counter reads 10.0 when the run starts and 10.25 when it ends.
        clock = iter([10.0, 10.25])
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(clock))
        report = run_scenario(ScenarioConfig("morris-shore"))
        assert report["diagnostics"]["wall_time_ms"] == 250.0
        assert next(clock, None) is None

    def test_a_two_method_gate_composes_the_gate_once(self, monkeypatch):
        composed = []

        def counted(spec):
            composed.append(spec)
            return compose_gate(spec)

        monkeypatch.setattr(cli, "compose_gate", counted)
        monkeypatch.setattr(gates, "compose_gate", counted)
        report = run_scenario(ScenarioConfig("gate", {"methods": ["effective", "full"], "full_steps": 4096}))
        assert {"effective", "full"} <= set(report["unitaries"])
        assert len(composed) == 1

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

    @staticmethod
    def leakage_column(tmp_path, methods, stage_times):
        """The CSV rows and the largest leakage of a smooth three-level gate
        whose time series follows ``methods``."""
        path = tmp_path / "gate.csv"
        config = ScenarioConfig(
            "gate",
            {
                "methods": methods,
                "steps": 16384,
                "full_steps": 16384,
                "omega_T": 2000.0,
                "stage_times": stage_times,
                "theta_schedule": "smooth",
                "phi_schedule": "smooth",
            },
        )
        emit_timeseries(config, str(path))
        rows = path.read_text().strip().splitlines()
        return rows, max(float(row.split(",")[1]) for row in rows[1:])

    def test_full_gate_leakage_column_small(self, tmp_path):
        # On stage times that end at 1 and at 1.7: the CSV's coupled states
        # follow the full route's progress clock, whatever t3 is.
        for stage_times in ([0.25, 0.5, 1.0], [0.4, 0.9, 1.7]):
            rows, leak = self.leakage_column(tmp_path, ["full"], stage_times)
            assert len(rows) == 16385 + 1
            assert rows[0] == "t,leakage,pop_1,pop_2,pop_3,pop_4,phase_psi"
            assert leak < 1e-3, stage_times

    @pytest.mark.parametrize("stage_times", [[0.25, 0.5, 1.0], [0.4, 0.9, 1.7]])
    def test_effective_gate_leakage_column_small(self, tmp_path, stage_times):
        # The effective route transports the dark state psi exactly, so the
        # leakage column stays at the discretization error on its own clock.
        rows, leak = self.leakage_column(tmp_path, ["effective"], stage_times)
        assert len(rows) == 16385 + 1
        assert rows[0] == "t,leakage,pop_1,pop_2,pop_3,phase_psi"
        assert leak < 1e-12

    @pytest.mark.parametrize("methods", [["effective"], ["full"]])
    def test_grid_ends_on_the_last_stage_time(self, tmp_path, methods):
        # The grid formula gives 0.79 * 120 / 120, one ulp above t3 = 0.79;
        # the trajectory must accept every recorded time.
        assert 0.79 * np.array([120]) / 120 > 0.79
        parameters = {"methods": methods, "steps": 120, "full_steps": 120, "stage_times": [0.2, 0.5, 0.79]}
        path = tmp_path / "gate.csv"
        emit_timeseries(ScenarioConfig("gate", parameters), str(path))
        rows = path.read_text().splitlines()
        assert len(rows) == 122
        assert rows[-1].startswith("0.79," if methods == ["effective"] else "1.0,")

    @pytest.mark.parametrize("methods", [["effective"], ["full"]])
    def test_a_gate_frame_reads_values_only(self, tmp_path, monkeypatch, methods):
        # The CSV's coupled states come from the trajectory's values: a time
        # series calls the pieces' derivative samplers no more often than the
        # run without one (once per piece of the one block on the effective
        # route, never on the full one), and writes the same bytes.
        config = ScenarioConfig("gate", {"methods": methods, "steps": 300, "full_steps": 300})
        emit_timeseries(config, str(tmp_path / "plain.csv"))
        calls = []

        def counted(spec):
            trajectory = stage_trajectory(spec)
            pieces = [p._replace(sampler=lambda times, p=p: calls.append(times) or p.sampler(times)) for p in trajectory.pieces]
            return dataclasses.replace(trajectory, pieces=tuple(pieces))

        monkeypatch.setattr(gates, "stage_trajectory", counted)
        run_scenario(config)
        assert len(calls) == 3 * (methods == ["effective"])
        emit_timeseries(config, str(tmp_path / "counted.csv"))
        assert len(calls) == 6 * (methods == ["effective"])
        assert (tmp_path / "counted.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_timeseries(ScenarioConfig("stirap", {"steps": 128}), str(a))
        emit_timeseries(ScenarioConfig("stirap", {"steps": 128}), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unsupported_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_timeseries(ScenarioConfig("morris-shore"), str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("kind", ["compare", "loop", "morris-shore", "selftest"])
    def test_unsupported_kind_rejected_before_the_run(self, kind, tmp_path, monkeypatch, capsys):
        def must_not_run(config):
            raise AssertionError(f"{config.kind} ran before its --timeseries was rejected")

        monkeypatch.setattr(cli, "run_scenario", must_not_run)
        path = tmp_path / "x.csv"
        assert main([kind, "--timeseries", str(path)]) == EXIT_CONFIG
        assert "kind" in capsys.readouterr().err
        assert not path.exists()

    def test_unwritable_path_rejected_before_the_run(self, tmp_path, monkeypatch, capsys):
        def must_not_run(config, writer=None):
            raise AssertionError("the scenario ran before its CSV path was opened")

        monkeypatch.setattr(cli, "run_scenario", must_not_run)
        assert main(["stirap", "--timeseries", str(tmp_path / "missing" / "x.csv")]) == EXIT_CONFIG
        assert "timeseries: cannot write" in capsys.readouterr().err

    def test_failed_run_leaves_no_partial_csv(self, tmp_path, monkeypatch, capsys):
        # The drive breaks in the second block, after the first block's rows
        # have gone to the CSV.
        path = tmp_path / "gate.csv"
        written = []

        def breaking_drive(spec):
            # The full gate's drive is the stage trajectory of its core spec;
            # its rise holds the first two blocks.
            drive = stage_trajectory(spec)
            rise = drive.pieces[0]

            def values(progress):
                if progress[0] > 0.05:
                    written.append(path.stat().st_size)
                    raise ValueError("the drive breaks")
                return rise.values(progress)

            return dataclasses.replace(drive, pieces=(rise._replace(values=values), *drive.pieces[1:]))

        monkeypatch.setattr(gates, "stage_trajectory", breaking_drive)
        path.write_text("a stale series\n")
        assert main(["gate", "--method", "full", "--timeseries", str(path)]) == EXIT_NUMERICAL
        assert "the drive breaks" in capsys.readouterr().err
        assert written and written[0] > 100 * FULL_BLOCK
        assert not path.exists()

    def test_memory_stays_flat_in_the_step_count(self, tmp_path):
        # The rows of each block are written before the next block is built,
        # so no state or row outlives its block.
        def peak(steps):
            config = ScenarioConfig("stirap", {"steps": steps})
            tracemalloc.start()
            try:
                emit_timeseries(config, str(tmp_path / f"{steps}.csv"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16 * FULL_BLOCK) - peak(4 * FULL_BLOCK) < 2**20


def per_row_csv(path, times, states, reference, bright):
    """The row-by-row writer that the chunked one must match byte for byte."""
    amplitudes = np.einsum("rkd,rd->rk", bright.conj(), states)
    dark = (states.conj() * states).real.sum(axis=1) - (np.abs(amplitudes) ** 2).sum(axis=1)
    dim = states.shape[1]
    header = "t,leakage," + ",".join(f"pop_{i + 1}" for i in range(dim)) + ",phase_psi"
    lines = [header]
    for t, state, dark_t in zip(times, states, dark):
        leak = max(0.0, 1.0 - float(dark_t))
        pops = ",".join(repr(float(abs(amp) ** 2)) for amp in state)
        overlap = complex(np.einsum("d,d->", state, reference.conj()))
        phase = float(np.angle(overlap)) if abs(overlap) > PHASE_OVERLAP_FLOOR else 0.0
        lines.append(f"{float(t)!r},{leak!r},{pops},{phase!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


FIVE_LEVEL_GATE = {
    "n": 5,
    "psi": [[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.0], [0.0, 0.0]],
    "methods": ["full"],
    "full_steps": FULL_BLOCK + 37,
    "omega_T": 2000.0,
    "theta_schedule": "smooth",
    "phi_schedule": "smooth",
}


def recorded_states(config):
    """The rows and coupled states of a scenario's time series from a traced
    run of their own (the midpoint route for stirap, the gate route its CSV
    follows for a gate), with the start state of its CSV."""
    if config.kind == "stirap":
        reference = np.array([1.0, 0.0], dtype=complex)
        run = lambda trace: evolve_time_ordered(config.trajectory, 0.0, 1.0, config.steps, trace)
    elif "full" in config.methods:
        reference = np.append(config.spec.psi, 0.0)
        run = lambda trace: simulate_full_gate(config.spec, config.full_runs, trace)
    else:
        reference = config.spec.psi
        run = lambda trace: simulate_gate(config.spec, config.steps, trace)
    blocks = []
    run(StateTrace(reference, lambda *block: blocks.append(block)))
    times, states, coupled = map(np.concatenate, zip(*blocks))
    return times, states, coupled, reference


class TestChunkedTimeseriesBytes:
    """The streamed CSV, formatted block by block, is byte-identical to per_row_csv."""

    def assert_same_bytes(self, tmp_path, written, times, states, coupled, reference):
        per_row = tmp_path / "per_row.csv"
        per_row_csv(str(per_row), times, states, reference, coupled)
        text = written.read_text()
        assert written.read_bytes() == per_row.read_bytes()
        assert text.endswith("\n") and "\n\n" not in text
        assert text.count("\n") == len(times) + 1

    def write_blocks(self, path, times, states, coupled, reference):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            sink = TimeseriesWriter(handle, reference)
            for lo in range(0, len(times), FULL_BLOCK):
                sink(times[lo : lo + FULL_BLOCK], states[lo : lo + FULL_BLOCK], coupled[lo : lo + FULL_BLOCK])

    @pytest.mark.parametrize(
        "kind, parameters",
        [
            ("stirap", {"steps": FULL_BLOCK + 37}),
            ("stirap", {"steps": 4096, "ramp": "smooth"}),
            ("gate", {"methods": ["effective"], "steps": FULL_BLOCK + 37}),
            ("gate", {"methods": ["effective"], "steps": 4096}),
            ("gate", FIVE_LEVEL_GATE),
        ],
    )
    def test_scenarios(self, tmp_path, kind, parameters):
        config = ScenarioConfig(kind, parameters)
        streamed = tmp_path / "streamed.csv"
        emit_timeseries(config, str(streamed))
        self.assert_same_bytes(tmp_path, streamed, *recorded_states(config))

    def test_zero_overlap_and_zero_populations(self, tmp_path):
        times, states, coupled, reference = recorded_states(ScenarioConfig("stirap", {"steps": FULL_BLOCK + 37}))
        states = states.copy()
        states[FULL_BLOCK - 1] = [0.0, 1.0]  # overlap exactly 0: phase 0.0, pop_1 0.0
        states[FULL_BLOCK] = [0.0, -1j]
        states[-1] = [1e-13, 1.0]  # overlap below the phase threshold
        chunked = tmp_path / "chunked.csv"
        self.write_blocks(chunked, times, states, coupled, reference)
        self.assert_same_bytes(tmp_path, chunked, times, states, coupled, reference)
        rows = chunked.read_text().splitlines()
        assert rows[FULL_BLOCK].split(",")[2:] == ["0.0", "1.0", "0.0"]
        assert rows[-1].endswith(",1.0,0.0")

    def test_every_field_layout(self, tmp_path):
        # Fields in fixed notation (before and after the point, integral,
        # 16 digits before the point), scientific with negative, positive
        # and three-digit exponents, subnormal, zero and negative.
        times = np.array([0.0, 1.0, 1e-4, 123456.789, 9999999999999998.0, 1e16, 2.5e17, 7.5e-7])
        states = np.array(
            [
                [1.0, 0.0],
                [0.3 - 0.4j, 0.5j],
                [1e-100, 1.0],
                [1e-160, 3e-3],
                [1e10, 1e-9j],
                [-0.6, 0.8],
                [1e-3 - 1e-3j, 2.0**-537],
                [0.0, -1j],
            ]
        )
        reference = np.array([1.0, 0.0], dtype=complex)
        coupled = np.zeros((len(times), 1, 2))
        path = tmp_path / "rows.csv"
        self.write_blocks(path, times, states, coupled, reference)
        self.assert_same_bytes(tmp_path, path, times, states, coupled, reference)
        fields = ",".join(path.read_text().splitlines()[1:]).split(",")
        layouts = {
            r"-?0\.0*[1-9]\d*": "below 1",
            r"-?[1-9]\d*\.\d+": "after the point",
            r"[1-9]\d*\.0": "integral",
            r"\d{16}\.0": "16 digits before the point",
            r"[1-9](\.\d+)?e-\d\d": "negative exponent",
            r"[1-9](\.\d+)?e\+\d\d": "positive exponent",
            r"[1-9](\.\d+)?e-\d\d\d": "three-digit exponent",
            r"-\d.*": "negative",
            r"0\.0": "zero",
        }
        assert [name for pattern, name in layouts.items() if not any(re.fullmatch(pattern, f) for f in fields)] == []
        assert "5e-324" in fields and any(0.0 < float(f) < 2.2250738585072014e-308 for f in fields if f != "5e-324")

    def test_phase_floor(self, tmp_path):
        # |<psi|state>| = 1e-8 has an angle with no digits and writes 0.0;
        # 1e-3 writes its angle.
        reference = np.array([1.0, 0.0], dtype=complex)
        states = np.array([[1e-8 * np.exp(0.5j), 1.0], [1e-3 * np.exp(0.5j), 1.0]])
        path = tmp_path / "rows.csv"
        self.write_blocks(path, np.array([0.0, 1.0]), states, np.zeros((2, 1, 2)), reference)
        phases = [float(row.rsplit(",", 1)[1]) for row in path.read_text().splitlines()[1:]]
        assert phases == [0.0, float(np.angle(np.vdot(reference, states[1])))]
        assert abs(phases[1] - 0.5) < 1e-12

    def test_float_power_is_libm_pow(self, rng):
        # The writer squares magnitudes with np.float_power(x, 2.0), which
        # must give the bits of math.pow(x, 2.0) (the per-row float ** 2).
        normal = np.abs(rng.normal(size=50_000)) * 10.0 ** rng.uniform(-150, 150, size=50_000)
        subnormal = rng.uniform(0.0, 2.0**-1022, size=50_000)
        edges = [0.0, 5e-324, 2.0**-1022, 1e-162, 1e154, 1.3e154, 1.0, 0.5]
        values = np.concatenate([normal, subnormal, edges])
        expected = np.array([math.pow(x, 2.0) for x in values.tolist()])
        assert np.array_equal(np.float_power(values, 2.0), expected)


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

    @pytest.mark.parametrize("kind", DEFAULT_PARAMETERS)
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_a_negative_seed_is_three(self, kind, source, tmp_path, monkeypatch, capsys):
        def must_not_run(config, writer=None):
            raise AssertionError(f"{config.kind} ran with a negative seed")

        monkeypatch.setattr(cli, "run_scenario", must_not_run)
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"kind": kind, "seed": -3}))
        argv = [kind, "--seed", "-3"] if source == "flag" else [kind, "--config", str(cfg)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: seed: must be a non-negative integer\n"

    def test_kind_mismatch_is_three(self, tmp_path, capsys):
        cfg = tmp_path / "loop.json"
        cfg.write_text('{"kind": "loop"}')
        assert main(["gate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_an_override_replaces_a_bad_field_of_the_file(self, tmp_path, capsys):
        # The file's parameters and the overrides are one map, parsed once.
        cfg = tmp_path / "gate.json"
        cfg.write_text('{"kind": "gate", "parameters": {"steps": 5}}')
        assert main(["gate", "--config", str(cfg), "--steps", "200"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["scenario"]["parameters"]["steps"] == 200

    def test_an_override_of_parameters_that_are_not_an_object_is_three(self, tmp_path, capsys):
        cfg = tmp_path / "gate.json"
        cfg.write_text('{"kind": "gate", "parameters": [1]}')
        assert main(["gate", "--config", str(cfg), "--steps", "200"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: parameters: must be an object\n"

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

    @staticmethod
    def circle_samples(c1, c2, radius=0.15, segments=64):
        s = np.linspace(0.0, 2 * np.pi, segments + 1)
        rows = np.stack([c1 + radius * np.cos(s), c2 + radius * np.sin(s), 0 * s, 0.2 * np.sin(s)], axis=1)
        rows[-1] = rows[0]
        return rows.tolist()

    @pytest.mark.parametrize("centre", [(-0.2, 0.8), (1.5, 1.6)], ids=["theta1-negative", "theta2-past-pole"])
    def test_polyline_with_negative_amplitudes_is_four(self, centre, tmp_path, capsys):
        # Outside 0 <= theta1, theta2 <= pi/2 some r_i < 0, which the
        # effective route refuses (the holonomy alone does not need r_i >= 0).
        cfg = tmp_path / "negative.json"
        cfg.write_text(json.dumps({"kind": "loop", "parameters": {"samples": self.circle_samples(*centre)}}))
        assert main(["loop", "--config", str(cfg)]) == EXIT_NUMERICAL
        assert "amplitude fractions r_i must be non-negative" in capsys.readouterr().err
        assert main(["loop", "--config", str(cfg), "--method", "berry"]) == EXIT_OK

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_stage_times_gate_passes_without_warnings(self, tmp_path, capsys):
        # ||Bdot|| ~ 1e300 here: the tangency check must not overflow.
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({"kind": "gate", "parameters": {"stage_times": [1e-300, 2e-300, 3e-300]}}))
        assert main(["gate", "--config", str(cfg)]) == EXIT_OK

    def test_open_samples_polyline_is_three(self, tmp_path, capsys):
        open_path = {"samples": [[0.1, 0.1, 0.0, 0.0], [0.15, 0.1, 0.0, 0.0], [0.15, 0.15, 0.0, 0.0]]}
        cfg = tmp_path / "open.json"
        cfg.write_text(json.dumps({"kind": "loop", "parameters": open_path}))
        assert main(["loop", "--config", str(cfg)]) == EXIT_CONFIG
        assert "samples: closed path endpoints differ" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"kind": "loop", "parameters": {"methods": 5}}', "methods"),
            ('{"kind": "gate", "parameters": [1]}', "parameters"),
            ('{"kind": "gate", "parameters": {"steps": 1%s}}' % ("0" * 400), "steps"),
        ],
    )
    def test_malformed_config_is_three(self, text, field, tmp_path, capsys):
        cfg = tmp_path / "malformed.json"
        cfg.write_text(text)
        kind = json.loads(text)["kind"]
        assert main([kind, "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    @pytest.mark.parametrize(
        "argv, key",
        [(["stirap", "--method", "full"], "methods"), (["selftest", "--steps", "5"], "steps")],
    )
    def test_override_of_unknown_parameter_is_three(self, argv, key, capsys):
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key}: unknown parameter")

    @pytest.mark.parametrize("parameters", [{"side_a": 1e7}, {"side_a": 1e300}, {"points_per_edge": 10**12}])
    def test_oversized_rectangle_is_three_and_quick(self, parameters, tmp_path, capsys):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"kind": "loop", "parameters": parameters}))
        started = time.perf_counter()
        assert main(["loop", "--config", str(cfg)]) == EXIT_CONFIG
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().err.startswith(f"config error: {next(iter(parameters))}: ")

    @pytest.mark.parametrize(
        "kind, parameters, field",
        [
            ("gate", {"steps": 10**12}, "steps"),
            ("gate", {"full_steps": 10**12}, "full_steps"),
            ("compare", {"full_steps": 10**12}, "full_steps"),
            ("loop", {"steps": 10**12}, "steps"),
            ("stirap", {"steps": 10**12}, "steps"),
            ("morris-shore", {"rows": 10**6, "cols": 10**6}, "rows"),
            ("morris-shore", {"rows": 10**6, "cols": 1}, "rows"),
        ],
    )
    def test_oversized_run_is_three_and_quick(self, kind, parameters, field, tmp_path, capsys):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": parameters}))
        started = time.perf_counter()
        assert main([kind, "--config", str(cfg)]) == EXIT_CONFIG
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    def test_morris_shore_level_limit_is_inclusive(self):
        # rows + cols may reach MAX_MORRIS_SHORE_LEVELS = 1024, not pass it.
        assert ScenarioConfig("morris-shore", {"rows": 1023, "cols": 1}).shape == (1023, 1)
        with pytest.raises(ConfigError, match=r"^rows: rows \+ cols must be <= 1024, got 1025$"):
            ScenarioConfig("morris-shore", {"rows": 1024, "cols": 1})

    def test_theta_end_at_its_limit_runs(self, tmp_path, capsys):
        # MAX_THETA_END = 1e150 still runs at 10 steps, far too coarse to
        # pass (exit 2); past ~1e154 a step's Gram entries overflow.
        cfg = tmp_path / "theta.json"
        cfg.write_text(json.dumps({"kind": "stirap", "parameters": {"theta_end": MAX_THETA_END, "steps": 10}}))
        assert main(["stirap", "--config", str(cfg)]) == EXIT_TOLERANCE

    @pytest.mark.parametrize("theta_end", [np.nextafter(MAX_THETA_END, np.inf), 1e200, 1e308])
    def test_theta_end_past_its_limit_is_three_and_runs_nothing(self, theta_end, tmp_path, monkeypatch, capsys):
        def must_not_run(config, writer=None):
            raise AssertionError(f"stirap ran with theta_end = {theta_end}")

        monkeypatch.setattr(cli, "run_scenario", must_not_run)
        cfg = tmp_path / "theta.json"
        cfg.write_text(json.dumps({"kind": "stirap", "parameters": {"theta_end": float(theta_end), "steps": 10}}))
        assert main(["stirap", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: theta_end: must be <= 1e+150\n"

    @pytest.mark.parametrize(
        "kind, parameters, field",
        [
            ("compare", {"full_steps": 2**23, "omega_T_list": [250.0, 1000.0, 4000.0]}, "full_steps"),
            ("gate", {"methods": ["effective", "full"], "steps": MAX_STEPS, "full_steps": 10}, "steps"),
            ("loop", {"steps": 2**18, "points_per_edge": 32}, "steps"),
        ],
    )
    def test_a_scenario_over_its_step_budget_is_three_and_quick(self, kind, parameters, field, tmp_path, capsys):
        # Every run is within MAX_STEPS, but the scenario's runs together
        # are not: 3 x 2^23 full steps; 2^24 + 10; 128 segments x 2^18.
        cfg = tmp_path / "over.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": parameters}))
        started = time.perf_counter()
        assert main([kind, "--config", str(cfg)]) == EXIT_CONFIG
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().err.startswith(f"config error: {field}: the scenario takes ")

    def test_a_route_that_does_not_run_takes_no_budget(self):
        # An effective-only gate at MAX_STEPS: its full_steps never run.
        assert ScenarioConfig("gate", {"steps": MAX_STEPS}).steps == MAX_STEPS
        assert ScenarioConfig("loop", {"steps": MAX_STEPS, "methods": ["berry"]}).steps == MAX_STEPS

    @pytest.mark.parametrize("kind, field", [("gate", "steps"), ("compare", "full_steps")])
    def test_oversized_steps_override_is_three(self, kind, field, capsys):
        assert main([kind, "--steps", str(10**12)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

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


# JSON-shaped values: every type a decoded config can hold, with ints beyond
# the double range and JSON's NaN and Infinity among the numbers.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)


@st.composite
def parameters_of(draw, kind):
    """A subset of the kind's own keys, maybe with one unknown key, each
    holding any JSON value."""
    keys = sorted(DEFAULT_PARAMETERS[kind]) + (["samples"] if kind == "loop" else []) + ["unknown_key"]
    return {key: draw(JSON_VALUES) for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=4))}


@pytest.mark.parametrize("kind", sorted(DEFAULT_PARAMETERS))
@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_config_loader_raises_only_config_errors(kind, data):
    """Any parameter map of JSON values is either a scenario or a ConfigError."""
    try:
        ScenarioConfig(kind, data.draw(parameters_of(kind)))
    except ConfigError:
        pass


def scenario_steps(kind: str, p: dict) -> int:
    """Every step a scenario of these parameters would take: the full
    runs' steps summed, plus the effective route's, or segments x steps
    for a loop (an edge of the default rectangle has one segment per point
    once ``points_per_edge`` >= 21)."""
    if kind == "loop":
        return 4 * p["points_per_edge"] * (p["steps"] if "effective" in p["methods"] else 1)
    total = p["steps"] if kind == "stirap" or "effective" in p.get("methods", ()) else 0
    if kind == "compare" or "full" in p.get("methods", ()):
        total += p["full_steps"] * (len(p["omega_T_list"]) if kind == "compare" else 1)
    return total


@st.composite
def sized_parameters(draw, kind):
    """Well-formed parameters of ``kind`` whose step counts, run counts and
    segment counts each lie anywhere in their own bounds, up to MAX_STEPS."""
    steps = st.integers(1, MAX_STEPS) | st.sampled_from([1, 2**12, 2**21, 2**23, MAX_STEPS - 1, MAX_STEPS])
    if kind == "loop":
        methods = draw(st.sampled_from([["effective"], ["berry"], ["effective", "berry"]]))
        return {"steps": draw(steps), "points_per_edge": draw(st.integers(21, 10_000)), "methods": methods}
    if kind == "stirap":
        return {"steps": max(10, draw(steps))}
    parameters = {"full_steps": max(10, draw(steps))}
    if kind == "gate":
        parameters["steps"] = max(100, draw(steps))
        parameters["methods"] = draw(st.sampled_from([["effective"], ["full"], ["effective", "full"]]))
    else:
        parameters["omega_T_list"] = [100.0 + i for i in range(draw(st.integers(2, 5000) | st.sampled_from([2, 3, 2**12])))]
    return parameters


@pytest.mark.parametrize("kind", ["gate", "compare", "loop", "stirap"])
# The patched runners are the same for every example, so one monkeypatch
# per test serves them all.
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_scenario_parses_only_within_its_step_budget(kind, data, monkeypatch):
    """Extreme but well-formed sizes parse into a scenario exactly when the
    scenario's total steps are within MAX_STEPS, and a ConfigError names a
    step field otherwise.  Nothing runs."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("a scenario ran while its config was parsed")

    for name in ("simulate_gate", "simulate_full_gate", "holonomy", "effective_dark_block", "stirap_transfer"):
        monkeypatch.setattr(cli, name, must_not_run)
    parameters = data.draw(sized_parameters(kind))
    steps = scenario_steps(kind, {**DEFAULT_PARAMETERS[kind], **parameters})
    try:
        ScenarioConfig(kind, parameters)
    except ConfigError as exc:
        assert steps > MAX_STEPS, exc
        assert str(exc).startswith(("steps: the scenario takes", "full_steps: the scenario takes")), exc
    else:
        assert steps <= MAX_STEPS
