import json
import math

import numpy as np
import pytest

from kortorus import verify
from kortorus.cli import _read_snapshots, main
from kortorus.config import parse_config
from kortorus.dump import write_field_dump
from kortorus.errors import ConstraintViolationError, ParseError
from kortorus.functionals import evaluate_report, serrin_accumulator
from kortorus.littlewood_paley import BesovIndex, besov_norm
from kortorus.spectral import SpectralGrid
from kortorus.timestepping import Trajectory
from helpers import measure


MINIMAL = "{}"


class TestParseConfig:
    def test_minimal_document_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid.resolution == (128,)
        assert cfg.model.variant == "effective_v2"
        assert cfg.model.kappa == 1.0 and cfg.model.alpha == 0.0
        assert cfg.integrator.scheme == "imex_euler"
        assert cfg.monitors.delta == 0.5
        assert cfg.output.write_fields is False

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_config('{"grid": [,}')
        assert err.value.line == 1
        assert err.value.column is not None

    def test_serrin_scaling_violation_named(self):
        doc = json.dumps({"grid": {"resolution": [32, 32]},
                          "monitors": {"serrin_p": 3.0, "serrin_q": 3.0}})
        with pytest.raises(ConstraintViolationError) as err:
            parse_config(doc)
        assert any("1/p + N/(2q) = 1/2" in v for v in err.value.violations)

    def test_variant_constraint_named(self):
        doc = json.dumps({"model": {"variant": "effective_v2", "kappa": 2.0}})
        with pytest.raises(ConstraintViolationError) as err:
            parse_config(doc)
        assert any("kappa = mu^2" in v for v in err.value.violations)

    def test_v1_constraint(self):
        doc = json.dumps({"model": {"variant": "effective_v1", "mu": 1.0,
                                    "alpha": 0.25, "kappa": 0.5}})
        with pytest.raises(ConstraintViolationError) as err:
            parse_config(doc)
        assert any("alpha = kappa/mu" in v for v in err.value.violations)

    def test_all_violations_reported_at_once(self):
        doc = json.dumps({
            "grid": {"resolution": [48, 32]},
            "model": {"mu": -1.0, "gamma": 0.2},
            "integrator": {"dt_initial": 1e-9, "dt_min": 1e-3, "cfl_safety": 2.0},
            "monitors": {"delta": 3.0, "delta_vacuum": 1.5,
                         "p_integrability": 1.0, "p_vacuum": 1.0, "epsilon": -0.5},
        })
        with pytest.raises(ConstraintViolationError) as err:
            parse_config(doc)
        assert len(err.value.violations) >= 9
        text = "\n".join(err.value.violations)
        for fragment in ("powers of two", "mu must be positive", "gamma",
                         "dt_min <= dt_initial", "cfl_safety", "delta must lie",
                         "p_integrability", "p_vacuum", "epsilon", "delta_vacuum"):
            assert fragment in text

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConstraintViolationError) as err:
            parse_config(json.dumps({"model": {"viscosity": 2.0}}))
        assert any("unknown model field" in v for v in err.value.violations)

    def test_round_trip_canonical(self):
        doc = json.dumps({
            "grid": {"resolution": [64], "length": [6.283185307179586]},
            "model": {"mu": 0.5, "alpha": 0.0, "kappa": 0.25, "a": 2.0,
                      "gamma": 1.4, "variant": "effective_v2"},
            "integrator": {"dt_initial": 0.002, "t_end": 0.7,
                           "scheme": "imex_bdf2", "snapshot_interval": 0.1},
            "initial": {"family": "gaussian_bump", "seed": 3,
                        "params": {"depth": 0.4}},
            "monitors": {"delta": 0.75},
            "output": {"label": "case7"},
        })
        cfg1 = parse_config(doc)
        cfg2 = parse_config(cfg1.serialize())
        assert cfg1 == cfg2
        assert cfg1.serialize() == cfg2.serialize()


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "grid": {"resolution": [64]},
        "model": {"variant": "effective_v2"},
        "integrator": {"dt_initial": 0.01, "t_end": 0.2},
        "initial": {"family": "single_mode",
                    "params": {"mean": 1.0, "amplitude": 0.05}},
        "output": {"label": "testrun"},
    }
    for key, val in overrides.items():
        doc.setdefault(key, {}).update(val)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestSimulateCLI:
    def test_equilibrium_exit_zero_constant_columns(self, tmp_path, capsys):
        path = write_config(tmp_path, initial={"family": "equilibrium", "params": {}})
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--output", str(out)]) == 0
        lines = (out / "functionals.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        col = header.index("energy_total")
        values = {row.split(",")[col] for row in lines[1:]}
        assert len(values) == 1  # all functional rows identical at equilibrium
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "completed"
        assert summary["config"]["model"]["variant"] == "effective_v2"
        jsonl = (out / "functionals.jsonl").read_text().strip().splitlines()
        assert len(jsonl) == len(lines) - 1
        first = json.loads(jsonl[0])
        assert first["schema_version"] == 1 and first["diverged"] == []

    def test_pure_heat_variance_decreasing(self, tmp_path, capsys):
        path = write_config(tmp_path, model={"variant": "effective_v2", "a": 1e-12})
        out = tmp_path / "heat"
        assert main(["simulate", str(path), "--output", str(out)]) == 0
        lines = (out / "functionals.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        col = header.index("rho_variance")
        series = [float(r.split(",")[col]) for r in lines[1:]]
        assert all(b < a for a, b in zip(series, series[1:]))

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write_config(tmp_path, initial={
            "family": "random_smooth",
            "params": {"mean": 1.2, "amplitude": 0.2, "velocity_amplitude": 0.3},
            "seed": 9})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(path), "--output", str(out1)]) == 0
        assert main(["simulate", str(path), "--output", str(out2)]) == 0
        assert (out1 / "functionals.csv").read_bytes() \
            == (out2 / "functionals.csv").read_bytes()

    def test_vacuum_squeeze_blowup_exit_one(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            model={"variant": "effective_v2", "mu": 0.05, "kappa": 0.0025, "a": 0.01},
            integrator={"dt_initial": 0.002, "dt_min": 1e-10, "t_end": 3.0,
                        "cfl_safety": 0.5},
            initial={"family": "gaussian_bump",
                     "params": {"mean": 1.0, "depth": 0.95, "width": 0.4,
                                "velocity_amplitude": 2.8}},
            monitors={"epsilon": 0.75, "delta_vacuum": 0.25},
        )
        out = tmp_path / "vac"
        assert main(["simulate", str(path), "--output", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "blow-up detected"
        assert summary["error"]["kind"] == "PositivityLoss"
        assert summary["verdict"]["vacuum_pass"] is False
        assert summary["verdict"]["terminated_by"] == "PositivityLoss"

    def test_verdict_serrin_value_matches_dense_accumulator(self, tmp_path, capsys):
        # with a snapshot cadence the verdict used to integrate over the
        # snapshots only (0.0025929218 here, against 0.0025926804)
        path = tmp_path / "cadence.json"
        path.write_text(json.dumps({
            "grid": {"resolution": [32, 32]},
            "model": {"variant": "effective_v2", "mu": 0.1, "kappa": 0.01, "a": 1.0},
            "integrator": {"dt_initial": 1e-3, "t_end": 0.05, "scheme": "imex_bdf2",
                           "snapshot_interval": 0.01},
            "initial": {"family": "random_smooth", "seed": 7,
                        "params": {"mean": 1.2, "amplitude": 0.25,
                                   "velocity_amplitude": 0.3}}}))
        out = tmp_path / "cadence"
        assert main(["simulate", str(path), "--output", str(out)]) == 0
        rows = (out / "functionals.csv").read_text().strip().splitlines()
        col = rows[0].split(",").index("serrin_accumulator")
        accumulated = float(rows[-1].split(",")[col])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["snapshots"] == 6 and len(rows) - 1 == 51
        assert summary["verdict"]["serrin_value"] == pytest.approx(accumulated, rel=1e-12)

    def test_config_violation_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, model={"variant": "effective_v2", "kappa": 3.0})
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "kappa = mu^2" in err

    def test_env_output_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KORTORUS_OUTPUT_ROOT", str(tmp_path / "root"))
        path = write_config(tmp_path, initial={"family": "equilibrium", "params": {}})
        assert main(["simulate", str(path)]) == 0
        assert (tmp_path / "root" / "testrun" / "summary.json").exists()


class TestRestartCLI:
    def test_restart_from_checkpoint(self, tmp_path, capsys):
        path = write_config(tmp_path, integrator={
            "dt_initial": 0.01, "t_end": 0.1, "snapshot_interval": 0.05})
        first = tmp_path / "first"
        assert main(["simulate", str(path), "--output", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["simulate", str(path), "--output", str(second),
                     "--restart", str(first)]) == 0
        capsys.readouterr()
        # the restarted run begins exactly at the first run's final snapshot
        rows1 = (first / "functionals.csv").read_text().strip().splitlines()
        rows2 = (second / "functionals.csv").read_text().strip().splitlines()
        header = rows1[0].split(",")
        for col in ("mass", "rho_min", "rho_max", "energy_total"):
            i = header.index(col)
            assert rows2[1].split(",")[i] == rows1[-1].split(",")[i]
        summary = json.loads((second / "summary.json").read_text())
        assert summary["restarted_from"] == str(first)
        assert summary["config"]["integrator"]["t_end"] == 0.1

    def test_restart_grid_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, integrator={
            "dt_initial": 0.01, "t_end": 0.05, "snapshot_interval": 0.05})
        first = tmp_path / "first"
        assert main(["simulate", str(path), "--output", str(first)]) == 0
        other = write_config(tmp_path, name="other.json", grid={"resolution": [128]})
        assert main(["simulate", str(other), "--output", str(tmp_path / "mismatch"),
                     "--restart", str(first)]) == 2


class TestVerifyCLI:
    def test_lp_partition_passes(self, capsys):
        assert main(["verify", "lp-partition"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert all(" elapsed=" in line for line in out.splitlines())

    def test_appendix_suite_residuals_under_tolerance(self, capsys):
        assert main(["verify", "appendix"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_unknown_suite_exit_two(self, capsys):
        assert main(["verify", "nonsense"]) == 2

    def test_failed_check_exit_one(self, monkeypatch, capsys):
        failing = verify.CheckResult("planted failure", 1.0, 0.5, False)
        monkeypatch.setitem(verify.SUITES, "planted", lambda seed=0: [failing])
        assert main(["verify", "planted"]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL  planted failure:")
        assert "1 check(s) failed: planted failure" in captured.err


class TestBesovCLI:
    def test_zero_field_norm_zero(self, tmp_path, capsys):
        grid = SpectralGrid(64)
        dump = tmp_path / "zero.fld"
        write_field_dump(dump, grid.zeros())
        assert main(["besov", str(dump), "--s", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["norm"] == 0.0

    def test_matches_in_process_norm(self, tmp_path, capsys):
        grid = SpectralGrid(64)
        field = grid.from_function(np.cos)
        dump = tmp_path / "cos.fld"
        write_field_dump(dump, field)
        assert main(["besov", str(dump), "--s", "0.0", "--p", "2", "--r", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = besov_norm(field, BesovIndex(0.0, 2.0, 2.0))
        assert payload["norm"] == expected  # bit-identical, same code path

    def test_truncated_dump_exit_two(self, tmp_path, capsys):
        grid = SpectralGrid(64)
        dump = tmp_path / "trunc.fld"
        write_field_dump(dump, grid.zeros())
        dump.write_bytes(dump.read_bytes()[:100])
        assert main(["besov", str(dump), "--s", "1.0"]) == 2
        assert "offset" in capsys.readouterr().err


class TestMonitorCLI:
    def test_recomputes_functionals(self, tmp_path, capsys):
        path = write_config(tmp_path, integrator={
            "dt_initial": 0.01, "t_end": 0.2, "snapshot_interval": 0.05})
        out = tmp_path / "run"
        assert main(["simulate", str(path), "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["snapshots"] == 5
        assert math.isfinite(payload["serrin_accumulator"])
        assert (out / "monitor_functionals.csv").exists()

    def test_missing_directory_exit_two(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path / "nope")]) == 2

    def test_truncated_snapshot_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, integrator={
            "dt_initial": 0.01, "t_end": 0.1, "snapshot_interval": 0.05})
        out = tmp_path / "run"
        assert main(["simulate", str(path), "--output", str(out)]) == 0
        dump = out / "snapshots" / "snap_000001.w0.fld"
        dump.write_bytes(dump.read_bytes()[:100])
        capsys.readouterr()
        assert main(["monitor", str(out)]) == 2
        assert "truncated" in capsys.readouterr().err
        assert main(["simulate", str(path), "--output", str(tmp_path / "again"),
                     "--restart", str(out)]) == 0  # reads only the last snapshot

    def test_verdict_serrin_value_is_the_snapshot_accumulator(self, tmp_path, capsys):
        path = write_config(tmp_path, integrator={
            "dt_initial": 0.01, "t_end": 0.2, "snapshot_interval": 0.05})
        out = tmp_path / "run"
        assert main(["simulate", str(path), "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["serrin_value"] == pytest.approx(
            payload["serrin_accumulator"], rel=1e-12)

    # in the original variant the Serrin norm of v = u + (kappa/mu) grad ln rho
    # takes transforms of its own, so a recomputation would show in the count
    @pytest.mark.parametrize("variant", ["effective_v2", "original"])
    def test_summary_serrin_comes_from_the_reports(self, tmp_path, capsys, fft_count,
                                                   variant):
        path = write_config(tmp_path, model={"variant": variant}, integrator={
            "dt_initial": 0.01, "t_end": 0.2, "snapshot_interval": 0.05})
        out = tmp_path / "run"
        assert main(["simulate", str(path), "--output", str(out)]) == 0
        capsys.readouterr()
        codes = []
        monitor = measure(fft_count, lambda: codes.append(main(["monitor", str(out)])))
        assert codes == [0]
        payload = json.loads(capsys.readouterr().out)

        config = parse_config((out / "config.echo.json").read_text())
        states = _read_snapshots(out)
        reports = measure(fft_count, lambda: [
            evaluate_report(s, config.model, config.monitors) for s in states])
        assert monitor == reports  # no transform beyond the reports'
        recomputed = serrin_accumulator(
            Trajectory(params=config.model, states=states),
            *config.monitors.serrin_pair(config.grid.dim), config.model)
        assert recomputed > 0.0
        assert payload["serrin_accumulator"] == pytest.approx(recomputed, rel=1e-12)
