"""Configuration parsing, command dispatch, emission, and exit codes."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sonine_kit
from sonine_kit import (
    DomainError,
    RhsSpec,
    affine_exponent,
    discover_associate,
    graded_mesh,
    make_classical_abel_pair,
    make_variable_exponent_pair,
    parse_config,
    stability_report,
)
from sonine_kit import cli
from sonine_kit.cli import COMMANDS, TOL_DEFAULTS, main
from sonine_kit.volterra import RESID_FIRST_INDEX


def _doc(command="verify-pair", *, kernel=None, N=128, r=2.0, **extra):
    doc = {
        "command": command,
        "kernel": kernel or {"kind": "classical", "alpha": 0.5, "b": 1.0},
        "mesh": {"N": N, "r": r},
    }
    doc.update(extra)
    return doc


def _write(tmp_path, doc, name="job.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


VARIABLE_KERNEL = {"kind": "variable", "a0": 0.5, "a1": 0.2, "b": 0.5}


class TestParseConfig:
    def test_minimal_document_defaults(self):
        cfg = parse_config(
            '{"command": "solve", "kernel": {"kind": "classical", "alpha": 0.5, "b": 1.0}}'
        )
        assert cfg.command == "solve"
        assert cfg.N == 512
        assert cfg.r == 2.0
        assert cfg.rhs_coeffs == (0.0, 1.0)
        assert cfg.out_path is None
        assert cfg.out_format == "csv"
        assert cfg.tolerances == TOL_DEFAULTS

    def test_full_document(self):
        cfg = parse_config(json.dumps(_doc(
            "discover",
            kernel=VARIABLE_KERNEL,
            N=256,
            r=3.0,
            rhs={"coeffs": [1.0, 0.0, 2.0]},
            output={"path": "out.json", "format": "json"},
            tolerances={"sc_residual_of_u": 1e-2},
        )))
        assert cfg.kernel.kind == "variable"
        assert (cfg.kernel.a0, cfg.kernel.a1) == (0.5, 0.2)
        assert cfg.N == 256 and cfg.r == 3.0
        assert cfg.rhs_coeffs == (1.0, 0.0, 2.0)
        assert cfg.out_path == "out.json" and cfg.out_format == "json"
        assert cfg.tolerances["sc_residual_of_u"] == 1e-2
        assert cfg.tolerances["g0"] == TOL_DEFAULTS["g0"]  # untouched defaults stay

    def test_alpha_out_of_range_names_the_field(self):
        doc = _doc(kernel={"kind": "classical", "alpha": 1.2, "b": 1.0})
        with pytest.raises(DomainError, match="kernel.alpha"):
            parse_config(json.dumps(doc))

    def test_profile_leaving_unit_interval_rejected(self):
        doc = _doc(kernel={"kind": "variable", "a0": 0.5, "a1": 2.0, "b": 1.0})
        with pytest.raises(DomainError, match="kernel.a0"):
            parse_config(json.dumps(doc))

    def test_unknown_fields_rejected(self):
        with pytest.raises(DomainError, match="bogus"):
            parse_config(json.dumps(_doc(bogus=1)))
        doc = _doc(kernel={"kind": "classical", "alpha": 0.5, "b": 1.0, "beta": 2})
        with pytest.raises(DomainError, match="kernel.beta"):
            parse_config(json.dumps(doc))
        with pytest.raises(DomainError, match="tolerances.nope"):
            parse_config(json.dumps(_doc(tolerances={"nope": 1.0})))

    def test_invalid_json_rejected(self):
        with pytest.raises(DomainError, match="not valid JSON"):
            parse_config("{command:")
        with pytest.raises(DomainError, match="top level"):
            parse_config("[1, 2]")

    def test_command_validation(self):
        with pytest.raises(DomainError, match="'command'"):
            parse_config('{"kernel": {"kind": "classical", "alpha": 0.5, "b": 1.0}}')
        with pytest.raises(DomainError, match="'command'"):
            parse_config(json.dumps(_doc("frobnicate")))

    def test_mesh_validation(self):
        with pytest.raises(DomainError, match="mesh.N"):
            parse_config(json.dumps(_doc(N=1)))
        with pytest.raises(DomainError, match="mesh.N"):
            parse_config(json.dumps(_doc(N=128.5)))
        with pytest.raises(DomainError, match="mesh.N"):
            parse_config(json.dumps(_doc(N=True)))
        with pytest.raises(DomainError, match="mesh.r"):
            parse_config(json.dumps(_doc(r=0.5)))

    def test_rhs_and_output_validation(self):
        with pytest.raises(DomainError, match="rhs.coeffs"):
            parse_config(json.dumps(_doc(rhs={"coeffs": []})))
        with pytest.raises(DomainError, match="rhs.coeffs"):
            parse_config(json.dumps(_doc(rhs={"coeffs": [1.0, "x"]})))
        with pytest.raises(DomainError, match="output.format"):
            parse_config(json.dumps(_doc(output={"format": "xml"})))


class TestEmission:
    def test_csv_is_byte_stable_and_lf_only(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, _doc("verify-pair"))
        out = tmp_path / "g.csv"
        assert main(["verify-pair", "--config", cfg_path, "--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(["verify-pair", "--config", cfg_path, "--out", str(out)]) == 0
        assert out.read_bytes() == first
        assert b"\r" not in first
        assert first.endswith(b"\n")

    def test_csv_floats_round_trip(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, _doc("verify-pair", N=64))
        out = tmp_path / "g.csv"
        assert main(["verify-pair", "--config", cfg_path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,g"
        nodes = graded_mesh(64, 2.0, 1.0).nodes
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert len(ts) == 64
        assert all(t == n for t, n in zip(ts, nodes[1:]))  # 17 digits: exact round-trip

    def test_json_output_maps_nan_to_null(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, _doc("compute-g", N=64))
        out = tmp_path / "g.json"
        rc = main(["compute-g", "--config", cfg_path, "--out", str(out), "--format", "json"])
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["route_diff"] is None  # one-route case: cross-check undefined
        assert len(record["t"]) == 64
        assert all(v is not None for v in record["g"])
        assert list(record) == sorted(record)

    @pytest.mark.parametrize("chunk", [2, 512])
    def test_json_writer_is_json_dump(self, tmp_path, monkeypatch, chunk):
        """The JSON table is json.dump(record, indent=1, sort_keys=True) byte
        for byte, with non-finite numbers as null, for non-finite values, an
        empty column, an int column, bool and float extras, and keys whose
        sorted order is not their insertion order; also when a column spans
        several chunks."""
        monkeypatch.setattr(cli, "JSON_CHUNK", chunk)
        out = tmp_path / "t.json"
        doc = _doc("verify-pair", output={"path": str(out), "format": "json"})
        cfg = parse_config(json.dumps(doc))
        columns = {
            "t": np.array([0.1, 1.0 / 3.0, 5e-324, -0.0, 1e300]),
            "g": np.array([np.nan, np.inf, -np.inf, 1.5, 2.0]),
            "empty": [],
            "N": [32, 64, 128, 256, 512],
        }
        extra = {"z_flag": True, "a_flag": False, "m": np.float64(-np.inf), "b": np.float64(0.1)}
        cli._emit(cfg, columns, extra)
        record = {k: [x if math.isfinite(x) else None for x in np.asarray(v).tolist()] for k, v in columns.items()}
        record.update((k, v if math.isfinite(v) else None) for k, v in extra.items())
        expected = json.dumps(record, indent=1, sort_keys=True) + "\n"
        assert out.read_text() == expected
        assert '"N": [\n  32,' in expected and '"empty": []' in expected

    def test_default_output_path_is_command_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = _write(tmp_path, _doc("verify-pair", N=64))
        assert main(["verify-pair", "--config", cfg_path]) == 0
        assert (tmp_path / "verify-pair.csv").exists()

    def test_config_output_settings_respected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = _doc("verify-pair", N=64, output={"path": "custom.json", "format": "json"})
        cfg_path = _write(tmp_path, doc)
        assert main(["verify-pair", "--config", cfg_path]) == 0
        record = json.loads((tmp_path / "custom.json").read_text())
        assert record["gsc_pass"] is True


#: the JSON field each stdout summary pair reports, when it is not the pair's name
SUMMARY_FIELDS = {
    "converge": {"order": ("fitted_order", None), "finest_err": ("max_err", -1)},
    "stability": {"max_shift": ("max_shift", 0), "bound": ("bound", 0)},
}


def _summary_value(text):
    if text in ("true", "false"):
        return text == "true"
    value = float(text)
    return value if math.isfinite(value) else None  # JSON writes non-finite as null


class TestCsvJsonAgree:
    """Both formats carry one table, and the summary line reports the record."""

    KERNELS = {
        "classical": {"kind": "classical", "alpha": 0.5, "b": 1.0},
        "variable": VARIABLE_KERNEL,
    }

    def _run(self, tmp_path, capsys, command, kernel, fmt):
        cfg_path = _write(tmp_path, _doc(command, kernel=self.KERNELS[kernel], N=64))
        out = tmp_path / f"table.{fmt}"
        rc = main([command, "--config", cfg_path, "--out", str(out), "--format", fmt])
        assert rc in (0, 2)
        summary, sep, path = capsys.readouterr().out.rstrip("\n").partition(" -> ")
        assert sep and path == str(out)
        return rc, out.read_text(), summary

    @pytest.mark.parametrize("kernel", ["classical", "variable"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_same_table_and_summary(self, command, kernel, tmp_path, capsys):
        rc_csv, csv_text, summary_csv = self._run(tmp_path, capsys, command, kernel, "csv")
        rc_json, json_text, summary_json = self._run(tmp_path, capsys, command, kernel, "json")
        assert rc_csv == rc_json and summary_csv == summary_json
        record = json.loads(json_text)

        header, *rows = [line.split(",") for line in csv_text.splitlines()]
        assert all(len(row) == len(header) for row in rows)
        for j, name in enumerate(header):
            assert len(record[name]) == len(rows)
            for row, value in zip(rows, record[name]):
                csv_value = float(row[j])  # 17 digits: exact round trip
                if value is None:
                    assert not math.isfinite(csv_value)
                else:
                    assert csv_value == value

        for name, value in record.items():
            if name.endswith(("_pass", "_passed")) or name == "holds":
                assert type(value) is bool
        if command == "converge":
            assert all(type(n) is int for n in record["N"])
            assert [row[0] for row in rows] == [str(n) for n in record["N"]]
            assert record["order"][0] is None
        if kernel == "classical" and command in ("verify-pair", "compute-g"):
            assert record["route_diff"] is None

        fields = SUMMARY_FIELDS.get(command, {})
        for pair in summary_json.split(" "):
            name, _, text = pair.partition("=")
            field, index = fields.get(name, (name, None))
            value = record[field] if index is None else record[field][index]
            assert _summary_value(text) == value, pair


class TestCommands:
    def test_verify_pair_classical(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, _doc("verify-pair"))
        out = tmp_path / "v.csv"
        assert main(["verify-pair", "--config", cfg_path, "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "sc_residual=" in summary and "gsc_pass=true" in summary
        lines = out.read_text().splitlines()
        assert lines[0] == "t,g"
        gs = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.max(np.abs(gs - 1.0)) <= 1e-3

    def test_verify_pair_tight_tolerance_fails(self, tmp_path, capsys):
        doc = _doc("verify-pair", kernel=VARIABLE_KERNEL, tolerances={"g0": 1e-12})
        cfg_path = _write(tmp_path, doc)
        out = tmp_path / "v.csv"
        assert main(["verify-pair", "--config", cfg_path, "--out", str(out)]) == 2
        assert "gsc_pass=false" in capsys.readouterr().out

    def test_compute_g_cross_checks_routes(self, tmp_path, capsys):
        doc = _doc("compute-g", kernel=VARIABLE_KERNEL, N=256)
        cfg_path = _write(tmp_path, doc)
        out = tmp_path / "g.csv"
        assert main(["compute-g", "--config", cfg_path, "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "route_diff=" in summary and "nan" not in summary

    def test_solve_variable_profile(self, tmp_path, capsys):
        doc = _doc("solve", kernel=VARIABLE_KERNEL, N=128)
        cfg_path = _write(tmp_path, doc)
        out = tmp_path / "u.csv"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
        assert "residual_first_kind=" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "t,u,F"

    def test_solve_exit_2_on_unmet_tolerance(self, tmp_path, capsys):
        doc = _doc(
            "solve", kernel=VARIABLE_KERNEL, N=128,
            tolerances={"residual_first_kind": 1e-12},
        )
        cfg_path = _write(tmp_path, doc)
        out = tmp_path / "u.csv"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 2

    def test_discover_classical(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, _doc("discover"))
        out = tmp_path / "d.csv"
        assert main(["discover", "--config", cfg_path, "--out", str(out)]) == 0
        assert "sc_residual_of_u=" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "t,u,associate_residual"
        # recovered kernel at the endpoint: K(1) = 1/pi
        last = [float(v) for v in lines[-1].split(",")]
        assert abs(last[1] - 1.0 / math.pi) <= 1e-10

    def test_discover_variable(self, tmp_path, capsys):
        doc = _doc("discover", kernel=VARIABLE_KERNEL, N=256)
        cfg_path = _write(tmp_path, doc)
        out = tmp_path / "d.csv"
        assert main(["discover", "--config", cfg_path, "--out", str(out)]) == 0

    def test_discover_exit_2_on_tight_tolerance(self, tmp_path, capsys):
        doc = _doc(
            "discover", kernel=VARIABLE_KERNEL, N=64,
            tolerances={"sc_residual_of_u": 1e-9},
        )
        cfg_path = _write(tmp_path, doc)
        out = tmp_path / "d.csv"
        assert main(["discover", "--config", cfg_path, "--out", str(out)]) == 2

    def test_converge_classical_hits_roundoff(self, tmp_path, capsys):
        doc = _doc("converge", N=64)
        cfg_path = _write(tmp_path, doc)
        out = tmp_path / "c.csv"
        assert main(["converge", "--config", cfg_path, "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "order=inf" in summary  # exact discrete solution: error at roundoff
        lines = out.read_text().splitlines()
        assert lines[0] == "N,h,max_err,order"
        assert len(lines) == 5
        assert all(float(line.split(",")[2]) <= 1e-12 for line in lines[1:])

    def test_converge_classical_takes_any_degree(self, tmp_path, capsys):
        # the closed-form reference of f of degree 51 reaches k! / Gamma(k +
        # alpha) at k + alpha = 51.5, past gamma's range; solve takes it too
        doc = _doc("converge", N=64, rhs={"coeffs": [1.0] * 52})
        cfg_path = _write(tmp_path, doc)
        out = tmp_path / "c.csv"
        assert main(["converge", "--config", cfg_path, "--out", str(out)]) == 0
        assert all(float(line.split(",")[2]) <= 1e-12 for line in out.read_text().splitlines()[1:])

    def test_converge_variable_profile_order(self, tmp_path, capsys):
        doc = _doc("converge", kernel=VARIABLE_KERNEL, N=128)
        cfg_path = _write(tmp_path, doc)
        out = tmp_path / "c.csv"
        assert main(["converge", "--config", cfg_path, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        errs = [float(r.split(",")[2]) for r in rows]
        assert errs[-1] < errs[0]  # finer meshes genuinely improve

    def test_converge_needs_nesting(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, _doc("converge", N=100))
        assert main(["converge", "--config", cfg_path]) == 1
        assert "divisible" in capsys.readouterr().err

    def test_stability_classical(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, _doc("stability"))
        out = tmp_path / "s.csv"
        assert main(["stability", "--config", cfg_path, "--out", str(out)]) == 0
        assert "holds=true" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,max_shift,gprime_l1,bound"
        row = [float(v) for v in lines[1].split(",")]
        assert row[1] <= row[3] * (1.0 + 1e-12)


class TestLibraryFolds:
    """discover and stability emit library reports; the CLI only formats."""

    PAIRS = {
        "classical": (
            {"kind": "classical", "alpha": 0.5, "b": 1.0},
            lambda: make_classical_abel_pair(0.5, 1.0),
        ),
        "variable": (VARIABLE_KERNEL, lambda: make_variable_exponent_pair(
            affine_exponent(0.5, 0.2, 0.5), 0.5)),
    }

    @pytest.mark.parametrize("which", ["classical", "variable"])
    def test_discover_column_is_report_ku(self, which, tmp_path, capsys):
        kernel, make = self.PAIRS[which]
        cfg_path = _write(tmp_path, _doc("discover", kernel=kernel))
        out = tmp_path / "d.csv"
        assert main(["discover", "--config", cfg_path, "--out", str(out)]) == 0
        capsys.readouterr()
        column = np.array(
            [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
        )
        pair = make()
        report = discover_associate(pair.k, pair.K, graded_mesh(128, 2.0, pair.b))
        np.testing.assert_array_equal(column, report.ku.values[1:] - 1.0)
        tail = np.max(np.abs(column[RESID_FIRST_INDEX - 1 :]))
        assert tail == report.sc_residual_of_u

    @pytest.mark.parametrize("which", ["classical", "variable"])
    def test_stability_row_is_report(self, which, tmp_path, capsys):
        kernel, make = self.PAIRS[which]
        cfg_path = _write(tmp_path, _doc("stability", kernel=kernel))
        out = tmp_path / "s.json"
        args = ["stability", "--config", cfg_path, "--out", str(out), "--format", "json"]
        assert main(args) == 0
        capsys.readouterr()
        record = json.loads(out.read_text())
        pair = make()
        report = stability_report(
            pair, RhsSpec.from_polynomial([0.0, 1.0]), TOL_DEFAULTS["delta"],
            graded_mesh(128, 2.0, pair.b),
        )
        for name in ("delta", "max_shift", "gprime_l1", "bound"):
            assert record[name] == [getattr(report, name)]
        assert record["holds"] is report.holds is True


class TestCliErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unreadable_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        assert main(["solve", "--config", str(p)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_command_mismatch(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, _doc("solve"))
        assert main(["discover", "--config", cfg_path]) == 1
        assert "does not match" in capsys.readouterr().err

    def test_config_field_error_reaches_stderr(self, tmp_path, capsys):
        doc = _doc(kernel={"kind": "classical", "alpha": 1.2, "b": 1.0})
        cfg_path = _write(tmp_path, doc)
        assert main(["verify-pair", "--config", cfg_path]) == 1
        assert "kernel.alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-pair", "solve"])
    def test_underflowing_mesh_is_a_plain_error(self, command, tmp_path, capsys):
        # t_1 = 64^-400 underflows to 0; refused before any kernel sees t_1 = 0
        cfg_path = _write(tmp_path, _doc(command, N=64, r=400.0))
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: graded mesh with N=64, r=400.0")
        assert err.count("\n") == 1 and "Warning" not in err

    def test_unknown_cli_command_is_usage_error(self, capsys):
        # exit 2 is reserved for tolerance failures; usage problems are errors
        assert main(["frobnicate", "--config", "x.json"]) == 1
        assert main(["solve"]) == 1
        capsys.readouterr()


def _child_env():
    """The environment of a child process that imports the same sonine_kit
    as this one, installed or not."""
    src = str(Path(sonine_kit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        """The installed ``sonine-kit`` script, or without one the target
        that pyproject.toml's [project.scripts] names for it, run through
        this interpreter: a renamed script or target fails here."""
        cfg_path = _write(tmp_path, _doc("verify-pair", N=64))
        out = tmp_path / "v.csv"
        argv = ["verify-pair", "--config", cfg_path, "--out", str(out)]
        script = shutil.which("sonine-kit")
        if script is not None:
            cmd = [script, *argv]
        else:
            tomllib = pytest.importorskip("tomllib")
            pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
            with open(pyproject, "rb") as fh:
                target = tomllib.load(fh)["project"]["scripts"]["sonine-kit"]
            module, func = target.split(":")
            code = f"import sys; from {module} import {func}; sys.exit({func}())"
            cmd = [sys.executable, "-c", code, *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert "sc_residual=" in proc.stdout
        assert out.exists()

    def test_module_invocation(self, tmp_path):
        cfg_path = _write(tmp_path, _doc("verify-pair", N=64))
        out = tmp_path / "v.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "sonine_kit.cli", "verify-pair",
             "--config", cfg_path, "--out", str(out)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr == ""  # no RuntimeWarning about sonine_kit.cli in sys.modules
        assert out.exists()
