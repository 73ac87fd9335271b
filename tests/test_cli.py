"""Configuration parsing, command dispatch, emission, and exit codes."""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sonine_kit
from sonine_kit import (
    DomainError,
    affine_exponent,
    check_gsc,
    discover_associate,
    graded_mesh,
    make_classical_abel_pair,
    make_variable_exponent_pair,
    parse_config,
    stability_report,
)
from sonine_kit import cli, sonine, volterra
from sonine_kit.cli import COMMANDS, TOL_DEFAULTS, main
from sonine_kit.volterra import RESID_FIRST_INDEX, RhsSpec


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


def _json_dump_text(columns: dict, extra: dict) -> str:
    """What json.dump writes for a table, non-finite numbers as null."""
    record = {
        k: [x if math.isfinite(x) else None for x in np.asarray(v).tolist()]
        for k, v in columns.items()
    }
    record.update((k, v if math.isfinite(v) else None) for k, v in extra.items())
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def _twin_columns() -> dict:
    """A table whose twin columns sort before and after each other, and
    apart; and columns of equal values that must not share text."""
    x = np.linspace(0.1, 1.0, 5) ** 3
    return {
        "u": x,
        "t": x * x,
        "F": x.copy(),  # twin of u, written first, with t and others between
        "a": x / 3.0,
        "b": x / 3.0,  # twin of a, adjacent
        "zero": np.zeros(5),
        "negzero": -np.zeros(5),  # equal to zero, not its bits
        "ints": np.arange(5),
        "floats": np.arange(5.0),  # equal to ints, not its dtype
        "c": x / 3.0,  # third of a group, after b and apart from it
        "nan": np.array([np.nan, 1.0, np.inf, -0.5, 2.0]),
        "nan_twin": np.array([np.nan, 1.0, np.inf, -0.5, 2.0]),
        "finite": np.array([0.0, 1.0, 1e300, -0.5, 2.0]),
    }


class TestParseConfig:
    def test_minimal_document_defaults(self):
        cfg = parse_config(
            '{"command": "solve", "kernel": {"kind": "classical", "alpha": 0.5, "b": 1.0}}'
        )
        assert cfg.command == "solve"
        assert cfg.N == 512
        assert cfg.r == 2.0
        assert cfg.rhs == RhsSpec.from_polynomial([0.0, 1.0])
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
        t = np.linspace(0.05, 0.5, 10)
        assert not cfg.pair.is_classical and cfg.pair.b == 0.5
        np.testing.assert_allclose(cfg.pair.k.eval(t), t ** -(0.5 + 0.2 * t), rtol=1e-14)
        assert cfg.N == 256 and cfg.r == 3.0
        assert cfg.rhs == RhsSpec.from_polynomial([1.0, 0.0, 2.0])
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

    def test_route_diff_is_not_a_tolerance(self, tmp_path):
        """route_diff is |delta|, the rule's own error on the classical part,
        which no CLI data moves past 2.2e-5: a tolerance on it cannot test
        the pair, so a config that names one is refused."""
        doc = _doc("compute-g", kernel=VARIABLE_KERNEL, tolerances={"route_diff": 1e-12})
        with pytest.raises(DomainError, match=r"tolerances\.route_diff.*unknown tolerance"):
            parse_config(json.dumps(doc))
        assert main(["compute-g", "--config", _write(tmp_path, doc)]) == 1

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

    @pytest.mark.parametrize(
        "kernel, coeffs, label",
        [
            ({"kind": "abel", "alpha": 0.5, "b": 1.0}, None, "kernel.kind"),
            ({"kind": "classical", "alpha": 0.5, "b": 0.0}, None, "kernel.b"),
            ({"kind": "classical", "alpha": 1.0, "b": 1.0}, None, "kernel.alpha"),
            ({"kind": "classical", "alpha": 0.0, "b": 1.0}, None, "kernel.alpha"),
            # 1 - alpha rounds to 1: refused by the kernel, not by a range
            ({"kind": "classical", "alpha": 1e-17, "b": 1.0}, None, "kernel.alpha"),
            ({"kind": "variable", "a0": 0.5, "a1": -0.5, "b": 1.0}, None, "kernel.a0"),
            ({"kind": "variable", "a0": 1.0, "a1": 0.0, "b": 1.0}, None, "kernel.a0"),
            (None, [], "rhs.coeffs"),
            (None, [1.0, math.nan], "rhs.coeffs"),
            (None, [math.inf], "rhs.coeffs"),
        ],
    )
    def test_refusals_name_the_field(self, kernel, coeffs, label, tmp_path, capsys):
        """A kernel the library refuses is reported against its kind's
        first field, and non-finite coefficients (which Python's json
        reads as NaN and Infinity) against rhs.coeffs, in one line."""
        doc = _doc(kernel=kernel, **({} if coeffs is None else {"rhs": {"coeffs": coeffs}}))
        with pytest.raises(DomainError, match=f"config field '{label}'"):
            parse_config(json.dumps(doc))
        assert main(["verify-pair", "--config", _write(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{label}'") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "label", ["kernel.alpha", "kernel.b", "rhs.coeffs", "tolerances.g0", "mesh.r", "mesh.N"]
    )
    def test_integer_past_the_float_range_is_refused(self, label, tmp_path, capsys):
        """A JSON integer too large for a float exits 1 with one error line
        that names its field, not an OverflowError. mesh.N is refused by
        graded_mesh, whose N stops at 2**53, before numpy sizes any array."""
        doc = _doc("solve")
        where, _, key = label.partition(".")
        doc.setdefault(where, {})[key] = [0.0, 10**400] if key == "coeffs" else 10**400
        out = str(tmp_path / "u.csv")
        assert main(["solve", "--config", _write(tmp_path, doc), "--out", out]) == 1
        err = capsys.readouterr().err
        named = "N must lie in [2, 2**53]" if label == "mesh.N" else f"config field '{label}'"
        assert err.startswith(f"error: {named}") and err.count("\n") == 1

    def test_integer_of_too_many_digits_is_not_valid_json(self, tmp_path, capsys):
        """Python's json refuses integers past 4300 digits with a ValueError
        that is not a JSONDecodeError; it is reported as invalid JSON."""
        path = tmp_path / "job.json"
        path.write_text(json.dumps(_doc("solve")).replace('"alpha": 0.5', '"alpha": ' + "1" * 5000))
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON") and err.count("\n") == 1

    def test_g0_default_is_the_library_default(self):
        g0_tol = inspect.signature(check_gsc).parameters["g0_tol"].default
        assert TOL_DEFAULTS["g0"] == g0_tol == sonine.G0_TOL_DEFAULT

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

    def test_json_writer_is_json_dump(self, tmp_path):
        """The JSON table is json.dump(record, indent=1, sort_keys=True) byte
        for byte, with non-finite numbers as null, for non-finite values, an
        empty column, an int column, an all-finite float column, a bool
        column, bool and float extras, and keys whose sorted order is not
        their insertion order."""
        out = tmp_path / "t.json"
        doc = _doc("verify-pair", output={"path": str(out), "format": "json"})
        cfg = parse_config(json.dumps(doc))
        columns = {
            "t": np.array([0.1, 1.0 / 3.0, 5e-324, -0.0, 1e300]),
            "g": np.array([np.nan, np.inf, -np.inf, 1.5, 2.0]),
            "empty": [],
            "N": [32, 64, 128, 256, 512],
            # finite floats, joined without lookups
            "u": np.linspace(-1.0, 1.0, 7) ** 3 * 1e-17,
            "flags": np.array([True, False, True]),
        }
        extra = {"z_flag": True, "a_flag": False, "m": np.float64(-np.inf), "b": np.float64(0.1)}
        cli._emit(cfg, columns, extra)
        expected = _json_dump_text(columns, extra)
        assert out.read_text() == expected
        assert '"N": [\n  32,' in expected and '"empty": []' in expected

    def test_twin_columns_json(self, tmp_path):
        """Columns equal in bits share their text in any sorted order, and
        columns of equal values but other bits or dtype do not: the table is
        still json.dump's."""
        out = tmp_path / "t.json"
        cfg = parse_config(json.dumps(_doc("solve", output={"path": str(out), "format": "json"})))
        columns, extra = _twin_columns(), {"gprime_l1": 0.0}
        cli._emit(cfg, columns, extra)
        assert out.read_text() == _json_dump_text(columns, extra)

    def test_twin_columns_csv(self, tmp_path):
        """The CSV table is the per-row formatting of every value, twins or
        not."""
        out = tmp_path / "t.csv"
        cfg = parse_config(json.dumps(_doc("solve", output={"path": str(out), "format": "csv"})))
        columns = _twin_columns()
        cli._emit(cfg, columns, {})
        rows = zip(*(np.asarray(v).tolist() for v in columns.values()))
        lines = [",".join(columns)]
        lines += [",".join("{:.17g}".format(float(x)) for x in row) for row in rows]
        assert out.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "a, b, shared",
        [
            (np.zeros(5), -np.zeros(5), False),  # equal values, other bits
            (np.arange(5), np.arange(5.0), False),  # equal values, other dtype
            (np.zeros(5, dtype=np.int64), np.zeros(5), False),  # equal bytes, other dtype
            (np.array([np.nan, 1.0, np.inf]), np.array([np.nan, 1.0, np.inf]), True),
        ],
        ids=["zero-negzero", "int-float", "int-float-zero-bytes", "nan-twins"],
    )
    def test_twins_are_equal_bits(self, tmp_path, monkeypatch, fmt, a, b, shared):
        """Two columns share one formatting exactly when their dtype, shape
        and bytes agree: equal values are not enough."""
        calls = []
        name, fn = ("repr", repr) if fmt == "json" else ("_fmt", cli._fmt)

        def counting(x):
            calls.append(x)
            return fn(x)

        monkeypatch.setattr(cli, name, counting, raising=False)
        out = tmp_path / f"t.{fmt}"
        cfg = parse_config(json.dumps(_doc("solve", output={"path": str(out), "format": fmt})))
        cli._emit(cfg, {"a": a, "b": b}, {})
        assert len(calls) == (1 if shared else 2) * len(a)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_twin_column_is_formatted_once(self, tmp_path, monkeypatch, fmt):
        """A classical solve's u and F are one array's bits: each value of
        the pair is formatted once, where distinct columns take one call per
        value each."""
        calls = []
        name, fn = ("repr", repr) if fmt == "json" else ("_fmt", cli._fmt)

        def counting(x):
            calls.append(x)
            return fn(x)

        monkeypatch.setattr(cli, name, counting, raising=False)
        out = tmp_path / f"t.{fmt}"
        cfg = parse_config(json.dumps(_doc("solve", output={"path": str(out), "format": fmt})))
        x = np.linspace(0.1, 1.0, 7)
        cli._emit(cfg, {"t": x * x, "u": x, "F": x.copy()}, {})
        assert len(calls) == 2 * len(x)
        calls.clear()
        cli._emit(cfg, {"t": x * x, "u": x, "F": -x}, {})
        assert len(calls) == 3 * len(x)

    def test_json_writer_is_json_dump_above_the_crossover(self, tmp_path):
        """Columns long enough for the shortest-repr kernel are still
        json.dump's bytes: a finite column over many decades, one holding
        -0.0, a column with NaN and infinities (which keeps the mapped
        path), and a twin pair."""
        n = cli.SHORTEST_MIN_VALUES
        x = np.linspace(-3.0, 3.0, n) ** 3 / 7.0
        zeros = x.copy()
        zeros[::3], zeros[1::3] = -0.0, 0.0
        non_finite = x.copy()
        non_finite[::5], non_finite[1::5], non_finite[2::5] = np.nan, np.inf, -np.inf
        columns = {
            "t": np.geomspace(1e-9, 1e20, n),
            "u": x,
            "F": x.copy(),
            "zeros": zeros,
            "nan": non_finite,
        }
        extra = {"gprime_l1": 0.25}
        out = tmp_path / "t.json"
        cfg = parse_config(json.dumps(_doc("solve", output={"path": str(out), "format": "json"})))
        cli._emit(cfg, columns, extra)
        assert out.read_text() == _json_dump_text(columns, extra)

    def test_twin_column_is_formatted_once_above_the_crossover(self, tmp_path, monkeypatch):
        """From the crossover on, a classical solve's u and F take one
        kernel call between them, where distinct columns take one each, and
        no value goes through repr; one value fewer takes repr."""
        calls, reprs = [], []
        kernel = cli._shortest_words

        def counting_kernel(a):
            calls.append(a.size)
            return kernel(a)

        def counting_repr(x):
            reprs.append(x)
            return repr(x)

        monkeypatch.setattr(cli, "_shortest_words", counting_kernel)
        monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
        out = tmp_path / "t.json"
        cfg = parse_config(json.dumps(_doc("solve", output={"path": str(out), "format": "json"})))
        x = np.linspace(0.1, 1.0, cli.SHORTEST_MIN_VALUES)
        cli._emit(cfg, {"t": x * x, "u": x, "F": x.copy()}, {})
        assert calls == [x.size] * 2
        calls.clear()
        cli._emit(cfg, {"t": x * x, "u": x, "F": -x}, {})
        assert calls == [x.size] * 3
        assert reprs == []
        calls.clear()
        cli._emit(cfg, {"t": x[1:]}, {})
        assert calls == [] and len(reprs) == x.size - 1

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
        # the real table is json.dump's text of its own record, byte for byte
        assert json.dumps(record, indent=1, sort_keys=True) + "\n" == json_text

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

    @pytest.mark.parametrize("b", [1.0, 100.0, 1e4])
    def test_solve_residual_is_relative_to_f(self, tmp_path, capsys, b):
        """The profile 0.5 + (0.2/b) t with f = t on (0, b] solves alike at
        every scale: relative to max |f| = b the residual reads about 1e-3,
        where the absolute one read 9.7e-4, 0.108 and 12.6 and failed the
        last two."""
        kernel = {"kind": "variable", "a0": 0.5, "a1": 0.2 / b, "b": b}
        cfg_path = _write(tmp_path, _doc("solve", kernel=kernel, N=512))
        out = tmp_path / "u.csv"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
        summary = dict(p.split("=") for p in capsys.readouterr().out.split()[:2])
        assert 9e-4 <= float(summary["residual_first_kind"]) <= 1.4e-3

    def test_relative_residual_still_fails_a_tight_tolerance(self, tmp_path, capsys):
        kernel = {"kind": "variable", "a0": 0.5, "a1": 0.002, "b": 100.0}
        doc = _doc("solve", kernel=kernel, N=512, tolerances={"residual_first_kind": 1e-4})
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

    def test_converge_solves_its_coarsest_level(self, tmp_path, capsys):
        """alpha(t) = 0.1 + 0.6t on (0, 1] at N = 64 solves N = 8 first,
        where g(0+) reads 3.1e-4 (s^(-eps) times a line as the model of g'
        read 0.18 there, and the gate refused the run)."""
        kernel = {"kind": "variable", "a0": 0.1, "a1": 0.6, "b": 1.0}
        cfg_path = _write(tmp_path, _doc("converge", kernel=kernel, N=64))
        out = tmp_path / "c.csv"
        assert main(["converge", "--config", cfg_path, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [8, 16, 32, 64]

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stability_does_not_read_f(self, tmp_path, capsys, fmt):
        """The shift of u under f -> f + delta does not depend on f, so
        stability writes the same bytes for any rhs.coeffs."""
        tables, summaries = [], []
        for i, coeffs in enumerate(([0.0, 1.0], [1.0, -2.0, 3.0])):
            doc = _doc("stability", kernel=VARIABLE_KERNEL, rhs={"coeffs": coeffs})
            out = tmp_path / f"s{i}.{fmt}"
            args = ["stability", "--config", _write(tmp_path, doc), "--out", str(out)]
            assert main([*args, "--format", fmt]) == 0
            tables.append(out.read_bytes())
            summaries.append(capsys.readouterr().out.rpartition(" -> ")[0])
        assert tables[0] == tables[1]
        assert summaries[0] == summaries[1]


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
        report = stability_report(pair, TOL_DEFAULTS["delta"], graded_mesh(128, 2.0, pair.b))
        for name in ("delta", "max_shift", "gprime_l1", "bound"):
            assert record[name] == [getattr(report, name)]
        assert record["holds"] is report.holds is True


class TestClassicalTwins:
    """t^(-alpha) is one pair whether given as the classical kind or as
    the variable kind with a constant profile: both write the same JSON
    table and exit status, route_diff aside, which reads |delta| only
    where k carries t S'(t)."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    @pytest.mark.parametrize("N", [64, 512])
    @pytest.mark.parametrize("coeffs", [[0.0, 1.0], [1.0, 1.0]], ids=["t", "1+t"])
    def test_constant_profile_writes_the_classical_table(
        self, command, alpha, N, coeffs, tmp_path, capsys
    ):
        results = []
        for kernel in (
            {"kind": "classical", "alpha": alpha, "b": 0.5},
            {"kind": "variable", "a0": alpha, "a1": 0.0, "b": 0.5},
        ):
            out = tmp_path / f"{kernel['kind']}.json"
            doc = _doc(
                command, kernel=kernel, N=N, rhs={"coeffs": coeffs},
                output={"path": str(out), "format": "json"},
            )
            status = main([command, "--config", _write(tmp_path, doc)])
            assert status in (0, 2)
            record = json.loads(out.read_text())
            record.pop("route_diff", None)
            results.append((status, record))
        capsys.readouterr()
        assert results[0] == results[1]


class TestCliErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unreadable_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        assert main(["solve", "--config", str(p)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_utf8_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe")
        assert main(["solve", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid UTF-8") and err.count("\n") == 1

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

    def test_unallocatable_mesh_is_a_plain_error(self, monkeypatch, tmp_path, capsys):
        # N = 1e13 nodes need 72.8 TiB; graded_mesh is replaced by one that
        # raises as numpy's allocation does, so that nothing is allocated
        def unallocatable(N, r, b):
            raise MemoryError(f"Unable to allocate 72.8 TiB for an array with shape ({N + 1},)")

        monkeypatch.setattr(cli, "graded_mesh", unallocatable)
        cfg_path = _write(tmp_path, _doc("solve", N=10**13))
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, kind",
        [("verify-pair", "classical"), ("stability", "classical"),
         ("solve", "variable"), ("discover", "variable"), ("stability", "variable")],
    )
    def test_overflowing_endpoint_is_a_plain_error(self, command, kind, tmp_path, capsys):
        # b^2 overflows past MAX_ENDPOINT, which made the gate's L1 weights
        # inf; refused with the mesh, before any kernel is evaluated
        kernel = (
            {"kind": "classical", "alpha": 0.5, "b": 1e200}
            if kind == "classical"
            else {"kind": "variable", "a0": 0.5, "a1": 1e-201, "b": 1e200}
        )
        cfg_path = _write(tmp_path, _doc(command, kernel=kernel, N=64))
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: endpoint b must lie in (0, 1.3407807929942596e+154]")
        assert err.count("\n") == 1 and "Warning" not in err

    def test_overflowing_gronwall_budget_is_a_plain_error(self, tmp_path, capsys):
        # ||g'||_L1 = 803 puts exp(||g'||_L1) past the largest float
        kernel = {"kind": "variable", "a0": 0.5, "a1": -0.25e-14, "b": 1e14}
        cfg_path = _write(tmp_path, _doc("stability", kernel=kernel, N=8, r=2.0))
        assert main(["stability", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the Gronwall budget") and "||g'||_L1 = 802.9" in err
        assert err.count("\n") == 1

    def test_steep_profile_on_a_short_interval_has_no_overflow(self, tmp_path, capsys):
        # g' at the first nodes is about 1e101: their product overflowed
        b = 1e-115
        kernel = {"kind": "variable", "a0": 0.0625, "a1": 0.875 / b, "b": b}
        cfg_path = _write(tmp_path, _doc("verify-pair", kernel=kernel, N=4, r=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = ["--out", str(tmp_path / "x.csv")]
            assert main(["verify-pair", "--config", cfg_path, *out]) == 2
        assert "gsc_pass=false" in capsys.readouterr().out

    def test_overflowing_polynomial_data_is_a_plain_error(self, tmp_path, capsys):
        # t^3 overflows at b = 1e103; a finite difference of it read inf - inf
        doc = _doc(
            "converge",
            kernel={"kind": "classical", "alpha": 0.5, "b": 1e103},
            N=64,
            rhs={"coeffs": [0.0, 0.0, 0.0, 1.0]},
        )
        cfg_path = _write(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["converge", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: polynomial f overflows on [0, 1e+103]")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "converge"])
    @pytest.mark.parametrize("kind", ["classical", "variable"])
    def test_overflowing_transformed_data_is_a_plain_error(self, command, kind, tmp_path, capsys):
        # f is finite on [0, b], but f(0) K(t_1) overflows in F
        kernel = (
            {"kind": "classical", "alpha": 0.4, "b": 0.5}
            if kind == "classical"
            else {"kind": "variable", "a0": 0.4, "a1": 0.1, "b": 0.5}
        )
        doc = _doc(command, kernel=kernel, N=64, rhs={"coeffs": [-1e308, 1e308]})
        cfg_path = _write(tmp_path, doc)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the transformed right side F")
        assert captured.err.count("\n") == 1

    def test_long_interval_extrapolates_without_overflow(self, tmp_path, capsys):
        # the residual continues u's bounded factor to t = 0 along the line
        # through its first two nodes, whose slope times t_1 overflowed
        doc = _doc(
            "solve",
            kernel={"kind": "classical", "alpha": 0.5, "b": 1e103},
            N=2,
            r=1.0,
            rhs={"coeffs": [1.0, 0.0, 1.0]},
        )
        cfg_path = _write(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = ["--out", str(tmp_path / "x.json"), "--format", "json"]
            assert main(["solve", "--config", cfg_path, *out]) == 2
        capsys.readouterr()
        record = json.loads((tmp_path / "x.json").read_text())
        assert all(map(math.isfinite, record["u"]))
        assert math.isfinite(record["residual_first_kind"])

    def test_long_interval_below_the_limit_passes(self, tmp_path, capsys):
        kernel = {"kind": "classical", "alpha": 0.5, "b": 1e150}
        cfg_path = _write(tmp_path, _doc("verify-pair", kernel=kernel, N=64))
        assert main(["verify-pair", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 0
        out = capsys.readouterr().out
        assert "gprime_l1=0 " in out and "gsc_pass=true" in out

    def test_unknown_cli_command_is_usage_error(self, capsys):
        # exit 2 is reserved for tolerance failures; usage problems are errors
        assert main(["frobnicate", "--config", "x.json"]) == 1
        assert main(["solve"]) == 1
        capsys.readouterr()

    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        """Every main() call parses with the one parser of the process, and
        a usage error or --help does not spoil it for the next call."""
        cfg_path = _write(tmp_path, _doc("verify-pair", N=64))
        run = ["verify-pair", "--config", cfg_path, "--out", str(tmp_path / "v.csv")]
        assert main(run) == 0
        built = []

        class CountingParser(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(argparse, "ArgumentParser", CountingParser)
        assert main(["solve"]) == 1
        assert main(["--help"]) == 0
        assert "--config" in capsys.readouterr().out
        assert main(["verify-pair", "--config", cfg_path, "--format", "xml"]) == 1
        assert main(run) == 0
        assert built == []


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


def _documented_nulls(job: dict, record: dict) -> set:
    """(field, row) of each null that README documents for this job: row
    None for a scalar field."""
    allowed = set()
    if job["kernel"]["kind"] == "classical":
        allowed.add(("route_diff", None))  # one g route, no second to compare
    if job["command"] == "converge":
        floor = [e <= volterra.ORDER_FLOOR for e in record["max_err"]]
        # no predecessor at the first level; an error at rounding leaves no order
        allowed |= {("order", i) for i in range(len(floor)) if i == 0 or floor[i] or floor[i - 1]}
        if sum(not f for f in floor) < 2:
            allowed.add(("fitted_order", None))
    return allowed


@pytest.mark.parametrize("command", COMMANDS)
@settings(deadline=None, max_examples=100, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["classical", "variable"]),
    a0=st.floats(min_value=0.02, max_value=0.98),
    slope=st.floats(min_value=-1.0, max_value=1.0),
    log_b=st.floats(min_value=-120.0, max_value=120.0),
    r=st.floats(min_value=1.0, max_value=4.0),
    N=st.one_of(st.integers(min_value=2, max_value=512), st.integers(2, 64).map(lambda k: 8 * k)),
    coeffs=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=3),
)
def test_no_silent_nan(command, kind, a0, slope, log_b, r, N, coeffs):
    """Over CLI configs, a command either exits 0, or 2 on a tolerance
    failure, with its one-line summary on stdout and a table whose values
    are finite except where README documents a null; or exits 1 with one
    line on stderr. A numpy warning, which the suite turns into an error,
    or any other exception fails the property. The profile's slope a1 is
    drawn as a multiple of 1 / b, so most profiles stay inside (0, 1)."""
    b = 10.0**log_b
    kernel = {"kind": kind, "b": b}
    kernel.update({"alpha": a0} if kind == "classical" else {"a0": a0, "a1": slope / b})
    job = _doc(command, kernel=kernel, N=N, r=r, rhs={"coeffs": coeffs})
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "job.json", Path(tmp) / "out.json"
        cfg.write_text(json.dumps(job))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main([command, "--config", str(cfg), "--out", str(out), "--format", "json"])
        if rc == 1:
            assert stdout.getvalue() == ""
            assert stderr.getvalue().startswith("error: ")
            assert stderr.getvalue().count("\n") == 1
            return
        assert rc in (0, 2)
        assert stderr.getvalue() == "" and stdout.getvalue().count("\n") == 1
        record = json.loads(out.read_text())
    nulls = {
        (key, i if isinstance(value, list) else None)
        for key, value in record.items()
        for i, v in (enumerate(value) if isinstance(value, list) else [(None, value)])
        if v is None
    }
    assert nulls <= _documented_nulls(job, record), (job, nulls)
