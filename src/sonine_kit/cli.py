"""Command-line front end: configuration, dispatch, and data emission.

One job per invocation: ``sonine-kit <command> --config <path> [--out
<path>] [--format csv|json]``. The config is a single JSON document; all
outputs are deterministic data tables (CSV with a header row, or a flat
JSON object), with a one-line summary on stdout and errors on stderr.
Exit status: 0 pass, 1 error, 2 tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .errors import DomainError, GscConditionError, IllConditionedSystemError
from .kernels import (
    SoninePair,
    affine_exponent,
    make_classical_abel_pair,
    make_variable_exponent_pair,
)
from .mesh import graded_mesh
from .sonine import check_gsc, compute_g
from .volterra import (
    RhsSpec,
    convergence_study,
    discover_associate,
    solve_first_kind,
    stability_report,
)

__all__ = ["JobConfig", "parse_config", "run", "main"]

COMMANDS = ("verify-pair", "compute-g", "solve", "discover", "converge", "stability")

#: tolerance defaults; any key may be overridden in the config's "tolerances" map
TOL_DEFAULTS = {
    "g0": 1e-3,
    "route_diff": 5e-5,
    "residual_first_kind": 5e-3,
    "sc_residual_of_u": 5e-3,
    "min_order": 0.8,
    "delta": 1e-6,
}

_FLOAT_FMT = "{:.17g}"

#: what a command returns: its table's columns, the JSON-only fields, the
#: stdout summary pairs and the pass flag
_Result = tuple[dict, dict, dict, bool]


@dataclass(frozen=True, slots=True)
class KernelConfig:
    kind: str  # "classical" or "variable"
    alpha: float | None
    a0: float | None
    a1: float | None
    b: float


@dataclass(frozen=True, slots=True)
class JobConfig:
    """One validated job: what to run, on what, and where results go."""

    command: str
    kernel: KernelConfig
    N: int
    r: float
    rhs_coeffs: tuple
    out_path: str | None
    out_format: str
    tolerances: dict


def _cfg_error(field: str, msg: str) -> DomainError:
    return DomainError(f"config field {field!r}: {msg}")


def _take(obj: dict, known: tuple, where: str) -> None:
    for key in obj:
        if key not in known:
            raise _cfg_error(f"{where}{key}", "unknown field")


def _as_real(obj: dict, key: str, where: str, default=None):
    if key not in obj:
        if default is not None:
            return default
        raise _cfg_error(where + key, "missing required field")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(float(v)):
        raise _cfg_error(where + key, f"must be a finite number, got {v!r}")
    return float(v)


def _parse_kernel(doc: dict) -> KernelConfig:
    if "kernel" not in doc or not isinstance(doc["kernel"], dict):
        raise _cfg_error("kernel", "missing required object")
    kd = doc["kernel"]
    _take(kd, ("kind", "alpha", "a0", "a1", "b"), "kernel.")
    kind = kd.get("kind")
    if kind not in ("classical", "variable"):
        raise _cfg_error("kernel.kind", f"must be 'classical' or 'variable', got {kind!r}")
    b = _as_real(kd, "b", "kernel.")
    if b <= 0.0:
        raise _cfg_error("kernel.b", f"must be positive, got {b!r}")
    if kind == "classical":
        alpha = _as_real(kd, "alpha", "kernel.")
        if not 0.0 < alpha < 1.0:
            raise _cfg_error("kernel.alpha", f"must lie in (0, 1), got {alpha!r}")
        return KernelConfig(kind=kind, alpha=alpha, a0=None, a1=None, b=b)
    a0 = _as_real(kd, "a0", "kernel.")
    a1 = _as_real(kd, "a1", "kernel.")
    lo, hi = min(a0, a0 + a1 * b), max(a0, a0 + a1 * b)
    if not 0.0 < lo <= hi < 1.0:
        raise _cfg_error(
            "kernel.a0", f"affine profile leaves (0, 1) on [0, {b!r}]: range [{lo!r}, {hi!r}]"
        )
    return KernelConfig(kind=kind, alpha=None, a0=a0, a1=a1, b=b)


def parse_config(text: str) -> JobConfig:
    """Parse and validate a JSON job document into a JobConfig.

    Defaults: mesh N=512, r=2, rhs f(t)=t, format csv. Violations are
    reported with the offending field's dotted name.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError("config must be a JSON object at top level")
    _take(doc, ("command", "kernel", "mesh", "rhs", "output", "tolerances"), "")

    command = doc.get("command")
    if command not in COMMANDS:
        raise _cfg_error("command", f"must be one of {', '.join(COMMANDS)}, got {command!r}")

    kernel = _parse_kernel(doc)

    mesh_doc = doc.get("mesh", {})
    if not isinstance(mesh_doc, dict):
        raise _cfg_error("mesh", "must be an object with N and r")
    _take(mesh_doc, ("N", "r"), "mesh.")
    n_raw = mesh_doc.get("N", 512)
    if isinstance(n_raw, bool) or not isinstance(n_raw, int) or n_raw < 2:
        raise _cfg_error("mesh.N", f"must be an integer >= 2, got {n_raw!r}")
    r = _as_real(mesh_doc, "r", "mesh.", default=2.0)
    if r < 1.0:
        raise _cfg_error("mesh.r", f"must be >= 1, got {r!r}")

    rhs_doc = doc.get("rhs", {})
    if not isinstance(rhs_doc, dict):
        raise _cfg_error("rhs", "must be an object with coeffs")
    _take(rhs_doc, ("coeffs",), "rhs.")
    coeffs = rhs_doc.get("coeffs", [0.0, 1.0])
    if (
        not isinstance(coeffs, list)
        or len(coeffs) == 0
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in coeffs)
        or any(not math.isfinite(float(v)) for v in coeffs)
    ):
        raise _cfg_error("rhs.coeffs", f"must be a nonempty list of finite numbers, got {coeffs!r}")

    out_doc = doc.get("output", {})
    if not isinstance(out_doc, dict):
        raise _cfg_error("output", "must be an object with path and format")
    _take(out_doc, ("path", "format"), "output.")
    out_path = out_doc.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise _cfg_error("output.path", f"must be a string, got {out_path!r}")
    fmt = out_doc.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise _cfg_error("output.format", f"must be 'csv' or 'json', got {fmt!r}")

    tol_doc = doc.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        raise _cfg_error("tolerances", "must be an object of named numbers")
    tolerances = dict(TOL_DEFAULTS)
    for key, v in tol_doc.items():
        if key not in TOL_DEFAULTS:
            raise _cfg_error(f"tolerances.{key}", "unknown tolerance name")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(float(v)):
            raise _cfg_error(f"tolerances.{key}", f"must be a finite number, got {v!r}")
        tolerances[key] = float(v)

    return JobConfig(
        command=command,
        kernel=kernel,
        N=n_raw,
        r=r,
        rhs_coeffs=tuple(float(v) for v in coeffs),
        out_path=out_path,
        out_format=fmt,
        tolerances=tolerances,
    )


def _build_pair(kc: KernelConfig) -> SoninePair:
    if kc.kind == "classical":
        return make_classical_abel_pair(kc.alpha, kc.b)
    return make_variable_exponent_pair(affine_exponent(kc.a0, kc.a1, kc.b), kc.b)


def _fmt(x) -> str:
    return _FLOAT_FMT.format(float(x))


#: JSON for the reprs of Python numbers that JSON spells differently
_JSON_WORDS = {"nan": "null", "inf": "null", "-inf": "null", "True": "true", "False": "false"}


def _finite_numbers(a: np.ndarray) -> bool:
    """Whether an array holds only finite ints and floats (not bools,
    which math.isfinite passes)."""
    return a.dtype.kind in "iu" or (a.dtype.kind == "f" and bool(np.isfinite(a).all()))


def _column_text(a: np.ndarray, fmt: str):
    """A column's words for CSV, or its whole JSON list text as
    ``json.dump(..., indent=1)`` indents it inside an object. A column of
    finite ints and floats is joined from its values' reprs, which are
    their JSON; any other maps each repr to its JSON spelling."""
    values = a.tolist()
    if fmt == "csv":
        return list(map(_fmt, values))
    words = map(repr, values)
    if not _finite_numbers(a):
        words = [_JSON_WORDS.get(s, s) for s in words]
    return "[\n  " + ",\n  ".join(words) + "\n ]" if values else "[]"


def _json_pieces(texts: dict):
    """The text of ``json.dump(record, fh, indent=1, sort_keys=True)``, in
    pieces, for a record whose values' JSON texts are ``texts``."""
    sep = "{\n "
    for key in sorted(texts):
        yield f"{sep}{json.dumps(key)}: "
        yield texts[key]
        sep = ",\n "
    yield "\n}\n" if texts else "{}\n"


def _emit(cfg: JobConfig, columns: dict, extra: dict) -> str:
    """Write one job's table and return the path written.

    ``columns`` maps each column name, in output order, to an array or
    list; each is converted to Python numbers, so integer columns stay
    integers. CSV is a header row and one row of 17-digit values per
    entry. JSON is one object holding the columns as lists and
    ``extra``'s scalar fields, with sorted keys, indented as
    ``json.dump(..., indent=1)`` indents, and non-finite numbers written
    as null. Columns are keyed by their bits (dtype, shape and bytes;
    equal values are not enough, since 0.0 and -0.0, or 1 and 1.0, are
    written differently): each distinct column's text is formatted once
    and written whole for every column that shares it, such as a
    classical solve's u and F.
    """
    path = cfg.out_path or f"{cfg.command}.{cfg.out_format}"
    arrays = {name: np.asarray(v) for name, v in columns.items()}
    bits = {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()}
    texts = {}
    for name, a in arrays.items():
        if bits[name] not in texts:
            texts[bits[name]] = _column_text(a, cfg.out_format)
    with open(path, "w", newline="") as fh:
        if cfg.out_format == "csv":
            lines = [",".join(arrays)]
            lines += map(",".join, zip(*(texts[bits[name]] for name in arrays)))
            fh.write("\n".join(lines) + "\n")
        else:
            record = {name: texts[bits[name]] for name in arrays}
            for key, v in extra.items():
                word = repr(np.asarray(v).tolist())
                record[key] = _JSON_WORDS.get(word, word)
            fh.writelines(_json_pieces(record))
    return path


def _run_verify_pair(cfg: JobConfig, pair: SoninePair) -> _Result:
    mesh = graded_mesh(cfg.N, cfg.r, cfg.kernel.b)
    report = check_gsc(pair, mesh, g0_tol=cfg.tolerances["g0"])
    columns = {"t": mesh.nodes[1:], "g": report.g.values[1:]}
    extra = {
        "g0": report.g0,
        "sc_residual": report.sc_residual,
        "g0_defect": report.g0_defect,
        "eps_C": report.eps_fit.C,
        "eps": report.eps_fit.eps,
        "eps_passed": report.eps_fit.passed,
        "eps_r_squared": report.eps_fit.r_squared,
        "gprime_l1": report.gprime_l1,
        "route_diff": report.route_diff,
        "gsc_pass": report.gsc_pass,
    }
    summary = {k: extra[k] for k in ("sc_residual", "g0_defect", "gprime_l1", "gsc_pass")}
    return columns, extra, summary, report.gsc_pass


def _run_compute_g(cfg: JobConfig, pair: SoninePair) -> _Result:
    mesh = graded_mesh(cfg.N, cfg.r, cfg.kernel.b)
    g_fn, route_diff = compute_g(pair, mesh)
    g = g_fn.values[1:]
    max_defect = float(np.max(np.abs(g - 1.0)))
    summary = {"max_defect": max_defect, "route_diff": route_diff}
    ok = math.isnan(route_diff) or route_diff <= cfg.tolerances["route_diff"]
    return {"t": mesh.nodes[1:], "g": g}, summary, summary, ok


def _run_solve(cfg: JobConfig, pair: SoninePair) -> _Result:
    mesh = graded_mesh(cfg.N, cfg.r, cfg.kernel.b)
    rhs = RhsSpec.from_polynomial(cfg.rhs_coeffs)
    report = solve_first_kind(pair, rhs, mesh)
    columns = {"t": mesh.nodes[1:], "u": report.u.values[1:], "F": report.F.values[1:]}
    summary = {
        "residual_first_kind": report.residual_first_kind,
        "residual_second_kind": report.residual_second_kind,
    }
    extra = {**summary, "gprime_l1": report.gprime_l1}
    ok = report.residual_first_kind <= cfg.tolerances["residual_first_kind"]
    return columns, extra, summary, ok


def _run_discover(cfg: JobConfig, pair: SoninePair) -> _Result:
    mesh = graded_mesh(cfg.N, cfg.r, cfg.kernel.b)
    report = discover_associate(pair.k, pair.K, mesh)
    columns = {
        "t": mesh.nodes[1:],
        "u": report.u.values[1:],
        "associate_residual": report.ku.values[1:] - 1.0,
    }
    summary = {"sc_residual_of_u": report.sc_residual_of_u}
    extra = {
        **summary,
        "residual_second_kind": report.residual_second_kind,
        "gprime_l1": report.gprime_l1,
    }
    ok = report.sc_residual_of_u <= cfg.tolerances["sc_residual_of_u"]
    return columns, extra, summary, ok


def _run_converge(cfg: JobConfig, pair: SoninePair) -> _Result:
    rhs = RhsSpec.from_polynomial(cfg.rhs_coeffs)
    report = convergence_study(pair, rhs, cfg.N, cfg.r)
    b = cfg.kernel.b
    columns = {
        "N": report.N,
        "h": [b / n for n in report.N],
        "max_err": report.max_err,
        "order": report.order,
    }
    summary = {"order": report.fitted_order, "finest_err": report.max_err[-1]}
    ok = report.fitted_order >= cfg.tolerances["min_order"]
    return columns, {"fitted_order": report.fitted_order}, summary, ok


def _run_stability(cfg: JobConfig, pair: SoninePair) -> _Result:
    mesh = graded_mesh(cfg.N, cfg.r, cfg.kernel.b)
    report = stability_report(pair, cfg.tolerances["delta"], mesh)
    columns = {
        name: [getattr(report, name)] for name in ("delta", "max_shift", "gprime_l1", "bound")
    }
    summary = {"max_shift": report.max_shift, "bound": report.bound, "holds": report.holds}
    return columns, {"holds": report.holds}, summary, report.holds


_DISPATCH = {
    "verify-pair": _run_verify_pair,
    "compute-g": _run_compute_g,
    "solve": _run_solve,
    "discover": _run_discover,
    "converge": _run_converge,
    "stability": _run_stability,
}


def _show(v) -> str:
    return str(v).lower() if isinstance(v, bool) else _fmt(v)


def run(cfg: JobConfig) -> int:
    """Execute one validated job; returns the process exit status.

    The pair is built once from the config's kernel and handed to the
    command, which computes its table, JSON-only fields, summary pairs and
    pass flag without I/O; this writes the table with :func:`_emit`,
    prints the summary as ``name=value`` pairs followed by ``-> path``,
    and returns 0 on pass and 2 on a tolerance failure.
    """
    columns, extra, summary, ok = _DISPATCH[cfg.command](cfg, _build_pair(cfg.kernel))
    path = _emit(cfg, columns, extra)
    print(" ".join(f"{k}={_show(v)}" for k, v in summary.items()) + f" -> {path}")
    return 0 if ok else 2


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the
    process: building it costs five times what parsing does."""
    parser = argparse.ArgumentParser(
        prog="sonine-kit",
        description="Generalized Sonine condition analysis and first-kind "
        "Volterra solves on graded meshes.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON job document")
    parser.add_argument("--out", help="output file path (overrides config)")
    parser.add_argument(
        "--format", choices=("csv", "json"), help="output format (overrides config)"
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, but this tool reserves 2 for
        # tolerance failures: usage problems are plain errors
        return 0 if exc.code == 0 else 1
    try:
        with open(args.config, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise DomainError(f"config is not valid UTF-8: {exc}") from exc
        cfg = parse_config(text)
        if cfg.command != args.command:
            raise DomainError(
                f"config field 'command': {cfg.command!r} does not match the "
                f"command-line command {args.command!r}"
            )
        if args.out is not None:
            cfg = replace(cfg, out_path=args.out)
        if args.format is not None:
            cfg = replace(cfg, out_format=args.format)
        return run(cfg)
    except (
        DomainError,
        GscConditionError,
        IllConditionedSystemError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
