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
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, GscConditionError, IllConditionedSystemError
from .kernels import (
    KernelSpec,
    SoninePair,
    affine_exponent,
    classical_abel_kernel,
    leading_term_pair,
    variable_exponent_kernel,
)
from .mesh import graded_mesh
from .sonine import G0_TOL_DEFAULT, check_gsc, compute_g
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
    "g0": G0_TOL_DEFAULT,
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
class JobConfig:
    """One validated job: what to run, on what, and where results go;
    ``kernel`` holds the kernel fields that built ``pair``."""

    command: str
    kernel: SimpleNamespace
    pair: SoninePair
    N: int
    r: float
    rhs: RhsSpec
    out_path: str | None
    out_format: str
    tolerances: dict


def _variable_kernel(a0: float, a1: float, b: float) -> KernelSpec:
    return variable_exponent_kernel(affine_exponent(a0, a1, b), b)


#: the kernel kinds: each kind's own fields and the library call that
#: builds its kernel k from them and b, which refuses what it cannot
#: build; every kind's pair is :func:`leading_term_pair` of its k
_KINDS = {
    "classical": (("alpha",), classical_abel_kernel),
    "variable": (("a0", "a1"), _variable_kernel),
}


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
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise _cfg_error(where + key, f"must be a finite number, got {v!r}")
    return float(v)


def _parse_kernel(doc: dict) -> tuple[SimpleNamespace, SoninePair]:
    """The kernel's fields and the pair they build (:func:`parse_config`)."""
    if "kernel" not in doc or not isinstance(doc["kernel"], dict):
        raise _cfg_error("kernel", "missing required object")
    kd = doc["kernel"]
    _take(kd, ("kind", "b", *(f for fields, _ in _KINDS.values() for f in fields)), "kernel.")
    kind = kd.get("kind")
    if kind not in _KINDS:
        raise _cfg_error("kernel.kind", f"must be {' or '.join(map(repr, _KINDS))}, got {kind!r}")
    b = _as_real(kd, "b", "kernel.")
    if b <= 0.0:
        raise _cfg_error("kernel.b", f"must be positive, got {b!r}")
    fields, build = _KINDS[kind]
    values = {name: _as_real(kd, name, "kernel.") for name in fields}
    try:
        pair = leading_term_pair(build(*values.values(), b))
    except DomainError as exc:
        raise _cfg_error(f"kernel.{fields[0]}", str(exc)) from exc
    return SimpleNamespace(kind=kind, b=b, **values), pair


def parse_config(text: str) -> JobConfig:
    """Parse and validate a JSON job document into a JobConfig.

    Defaults: mesh N=512, r=2, rhs f(t)=t, format csv. The pair and the
    data are built here, once. Violations are reported with the offending
    field's dotted name, and a kernel the library refuses with its kind's
    first field (``kernel.alpha``, ``kernel.a0``).
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise DomainError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError("config must be a JSON object at top level")
    _take(doc, ("command", "kernel", "mesh", "rhs", "output", "tolerances"), "")

    command = doc.get("command")
    if command not in COMMANDS:
        raise _cfg_error("command", f"must be one of {', '.join(COMMANDS)}, got {command!r}")

    kernel, pair = _parse_kernel(doc)

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
    if not isinstance(coeffs, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in coeffs
    ):
        raise _cfg_error("rhs.coeffs", f"must be a list of numbers, got {coeffs!r}")
    try:
        rhs = RhsSpec.from_polynomial(coeffs)
    except DomainError as exc:
        raise _cfg_error("rhs.coeffs", str(exc)) from exc

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
        tolerances[key] = _as_real(tol_doc, key, "tolerances.")

    return JobConfig(
        command=command,
        kernel=kernel,
        pair=pair,
        N=n_raw,
        r=r,
        rhs=rhs,
        out_path=out_path,
        out_format=fmt,
        tolerances=tolerances,
    )


def _fmt(x) -> str:
    return _FLOAT_FMT.format(float(x))


#: JSON for the reprs of Python numbers that JSON spells differently
_JSON_WORDS = {"nan": "null", "inf": "null", "-inf": "null", "True": "true", "False": "false"}


def _finite_numbers(a: np.ndarray) -> bool:
    """Whether an array holds only finite ints and floats (not bools,
    which math.isfinite passes)."""
    return a.dtype.kind in "iu" or (a.dtype.kind == "f" and bool(np.isfinite(a).all()))


#: finite float64 columns of at least this many values take
#: :func:`_shortest_words`, shorter ones ``repr``: the kernel costs about
#: 0.2 ms a call and 0.3 us a value, repr 0.6 us a value. Milliseconds
#: per column, kernel / repr, best of 15 interleaved, for verify-pair's t
#: and g on the paper's pair and a classical solve's u (r = 2, b = 0.5),
#: 2-vCPU x86-64 host, numpy 2.4:
#:
#: =====  ===========  ===========  ===========
#: N      t            g            u
#: =====  ===========  ===========  ===========
#: 256    0.31 / 0.14  0.27 / 0.15  0.28 / 0.15
#: 512    0.41 / 0.29  0.35 / 0.29  0.37 / 0.30
#: 768    0.47 / 0.45  0.42 / 0.44  0.43 / 0.45
#: 1024   0.54 / 0.60  0.50 / 0.57  0.50 / 0.59
#: 2048   0.93 / 1.68  0.81 / 1.18  0.83 / 1.22
#: 4096   1.41 / 2.53  1.35 / 2.31  1.35 / 2.43
#: =====  ===========  ===========  ===========
#:
#: A second run also tied at 768 and took 12-14% less time at 1024.
SHORTEST_MIN_VALUES = 1024

#: :func:`_shortest_words` formats at most this many values a call, which
#: bounds its temporaries (about 300 bytes a value) on long columns
SHORTEST_BLOCK = 4096


def _column_text(a: np.ndarray, fmt: str):
    """A column's words for CSV, or its whole JSON list text as
    ``json.dump(..., indent=1)`` indents it inside an object. A column of
    finite ints and floats is joined from its values' reprs, which are
    their JSON; any other maps each repr to its JSON spelling. A long
    finite float64 column takes the same bytes from
    :func:`_shortest_words`."""
    if fmt == "csv":
        return list(map(_fmt, a.tolist()))
    finite = _finite_numbers(a)
    if finite and a.dtype == np.float64 and a.ndim == 1 and a.size >= SHORTEST_MIN_VALUES:
        words = []
        for i in range(0, a.size, SHORTEST_BLOCK):
            words += _shortest_words(a[i : i + SHORTEST_BLOCK])
        return "[\n  " + b",\n  ".join(words).decode("ascii") + "\n ]"
    values = a.tolist()
    words = map(repr, values)
    if not finite:
        words = [_JSON_WORDS.get(s, s) for s in words]
    return "[\n  " + ",\n  ".join(words) + "\n ]" if values else "[]"


# Shortest round-trip digits of whole float64 arrays: Schubfach (R.
# Giulietti, "The Schubfach way to render doubles", 2020), in numpy's
# uint64 arithmetic. Its constants are explicit np.uint64 and np.int64
# scalars: numpy before NEP 50 promotes uint64 mixed with a signed
# integer to float64.

_U64 = np.uint64
_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_POW10 = 10 ** np.arange(18, dtype=np.uint64)

#: ASCII digit pairs "00" to "99", each one uint16
_DIGIT_PAIRS = np.array([[48 + i // 10, 48 + i % 10] for i in range(100)], np.uint8).view(
    np.uint16
)[:, 0]

#: bytes of one word, NUL-padded: "-1.2345678901234567e-308" is the widest
_WORD = 24


def _word_layout() -> np.ndarray:
    """For a sign (0 or 1) and a decimal point position dp from -3 to 16,
    the source of each byte of a fixed-notation word: digit slot 1 + j for
    digit j, 0 for a "0", 18 for the point, 19 for the sign. The 17
    digits' slots hold the digits left-aligned, zeros after the last, so
    one layout serves every digit count: bytes past the word's end are
    cut off by its length. An exponent-form word is laid out as dp = 1."""
    p = np.arange(_WORD) - np.arange(2)[:, None, None]  # byte index after the sign
    dp = np.arange(-3, 17)[:, None]
    j = np.where(dp <= 0, p - 2 + dp, p - (p > dp))  # "0.000ddd" or "ddd.ddd"
    slot = np.where((j >= 0) & (j < 17), 1 + j, 0)
    slot = np.where(p == np.maximum(dp, 1), 18, slot)
    return np.where(p < 0, 19, slot).reshape(40, _WORD)


_LAYOUT = _word_layout()

#: row L keeps a word's first L bytes
_KEEP = np.tri(_WORD + 1, _WORD, -1, dtype=np.uint8)


@cache
def _pow10_limbs(e: int) -> tuple[int, int]:
    """The high and low 64 bits of g = floor(10^e 2^(127 - floor(log2
    10^e))) + 1, in [2^127, 2^128): 10^e rounded up to 128 bits."""
    s = 127 - ((e * 1741647) >> 19)  # the floor is exact for |e| <= 1233
    g = (10**e << s if s >= 0 else 10**e >> -s) if e >= 0 else (1 << s) // 10**-e
    g += 1
    return g >> 64, g & 0xFFFFFFFFFFFFFFFF


def _mul128(a: np.ndarray, b1: np.ndarray, b0: np.ndarray):
    """The high and low 64 bits of a * b, b given as its 32-bit halves."""
    a1, a0 = a >> _32, a & _LO32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> _32) + (p01 & _LO32) + (p10 & _LO32)
    return p11 + (p01 >> _32) + (p10 >> _32) + (mid >> _32), (mid << _32) | (p00 & _LO32)


def _shift192(x0, x1, x2, s: np.ndarray):
    """The three 64-bit limbs, low first, of x << s for 0 < s < 64."""
    r = _U64(64) - s
    return x0 << s, (x1 << s) | (x0 >> r), (x2 << s) | (x1 >> r)


def _round_to_odd(mid: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A 192-bit x given by its upper limbs, over 2^128 and rounded to odd
    (the low limb is not read)."""
    return hi | (mid > _U64(1))


def _interval(c, closer, h, g_hi, g_lo):
    """Schubfach's rounding interval of c 2^q: its lower end, the value
    and its upper end, times 2^(q + 2) 10^-k and rounded to odd.

    They are c' = 4c - 2 + closer, 4c and 4c + 2 in units of 2^q / 4, and
    each is g (c' << h) / 2^128 rounded to odd. All three come from one
    product, since g (c' << h) = (g c << h + 2) + (c' - 4c) (g << h).
    """
    c1, c0 = c >> _32, c & _LO32
    x_hi, p0 = _mul128(g_lo, c1, c0)
    p2, p1 = _mul128(g_hi, c1, c0)
    p1 += x_hi
    p2 += p1 < x_hi
    z0, z1, z2 = _shift192(p0, p1, p2, h + _U64(2))
    s0, s1, s2 = _shift192(g_lo, g_hi, _U64(0), h + _U64(1))
    carry, mid = z0 + s0 < s0, z1 + s1
    upper = _round_to_odd(mid + carry, z2 + s2 + (mid < s1) + (mid + carry < carry))
    s0, s1, s2 = _shift192(g_lo, g_hi, _U64(0), h + _U64(1) - closer)
    borrow, mid = z0 < s0, z1 - s1
    lower = _round_to_odd(mid - borrow, z2 - s2 - (z1 < s1) - (mid < borrow))
    return lower, _round_to_odd(z1, z2), upper


def _shortest_digits(bits: np.ndarray):
    """For finite nonzero doubles given by their bits, the integers d and
    e of the shortest decimal d 10^e that reads back as each double, the
    nearest one when several are as short. d may end in zeros; a zero's d
    and e mean nothing."""
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    frac = bits & _U64((1 << 52) - 1)
    normal = biased != 0
    c = np.where(normal, frac | _U64(1 << 52), frac)  # the value is c 2^q
    q = np.where(normal, biased, _U64(1)).astype(np.int64) - np.int64(1075)
    # the next double down is half as far when c is a power of 2
    closer = (frac == 0) & (biased > 1)
    k = (q * np.int64(1262611) - closer * np.int64(524031)) >> np.int64(22)
    h = (q + ((-k * np.int64(1741647)) >> np.int64(19)) + np.int64(1)).astype(np.uint64)
    k0 = int(k.min())
    table = np.array([_pow10_limbs(-i) for i in range(k0, int(k.max()) + 1)], np.uint64)
    lower, vb, upper = _interval(c, closer, h, *np.take(table, k - k0, axis=0).T)
    # an odd c excludes the interval's ends
    odd = c & _U64(1)
    lower += odd
    upper -= odd
    s = vb >> _U64(2)
    s4 = s << _U64(2)
    # one digit shorter: at most one multiple of 10^(k+1) lies inside
    sp = s // _U64(10)
    sp40 = sp * _U64(40)
    up_in, wp_in = lower <= sp40, sp40 + _U64(40) <= upper
    shorter = (s >= _U64(10)) & (up_in != wp_in)
    # else s or s + 1, whichever is inside, or the nearer, or the even one
    u_in, w_in = lower <= s4, s4 + _U64(4) <= upper
    mid = s4 + _U64(2)
    up = np.where(u_in != w_in, w_in, (vb > mid) | ((vb == mid) & (s & _U64(1) == 1)))
    return np.where(shorter, sp + wp_in, s + up), k + shorter


def _laid_out(src: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Row r of the words' bytes, from row r of the source bytes ``src``
    by :data:`_LAYOUT` row ``code[r]``."""
    index = np.take(_LAYOUT, code, axis=0)
    index += np.arange(0, src.size, src.shape[1])[:, None]
    return np.take(src.reshape(-1), index)


def _shortest_words(a: np.ndarray) -> list:
    """``repr(x).encode()`` for each value x of a finite float64 array.

    The digits come from :func:`_shortest_digits` and are laid out as
    Python does: fixed notation for a decimal point position from -3 to
    16 (``0.0001``, ``1e+16``), ``.0`` on integral values, a two- or
    three-digit exponent otherwise (``1e-05``, ``5e-324``). Each word is
    a NUL-padded row of one uint8 array, read out as bytes in one call.
    """
    bits = a.view(np.uint64)
    neg = (bits >> _U64(63)).astype(np.intp)
    zero = (bits << _U64(1)) == 0
    d, e = _shortest_digits(bits)
    for t in (16, 8, 4, 2, 1):  # drop trailing zeros
        quot = d // _POW10[t]
        drop = quot * _POW10[t] == d
        d = np.where(drop, quot, d)
        e += drop * np.int64(t)
    d[zero] = 0
    n = np.searchsorted(_POW10, d, side="right")  # digit count, 0 for zero
    d *= _POW10[17 - n]  # 17 digits, left-aligned
    n[zero] = 1
    point = n + e  # the value is 0.ddd 10^point
    point[zero] = 1
    # digit slots 0-17 in pairs, the first always 0 since d < 10^17; the
    # point and the sign in slots 18 and 19
    src = np.empty((a.size, 20), np.uint8)
    pairs = src.view(np.uint16)
    for i in range(8, -1, -1):
        quot = d // _U64(100)
        pairs[:, i] = _DIGIT_PAIRS[d - quot * _U64(100)]
        d = quot
    src[:, 18:] = np.frombuffer(b".-", np.uint8)
    exp_form = (point < -3) | (point > 16)
    out = _laid_out(src, 20 * neg + np.where(exp_form, 1, point) + 3)
    length = neg + np.maximum(n, point) + 1 + np.maximum(0, 1 - point) + (point >= n)
    rows = np.flatnonzero(exp_form)
    if rows.size:
        x = point[rows] - 1
        ax = np.abs(x)
        e_at = rows * _WORD + neg[rows] + n[rows] + (n[rows] > 1)  # "e" after the digits
        # three exponent digits, the first on the sign's byte when it is 0
        at = e_at + 1 + (ax >= 100)
        flat = out.reshape(-1)
        flat[at] = 48 + ax // 100
        flat[at + 1] = 48 + ax // 10 % 10
        flat[at + 2] = 48 + ax % 10
        flat[e_at] = ord("e")
        flat[e_at + 1] = np.where(x < 0, ord("-"), ord("+"))
        length[rows] = at + 3 - rows * _WORD
    out *= _KEEP[length]
    return out.view(f"S{_WORD}").ravel().tolist()


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


def _run_verify_pair(cfg: JobConfig) -> _Result:
    mesh = graded_mesh(cfg.N, cfg.r, cfg.pair.b)
    report = check_gsc(cfg.pair, mesh, g0_tol=cfg.tolerances["g0"])
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


def _run_compute_g(cfg: JobConfig) -> _Result:
    mesh = graded_mesh(cfg.N, cfg.r, cfg.pair.b)
    g_fn, route_diff = compute_g(cfg.pair, mesh)
    g = g_fn.values[1:]
    max_defect = float(np.max(np.abs(g - 1.0)))
    summary = {"max_defect": max_defect, "route_diff": route_diff}
    return {"t": mesh.nodes[1:], "g": g}, summary, summary, True


def _run_solve(cfg: JobConfig) -> _Result:
    mesh = graded_mesh(cfg.N, cfg.r, cfg.pair.b)
    report = solve_first_kind(cfg.pair, cfg.rhs, mesh)
    columns = {"t": mesh.nodes[1:], "u": report.u.values[1:], "F": report.F.values[1:]}
    summary = {
        "residual_first_kind": report.residual_first_kind,
        "residual_second_kind": report.residual_second_kind,
    }
    extra = {**summary, "gprime_l1": report.gprime_l1}
    ok = report.residual_first_kind <= cfg.tolerances["residual_first_kind"]
    return columns, extra, summary, ok


def _run_discover(cfg: JobConfig) -> _Result:
    mesh = graded_mesh(cfg.N, cfg.r, cfg.pair.b)
    report = discover_associate(cfg.pair.k, cfg.pair.K, mesh)
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


def _run_converge(cfg: JobConfig) -> _Result:
    report = convergence_study(cfg.pair, cfg.rhs, cfg.N, cfg.r)
    b = cfg.pair.b
    columns = {
        "N": report.N,
        "h": [b / n for n in report.N],
        "max_err": report.max_err,
        "order": report.order,
    }
    summary = {"order": report.fitted_order, "finest_err": report.max_err[-1]}
    ok = report.fitted_order >= cfg.tolerances["min_order"]
    return columns, {"fitted_order": report.fitted_order}, summary, ok


def _run_stability(cfg: JobConfig) -> _Result:
    mesh = graded_mesh(cfg.N, cfg.r, cfg.pair.b)
    report = stability_report(cfg.pair, cfg.tolerances["delta"], mesh)
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

    The command computes its table, JSON-only fields, summary pairs and
    pass flag without I/O; this writes the table with :func:`_emit`,
    prints the summary as ``name=value`` pairs followed by ``-> path``,
    and returns 0 on pass and 2 on a tolerance failure.
    """
    columns, extra, summary, ok = _DISPATCH[cfg.command](cfg)
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
        MemoryError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
