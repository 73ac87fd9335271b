"""Output checks and accuracy figures for one CLI job.

Every job writes one flat JSON object (``--format json``). A job passes
when it exited 0 and its output parses, has the expected columns and row
count, holds finite numbers, and, for a classical kernel, agrees with the
closed forms (g = 1 and ``classical_solution``).
"""

from __future__ import annotations

import json
import math

import numpy as np

COLUMNS = {
    "verify-pair": ("t", "g"),
    "compute-g": ("t", "g"),
    "solve": ("t", "u", "F"),
    "discover": ("t", "u", "associate_residual"),
    "converge": ("N", "h", "max_err", "order"),
    "stability": ("delta", "max_shift", "gprime_l1", "bound"),
}

EXTRAS = {
    "verify-pair": (
        "g0", "sc_residual", "g0_defect", "eps_C", "eps", "eps_passed",
        "eps_r_squared", "gprime_l1", "route_diff", "gsc_pass",
    ),
    "compute-g": ("max_defect", "route_diff"),
    "solve": ("residual_first_kind", "residual_second_kind", "gprime_l1"),
    "discover": ("sc_residual_of_u", "residual_second_kind", "gprime_l1"),
    "converge": ("fitted_order",),
    "stability": ("holds",),
}

#: mesh levels of a convergence study (N/8 ... N)
CONVERGE_LEVELS = 4

#: K * k = 1 identically for a classical pair; the CLI's default g0 tolerance
CLASSICAL_G_TOL = 1e-3

#: largest relative error against a closed form that still counts as agreement
CLASSICAL_REL_TOL = 1e-6

#: relative errors below this are rounding, so err_vs_exact_max reports at
#: least this much (about N * 2.2e-16 at N = 4096)
ERR_FLOOR = 1e-12


def _finite(values) -> bool:
    return all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        for v in values
    )


def _rel_error_vs_exact(job: dict, record: dict, coeffs) -> float:
    from sonine_kit import classical_solution

    b = job["kernel"]["b"]
    t = np.asarray(record["t"], dtype=float)
    window = t >= b / 10.0
    exact = classical_solution(job["kernel"]["alpha"], coeffs, t[window])
    u = np.asarray(record["u"], dtype=float)[window]
    return float(np.max(np.abs(u - exact) / np.abs(exact)))


def check_job(job: dict, status, data: bytes | None) -> tuple[list[str], dict]:
    """Return (problems, accuracy) for one finished job.

    ``accuracy`` maps end-to-end accuracy names to this job's value; it is
    filled only for jobs that pass.
    """
    command = job["command"]
    if status != 0:
        return [f"exit status {status!r}"], {}
    try:
        record = json.loads(data)
    except (TypeError, ValueError) as exc:
        return [f"output is not JSON: {exc}"], {}
    problems = []
    rows = CONVERGE_LEVELS if command == "converge" else (
        1 if command == "stability" else job["mesh"]["N"]
    )
    classical = job["kernel"]["kind"] == "classical"
    for col in COLUMNS[command]:
        values = record.get(col)
        if not isinstance(values, list) or len(values) != rows:
            problems.append(f"column {col!r} does not hold {rows} rows")
        elif col == "order":
            # the first level has no predecessor; a classical study converges
            # to rounding at every level, leaving no order to fit
            if not (values[0] is None and (classical or _finite(values[1:]))):
                problems.append("column 'order' is not finite past the first level")
        elif not _finite(values):
            problems.append(f"column {col!r} holds non-finite values")
    for key in EXTRAS[command]:
        value = record.get(key)
        if isinstance(value, bool):
            continue
        if value is None and classical and key in ("route_diff", "fitted_order"):
            continue  # one g route only, or converged to rounding
        if not _finite([value]):
            problems.append(f"field {key!r} is {value!r}")
    if problems:
        return problems, {}

    acc = {}
    if command == "verify-pair":
        acc["g0_defect_max"] = record["g0_defect"]
    if command in ("verify-pair", "compute-g"):
        if classical:
            defect = max(abs(g - 1.0) for g in record["g"])
            if defect > CLASSICAL_G_TOL:
                problems.append(f"classical g strays from 1 by {defect!r}")
        else:
            acc["route_diff_max"] = record["route_diff"]
    if command == "solve":
        acc["residual_first_kind_max"] = record["residual_first_kind"]
    if command == "discover":
        acc["residual_first_kind_max"] = record["sc_residual_of_u"]
    if command in ("solve", "discover") and classical:
        coeffs = [0.0, 1.0] if command == "solve" else [1.0]
        err = _rel_error_vs_exact(job, record, coeffs)
        if not err <= CLASSICAL_REL_TOL:
            problems.append(f"u differs from classical_solution by {err!r} (relative)")
        acc["err_vs_exact_max"] = max(err, ERR_FLOOR)
    if command == "converge":
        if classical:
            worst = max(record["max_err"])
            if worst > CLASSICAL_REL_TOL:
                problems.append(f"classical convergence error {worst!r}")
        else:
            acc["converge_order_min"] = record["fitted_order"]
    if command == "stability":
        acc["gronwall_ratio_max"] = record["max_shift"][0] / record["bound"][0]
    return problems, ({} if problems else acc)
