"""The JSON writer's shortest round-trip kernel against Python's repr."""

from __future__ import annotations

import numpy as np

from sonine_kit import cli

#: random bit patterns drawn; about 0.05% are inf or NaN and are dropped
RANDOM_PATTERNS = 1_000_000


def _mismatches(a: np.ndarray) -> list:
    """(repr, kernel bytes) for each value of a finite float64
    array that the kernel writes other than repr does, formatted in the
    writer's blocks."""
    block = cli.SHORTEST_BLOCK
    words = [w for i in range(0, a.size, block) for w in cli._shortest_words(a[i : i + block])]
    reprs = list(map(repr, a.tolist()))
    assert len(words) == len(reprs)
    if b"\n".join(words) == "\n".join(reprs).encode():
        return []
    return [(r, w) for r, w in zip(reprs, words) if w != r.encode()]


def _neighbours(v: np.ndarray, steps: int) -> np.ndarray:
    """v and its first ``steps`` doubles below and above."""
    out = [v]
    for target in (0.0, np.inf):
        w = v
        for _ in range(steps):
            w = np.nextafter(w, target)
            out.append(w)
    return np.concatenate(out)


def test_random_bit_patterns():
    bits = np.random.default_rng(20201).integers(0, 2**64, RANDOM_PATTERNS, dtype=np.uint64)
    a = bits.view(np.float64)
    a = a[np.isfinite(a)]
    assert (a < 0).sum() > 0.49 * a.size and (a > 0).sum() > 0.49 * a.size
    assert _mismatches(a) == []


def test_edge_values():
    """Powers of 2 and 10 and their neighbours, subnormals, zeros, and the
    integral and small values where repr switches between fixed and
    exponent notation, of both signs."""
    powers = np.concatenate(
        [np.ldexp(1.0, np.arange(-1074, 1024)), [float(f"1e{p}") for p in range(-323, 309)]]
    )
    switches = np.concatenate(
        [
            2.0**53 + np.arange(-64.0, 65.0),
            [float(10**p + d) for p in range(15, 24) for d in range(-40, 41)],
            [1e-4, 1e-5, 1.5e-4, 9.99e-5, 1.2345e-5, 0.00012345],
            [1.5 * 10.0**p for p in range(-8, 24)],
        ]
    )
    values = np.concatenate(
        [
            _neighbours(powers, 1),
            _neighbours(switches, 20),
            [5e-324, 4.35e-310, 2.225073858507201e-308, 0.0],
        ]
    )
    values = values[np.isfinite(values)]
    values = np.concatenate([values, -values])
    assert b"-0.0" in cli._shortest_words(values[-1:])
    assert _mismatches(values) == []


def test_layout():
    """Fixed notation for a decimal point position from -3 to 16, ".0" on
    integral values, and a sign and two or three exponent digits outside."""
    words = [
        "1e-05", "0.0001", "0.00012345678901234567", "-0.5", "-0.0", "123.456",
        "1000000000000000.0", "9999999999999998.0", "1e+16", "1.2345678901234568e+16",
        "5e-324", "-1.7976931348623157e+308", "2.5e-100",
    ]  # fmt: skip
    values = np.array([float(w) for w in words])
    assert cli._shortest_words(values) == [w.encode() for w in words]
