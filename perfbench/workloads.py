"""Job lists for the three benchmark workloads.

A job is one CLI invocation, described by the JSON config the CLI reads.
Only ``batch-small`` draws from the seed; the two large workloads are
fixed so their timings and accuracy figures are comparable across runs.
"""

from __future__ import annotations

import random

B = 0.5
R = 2.0

#: the paper's variable pair alpha(t) = 0.5 + t/5 on (0, 0.5]
PAPER_KERNEL = {"kind": "variable", "a0": 0.5, "a1": 0.2, "b": B}

COMMANDS = ("verify-pair", "compute-g", "solve", "discover", "converge", "stability")

#: batch-small parameter ranges. a0 starts at 0.4, not 0.3: with a0 = 0.3
#: and a1 > 0.3, ``discover`` at N=128 misses its default sc_residual_of_u
#: tolerance (6.5e-3 against 5e-3 at the corner), a coarse-mesh accuracy
#: limit rather than a failure a timing run should count.
CLASSICAL_ALPHA = (0.2, 0.8)
VARIABLE_A0 = (0.4, 0.7)
VARIABLE_A1 = (0.05, 0.4)
SMALL_SIZES = (128, 256, 512)
CONVERGE_N = 256


def _job(command: str, kernel: dict, N: int) -> dict:
    return {"command": command, "kernel": dict(kernel), "mesh": {"N": N, "r": R}}


def _classical(alpha: float) -> dict:
    return {"kind": "classical", "alpha": alpha, "b": B}


def verify_large() -> list[dict]:
    return [
        _job("verify-pair", PAPER_KERNEL, 4096),
        _job("compute-g", PAPER_KERNEL, 4096),
    ]


def solve_large() -> list[dict]:
    return [
        _job("solve", _classical(0.5), 4096),
        _job("discover", _classical(0.3), 2048),
        _job("stability", PAPER_KERNEL, 2048),
    ]


def _batch_kernels(rng: random.Random) -> list[dict]:
    """Three classical and three variable kernels: the ends of the alpha
    range and the two a1 ends at the low a0 are fixed, since they set the
    worst accuracy figures; one kernel of each kind is drawn inside."""
    lo, hi = CLASSICAL_ALPHA
    a0_lo = VARIABLE_A0[0]
    profiles = [(a0_lo, a1) for a1 in VARIABLE_A1]
    profiles.append((round(rng.uniform(*VARIABLE_A0), 6), round(rng.uniform(*VARIABLE_A1), 6)))
    return [_classical(lo), _classical(hi), _classical(round(rng.uniform(lo, hi), 6))] + [
        {"kind": "variable", "a0": a0, "a1": a1, "b": B} for a0, a1 in profiles
    ]


def batch_small(seed: int) -> list[dict]:
    """About a hundred small jobs cycling through all six commands.

    Every seed gives the same mix of commands, kernel kinds and mesh
    sizes, so the seed moves kernel parameters and job order but not the
    amount of work. ``converge`` refines its own mesh, so it runs at one
    size only.
    """
    rng = random.Random(seed)
    per_command = []
    for command in COMMANDS:
        sizes = (CONVERGE_N,) if command == "converge" else SMALL_SIZES
        jobs = [_job(command, kernel, N) for N in sizes for kernel in _batch_kernels(rng)]
        rng.shuffle(jobs)
        per_command.append(jobs)
    longest = max(len(jobs) for jobs in per_command)
    return [jobs[i] for i in range(longest) for jobs in per_command if i < len(jobs)]


def jobs_for(workload: str, seed: int) -> list[dict]:
    if workload == "verify-large":
        return verify_large()
    if workload == "solve-large":
        return solve_large()
    if workload == "batch-small":
        return batch_small(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-large", "solve-large", "batch-small")
