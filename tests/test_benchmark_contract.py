"""The benchmark's contract with the library.

``perfbench/`` is read here and never changed: the names its scripts
import from ``sonine_kit``, its set-up probe on every workload, and the
``KernelSpec`` methods its tracer wraps. A library change that breaks
one of them fails here, not only as a failed benchmark run.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sonine_kit
from sonine_kit import KernelSpec

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

#: the benchmark's workloads, each run by the probe
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

#: what ``perfbench/spans.py`` wraps by ``KernelSpec.__dict__[name]``
WRAPPED_METHODS = ("eval", "smooth")


def _imported_names() -> dict[str, str]:
    """Each name that a ``perfbench/*.py`` script imports from
    ``sonine_kit``, at module level or inside a function, and the first
    script that does."""
    names = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "sonine_kit":
                for alias in node.names:
                    names.setdefault(alias.name, path.name)
    return names


def test_imported_names_exist():
    names = _imported_names()
    assert "parse_config" in names  # the probe's, so the scan reads the scripts
    assert [f"{script}: {name}" for name, script in names.items()
            if not hasattr(sonine_kit, name)] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_setup_probe_runs(workload):
    """The probe builds each job's config, kernel pair and mesh, reading
    ``cfg.N``, ``cfg.r`` and ``cfg.kernel``'s kind, b, alpha, a0 and a1.
    No bytecode is written next to the scripts."""
    src = str(Path(sonine_kit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), src, workload, "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_kernel_methods_are_defined_on_kernelspec():
    for name in WRAPPED_METHODS:
        assert callable(KernelSpec.__dict__.get(name)), name
