"""Layering guards: the CLI parses, dispatches and formats, and K * k has
one integrator.

``cli.py`` may call the pipeline modules' public functions but may not
reach into the quadrature layer or into another module's private names,
which is how copies of library pipelines end up in the front end.
``sonine.py`` computes g and g' through the quadrature's pair convolution
and may not import the reference rule or the row blocks behind it, which
is how a second split-at-t/2 integrator would come back. Nor does it read
exponent profiles: the analytic g' route takes what it needs from
``KernelSpec.smooth_log_deriv``, so any kernel that carries it gets the
route, not only t^(-alpha(t)). The CLI's
commands (``_run_*``) return their table and summary and do no I/O:
``run`` writes both, so the CLI has one output path. Only ``solve`` runs
``solve_first_kind``, once: a command that needs solves at several meshes
calls the library function that runs them (``convergence_study``), so no
solver pipeline grows back in the front end. The pipeline functions of
``sonine.py`` and ``volterra.py`` take the rule's panel count from the
mesh, so none of them has an ``M`` parameter; ``compute_g_substituted``,
which takes times and no mesh, keeps its own. A sampled function carries
its mesh, so no public function of ``quadrature.py`` or ``volterra.py``
takes one beside a ``mesh`` it would have to match, except
``solve_second_kind``, whose two samples and mesh are its documented
interface. Importing the package
loads no numpy submodule it does not use, to keep start-up short.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import sonine_kit.cli
import sonine_kit.quadrature
import sonine_kit.sonine
import sonine_kit.volterra

FORBIDDEN_MODULES = {"quadrature"}

#: calls that write output, which only ``run`` and ``_emit`` make
OUTPUT_CALLS = {"print", "open", "_emit"}

#: numpy submodules that ``import sonine_kit`` must not load (numpy.polynomial
#: costs about 4 ms of start-up, numpy.random about 13; the Chebyshev
#: interpolant in ln t is plain numpy, and the derivative spot-check's points
#: are fixed numbers)
UNUSED_NUMPY = ("numpy.polynomial", "numpy.random")

#: the one command that calls solve_first_kind
SOLVE_COMMAND = "_run_solve"

#: nodes whose body may run a call more than once
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

#: the machinery of the split-at-t/2 rule, which only quadrature.py uses
INTEGRATOR_PARTS = {"_reference_rule", "_row_blocks"}

#: what sonine.py may not name: the profile type and the profile attribute
PROFILE_NAMES = {"ExponentFunction"}
PROFILE_ATTRIBUTES = {"exponent"}

#: the one public function of the pipeline modules with a panel count
#: parameter: it evaluates g at given times, with no mesh to fix the count
PANEL_COUNT_TAKER = "compute_g_substituted"

#: the one public function that takes samples and a mesh together
SAMPLES_AND_MESH_TAKER = "solve_second_kind"


def _layering_violations(source: str) -> list[str]:
    """Imports of the quadrature module or of ``_``-prefixed names from a
    sibling module, and ``module._name`` accesses through an imported name."""
    tree = ast.parse(source)
    found = []
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                imported.add(alias.asname or alias.name)
                target = module if node.module else alias.name
                if target in FORBIDDEN_MODULES:
                    found.append(f"line {node.lineno}: imports from {target}")
                elif alias.name.startswith("_"):
                    found.append(f"line {node.lineno}: imports private {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.add((alias.asname or alias.name).partition(".")[0])
                if alias.name.rpartition(".")[2] in FORBIDDEN_MODULES:
                    found.append(f"line {node.lineno}: imports {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"line {node.lineno}: uses private {node.value.id}.{node.attr}")
    return found


def test_cli_stays_a_front_end():
    source = Path(sonine_kit.cli.__file__).read_text()
    assert _layering_violations(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .quadrature import convolve_pair",
        "from sonine_kit.quadrature import product_weights",
        "from . import quadrature",
        "import sonine_kit.quadrature",
        "from .volterra import _forward_sweep",
        "from . import volterra\nvolterra._forward_sweep",
        "import numpy as np\nnp._NoValue",
    ],
)
def test_guard_catches_violations(source):
    assert _layering_violations(source)


def test_guard_allows_public_pipeline_calls():
    source = (
        "from __future__ import annotations\n"
        "from .sonine import check_gsc\n"
        "from .volterra import stability_report\n"
        "import numpy as np\n"
        "np.max(check_gsc.__name__)\n"
    )
    assert _layering_violations(source) == []


def _command_output(source: str) -> list[str]:
    """Calls to ``print``, ``open``, ``_emit`` or ``json.*`` inside a
    ``_run_*`` function, nested functions included."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_run_")):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id in OUTPUT_CALLS:
                found.append(f"line {node.lineno}: {fn.name} calls {f.id}")
            elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "json":
                found.append(f"line {node.lineno}: {fn.name} calls json.{f.attr}")
    return found


def test_cli_commands_do_no_output():
    source = Path(sonine_kit.cli.__file__).read_text()
    assert _command_output(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "def _run_solve(cfg):\n    print('residual=0')",
        "def _run_solve(cfg):\n    with open(cfg.out_path, 'w') as fh:\n        pass",
        "import json\ndef _run_solve(cfg):\n    json.dump({}, None)",
        "def _run_solve(cfg):\n    return _emit(cfg, {}, {})",
        "def _run_converge(cfg):\n    def level(n):\n        print(n)\n    level(8)",
    ],
)
def test_output_guard_catches_violations(source):
    assert _command_output(source)


def test_output_guard_allows_run_to_write():
    source = (
        "def _run_solve(cfg):\n    return {'t': []}, {}, {'r': 0.0}, True\n"
        "def run(cfg):\n    print(_emit(cfg, {}, {}))\n"
    )
    assert _command_output(source) == []


def _solve_calls(source: str) -> list[str]:
    """Calls of ``solve_first_kind`` (by name or as an attribute) other
    than a single call of ``_run_solve`` outside any loop."""

    def calls(node) -> list[ast.Call]:
        return [
            n for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and (getattr(n.func, "id", None) or getattr(n.func, "attr", None)) == "solve_first_kind"
        ]

    tree = ast.parse(source)
    allowed = set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == SOLVE_COMMAND:
            looped = {id(c) for loop in ast.walk(fn) if isinstance(loop, LOOPS) for c in calls(loop)}
            allowed |= {id(c) for c in calls(fn)[:1] if id(c) not in looped}
    return [f"line {c.lineno}: calls solve_first_kind" for c in calls(tree) if id(c) not in allowed]


def test_cli_runs_no_solver_pipeline():
    source = Path(sonine_kit.cli.__file__).read_text()
    assert _solve_calls(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "def _run_converge(cfg):\n    return solve_first_kind(pair, rhs, mesh)",
        "def _converge_reference(cfg):\n    return solve_first_kind(pair, rhs, mesh).u",
        "from . import volterra\ndef _run_discover(cfg):\n    volterra.solve_first_kind(p, r, m)",
        "def _run_solve(cfg):\n    for n in (8, 16):\n        solve_first_kind(p, r, n)",
        "def _run_solve(cfg):\n    return [solve_first_kind(p, r, n) for n in (8, 16)]",
        "def _run_solve(cfg):\n    a = solve_first_kind(p, r, m)\n    b = solve_first_kind(p, r, m2)",
    ],
)
def test_solve_guard_catches_violations(source):
    assert _solve_calls(source)


def test_solve_guard_allows_the_solve_command():
    source = (
        "def _run_solve(cfg):\n    report = solve_first_kind(pair, rhs, mesh)\n"
        "def _run_converge(cfg):\n    return convergence_study(pair, rhs, cfg.N, cfg.r)\n"
    )
    assert _solve_calls(source) == []


def _integrator_parts_used(source: str) -> list[str]:
    """Imports of the pair rule's parts, and attribute accesses to them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [
                f"line {node.lineno}: imports {alias.name}"
                for alias in node.names
                if alias.name in INTEGRATOR_PARTS
            ]
        elif isinstance(node, ast.Attribute) and node.attr in INTEGRATOR_PARTS:
            found.append(f"line {node.lineno}: uses {node.attr}")
    return found


def test_sonine_has_no_second_integrator():
    source = Path(sonine_kit.sonine.__file__).read_text()
    assert _integrator_parts_used(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .quadrature import _reference_rule",
        "from .quadrature import REF_PANELS, _row_blocks as blocks",
        "from . import quadrature\nquadrature._reference_rule(0.5, 64, 4.0)",
    ],
)
def test_integrator_guard_catches_violations(source):
    assert _integrator_parts_used(source)


def test_integrator_guard_allows_the_pair_convolution():
    source = "from .quadrature import REF_PANELS, _pair_convolution, _pair_panels\n"
    assert _integrator_parts_used(source) == []


def _profile_reads(source: str) -> list[str]:
    """Names and imports of ExponentFunction, and ``.exponent`` accesses."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in PROFILE_NAMES:
            found.append(f"line {node.lineno}: names {node.id}")
        elif isinstance(node, ast.alias) and node.name in PROFILE_NAMES:
            found.append(f"line {node.lineno}: imports {node.name}")
        elif isinstance(node, ast.Attribute) and node.attr in PROFILE_ATTRIBUTES:
            found.append(f"line {node.lineno}: reads .{node.attr}")
    return found


def test_sonine_reads_no_exponent_profile():
    source = Path(sonine_kit.sonine.__file__).read_text()
    assert _profile_reads(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .kernels import ExponentFunction",
        "def f(af: ExponentFunction):\n    pass",
        "af = pair.k.exponent",
        "alpha0 = float(k.exponent.eval(0.0))",
    ],
)
def test_profile_guard_catches_violations(source):
    assert _profile_reads(source)


def test_profile_guard_allows_the_kernel_fields():
    source = "sigma = k.local_exponent\nq = k.smooth_log_deriv\n"
    assert _profile_reads(source) == []


def _panel_count_parameters(source: str) -> list[str]:
    """Public module-level functions, other than PANEL_COUNT_TAKER, with a
    parameter named ``M``."""
    found = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        a = fn.args
        names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        if "M" in names and fn.name != PANEL_COUNT_TAKER:
            found.append(f"line {fn.lineno}: {fn.name} takes M")
    return found


@pytest.mark.parametrize("module", [sonine_kit.sonine, sonine_kit.volterra])
def test_pipeline_functions_take_no_panel_count(module):
    assert _panel_count_parameters(Path(module.__file__).read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "def check_gsc(pair, mesh, M=None, g0_tol=1e-3):\n    pass",
        "def solve_first_kind(pair, rhs, mesh, *, M=None):\n    pass",
        "def estimate_gprime(pair, mesh, M, /):\n    pass",
    ],
)
def test_panel_count_guard_catches_violations(source):
    assert _panel_count_parameters(source)


def test_panel_count_guard_allows_the_exception_and_private_helpers():
    source = (
        "def compute_g_substituted(pair, t, M=256):\n    pass\n"
        "def _gprime_flat(pair, flat, M):\n    pass\n"
        "class RhsSpec:\n    def eval(self, M):\n        pass\n"
    )
    assert _panel_count_parameters(source) == []


def _redundant_mesh_parameters(source: str) -> list[str]:
    """Public module-level functions, other than SAMPLES_AND_MESH_TAKER,
    with a parameter annotated ``SampledFunction`` and one named ``mesh``."""
    found = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        sampled = any(
            p.annotation is not None and "SampledFunction" in ast.unparse(p.annotation)
            for p in params
        )
        if sampled and "mesh" in {p.arg for p in params} and fn.name != SAMPLES_AND_MESH_TAKER:
            found.append(f"line {fn.lineno}: {fn.name} takes a SampledFunction and a mesh")
    return found


@pytest.mark.parametrize("module", [sonine_kit.quadrature, sonine_kit.volterra])
def test_sampled_functions_bring_their_mesh(module):
    assert _redundant_mesh_parameters(Path(module.__file__).read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "def convolve_weakly_singular(kernel, phi: SampledFunction, mesh: Mesh):\n    pass",
        "def push(k, u: 'SampledFunction', *, mesh=None):\n    pass",
        "def convolve(k, phi: SampledFunction | None, mesh):\n    pass",
    ],
)
def test_mesh_guard_catches_violations(source):
    assert _redundant_mesh_parameters(source)


def test_mesh_guard_allows_the_exception_and_private_helpers():
    source = (
        "def solve_second_kind(gprime: SampledFunction, F: SampledFunction, mesh, eps=0.0):\n"
        "    pass\n"
        "def _forward_sweep(gprime: SampledFunction, F: SampledFunction, mesh, eps):\n"
        "    pass\n"
        "def assemble_rhs(K: KernelSpec, rhs: RhsSpec, mesh: Mesh) -> SampledFunction:\n"
        "    pass\n"
    )
    assert _redundant_mesh_parameters(source) == []


def test_import_loads_no_unused_numpy_submodule():
    src = str(Path(sonine_kit.cli.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import sonine_kit; "
        f"print([m for m in {UNUSED_NUMPY!r} if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
