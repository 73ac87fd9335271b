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
route, not only t^(-alpha(t)). That route is g''s only one: a pair off it
that is not classical is refused with one message, and nothing differences
g. It reads g(0+) as g at the first node
minus the integral of a model of its own g' over the first panel, with no
fit of g at geometric times. The CLI's
commands (``_run_*``) return their table and summary and do no I/O:
``run`` writes both, so the CLI has one output path. ``parse_config``
builds the job's pair, once, and no command builds one; kernel kinds are
named only as the keys of the CLI's table of kinds. Only
``solve`` runs
``solve_first_kind``, once: a command that needs solves at several meshes
calls the library function that runs them (``convergence_study``), so no
solver pipeline grows back in the front end. The public functions of
``quadrature.py``, ``sonine.py`` and ``volterra.py`` take the rule's panel
count from the mesh, so none of them has an ``M`` parameter, and the
package has one public entry to the pair rule on a mesh for each of K * k
(``convolve_pair``) and g (``compute_g``). A sampled function carries
its mesh, so no public function of ``quadrature.py`` or ``volterra.py``
takes one beside a ``mesh`` it would have to match, except
``solve_second_kind``, whose two samples and mesh are its documented
interface. The forward sweep builds no interpolant of its own: the far
field of its history sums is the quadrature operator's, whose row-cluster
tree has one layout at every N, with no dense crossover, super-block size
or row floor, and no entry budget. Importing the package
loads no numpy submodule it does not use, to keep start-up short. The sum
of exponentials of pure-power convolutions is built on every call, neither
cached nor built at import.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import sonine_kit.cli
import sonine_kit.kernels
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

#: the sum-of-exponentials functions, which build the SOE afresh on every
#: call: the benchmark empties only ``_reference_rule``'s cache between
#: passes, so a memoised SOE would make later passes cheaper than a fresh
#: CLI process, which pays for it once
SOE_FUNCTIONS = ("_soe", "_history_sums")
CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}

#: what builds a pair: the CLI's helper and the pair type and constructors
PAIR_BUILDERS = {"_build_pair"} | {
    name for name in sonine_kit.kernels.__all__ if name.lower().endswith("pair")
}

#: the CLI's table of kernel kinds, whose keys are the only place a kind
#: is named
KIND_TABLE = "_KINDS"

#: the one command that calls solve_first_kind
SOLVE_COMMAND = "_run_solve"

#: nodes whose body may run a call more than once
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

#: the machinery of the split-at-t/2 rule, which only quadrature.py uses
INTEGRATOR_PARTS = {"_reference_rule", "_row_blocks"}

#: what volterra.py may not name, whole or (INTERPOLANT_PARTS) in part,
#: besides the FAR_* constants: a far field interpolated in the row's time
#: is _triangle_blocks' business
INTERPOLANT_NAMES = {"cos", "arccos", "_far_sums"}
INTERPOLANT_PARTS = ("cheb", "lobatto", "lagrange", "bary")

#: what sonine.py may not name: the profile type and the profile attribute
PROFILE_NAMES = {"ExponentFunction"}
PROFILE_ATTRIBUTES = {"exponent"}

#: what sonine.py may not define or call: the fit of g at geometric times
#: that g(0+) was once read from, and the least-squares solver behind it;
#: g(0+) is g(t_1) minus the integral of a model of the gate's own g'
G0_FIT_FUNCTIONS = {"estimate_g0", "_fit_g0"}
G0_FIT_CALLS = {"lstsq"}

#: what sonine.py may not define: the thresholds of the R^2-gated power fit
#: that once decided integrability beside the model of g' near 0
DELETED_FIT_CONSTANTS = {"EPS_FIT_MIN_R2", "GPRIME_FLOOR", "AMPLITUDE_FLOOR"}

#: what sonine.py may not import: the pieces of a second copy of the
#: classical-pair test, which kernels._is_classical makes on k's leading term
CLASSICAL_PARTS = {"kappa", "classical_abel_kernel"}

#: what sonine.py may not define: the route that copied that test
CLASSICAL_COPY = "_substituted_route"

#: what sonine.py may not have of the g' once differenced from g: the
#: function, the near-origin model's parameter for g's means over the first
#: panels, and the gate's field for g on the mesh
DIFFERENCED_FUNCTION = "_fd_gprime"
DIFFERENCED_MODEL, MEANS = "_near_origin_model", "means"
GATE_INPUTS, GATE_G = "_GateInputs", "g"

#: the module constant of sonine.py that is the refusal of a pair off the
#: g' rule, and the one function that raises it: the gate
NO_GPRIME = "_NO_GPRIME"
NO_GPRIME_RAISERS = ("_gate_inputs",)

#: what quadrature.py may not define: the crossover to the dense triangle,
#: the super-block size and the row floor of the two-level layout that the
#: row-cluster tree replaced, whose one layout serves every N
DELETED_TRIANGLE_CONSTANTS = {"FAR_MIN_N", "FAR_ROWS", "TRIANGLE_MIN_ROWS"}

#: what quadrature.py may not name: the row count of the blocks a leaf was
#: once cut into; the leaf is the block
LEAF_BLOCK_ROWS = "BLOCK_ROWS"

#: the triangle's functions, which size their blocks by rows, not by the
#: entry budget of the O(N M) sums
TRIANGLE_FUNCTIONS = {"_triangle_blocks", "_cluster_tree", "_far_sums", "_far_rows"}
BLOCK_BUDGET = "BLOCK_ENTRIES"

#: the deleted entries that evaluated the pair rule at given times and
#: panel counts, beside convolve_pair and compute_g on a mesh, and g' on a
#: mesh beside check_gsc's, with its helper
DELETED_PAIR_ENTRIES = {
    "convolve_pair_at", "compute_g_substituted", "estimate_gprime", "_gprime_flat",
}

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


def _pair_builds(source: str) -> list[str]:
    """Calls of a PAIR_BUILDERS name (by name or as an attribute) inside a
    ``_run_*`` function, nested functions included."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_run_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in PAIR_BUILDERS:
                    found.append(f"line {node.lineno}: {fn.name} calls {name}")
    return found


def test_cli_commands_build_no_pair():
    source = Path(sonine_kit.cli.__file__).read_text()
    assert _pair_builds(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "def _run_solve(cfg, pair):\n    pair = _build_pair(cfg.kernel)",
        "def _run_stability(cfg):\n    pair = make_classical_abel_pair(0.5, cfg.kernel.b)",
        "from . import kernels\ndef _run_discover(cfg):\n    kernels.make_variable_exponent_pair(af, 1.0)",
        "def _run_discover(cfg, pair):\n    pair = SoninePair(k=pair.k, K=pair.K)",
        "def _run_converge(cfg):\n    def build():\n        return _build_pair(cfg.kernel)",
    ],
)
def test_pair_guard_catches_violations(source):
    assert _pair_builds(source)


def test_pair_guard_allows_run_to_build():
    source = (
        "def _run_solve(cfg, pair):\n    return solve_first_kind(pair, rhs, mesh)\n"
        "def run(cfg):\n    return _DISPATCH[cfg.command](cfg, _build_pair(cfg.kernel))\n"
    )
    assert _pair_builds(source) == []
    assert {"SoninePair", "make_classical_abel_pair", "make_variable_exponent_pair"} < PAIR_BUILDERS


def _kind_names(source: str, kinds) -> list[str]:
    """String constants that name a kernel kind anywhere but as a key of
    the KIND_TABLE dict."""
    tree = ast.parse(source)
    keys = {
        id(key)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == KIND_TABLE for t in node.targets)
        and isinstance(node.value, ast.Dict)
        for key in node.value.keys
    }
    return [
        f"line {node.lineno}: names kind {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in kinds and id(node) not in keys
    ]


def test_cli_names_kernel_kinds_only_in_the_table():
    """A kind is one entry of the table, its fields and its builder, so
    a new kind adds an entry and no branch."""
    source = Path(sonine_kit.cli.__file__).read_text()
    kinds = set(getattr(sonine_kit.cli, KIND_TABLE))
    assert kinds and _kind_names(source, kinds) == []


@pytest.mark.parametrize(
    "source",
    [
        "_KINDS = {'classical': 1}\nif kind == 'classical':\n    pass",
        "def _build(kc):\n    return f(kc) if kc.kind == 'variable' else g(kc)",
        "_KINDS = {'classical': 1, 'variable': 2}\nKNOWN = ('classical', 'variable')",
        "_OTHER = {'classical': 1}",
    ],
)
def test_kind_guard_catches_violations(source):
    assert _kind_names(source, {"classical", "variable"})


def test_kind_guard_allows_the_table():
    source = (
        "_KINDS = {'classical': (('alpha',), f), 'variable': (('a0', 'a1'), g)}\n"
        "if kind not in _KINDS:\n    raise ValueError(' or '.join(map(repr, _KINDS)))\n"
    )
    assert _kind_names(source, {"classical", "variable"}) == []


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


def _interpolant_parts(source: str) -> list[str]:
    """Names and attributes that build a Chebyshev or Lagrange
    interpolant: cosines (the points), Chebyshev, Lobatto, Lagrange or
    barycentric anything, and the quadrature's far-field helper and
    constants."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if name in INTERPOLANT_NAMES
            or name.startswith("FAR_")
            or any(part in name.lower() for part in INTERPOLANT_PARTS)
        ]
    return found


def test_sweep_builds_no_interpolant():
    """The far field of the history sums belongs to _triangle_blocks alone:
    the forward sweep takes its far sums from the operator and builds no
    interpolation points or basis of its own."""
    source = Path(sonine_kit.volterra.__file__).read_text()
    assert _interpolant_parts(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nx = np.cos(np.pi * np.arange(16) / 15)",
        "import math\nx = [math.cos(k) for k in range(16)]",
        "from .quadrature import _lobatto\nx, w, _ = _lobatto(16)",
        "from .quadrature import FAR_POINTS, _triangle_blocks",
        "from . import quadrature\nfar = quadrature._far_sums(nodes, h, 0.5, f, x, t, work)",
        "def lagrange_basis(t, s):\n    pass",
        "bary = 1.0 / (t[:, None] - s)",
        "from numpy.polynomial import chebyshev",
    ],
)
def test_interpolant_guard_catches_violations(source):
    assert _interpolant_parts(source)


def test_interpolant_guard_allows_the_sweep():
    source = (
        "from .quadrature import _triangle_blocks\n"
        "for i0, i1, j0, C, far in _triangle_blocks(nodes, 1.0 - eps, m_at, u):\n"
        "    rhs = f[i0:i1] - C[:, : i0 - j0] @ u[j0:i0]\n"
    )
    assert _interpolant_parts(source) == []


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


def _classical_copy_parts(source: str) -> list[str]:
    """Imports and attribute reads of kappa or classical_abel_kernel, and a
    definition of the substituted route; empty also requires an import of
    kernels._is_classical."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name in CLASSICAL_PARTS:
            found.append(f"line {node.lineno}: imports {node.name}")
        elif isinstance(node, ast.Attribute) and node.attr in CLASSICAL_PARTS:
            found.append(f"line {node.lineno}: reads .{node.attr}")
        elif isinstance(node, ast.FunctionDef) and node.name == CLASSICAL_COPY:
            found.append(f"line {node.lineno}: defines {node.name}")
    if "_is_classical" not in source:
        found.append("never reads _is_classical")
    return found


def test_sonine_decides_the_defect_with_is_classical():
    """Which g has the rule's error on k's leading term taken out is
    decided by kernels._is_classical, the test SoninePair.is_classical
    reads, not by a copy of it in sonine.py."""
    source = Path(sonine_kit.sonine.__file__).read_text()
    assert _classical_copy_parts(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .kernels import _is_classical, kappa",
        "from .kernels import _is_classical, classical_abel_kernel as abel",
        "from . import kernels, _is_classical\nc = 1.0 / kernels.kappa(sigma)",
        "from .kernels import _is_classical\ndef _substituted_route(pair):\n    pass",
        "from .kernels import power_kernel",
    ],
)
def test_classical_copy_guard_catches_violations(source):
    assert _classical_copy_parts(source)


def test_classical_copy_guard_allows_the_leading_term():
    source = (
        "from .kernels import _is_classical, power_kernel\n"
        "k0 = power_kernel(k.smooth0, k.local_exponent, pair.b)\n"
        "if _is_classical(k0, pair.K):\n    pass\n"
    )
    assert _classical_copy_parts(source) == []


def _g0_fit_parts(source: str) -> list[str]:
    """Definitions of the g(0+) fit's functions, and imports or calls of
    a least-squares solver, whole or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in G0_FIT_FUNCTIONS:
            found.append(f"line {node.lineno}: defines {node.name}")
        elif isinstance(node, ast.alias) and node.name in G0_FIT_CALLS:
            found.append(f"line {node.lineno}: imports {node.name}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in G0_FIT_CALLS:
                found.append(f"line {node.lineno}: calls {name}")
    return found


def test_sonine_reads_g0_without_a_fit():
    source = Path(sonine_kit.sonine.__file__).read_text()
    assert _g0_fit_parts(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "def estimate_g0(samples):\n    pass",
        "def _fit_g0(samples):\n    return 1.0, 0.0, 0.0",
        "c, _, rank, _ = np.linalg.lstsq(phi, g, rcond=None)",
        "from numpy.linalg import lstsq as fit",
    ],
)
def test_g0_fit_guard_catches_violations(source):
    assert _g0_fit_parts(source)


def test_g0_fit_guard_allows_the_integral_reading():
    source = (
        "c[:k] = np.linalg.solve(basis[:k, :k], y[:k])\n"
        "integral, eps_fit, m0 = _near_origin_model(nodes, gp, False, sigma)\n"
        "slope, intercept = np.polyfit(x, y, 1)\n"
    )
    assert _g0_fit_parts(source) == []


def _panel_count_parameters(source: str) -> list[str]:
    """Public module-level functions with a parameter named ``M``."""
    found = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        a = fn.args
        names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        if "M" in names:
            found.append(f"line {fn.lineno}: {fn.name} takes M")
    return found


@pytest.mark.parametrize(
    "module", [sonine_kit.quadrature, sonine_kit.sonine, sonine_kit.volterra]
)
def test_pipeline_functions_take_no_panel_count(module):
    assert _panel_count_parameters(Path(module.__file__).read_text()) == []


def test_pair_rule_has_no_entry_at_given_times():
    assert DELETED_PAIR_ENTRIES.isdisjoint(sonine_kit.__all__)
    for module in (sonine_kit, sonine_kit.quadrature, sonine_kit.sonine):
        assert DELETED_PAIR_ENTRIES.isdisjoint(vars(module)), module.__name__


@pytest.mark.parametrize(
    "source",
    [
        "def check_gsc(pair, mesh, M=None, g0_tol=1e-3):\n    pass",
        "def solve_first_kind(pair, rhs, mesh, *, M=None):\n    pass",
        "def estimate_gprime(pair, mesh, M, /):\n    pass",
        "def convolve_pair(K, k, mesh, M=None):\n    pass",
        "def compute_g_substituted(pair, t, M=256):\n    pass",
    ],
)
def test_panel_count_guard_catches_violations(source):
    assert _panel_count_parameters(source)


def test_panel_count_guard_allows_private_helpers():
    source = (
        "def _pair_convolution(K, k, t, M):\n    pass\n"
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


def test_import_builds_no_power_of_ten():
    """Importing the package and its CLI builds none of the shortest-repr
    kernel's powers of ten: each is built on first use of its decimal
    exponent, since the whole table of 617 costs far more than start-up."""
    src = str(Path(sonine_kit.cli.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import sonine_kit; "
        "from sonine_kit import cli; print(cli._pow10_limbs.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def _soe_caches(source: str) -> list[str]:
    """Cache decorators on the SOE functions, and module-level statements
    that name them: a table built at import, or a cached rebinding."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if node.name in SOE_FUNCTIONS:
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = getattr(target, "id", None) or getattr(target, "attr", None)
                    if name in CACHE_DECORATORS:
                        found.append(f"line {dec.lineno}: {node.name} is decorated with {name}")
            continue
        for sub in ast.walk(node):
            name = getattr(sub, "id", None) or getattr(sub, "attr", None)
            if isinstance(sub, (ast.Name, ast.Attribute)) and name in SOE_FUNCTIONS:
                found.append(f"line {sub.lineno}: module level names {name}")
    return found


def test_soe_is_built_per_call():
    """No cache holds an SOE across calls, in the source or at run time."""
    assert _soe_caches(Path(sonine_kit.quadrature.__file__).read_text()) == []
    for name in SOE_FUNCTIONS:
        assert not hasattr(getattr(sonine_kit.quadrature, name), "cache_info"), name


def test_import_builds_no_soe():
    """Importing the package and its CLI calls neither SOE function."""
    src = str(Path(sonine_kit.cli.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); calls = []\n"
        "def spy(frame, event, arg):\n"
        f"    if event == 'call' and frame.f_code.co_name in {SOE_FUNCTIONS!r}:\n"
        "        calls.append(frame.f_code.co_name)\n"
        "sys.setprofile(spy)\n"
        "import sonine_kit.cli\n"
        "sys.setprofile(None)\n"
        "print(calls)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "source",
    [
        "@lru_cache(maxsize=8)\ndef _soe(gamma, h_min, T):\n    pass\n",
        "@functools.cache\ndef _history_sums(nodes, beta, phi):\n    pass\n",
        "_soe = lru_cache(maxsize=None)(_soe)",
        "_HALF = _soe(0.5, 1e-8, 1.0)",
        "if True:\n    TABLE = {g: quadrature._soe(g, 1e-8, 1.0) for g in (0.3, 0.5)}\n",
    ],
)
def test_soe_cache_guard_catches_violations(source):
    assert _soe_caches(source)


def test_soe_cache_guard_allows_other_caches_and_calls_inside_functions():
    source = (
        "@lru_cache(maxsize=2)\n"
        "def _lobatto(P):\n"
        "    pass\n"
        "def _history_sums(nodes, beta, phi):\n"
        "    lam, w = _soe(1.0 - beta, h_min, T)\n"
        "def convolve_weakly_singular(kernel, phi):\n"
        "    return _history_sums(nodes, beta, phi)\n"
    )
    assert _soe_caches(source) == []


def _second_model_parts(source: str) -> list[str]:
    """Module-level definitions of the deleted fit's constants, and calls
    of _extrapolate_to_zero inside _forward_sweep, which reads m(0) from
    its caller."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        found += [
            f"line {node.lineno}: defines {t.id}"
            for t in targets
            if isinstance(t, ast.Name) and t.id in DELETED_FIT_CONSTANTS
        ]
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == "_forward_sweep"):
            continue
        for call in ast.walk(fn):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "attr", None) or getattr(call.func, "id", None)
                if name == "_extrapolate_to_zero":
                    found.append(f"line {call.lineno}: _forward_sweep calls {name}")
    return found


@pytest.mark.parametrize("module", [sonine_kit.sonine, sonine_kit.volterra])
def test_one_model_of_gprime_near_0(module):
    """The verdict, g(0+), the L1 norm and the sweep's m(0) read one model
    of g' near 0: no R^2 threshold or floor of a second fit, and no m(0)
    of the sweep's own."""
    assert _second_model_parts(Path(module.__file__).read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "EPS_FIT_MIN_R2 = 0.9",
        "GPRIME_FLOOR: float = 1e-12",
        "AMPLITUDE_FLOOR = 1e-6",
        "def _forward_sweep(gprime, F, mesh, eps):\n    m[0] = _extrapolate_to_zero(nodes, m)\n",
        "def _forward_sweep(gprime, F, mesh, eps):\n    m0 = kernels._extrapolate_to_zero(t, m)\n",
    ],
)
def test_second_model_guard_catches_violations(source):
    assert _second_model_parts(source)


def test_second_model_guard_allows_the_model_and_the_public_rule():
    source = (
        "EPS_MARGIN = 0.01\n"
        "def _bounded_factor(gprime, eps, m0=None):\n"
        "    return _extrapolate_to_zero(nodes, m)\n"
        "def _forward_sweep(m, F, mesh, eps):\n"
        "    nodes, m = mesh.nodes, m.values\n"
    )
    assert _second_model_parts(source) == []


def _two_level_layout_parts(source: str) -> list[str]:
    """Module-level definitions of the two-level layout's constants, reads
    of the entry budget in the triangle's functions, any use of BLOCK_ROWS,
    and loops over a strided range of rows in _triangle_blocks: its blocks
    are the leaves of the cluster tree."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        found += [
            f"line {node.lineno}: defines {t.id}"
            for t in targets
            if isinstance(t, ast.Name) and t.id in DELETED_TRIANGLE_CONSTANTS
        ]
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in TRIANGLE_FUNCTIONS):
            continue
        for node in ast.walk(fn):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name == BLOCK_BUDGET:
                found.append(f"line {node.lineno}: {fn.name} reads {name}")
            if (
                fn.name == "_triangle_blocks"
                and isinstance(node, (ast.For, ast.comprehension))
                and isinstance(node.iter, ast.Call)
                and getattr(node.iter.func, "id", None) == "range"
                and len(node.iter.args) == 3
            ):
                found.append(f"line {node.iter.lineno}: {fn.name} loops over row blocks")
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name == LEAF_BLOCK_ROWS:
            found.append(f"line {node.lineno}: uses {name}")
    return found


def test_triangle_has_one_layout():
    """The triangle's row-cluster tree serves every N: no dense crossover,
    super-blocks or row floor, and one block per leaf, sized by
    LEAF_ROWS rather than the O(N M) sums' entry budget."""
    assert _two_level_layout_parts(Path(sonine_kit.quadrature.__file__).read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "FAR_MIN_N = 640",
        "FAR_ROWS: int = 128",
        "TRIANGLE_MIN_ROWS = 16",
        "def _triangle_blocks(nodes, beta, factor, x):\n    c = BLOCK_ENTRIES // len(nodes)\n",
        "def _far_sums(nodes, h, beta, factor, x, t, work):\n    n = quadrature.BLOCK_ENTRIES\n",
        "BLOCK_ROWS = 32",
        "def f(x):\n    return quadrature.BLOCK_ROWS\n",
        "def _triangle_blocks(nodes, beta, factor, x):\n"
        "    for i0 in range(s0, s1, rows):\n"
        "        pass\n",
        "def _triangle_blocks(nodes, beta, factor, x):\n"
        "    blocks = [(i0, i0 + 32) for i0 in range(s0, s1, 32)]\n",
    ],
)
def test_layout_guard_catches_violations(source):
    assert _two_level_layout_parts(source)


def test_layout_guard_allows_the_tree_and_the_row_sums():
    source = (
        "BLOCK_ENTRIES = 8192\n"
        "LEAF_ROWS = 64\n"
        "def _row_blocks(n_rows, n_cols):\n"
        "    step = max(1, BLOCK_ENTRIES // n_cols)\n"
        "def _triangle_blocks(nodes, beta, factor, x):\n"
        "    for s0, s1, j0, leaf in zip(starts, starts[1:], jf, bands):\n"
        "        for c0, c1, jp, jc in leaf:\n"
        "            pass\n"
        "def _history_sums(nodes, beta, phi):\n"
        "    for j0 in range(0, L, steps):\n"
        "        pass\n"
    )
    assert _two_level_layout_parts(source) == []


#: the one product-weight contract: the singular point lies on or past a
#: row's last node, so _moments takes no orientation switch, and the far
#: bands' cut last hat is its business, not its callers'
MOMENTS_PARAMETERS = ["d", "h", "beta", "work"]
SOURCE_FILES = sorted(Path(sonine_kit.quadrature.__file__).parent.glob("*.py"))


def _moments_contract_breaks(source: str) -> list[str]:
    """A _moments whose parameters are not (d, h, beta, work), calls of
    _moments that pass a string, and powers of beta outside _moments,
    such as an end cut patched on after the call."""
    tree = ast.parse(source)
    found = []
    inside = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "_moments":
            names = [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
            if names != MOMENTS_PARAMETERS or fn.args.vararg or fn.args.kwarg:
                found.append(f"line {fn.lineno}: _moments takes {names}")
            inside |= {id(node) for node in ast.walk(fn)}
    for node in ast.walk(tree):
        callee = getattr(node, "func", None)
        name = getattr(callee, "id", None) or getattr(callee, "attr", None)
        if isinstance(node, ast.Call) and name == "_moments":
            args = node.args + [k.value for k in node.keywords]
            if any(isinstance(a, ast.Constant) and isinstance(a.value, str) for a in args):
                found.append(f"line {node.lineno}: _moments is passed a string")
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and getattr(node.right, "id", None) == "beta"
            and id(node) not in inside
        ):
            found.append(f"line {node.lineno}: a power of beta outside _moments")
    return found


@pytest.mark.parametrize("path", SOURCE_FILES, ids=lambda p: p.name)
def test_one_product_weight_contract(path):
    """_moments takes (d, h, beta, work) with no orientation, no call
    passes it one, and no caller patches a weight with a power of beta."""
    assert _moments_contract_breaks(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "def _moments(d, h, beta, singular_end, work=None):\n    pass\n",
        "def _moments(d, h, beta, work=None, *, left=False):\n    pass\n",
        "w = _moments(v, np.diff(v), beta, 'left')\n",
        "w = quadrature._moments(d, h, 1.0, singular_end='right')\n",
        "def _far_sums(nodes, h, beta, factor, x, t, points, work):\n"
        "    F = _moments(lag, h, beta, work[:2])\n"
        "    F[:, -1] -= lag[:, -1] ** beta / beta\n",
    ],
)
def test_moments_guard_catches_violations(source):
    assert _moments_contract_breaks(source)


def test_moments_guard_allows_the_contract_and_its_mirror():
    source = (
        "def _moments(d, h, beta, work=None):\n"
        "    w[..., -1] = D[..., -1] - d[..., -1] ** beta / beta\n"
        "def _mirrored_moments(d, h, beta):\n"
        "    return _moments(d[::-1].copy(), h[::-1], beta)[::-1].copy()\n"
        "C = _moments(lag, h[j0 : s1 - 1], beta, work[:2])\n"
        "y = x ** (beta + 1.0)\n"
    )
    assert _moments_contract_breaks(source) == []


def _second_gprime_route_parts(source: str) -> list[str]:
    """What is left of the differenced g' in sonine.py's source, and
    breaks of the one refusal: NO_GPRIME assigned other than once at
    module level, its text in another string, a NO_GPRIME_RAISERS
    function that does not read it, or another function that does."""
    tree = ast.parse(source)
    defs = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    found = []
    if DIFFERENCED_FUNCTION in defs:
        found.append(f"line {defs[DIFFERENCED_FUNCTION].lineno}: defines {DIFFERENCED_FUNCTION}")
    model = defs.get(DIFFERENCED_MODEL)
    if model is not None:
        a = model.args
        if MEANS in [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]:
            found.append(f"line {model.lineno}: {DIFFERENCED_MODEL} takes {MEANS}")
    gate = defs.get(GATE_INPUTS)
    if gate is not None:
        found += [
            f"line {node.lineno}: {GATE_INPUTS} has {GATE_G}"
            for node in gate.body
            if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == GATE_G
        ]
    messages = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == NO_GPRIME for target in node.targets)
    ]
    if len(messages) != 1:
        found.append(f"assigns {NO_GPRIME} {len(messages)} times at module level")
    elif isinstance(messages[0].value, ast.Constant):
        text = messages[0].value.value[:24]
        found += [
            f"line {node.lineno}: copies the text of {NO_GPRIME}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and text in node.value
            and node is not messages[0].value
        ]
    def reads(fn):
        return any(isinstance(node, ast.Name) and node.id == NO_GPRIME for node in ast.walk(fn))

    for name in NO_GPRIME_RAISERS:
        fn = defs.get(name)
        if fn is None or not reads(fn):
            found.append(f"{name} does not read {NO_GPRIME}")
    found += [
        f"line {fn.lineno}: {name} reads {NO_GPRIME}"
        for name, fn in defs.items()
        if name not in NO_GPRIME_RAISERS and isinstance(fn, ast.FunctionDef) and reads(fn)
    ]
    return found


def test_one_gprime_route():
    """g' has one route, the analytic rule: sonine.py differences no g,
    and a pair off the rule that is not classical is refused with one
    message, by the gate alone."""
    source = Path(sonine_kit.sonine.__file__).read_text()
    assert _second_gprime_route_parts(source) == []


#: a source with the one route and the one refusal
ONE_ROUTE = (
    "_NO_GPRIME = (\n    \"an analytic g' needs orders that sum to 1 \"\n    \"and t S'(t)\"\n)\n"
    "def _near_origin_model(t, y, sigma):\n    pass\n"
    "class _GateInputs:\n    gprime: SampledFunction\n    delta: float | None\n"
    "def _gate_inputs(pair, mesh):\n    raise DomainError(_NO_GPRIME)\n"
)


@pytest.mark.parametrize(
    "source",
    [
        ONE_ROUTE + "def _fd_gprime(nodes, g):\n    pass\n",
        ONE_ROUTE.replace("(t, y, sigma)", "(t, y, means, sigma)"),
        ONE_ROUTE.replace("(t, y, sigma)", "(t, y, sigma, *, means=False)"),
        ONE_ROUTE.replace("delta: float | None", "g: SampledFunction | None"),
        ONE_ROUTE + "_NO_GPRIME = \"g' has no rule\"\n",
        ONE_ROUTE.replace(
            "def _gate_inputs(pair, mesh):\n    raise DomainError(_NO_GPRIME)",
            "def _gate_inputs(pair, mesh):\n"
            "    raise DomainError(\"an analytic g' needs orders that sum to 1\")",
        ),
        ONE_ROUTE.replace("def _gate_inputs(pair, mesh):", "def _gate_rule(pair, mesh):"),
        ONE_ROUTE + "def _gprime_flat(pair, flat, M):\n    raise DomainError(_NO_GPRIME)\n",
    ],
    ids=[
        "fd", "means", "keyword means", "gate g", "two messages", "copied text", "no raiser",
        "second raiser",
    ],
)
def test_gprime_route_guard_catches_violations(source):
    assert _second_gprime_route_parts(source)


def test_gprime_route_guard_allows_the_one_route():
    assert _second_gprime_route_parts(ONE_ROUTE) == []
