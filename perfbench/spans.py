"""Span tracing of sonine-kit from outside the library.

For the traced run only, every function named in a ``sonine_kit``
module's ``__all__`` is replaced by a wrapper that records a span, in
every ``sonine_kit`` namespace that holds it, and so are
``KernelSpec.eval`` and ``KernelSpec.smooth``. Only public names are
wrapped, so refactors that delete private helpers do not break the trace.
A span's layer is the module that defines the function.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "sonine_kit"

KERNEL_METHODS = ("eval", "smooth")


def _points(args, kwargs, result):
    """Size of the ``t`` argument, the second positional one."""
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))


def _pair_nodes(sig):
    def count(args, kwargs, result):
        return 2 * (int(sig.bind(*args, **kwargs).arguments["M"]) + 1)

    return count


def _row_length(args, kwargs, result):
    return len(result)


class Tracer:
    """Records spans as [name, layer, start, end, parent, job] in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name: str, layer: str, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts[name] += count(args, kwargs, result)
                return result
            finally:
                span[3] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for public in getattr(mod, "__all__", ()):
                fn = getattr(mod, public)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{public}"
                wrapper = self._wrap(fn, name, layer, self._counter(name, fn))
                for holder in modules:
                    for attr in [a for a, v in vars(holder).items() if v is fn]:
                        self._restore.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)
        spec = sys.modules[PACKAGE + ".kernels"].KernelSpec
        for meth in KERNEL_METHODS:
            fn = spec.__dict__[meth]
            self._restore.append((spec, meth, fn))
            setattr(spec, meth, self._wrap(fn, f"kernels.KernelSpec.{meth}", "kernels", _points))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._restore):
            setattr(holder, attr, fn)
        self._restore.clear()

    @staticmethod
    def _counter(name: str, fn):
        if name == "quadrature.convolve_pair_at":
            return _pair_nodes(inspect.signature(fn))
        if name == "quadrature.product_weights":
            return _row_length
        if name == "sonine.compute_g_substituted":
            return _points
        return None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for (_, _, start, end, parent, _) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def job_self_totals(self) -> dict[int, float]:
        totals: dict[int, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[5]] += own
        return dict(totals)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times over every recorded span."""
        own = self.self_times()
        calls: Counter = Counter()
        inclusive: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        direct = 0
        for (name, layer, start, end, parent, _), s in zip(self.spans, own):
            calls[name] += 1
            calls[layer] += 1
            inclusive[name] += end - start
            layer_self[layer] += s
            if layer in ("quadrature", "sonine") and parent >= 0 and self.spans[parent][1] == "cli":
                direct += 1
        kernel_names = [f"kernels.KernelSpec.{m}" for m in KERNEL_METHODS]
        return {
            "kernels.calls": sum(calls[n] for n in kernel_names),
            "kernels.points": sum(self.counts[n] for n in kernel_names),
            "kernels.self_s": layer_self["kernels"],
            "mesh.calls": calls["mesh"],
            "mesh.self_s": layer_self["mesh"],
            "quadrature.convolve_pair.calls": calls["quadrature.convolve_pair"],
            "quadrature.convolve_pair.s": inclusive["quadrature.convolve_pair"],
            "quadrature.pair_nodes": self.counts["quadrature.convolve_pair_at"],
            "quadrature.product_weights.calls": calls["quadrature.product_weights"],
            "quadrature.weight_entries": self.counts["quadrature.product_weights"],
            "quadrature.convolve_weakly_singular.s": inclusive["quadrature.convolve_weakly_singular"],
            "quadrature.self_s": layer_self["quadrature"],
            "sonine.check_gsc.s": inclusive["sonine.check_gsc"],
            "sonine.compute_g_substituted.s": inclusive["sonine.compute_g_substituted"],
            "sonine.compute_g_substituted.points": self.counts["sonine.compute_g_substituted"],
            "sonine.self_s": layer_self["sonine"],
            "volterra.assemble_rhs.s": inclusive["volterra.assemble_rhs"],
            "volterra.solve_second_kind.s": inclusive["volterra.solve_second_kind"],
            "volterra.solve_first_kind.calls": calls["volterra.solve_first_kind"],
            "volterra.self_s": layer_self["volterra"],
            "cli.self_s": layer_self["cli"],
            "cli.direct_numeric_calls": direct,
        }

    def write(self, path) -> None:
        """Write every span, with its self time, as CSV."""
        with open(path, "w") as fh:
            fh.write("id,job,parent,name,start_s,end_s,self_s\n")
            for i, ((name, _, start, end, parent, job), own) in enumerate(
                zip(self.spans, self.self_times())
            ):
                fh.write(f"{i},{job},{parent},{name},{start!r},{end!r},{own!r}\n")
