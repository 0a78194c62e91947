"""Span tracer that instruments nptsub from outside, without editing src/.

``Tracer.install`` replaces every public function of the package's layer
modules at each module attribute where a caller looks it up (so calls from
inside the package, such as ``nptsub.sdp`` calling ``optimize_over_ppt``,
are caught), plus the dense ``numpy.linalg`` kernels the package calls and
``DensityMatrix`` validation.  ``uninstall`` puts the originals back.

Spans are kept in memory as ``[name, parent, start, end, solver, extra]``
lists; nothing is written while measuring.  ``summarize`` turns one pass
of spans into per-name counts, total time and self time (a span's duration
minus the time its direct children cover).
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

LAYERS = ("linalg", "bipartite", "subspace", "sdp", "cli")
KERNELS = ("eigh", "eigvalsh", "lstsq")

#: Solver entry points; every span below one is attributed to it.
SOLVERS = (
    "sdp.solve_construction_sdp",
    "sdp.optimize_over_ppt",
    "sdp.decompose_dual_cone",
)


def _kernel_extra(args, kwargs, out):
    """(batch * d^3, is_complex) of the first argument of a linalg kernel."""
    a = np.asarray(args[0] if args else kwargs["a"])
    d = a.shape[-1]
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    return batch * d**3, bool(np.iscomplexobj(a))


def _iterations(args, kwargs, out):
    return out.iterations


def _sweeps(args, kwargs, out):
    return out[3]


def _doc_bytes(args, kwargs, out):
    return os.path.getsize(args[0] if args else kwargs["path"])


EXTRAS = {
    "numpy.eigh": _kernel_extra,
    "numpy.eigvalsh": _kernel_extra,
    "sdp.solve_construction_sdp": _iterations,
    "sdp.optimize_over_ppt": _iterations,
    "sdp.decompose_dual_cone": _sweeps,
    "cli.save_matrix": _doc_bytes,
}

#: Extras read from a NoConvergence's ``partial`` when the call raises.
PARTIAL_EXTRAS = {
    "sdp.solve_construction_sdp": _iterations,
    "sdp.optimize_over_ppt": _iterations,
}


class Tracer:
    """In-memory span recorder over the package's public call boundaries."""

    def __init__(self, nptsub_pkg):
        self._pkg = nptsub_pkg
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    # -- instrumentation -----------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        extra_fn = EXTRAS.get(name)
        partial_fn = PARTIAL_EXTRAS.get(name)
        is_solver = name in SOLVERS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            solver = name if is_solver else (spans[parent][4] if parent >= 0 else None)
            span = [name, parent, 0.0, 0.0, solver, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = clock()
                stack.pop()
                partial = getattr(exc, "partial", None)
                if partial_fn is not None and partial is not None:
                    span[5] = partial_fn(args, kwargs, partial)
                raise
            span[3] = clock()
            stack.pop()
            if extra_fn is not None:
                span[5] = extra_fn(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public layer function wherever the package binds it."""
        import importlib

        pkg = self._pkg
        modules = {layer: importlib.import_module(f"{pkg.__name__}.{layer}") for layer in LAYERS}
        home = {mod.__name__: layer for layer, mod in modules.items()}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                origin = home.get(getattr(fn, "__module__", None))
                if origin is None or getattr(fn, "__name__", None) != attr:
                    continue
                wrapped.setdefault(id(fn), self._wrap(fn, f"{origin}.{attr}"))
        for mod in (pkg, *modules.values()):
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrapped and not attr.startswith("_"):
                    self._patch(mod, attr, wrapped[id(fn)])
        for kernel in KERNELS:
            self._patch(np.linalg, kernel, self._wrap(getattr(np.linalg, kernel), f"numpy.{kernel}"))
        density = modules["bipartite"].DensityMatrix
        self._patch(density, "__post_init__",
                    self._wrap(density.__post_init__, "bipartite.DensityMatrix"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        out = self.spans[:]
        self.spans.clear()
        return out


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per-name calls, total seconds, self seconds and summed extras.

    Kernel spans are also split by the solver they ran under, as
    ``calls_under``; their extra is (batch * d^3, is_complex).
    """
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, dict] = {}
    for idx, (name, parent, t0, t1, solver, extra) in enumerate(spans):
        row = out.setdefault(name, {
            "calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0,
            "complex_calls": 0, "calls_under": {},
        })
        row["calls"] += 1
        row["s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_time[idx]
        if isinstance(extra, tuple):
            row["extra"] += extra[0]
            row["complex_calls"] += int(extra[1])
        elif extra is not None:
            row["extra"] += extra
        if solver is not None:
            row["calls_under"][solver] = row["calls_under"].get(solver, 0) + 1
    return out
