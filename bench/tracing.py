"""Span tracing of kerrcubic's layers from outside the package.

`Tracer.install` wraps every public function each layer module defines, plus
`numpy.linalg.eigh`/`eigvalsh` (the `kernel` layer), and rebinds each wrapped
name in every package module that holds it. Modules bind names with
`from .x import f`, so a wrapper set only on the defining module would miss
those calls. Nothing under `src/` is edited.

A span is (name, start, end, parent). Spans stay in memory until the run
ends. A span's self time is its duration minus its children's durations, so
the self times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("algebra", "dynamics", "states", "experiments", "fock", "cli")
# every module that may hold a layer function under its own name
HOLDERS = tuple(f"kerrcubic.{m}" for m in LAYERS) + ("kerrcubic.soliton", "kerrcubic")


def _eigh_work(span, args, result):
    span.counts["n3"] = args[0].shape[-1] ** 3


def _optimize_alpha_work(span, args, result):
    span.counts["evaluations"] = result.evaluations
    span.counts["fallbacks"] = int(not result.unimodal)


def _evolve_lindblad_work(span, args, result):
    diag = result[1]
    span.counts["steps"] = diag["steps"]
    span.info.update(min_eigenvalue=diag.get("min_eigenvalue"),
                     trace_drift=diag["trace_drift"])


def _cubic_gate_info(span, args, result):
    cfg = args[0]
    span.info.update(n_fock=cfg.n_fock, lossy=cfg.kappa != 0.0)


# Work counts read from a call's arguments or public return value.
_WORK = {
    "kernel.eigh": _eigh_work,
    "experiments.optimize_alpha": _optimize_alpha_work,
    "dynamics.evolve_lindblad": _evolve_lindblad_work,
    "dynamics.cubic_gate": _cubic_gate_info,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "info")

    def __init__(self, name, parent):
        self.name = name
        self.start = self.end = None
        self.parent = parent
        self.counts = {}
        self.info = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; `summary()` aggregates them per name."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, parent)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if work is not None:
                work(sp, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and the LAPACK eigensolvers."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(name) for name in HOLDERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for attr in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, attr)
            self._restore.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._wrap(f"kernel.{attr}", original))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_times(self) -> list[float]:
        own = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.duration
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and the summed work counts."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        for sp, own in zip(self.spans, self.self_times()):
            row = out[sp.name]
            row["calls"] += 1
            row["self_s"] += own
            for k, v in sp.counts.items():
                row[k] += v
        return out

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, sp in enumerate(self.spans):
            if sp.parent is not None:
                kids[sp.parent].append(i)
        return kids

    def descendants(self, index: int, kids: list[list[int]]):
        """Every span nested inside span `index`."""
        todo = list(kids[index])
        while todo:
            i = todo.pop()
            yield self.spans[i]
            todo.extend(kids[i])
