"""Layer tracing from outside the program.

``install`` wraps the public functions of each ``mapbayes`` module in a
span recorder and puts the wrapper under every name that pointed at the
original, in every ``mapbayes`` module, so calls between modules go
through it too.  No file of the program changes.

``UscDensity1D.integrate`` is called tens of thousands of times per op, so
it gets no span of its own: its calls and time are added to the span that
called it.  A few hotter calls are only counted: pointwise ``evaluate``,
``Piece.integral`` inside ``integrate``, ``disc_rect_overlap`` and the
benchmark's likelihoods.

Spans (name, start, end, parent) and the counts made while each span was
the innermost one are kept in flat arrays and written out once, at the end.
Self time is a span's duration minus that of its direct children and of
the ``integrate`` calls it made.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: modules whose public functions get spans, with the functions they use
#: that are left out of ``__all__``
LAYERS = {
    "cli": ["main"],
    "counterexample": [],
    "diagnostics": [],
    "estimators": [],
    "argmax": ["maximize_objective_2d"],
    "windows": [],
    "density": [],
}
COUNTERS = ("evaluate", "integrate", "piece_integral", "disc_overlap", "likelihood")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts = {c: array("q") for c in COUNTERS}
        self.integrate_ns = array("q")
        self.current = -1
        self.in_integrate = False
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- recording -------------------------------------------------------------

    def spanned(self, name: str, fn):
        nid = self.name_id(name)
        names, start, end, parent = self.name, self.start, self.end, self.parent
        columns = [*self.counts.values(), self.integrate_ns]
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(self.current)
            end.append(0)
            for c in columns:
                c.append(0)
            self.current = idx
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                self.current = parent[idx]

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, counter: str, fn, only_in_integrate: bool = False):
        counts = self.counts[counter]

        def wrapper(*args, **kwargs):
            if self.current >= 0 and (self.in_integrate or not only_in_integrate):
                counts[self.current] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def integrate(self, fn):
        """Adds each call's count and time to the calling span."""
        counts, spent = self.counts["integrate"], self.integrate_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            self.in_integrate = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.in_integrate = False
                if self.current >= 0:
                    counts[self.current] += 1
                    spent[self.current] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, likelihood_classes=()) -> None:
        import mapbayes
        from mapbayes.density import GridDensity, Piece, UscDensity1D

        modules = [m for n, m in sys.modules.items()
                   if n == "mapbayes" or n.startswith("mapbayes.")]
        replace = {}
        for layer, extra in LAYERS.items():
            mod = sys.modules[f"mapbayes.{layer}"]
            for attr in list(getattr(mod, "__all__", [])) + extra:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replace[id(fn)] = self.spanned(f"{layer}.{attr}", fn)
        overlap = mapbayes.windows.disc_rect_overlap
        replace[id(overlap)] = self.counted("disc_overlap", overlap)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in replace:
                    self._patch(mod, attr, replace[id(val)])

        self._patch(UscDensity1D, "integrate", self.integrate(UscDensity1D.integrate))
        self._patch(Piece, "integral",
                    self.counted("piece_integral", Piece.integral, only_in_integrate=True))
        for cls in (UscDensity1D, GridDensity):
            self._patch(cls, "evaluate", self.counted("evaluate", cls.evaluate))
        for cls in likelihood_classes:
            self._patch(cls, "__call__", self.counted("likelihood", cls.__call__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        out = {"name": np.frombuffer(self.name, dtype=np.uint16),
               "start": np.frombuffer(self.start, dtype=np.int64),
               "end": np.frombuffer(self.end, dtype=np.int64),
               "parent": np.frombuffer(self.parent, dtype=np.int32),
               "integrate_ns": np.frombuffer(self.integrate_ns, dtype=np.int64)}
        out.update({c: np.frombuffer(v, dtype=np.int64) for c, v in self.counts.items()})
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-name totals over the recorded spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        self.name, self.parent = a["name"], a["parent"]
        self.counts = {c: a[c] for c in COUNTERS}
        self.integrate_ns = a["integrate_ns"]
        self.dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child - self.integrate_ns

    def mask(self, name: str) -> np.ndarray:
        return self.name == self.ids.get(name, -1)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self.mask(name)))

    def total_ns(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def self_ns(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def within(self, name: str) -> np.ndarray:
        """Spans that are, or descend from, a span with the given name."""
        target = self.ids.get(name, -1)
        inside = self.name == target
        cur = self.parent.copy()
        while True:
            open_ = ~inside & (cur >= 0)
            if not open_.any():
                return inside
            hit = open_ & (self.name[np.maximum(cur, 0)] == target)
            inside |= hit
            step = open_ & ~hit
            cur[step] = self.parent[cur[step]]
            cur[~step] = -1


def per_layer_metrics(table: SpanTable, ops: int, artifact_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics; a layer the workload never calls reads 0."""

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ms, us = 1e-6, 1e-3
    t = table
    window = t.within("argmax.maximize_window")
    search2d = t.within("argmax.maximize_objective_2d")
    disc = t.mask("windows.ball_integral")
    integrate_calls = t.counts["integrate"].sum()
    return {
        "cli.self_ms": (ratio(t.self_ns("cli.main") * ms, ops), "ms/op"),
        "cli.artifact_kb": (ratio(artifact_bytes / 1000.0, ops), "kB/op"),
        "counterexample.verify_self_ms": (
            ratio(t.self_ns("counterexample.verify_nonconvergence") * ms, ops), "ms/op"),
        "diagnostics.sweep_self_ms": (ratio(t.self_ns("diagnostics.sweep") * ms, ops), "ms/op"),
        "diagnostics.check_conditions_ms": (
            ratio(t.total_ns("diagnostics.check_conditions") * ms,
                  t.calls("diagnostics.check_conditions")), "ms/call"),
        "diagnostics.check_evaluations": (
            ratio(t.counts["evaluate"][t.within("diagnostics.check_conditions")].sum(),
                  t.calls("diagnostics.check_conditions")), "count/call"),
        "estimators.bayes_estimate_ms": (
            ratio(t.total_ns("estimators.bayes_estimate") * ms,
                  t.calls("estimators.bayes_estimate")), "ms/call"),
        "argmax.window_self_ms": (
            ratio(t.self_ns("argmax.maximize_window") * ms,
                  t.calls("argmax.maximize_window")), "ms/call"),
        "argmax.window_evals": (
            ratio(t.counts["integrate"][window].sum(), t.calls("argmax.maximize_window")),
            "count/call"),
        "argmax.search2d_self_ms": (
            ratio(t.self_ns("argmax.maximize_objective_2d") * ms,
                  t.calls("argmax.maximize_objective_2d")), "ms/call"),
        "argmax.search2d_evals": (
            ratio(np.count_nonzero(search2d & disc), t.calls("argmax.maximize_objective_2d")),
            "count/call"),
        "windows.disc_mass_us": (
            ratio(t.total_ns("windows.ball_integral") * us, t.calls("windows.ball_integral")),
            "us/call"),
        "windows.overlaps_per_disc": (
            ratio(t.counts["disc_overlap"][disc].sum(), t.calls("windows.ball_integral")),
            "count/call"),
        "density.integrate_us": (
            ratio(t.integrate_ns.sum() * us, integrate_calls), "us/call"),
        "density.pieces_per_integrate": (
            ratio(t.counts["piece_integral"].sum(), integrate_calls), "count/call"),
        "density.posterior_ms": (
            ratio(t.total_ns("density.posterior") * ms, t.calls("density.posterior")),
            "ms/call"),
        "density.posterior_evals": (
            ratio(t.counts["likelihood"][t.within("density.posterior")].sum(),
                  t.calls("density.posterior")), "count/call"),
    }
