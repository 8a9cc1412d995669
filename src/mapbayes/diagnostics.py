"""Convergence diagnostics: level sets, shape conditions, scale sweeps.

The central question these tools address: as the sharp-loss scale c grows,
do the small-ball Bayes reports approach the mode, or escape?  Sufficient
conditions (a bounded level set with interior, quasiconcavity) are checked
directly on the density; the sweep runs the estimator along a scale ladder
and classifies the finite trace.  All verdicts are statements about the
ladder actually run, not limits — the classifier is deliberately honest
about that and returns ``inconclusive`` when the trace does not separate
the hypotheses.

A 1D grid is examined on its piecewise view; ``sweep``, ``hypo_diagnostic``
and ``sup_on_interval`` exist in 1D only and reject 2D grids up front.

The shape checks of ``check_conditions`` are exact: quasiconcavity and
log-concavity are decided from the pieces or the cells, and every False
comes with a counterwitness the density's own pointwise values confirm.

No check takes a tuning setting: the float-dust and witness margins of
``check_conditions``, the value tolerance of ``sweep`` and the float slack
of ``hypo_diagnostic`` are fixed by this module and ``argmax``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .argmax import _clusters, _default_tol, _merge_elements
from .density import GridDensity, Piece, UscDensity1D, _pieces_view
from .estimators import LossSpec, bayes_estimate, map_estimate
from .windows import BallObjective, mollified_sup

__all__ = [
    "LevelSetReport",
    "ConditionReport",
    "SweepRow",
    "SweepTrace",
    "HypoRow",
    "HypoReport",
    "level_set",
    "check_conditions",
    "sweep",
    "hypo_diagnostic",
    "sup_on_interval",
    "SWEEP_CSV_HEADER",
]

#: distance below which a limit point counts as sitting in the MAP set
MAP_NEAR_TOL = 1e-6
#: increases/decreases smaller than this are treated as float dust
_EVENT_TOL = 1e-9
#: strictness margin every reported counterwitness must beat
_WITNESS_MARGIN = 1e-12
#: halvings a log-concavity witness search tries before it calls a violation float dust
_WITNESS_HALVINGS = 40
#: float slack every hit-and-miss comparison allows
_HYPO_SLACK = 1e-12


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


def _pieces_1d(d, what: str) -> UscDensity1D:
    """Piecewise view of d for a diagnostic that exists in 1D only."""
    pieces = _pieces_view(d)
    if pieces is None:
        raise ValueError(f"{what} applies to 1D densities only, not to 2D grids")
    return pieces


# ---------------------------------------------------------------------------
# Level sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelSetReport:
    """The region where the density is >= alpha.

    1D sets are unions of closed intervals; 2D grid sets are unions of
    closed cells.  ``bound_M`` is the smallest M with the set inside
    [-M, M]^dim (inf when unbounded).  A density carrying a
    ``tail_height_sup`` declaration is treated as unbounded below that
    height even though only finitely many pieces are materialized.
    """

    alpha: float
    intervals: tuple[tuple[float, float], ...]
    cells: tuple | None
    bounded: bool
    bound_M: float
    nonempty_interior: bool

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "intervals": [list(iv) for iv in self.intervals],
            "cells": None if self.cells is None else [list(map(list, c)) for c in self.cells],
            "bounded": self.bounded,
            "bound_M": self.bound_M,
            "nonempty_interior": self.nonempty_interior,
        }


def level_set(d, alpha: float) -> LevelSetReport:
    """Exact level set {density >= alpha} (cell-exact for grids)."""
    if alpha <= 0.0:
        # densities are nonnegative, and zero off the support
        return LevelSetReport(alpha, ((-math.inf, math.inf),), None,
                              bounded=False, bound_M=math.inf, nonempty_interior=True)

    pieces = _pieces_view(d)
    if pieces is not None:
        segs: list[tuple[float, float]] = []
        for p in pieces.pieces:
            segs.extend(p.solve_ge(alpha))
        segs.extend((t, t) for t in pieces.infinite_points)
        intervals = _merge_elements(segs, 0.0)
        declared_unbounded = (pieces.tail_height_sup is not None
                              and alpha < pieces.tail_height_sup)
        bounded = not declared_unbounded
        if intervals:
            M = max(max(abs(lo), abs(hi)) for lo, hi in intervals)
        else:
            M = 0.0
        if declared_unbounded:
            M = math.inf
        interior = any(hi > lo for lo, hi in intervals) or declared_unbounded
        return LevelSetReport(alpha, intervals, None, bounded, M, interior)

    (ox, _), (oy, _) = d.support
    hx, hy = d.spacing
    cells = []
    for i in range(d.shape[0]):
        for j in range(d.shape[1]):
            if d.values[i, j] >= alpha:
                cells.append(((ox + i * hx, ox + (i + 1) * hx),
                              (oy + j * hy, oy + (j + 1) * hy)))
    M = 0.0
    for (x0, x1), (y0, y1) in cells:
        M = max(M, abs(x0), abs(x1), abs(y0), abs(y1))
    return LevelSetReport(alpha, (), tuple(cells), True, M, bool(cells))


# ---------------------------------------------------------------------------
# Shape conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Shape facts that decide the fate of the small-ball reports.

    ``level_set_ok``: some alpha in the grid has a bounded level set with
    nonempty interior (computed on the strict set, i.e. alpha nudged down by
    1e-12).  ``eventually_level_bounded`` restates it for the smoothed
    family: the level sets of every ball average of radius 1/nu then sit
    inside the witness bound grown by 1/nu.  ``quasiconcave`` and
    ``log_concave`` are exact decisions (see :func:`check_conditions`); each
    False comes with a counterwitness triple (x, y, lam) with
    f(lam*x + (1-lam)*y) < min(f(x), f(y)) - 1e-12, resp. the same against
    the weighted geometric mean f(x)^lam * f(y)^(1-lam) for log-concavity.
    """

    level_set_ok: bool
    witness_alpha: float | None
    witness_bound: float | None
    quasiconcave: bool
    quasiconcave_witness: tuple | None
    log_concave: bool
    log_concave_witness: tuple | None
    eventually_level_bounded: bool

    def __post_init__(self):
        if self.log_concave and not self.quasiconcave:
            raise RuntimeError("inconsistent report: log-concave but not quasiconcave")

    def to_json(self) -> dict:
        return {
            "level_set_ok": self.level_set_ok,
            "witness_alpha": self.witness_alpha,
            "witness_bound": self.witness_bound,
            "quasiconcave": self.quasiconcave,
            "quasiconcave_witness": self.quasiconcave_witness,
            "log_concave": self.log_concave,
            "log_concave_witness": self.log_concave_witness,
            "eventually_level_bounded": self.eventually_level_bounded,
        }


@dataclass(frozen=True)
class _Seg:
    lo: float
    hi: float
    v_lo: float
    v_hi: float
    dirn: int
    piece: Piece | None  # None marks an off-support zero stretch


def _segments(d: UscDensity1D) -> list[_Seg]:
    segs: list[_Seg] = []
    prev_hi: float | None = None
    for p in d.pieces:
        if prev_hi is not None and p.lo > prev_hi:
            segs.append(_Seg(prev_hi, p.lo, 0.0, 0.0, 0, None))
        v0, v1 = p.endpoint_values()
        segs.append(_Seg(p.lo, p.hi, v0, v1, p.direction(), p))
        prev_hi = p.hi
    return segs


def _cut_at(segs: list[_Seg], t: float) -> list[_Seg]:
    """The segments with one starting at t: a segment holding t is split
    there, and a t off the support gets zero stretches out to it."""
    first, last = segs[0], segs[-1]
    if t < first.lo:
        return [_Seg(t, first.lo, 0.0, 0.0, 0, None)] + segs
    if t >= last.hi:
        gap = [_Seg(last.hi, t, 0.0, 0.0, 0, None)] if t > last.hi else []
        return segs + gap + [_Seg(t, t, 0.0, 0.0, 0, None)]
    out = []
    for seg in segs:
        if seg.lo < t < seg.hi:
            v = seg.piece.value(t) if seg.piece is not None else 0.0
            out += [_Seg(seg.lo, t, seg.v_lo, v, seg.dirn, seg.piece),
                    _Seg(t, seg.hi, v, seg.v_hi, seg.dirn, seg.piece)]
        else:
            out.append(seg)
    return out


def _step_in(seg: _Seg, m: float) -> float:
    """Offset into the segment that moves its value by at most m/4."""
    cap = 0.5 * (seg.hi - seg.lo)
    p = seg.piece
    if p is None or p.kind == "constant":
        return cap
    b = abs(p.params["b"])
    if b == 0.0:
        return cap
    if p.kind == "affine":
        return min(cap, m / (4.0 * b))
    # sqrt arc: |f(t+d) - f(t)| <= |b| sqrt(d) anywhere on the piece
    return min(cap, (m / (4.0 * b)) ** 2)


def _verified_witness(d, x, y, lam: float, geometric: bool = False) -> tuple | None:
    """(x, y, lam) when it strictly refutes quasiconcavity (or, with
    ``geometric``, log-concavity): f at lam*x + (1-lam)*y sits more than
    the witness margin below min(f(x), f(y)), resp. f(x)^lam * f(y)^(1-lam).
    Points are floats in 1D and (x, y) pairs on a 2D grid."""
    if isinstance(x, tuple):
        z = tuple(lam * a + (1.0 - lam) * b for a, b in zip(x, y))
    else:
        z = lam * x + (1.0 - lam) * y
    fx, fy = d.evaluate(x), d.evaluate(y)
    bound = fx ** lam * fy ** (1.0 - lam) if geometric else min(fx, fy)
    if d.evaluate(z) < bound - _WITNESS_MARGIN:
        return (x, y, lam)
    return None


def _quasiconcave_exact(d: UscDensity1D) -> tuple[bool, tuple | None]:
    """Exact unimodality check: nondecreasing then nonincreasing profile.

    Pieces are monotone, so the profile is captured by piece directions and
    the jumps between one-sided limits (zero off support).  An infinite
    point is a spike: a rise up to it, then a fall.  Any rise after a
    genuine fall yields a valley, from which a strict counterwitness triple
    is constructed.
    """
    segs = _segments(d)
    for t in d.infinite_points:
        segs = _cut_at(segs, t)
    descending = False
    run_max_val = 0.0
    run_max_pos = segs[0].lo - 1.0
    prev_val = 0.0
    for i, seg in enumerate(segs):
        pos = seg.lo
        spike = pos in d.infinite_points
        if (spike or seg.v_lo - prev_val > _EVENT_TOL) and descending:
            # jump up out of a valley: approach the valley inside segs[i-1]
            v_top = d.evaluate(pos)
            m = min(run_max_val, v_top) - prev_val
            if m > 4.0 * _WITNESS_MARGIN:
                z = pos - _step_in(segs[i - 1], m)
                w = _verified_witness(d, run_max_pos, pos,
                                      (pos - z) / (pos - run_max_pos))
                if w:
                    return False, w
        if spike or seg.v_lo - prev_val < -_EVENT_TOL:
            descending = True
        env = d.evaluate(pos)
        if env > run_max_val:
            run_max_val, run_max_pos = env, pos
        move = seg.v_hi - seg.v_lo
        if move > _EVENT_TOL:
            if descending:
                v_top = min(run_max_val, seg.v_hi)
                m = v_top - seg.v_lo
                if m > 4.0 * _WITNESS_MARGIN:
                    z = seg.lo + _step_in(seg, m)
                    w = _verified_witness(d, run_max_pos, seg.hi,
                                          (seg.hi - z) / (seg.hi - run_max_pos))
                    if w:
                        return False, w
        elif move < -_EVENT_TOL:
            descending = True
        prev_val = seg.v_hi
    return True, None


def _witness_by_halving(d, triple, span: float) -> tuple | None:
    """First verified log-concavity witness among triple(span * 2**-k)."""
    for k in range(_WITNESS_HALVINGS):
        w = _verified_witness(d, *triple(span * 0.5 ** k), geometric=True)
        if w:
            return w
    return None


def _slope(seg: _Seg, t: float) -> float:
    """One-sided derivative of the segment's formula at its end t; a sqrt
    arc is infinitely steep where its radicand vanishes."""
    p = seg.piece
    if p is None or p.kind == "constant":
        return 0.0
    b = p.params["b"]
    if p.kind == "affine" or b == 0.0:
        return b
    sb = b * p.params["s"]
    w = math.sqrt(max(p.params["s"] * (t - p.params["t0"]), 0.0))
    return sb / (2.0 * w) if w > 0.0 else math.copysign(math.inf, sb)


def _log_convex_stretch(p: Piece | None) -> tuple[float, float] | None:
    """(anchor, far end) of the stretch of a sqrt arc on which log f is
    strictly convex; None when log f is concave on the whole piece.

    With w = sqrt(s*(t - t0)), f*f'' - f'^2 = -b*(a + 2*b*w)/(4*w^3), and
    b*(a + 2*b*w) grows with w.  So log f is concave on the arc iff that
    factor is >= 0 at the anchor, the end where w is smallest; otherwise it
    is convex up to w = -a/(2*b) or the far end.
    """
    if p is None or p.kind != "sqrt":
        return None
    a, b, s, t0 = p.params["a"], p.params["b"], p.params["s"], p.params["t0"]
    anchor, far = (p.lo, p.hi) if s == 1 else (p.hi, p.lo)
    if b * (a + 2.0 * b * math.sqrt(max(s * (anchor - t0), 0.0))) >= 0.0:
        return None
    w_end = min(-a / (2.0 * b), math.sqrt(max(s * (far - t0), 0.0)))
    return anchor, t0 + s * w_end * w_end


def _log_concave_exact(d: UscDensity1D) -> tuple[bool, tuple | None]:
    """Exact log-concavity check for a density that passed the
    quasiconcavity walk, so that its support is an interval.

    Past the zero pieces at the ends of the support, log f is concave iff
    every sqrt arc is (constant and affine pieces always are) and every
    interior breakpoint has no jump and a one-sided slope that does not
    increase, f'(t-) >= f'(t+).  An infinite point is never log-concave.
    Each violation is tried with shrinking triples around it; one that no
    triple verifies is float dust.
    """
    segs = _segments(d)
    live = [i for i, seg in enumerate(segs) if max(seg.v_lo, seg.v_hi) > 0.0]
    segs = segs[live[0]:live[-1] + 1]
    for t in d.infinite_points:
        for seg in segs:
            w = _verified_witness(d, t, 0.5 * (seg.lo + seg.hi), 0.5, geometric=True)
            if w:
                return False, w
    for i, seg in enumerate(segs):
        if i:
            prev, t = segs[i - 1], seg.lo
            jump = seg.v_lo - prev.v_hi
            # z = t - h/2 below a jump up, t + h/2 past a jump down, t at a kink
            lam = None
            if jump > _EVENT_TOL:
                lam = 0.75
            elif jump < -_EVENT_TOL:
                lam = 0.25
            elif _slope(prev, t) < _slope(seg, t) - _EVENT_TOL:
                lam = 0.5
            if lam is not None:
                w = _witness_by_halving(d, lambda h: (t - h, t + h, lam),
                                        min(prev.hi - prev.lo, seg.hi - seg.lo))
                if w:
                    return False, w
        stretch = _log_convex_stretch(seg.piece)
        if stretch is not None:
            anchor, far = stretch
            w = _witness_by_halving(d, lambda h: (anchor, anchor + h, 0.5), far - anchor)
            if w:
                return False, w
    return True, None


def _grid_cells(d: GridDensity) -> list[tuple[float, int, int]]:
    """The positive cells of a 2D grid as (value, i, j), largest value first."""
    return sorted(((v, i, j) for i, row in enumerate(d.values.tolist())
                   for j, v in enumerate(row) if v > 0.0), reverse=True)


def _cell_point(d: GridDensity, u: float, v: float) -> tuple[float, float]:
    """The point at (u, v) in cell units from the grid origin."""
    return (d.origin[0] + u * d.spacing[0], d.origin[1] + v * d.spacing[1])


def _segment_leaving(d: GridDensity, cells) -> tuple:
    """A triple (x, y, lam) whose point lam*x + (1-lam)*y lies in a cell
    missing from ``cells``, for cells that do not fill their bounding box.

    Rows are scanned in order.  A gap inside a row, or an empty row between
    two rows, lies halfway between two cell centres.  Otherwise two adjacent
    rows differ at one end, and the L-shape case applies: a point in the row
    that reaches further, just across the row edge, and a point just inside
    the end cell of the other row meet halfway in a missing cell of that row.
    """
    rows: dict[int, list[int]] = {}
    for _, i, j in cells:
        rows.setdefault(i, []).append(j)
    prev = None
    for i in sorted(rows):
        js = sorted(rows[i])
        for j1, j2 in zip(js, js[1:]):
            if j2 > j1 + 1:
                return _cell_point(d, i + 0.5, j1 + 0.5), _cell_point(d, i + 0.5, j2 + 0.5), 0.5
        ends = (js[0], js[-1])
        if prev is not None:
            p, p_ends = prev
            if i > p + 1:
                return (_cell_point(d, p + 0.5, p_ends[0] + 0.5),
                        _cell_point(d, i + 0.5, ends[0] + 0.5), 0.5)
            if p_ends != ends:
                # mirror the columns (cell j -> -j - 1) when only the right ends differ
                s = 1 if p_ends[0] != ends[0] else -1
                (pa, pb), (a, b) = [(lo, hi) if s == 1 else (-hi - 1, -lo - 1)
                                    for lo, hi in (p_ends, ends)]
                # the outer row o reaches further left than the inner row n
                (o, b_o), (n, a_n) = ((p, pb), (i, a)) if pa < a else ((i, b), (p, pa))
                c = min(a_n - 1, b_o)
                x = _cell_point(d, max(o, n) + (o - n) / 4.0, s * (c + 0.5))
                y = _cell_point(d, n + 0.5, s * (a_n + 0.25))
                return x, y, 0.5
        prev = (i, ends)


def _quasiconcave_grid(d: GridDensity) -> tuple[bool, tuple | None]:
    """Exact quasiconcavity check for a 2D grid.

    A level set {f >= alpha > 0} is the union of the closed cells valued at
    least alpha, and such a union is convex iff it fills its bounding box of
    cells.  Cells are added in decreasing order of value, and at every value
    level the cell count is compared with the area of the bounding box.
    """
    cells = _grid_cells(d)
    i0 = j0 = math.inf
    i1 = j1 = -math.inf
    for k, (v, i, j) in enumerate(cells):
        i0, i1, j0, j1 = min(i0, i), max(i1, i), min(j0, j), max(j1, j)
        if k + 1 < len(cells) and cells[k + 1][0] == v:
            continue
        if k + 1 < (i1 - i0 + 1) * (j1 - j0 + 1):
            w = _verified_witness(d, *_segment_leaving(d, cells[:k + 1]))
            if w:
                return False, w
    return True, None


def _log_concave_grid(d: GridDensity) -> tuple[bool, tuple | None]:
    """Exact log-concavity check for a 2D grid that passed the
    quasiconcavity check, so that its positive cells fill a rectangle.

    log f is concave on that rectangle and constant on each cell, hence
    constant: the grid is log-concave iff no positive cell drops by more
    than the event tolerance to a positive neighbour.  The witness steps
    along the largest such drop.
    """
    vals = d.values.tolist()
    n0, n1 = d.shape
    drop, i, j, di, dj = max(
        ((vals[i][j] - vals[i + di][j + dj], i, j, di, dj)
         for i in range(n0) for j in range(n1)
         for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
         if 0 <= i + di < n0 and 0 <= j + dj < n1
         and vals[i][j] > 0.0 and vals[i + di][j + dj] > 0.0),
        default=(0.0, 0, 0, 0, 0))
    if drop <= _EVENT_TOL:
        return True, None
    # x is the larger cell's centre; z = x + 0.75 step and y = x + 1.25 step
    # both sit inside the smaller cell
    x = _cell_point(d, i + 0.5, j + 0.5)
    y = _cell_point(d, i + 0.5 + 1.25 * di, j + 0.5 + 1.25 * dj)
    w = _verified_witness(d, x, y, 0.4, geometric=True)
    return (False, w) if w else (True, None)


def check_conditions(d, alpha_grid: Sequence[float] | None = None) -> ConditionReport:
    """Run the level-set and shape checks on a density.

    Both shape checks are decisions, in time linear in the pieces or cells
    (plus one sort of the cells of a 2D grid):

    * 1D (a 1D grid on its piecewise view): quasiconcave iff the profile
      never rises after a genuine fall, an infinite point counting as a
      rise to it and a fall after it.  Log-concave iff, in addition,
      every sqrt arc a + b*sqrt(s*(t - t0)) has b*(a + 2*b*w) >= 0 over its
      w range, and every interior breakpoint has no jump and a one-sided
      slope that does not increase (an infinite slope counts).
    * 2D grids: quasiconcave iff, at every value level, the cells valued
      at least that level fill their bounding box.  Log-concave iff one
      positive value fills a rectangle of cells and every other cell is 0.

    A jump, kink or cell difference below 1e-9 is float dust, and a False
    comes only with a witness (x, y, lam) that beats min(f(x), f(y)), resp.
    f(x)^lam * f(y)^(1-lam), by more than 1e-12 at lam*x + (1-lam)*y.  A
    quasiconcavity witness refutes log-concavity too.
    """
    sup_res = map_estimate(d)
    if alpha_grid is None:
        if sup_res.sup_infinite:
            raise ValueError("alpha_grid must be given for unbounded densities")
        s = sup_res.sup_value
        alpha_grid = tuple(f * s for f in (0.1, 0.25, 0.5, 0.75, 0.9))

    witness_alpha = witness_bound = None
    for alpha in sorted(a for a in alpha_grid if a > 0):
        rep = level_set(d, alpha - 1e-12)  # strict-set variant
        if rep.bounded and rep.nonempty_interior:
            witness_alpha, witness_bound = alpha, rep.bound_M
            break
    level_ok = witness_alpha is not None

    pieces = _pieces_view(d)
    if pieces is not None:
        qc, qc_w = _quasiconcave_exact(pieces)
        lc, lc_w = _log_concave_exact(pieces) if qc else (False, qc_w)
    else:
        qc, qc_w = _quasiconcave_grid(d)
        lc, lc_w = _log_concave_grid(d) if qc else (False, qc_w)

    return ConditionReport(
        level_set_ok=level_ok,
        witness_alpha=witness_alpha,
        witness_bound=witness_bound,
        quasiconcave=qc,
        quasiconcave_witness=qc_w,
        log_concave=lc,
        log_concave_witness=lc_w,
        eventually_level_bounded=level_ok,
    )


# ---------------------------------------------------------------------------
# Scale sweeps
# ---------------------------------------------------------------------------


SWEEP_CSV_HEADER = "c,canonical,sup_value,dist_to_map,argmax_lo,argmax_hi"


@dataclass(frozen=True)
class SweepRow:
    c: float
    canonical: float
    sup_value: float
    dist_to_map: float
    argmax_lo: float
    argmax_hi: float

    def csv(self) -> str:
        return ",".join(fmt17(v) for v in
                        (self.c, self.canonical, self.sup_value,
                         self.dist_to_map, self.argmax_lo, self.argmax_hi))


@dataclass(frozen=True)
class SweepTrace:
    """Small-ball Bayes reports along a scale ladder, with a finite-scale verdict.

    ``limit_points`` clusters the canonicals of the tail half of the ladder
    at radius ``cluster_radius``.  The verdict speaks only about this
    ladder:

    * ``converges_to_MAP`` — tail reports sit in the MAP set and have
      settled, or their distances to the MAP set decay geometrically;
    * ``limit_point_is_MAP`` — tail reports sit in the MAP set (within
      1e-6) but keep moving inside it;
    * ``diverges_from_MAP`` — tail reports stay far (> 1e-3) from the MAP
      set with no decay trend;
    * ``inconclusive`` — everything else, including single-rung ladders.
    """

    ladder: tuple[float, ...]
    rows: tuple[SweepRow, ...]
    map_sup: float
    map_maximizers: tuple
    map_canonical: float
    limit_points: tuple[float, ...]
    verdict: str
    cluster_radius: float

    def csv_lines(self) -> list[str]:
        return [SWEEP_CSV_HEADER] + [row.csv() for row in self.rows]

    def to_json(self) -> dict:
        return {
            "ladder": list(self.ladder),
            "rows": [[r.c, r.canonical, r.sup_value, r.dist_to_map,
                      r.argmax_lo, r.argmax_hi] for r in self.rows],
            "map_sup": self.map_sup,
            "map_maximizers": [list(m) for m in self.map_maximizers],
            "map_canonical": self.map_canonical,
            "limit_points": list(self.limit_points),
            "verdict": self.verdict,
            "cluster_radius": self.cluster_radius,
        }


def _verdict(tail: Sequence[SweepRow], cluster_radius: float) -> str:
    dists = [r.dist_to_map for r in tail]
    cans = [r.canonical for r in tail]
    all_near = all(x <= MAP_NEAR_TOL for x in dists)
    settled = (max(cans) - min(cans)) <= cluster_radius
    decaying = (
        all(d2 <= 0.9 * d1 + 1e-12 for d1, d2 in zip(dists, dists[1:]))
        and dists[-1] <= 0.25 * dists[0] + 1e-12
    )
    if all_near and settled:
        return "converges_to_MAP"
    if all_near:
        return "limit_point_is_MAP"
    if decaying:
        return "converges_to_MAP"
    if min(dists) > 1e-3:
        return "diverges_from_MAP"
    return "inconclusive"


def sweep(d, ladder: Sequence[float], search=None) -> SweepTrace:
    """Run the small-ball estimator along an increasing scale ladder (1D only)."""
    _pieces_1d(d, "sweep")
    ladder = [float(c) for c in ladder]
    if not ladder:
        raise ValueError("ladder must not be empty")
    if any(c2 <= c1 for c1, c2 in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly increasing")
    if ladder[0] <= 0:
        raise ValueError("ladder scales must be positive")

    cluster_radius = 10.0 * _default_tol(d)

    map_res = map_estimate(d, search)
    rows = []
    for c in ladder:
        res = bayes_estimate(d, LossSpec(c), search)
        lo, hi = res.hull()
        rows.append(SweepRow(
            c=c, canonical=res.canonical, sup_value=res.sup_value,
            dist_to_map=map_res.distance_to(res.canonical),
            argmax_lo=lo, argmax_hi=hi,
        ))

    if len(rows) >= 2:
        tail = rows[-max(2, math.ceil(len(rows) / 2)):]
        limit_points = tuple(sum(g) / len(g) for g in
                             _clusters([r.canonical for r in tail], cluster_radius))
        verdict = _verdict(tail, cluster_radius)
    else:
        limit_points = (rows[-1].canonical,)
        verdict = "inconclusive"

    return SweepTrace(
        ladder=tuple(ladder), rows=tuple(rows),
        map_sup=map_res.sup_value, map_maximizers=map_res.maximizers,
        map_canonical=map_res.canonical,
        limit_points=limit_points, verdict=verdict,
        cluster_radius=cluster_radius,
    )


# ---------------------------------------------------------------------------
# Finite-scale hit-and-miss diagnostics for the smoothed family
# ---------------------------------------------------------------------------


def sup_on_interval(d, lo: float, hi: float, *, closed: bool = True) -> float:
    """Sup of the density over an interval (limits count toward the sup).

    For a closed interval the boundary values use the two-sided envelope;
    for an open one only this-side limits enter.  Works on piecewise
    densities and 1D grids.
    """
    d = _pieces_1d(d, "sup_on_interval")
    if hi < lo:
        raise ValueError("need lo <= hi")
    cands = []
    covered = 0.0
    for p in d.pieces:
        a, b = max(p.lo, lo), min(p.hi, hi)
        if b > a:
            cands.extend((p.value(a), p.value(b)))
            covered += b - a
        elif closed and b == a and p.lo <= a <= p.hi:
            cands.append(p.value(a))
    if closed:
        cands.extend((d.evaluate(lo), d.evaluate(hi)))
        cands.extend(math.inf for t in d.infinite_points if lo <= t <= hi)
    else:
        cands.extend(math.inf for t in d.infinite_points if lo < t < hi)
    if covered < (hi - lo) - 1e-15 * max(1.0, abs(lo), abs(hi)):
        cands.append(0.0)  # the interval leaves the support somewhere
    return max(cands, default=0.0)


def _lipschitz_with_jumps(d: UscDensity1D, lo: float, hi: float) -> float:
    """Lipschitz bound on (lo, hi), infinite if a genuine jump sits inside."""
    left_at: dict[float, float] = {}
    right_at: dict[float, float] = {}
    for p in d.pieces:
        v0, v1 = p.endpoint_values()
        right_at[p.lo] = v0
        left_at[p.hi] = v1
    for b in d.breakpoints:
        if lo < b < hi:
            if abs(left_at.get(b, 0.0) - right_at.get(b, 0.0)) > 1e-12:
                return math.inf
    return d.lipschitz_bound(lo, hi)


@dataclass(frozen=True)
class HypoRow:
    kind: str  # "closed" or "open"
    lo: float
    hi: float
    nu: float
    sup_smoothed: float
    sup_reference: float
    slack: float
    ok: bool
    skipped: bool = False
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "kind": self.kind, "lo": self.lo, "hi": self.hi, "nu": self.nu,
            "sup_smoothed": self.sup_smoothed, "sup_reference": self.sup_reference,
            "slack": self.slack, "ok": self.ok, "skipped": self.skipped,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class HypoReport:
    """Finite-family sup comparisons between the density and its ball averages.

    For closed B the averages can never beat the density's sup over B grown
    by the ball radius (plus float slack).  For open O they can't fall below
    the density's sup over O shrunk by the radius, minus a Lipschitz
    allowance L/nu — this lower check only applies where the density is
    continuous with finite slope, and rows where it isn't are marked
    skipped.  Passing rows are evidence at the scales actually checked,
    nothing more.
    """

    rows: tuple[HypoRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok or r.skipped for r in self.rows)

    def to_json(self) -> dict:
        return {"ok": self.ok, "rows": [r.to_json() for r in self.rows]}


def hypo_diagnostic(d, nus: Sequence[float],
                    closed_intervals: Sequence[tuple[float, float]] = (),
                    open_intervals: Sequence[tuple[float, float]] = ()) -> HypoReport:
    """Run the hit-and-miss sup diagnostics for each scale nu in nus (1D only)."""
    pieces = _pieces_1d(d, "hypo_diagnostic")
    rows = []
    for nu in nus:
        if nu <= 0:
            raise ValueError("scales nu must be positive")
        r = 1.0 / nu
        for (lo, hi) in closed_intervals:
            sm = mollified_sup(BallObjective(pieces, r), (lo, hi)).sup_value
            ref = sup_on_interval(pieces, lo - r, hi + r, closed=True)
            rows.append(HypoRow("closed", lo, hi, nu, sm, ref, _HYPO_SLACK,
                                ok=sm <= ref + _HYPO_SLACK))
        for (lo, hi) in open_intervals:
            sm = mollified_sup(BallObjective(pieces, r), (lo, hi)).sup_value
            s_lo, s_hi = lo + r, hi - r
            if s_hi <= s_lo:
                rows.append(HypoRow("open", lo, hi, nu, sm, math.nan, _HYPO_SLACK,
                                    ok=True, skipped=True,
                                    reason="shrunken interval is empty"))
                continue
            L = _lipschitz_with_jumps(pieces, lo, hi)
            if not math.isfinite(L):
                rows.append(HypoRow("open", lo, hi, nu, sm, math.nan, _HYPO_SLACK,
                                    ok=True, skipped=True,
                                    reason="jump or unbounded slope in the interval"))
                continue
            ref = sup_on_interval(pieces, s_lo, s_hi, closed=False)
            rows.append(HypoRow("open", lo, hi, nu, sm, ref, _HYPO_SLACK,
                                ok=sm >= ref - L / nu - _HYPO_SLACK))
    return HypoReport(tuple(rows))
