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

No check takes a tuning setting: the sampled triples of ``check_conditions``
(fixed seed, fixed count), the value tolerance of ``sweep`` and the float
slack of ``hypo_diagnostic`` are fixed by this module and ``argmax``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
#: seed and number of the random triples behind the sampled shape checks
_TRIPLE_SEED = 0
_N_TRIPLES = 10_000
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
    inside the witness bound grown by 1/nu.  Counterwitnesses are triples
    (x, y, lam) with f(lam*x + (1-lam)*y) < min(f(x), f(y)) - 1e-12, resp.
    the same against the weighted geometric mean for log-concavity.
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


def _verified_witness(d, x: float, y: float, lam: float) -> tuple | None:
    z = lam * x + (1.0 - lam) * y
    if d.evaluate(z) < min(d.evaluate(x), d.evaluate(y)) - _WITNESS_MARGIN:
        return (x, y, lam)
    return None


def _quasiconcave_exact(d: UscDensity1D) -> tuple[bool, tuple | None]:
    """Exact unimodality check: nondecreasing then nonincreasing profile.

    Pieces are monotone, so the profile is captured by piece directions and
    the jumps between one-sided limits (zero off support).  Any rise after a
    genuine fall yields a valley, from which a strict counterwitness triple
    is constructed.
    """
    segs = _segments(d)
    descending = False
    run_max_val = 0.0
    run_max_pos = segs[0].lo - 1.0
    prev_val = 0.0
    for i, seg in enumerate(segs):
        pos = seg.lo
        if seg.v_lo - prev_val > _EVENT_TOL and descending:
            # jump up out of a valley: approach the valley inside segs[i-1]
            v_top = d.evaluate(pos)
            m = min(run_max_val, v_top) - prev_val
            if m > 4.0 * _WITNESS_MARGIN:
                z = pos - _step_in(segs[i - 1], m)
                w = _verified_witness(d, run_max_pos, pos,
                                      (pos - z) / (pos - run_max_pos))
                if w:
                    return False, w
        if seg.v_lo - prev_val < -_EVENT_TOL:
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


def _quasiconcave_triples_2d(d: GridDensity, rng, n: int) -> tuple[bool, tuple | None]:
    (x0, x1), (y0, y1) = d.support
    for _ in range(n):
        px = (rng.uniform(x0, x1), rng.uniform(y0, y1))
        py = (rng.uniform(x0, x1), rng.uniform(y0, y1))
        lam = rng.uniform()
        pz = (lam * px[0] + (1 - lam) * py[0], lam * px[1] + (1 - lam) * py[1])
        if d.evaluate(pz) < min(d.evaluate(px), d.evaluate(py)) - _WITNESS_MARGIN:
            return False, (px, py, lam)
    return True, None


def _log_concave_triples(d, rng, n: int) -> tuple[bool, tuple | None]:
    """Randomized refutation attempt for log-concavity (cannot prove it);
    d is a piecewise density or a 2D grid."""
    two_d = isinstance(d, GridDensity)
    if two_d:
        (x0, x1), (y0, y1) = d.support
    else:
        x0, x1 = d.support
    for _ in range(n):
        if two_d:
            px = (rng.uniform(x0, x1), rng.uniform(y0, y1))
            py = (rng.uniform(x0, x1), rng.uniform(y0, y1))
        else:
            px = rng.uniform(x0, x1)
            py = rng.uniform(x0, x1)
        lam = rng.uniform()
        if two_d:
            pz = (lam * px[0] + (1 - lam) * py[0], lam * px[1] + (1 - lam) * py[1])
        else:
            pz = lam * px + (1 - lam) * py
        fx, fy = d.evaluate(px), d.evaluate(py)
        if fx <= 0.0 or fy <= 0.0:
            continue
        gm = fx ** lam * fy ** (1.0 - lam)
        if d.evaluate(pz) < gm - _WITNESS_MARGIN:
            return False, (px, py, lam)
    return True, None


def check_conditions(d, alpha_grid: Sequence[float] | None = None) -> ConditionReport:
    """Run the level-set and shape checks on a density.

    Quasiconcavity is decided exactly for 1D (on the piecewise view, via
    the monotone-profile walk); 2D grids fall back to seeded triple sampling.
    Log-concavity is refuted by sampling or inherited from a quasiconcavity
    counterwitness (which always violates the geometric-mean inequality
    too); a True is therefore "no violation found", not a proof.
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

    rng = np.random.default_rng(_TRIPLE_SEED)
    pieces = _pieces_view(d)
    if pieces is not None:
        qc, qc_w = _quasiconcave_exact(pieces)
    else:
        qc, qc_w = _quasiconcave_triples_2d(d, rng, _N_TRIPLES)

    if not qc:
        lc, lc_w = False, qc_w
    else:
        lc, lc_w = _log_concave_triples(d if pieces is None else pieces, rng, _N_TRIPLES)

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
