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
log-concavity are decided from the cells of a 2D grid, and in 1D from the
density's profile over the whole line, as are the level sets, the
interval sups and both references of ``hypo_diagnostic``; no ``Piece`` is
built.  Each call takes the profile's rows afresh (:func:`_rows`), cut at
each infinite point.  Every False comes with a counterwitness the
density's own pointwise values confirm.

No check takes a tuning setting: the one margin of ``check_conditions``
(in the density's units, and past its formulas' rounding) and the cluster
radius of ``sweep`` are fixed by this module, and each
``hypo_diagnostic`` row works out its slack from the numbers it compares.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, astuple, dataclass
from typing import Sequence

from .argmax import _clusters, _merge_elements, _window_min_sup, maximize_density
from .density import GridDensity, UscDensity1D, _pieces_view, _solve_ge, _value
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
#: radius within which ``sweep`` counts two canonical points as one limit point
_POSITION_TOL = 1e-9
#: the shape checks' one margin, in units of the density's largest finite
#: value: smaller moves are float dust, and every counterwitness beats it
_WITNESS_MARGIN = 1e-12
#: ulps of the largest term a piece formula adds that the margin also covers
_ROUNDING_ULPS = 16
#: halvings a log-concavity witness search tries before it calls a violation float dust
_WITNESS_HALVINGS = 40


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


def _pieces_1d(d, what: str) -> UscDensity1D:
    """Piecewise view of d for a diagnostic that exists in 1D only."""
    pieces = _pieces_view(d)
    if pieces is None:
        raise ValueError(f"{what} applies to 1D densities only, not to 2D grids")
    return pieces


def _rows(d: UscDensity1D) -> list[tuple[float, float, list]]:
    """The profile's segments as rows (lo, hi, form), the zero fillers
    included, each cut in two at an infinite point it holds: every jump and
    infinite point is a row start."""
    p = d._profile
    rows = list(zip(p.starts.tolist(), p.ends.tolist(), p.form.T.tolist()))
    for t in d.infinite_points:
        i = bisect_right([lo for lo, _, _ in rows], t) - 1
        lo, hi, form = rows[i]
        if lo < t:
            rows[i:i + 1] = [(lo, t, form), (t, hi, form)]
    return rows


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
        return asdict(self)


def level_set(d, alpha: float) -> LevelSetReport:
    """Exact level set {density >= alpha} (cell-exact for grids); NaN is refused."""
    if math.isnan(alpha):
        raise ValueError("level_set needs an alpha, got NaN")
    if alpha <= 0.0:
        # densities are nonnegative, and zero off the support
        return LevelSetReport(alpha, ((-math.inf, math.inf),), None,
                              bounded=False, bound_M=math.inf, nonempty_interior=True)

    pieces = _pieces_view(d)
    if pieces is not None:
        segs = [seg for lo, hi, *form in pieces._profile.columns.T.tolist()
                for seg in _solve_ge((lo, hi, form), alpha)]
        segs.extend((t, t) for t in pieces.infinite_points)
        intervals = _merge_elements(segs)
        declared_unbounded = (pieces.tail_height_sup is not None
                              and alpha < pieces.tail_height_sup)
        M = math.inf if declared_unbounded else max(
            (max(abs(lo), abs(hi)) for lo, hi in intervals), default=0.0)
        interior = any(hi > lo for lo, hi in intervals) or declared_unbounded
        return LevelSetReport(alpha, intervals, None, not declared_unbounded, M, interior)

    (ox, _), (oy, _) = d.support
    hx, hy = d.spacing
    cells = tuple(((ox + i * hx, ox + (i + 1) * hx), (oy + j * hy, oy + (j + 1) * hy))
                  for i in range(d.shape[0]) for j in range(d.shape[1]) if d.values[i, j] >= alpha)
    M = max((abs(v) for cell in cells for side in cell for v in side), default=0.0)
    return LevelSetReport(alpha, (), cells, True, M, bool(cells))


# ---------------------------------------------------------------------------
# Shape conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Shape facts that decide the fate of the small-ball reports.

    ``level_set_ok``: some alpha in the grid has a bounded level set with
    nonempty interior (computed on the strict set, i.e. alpha nudged down by
    the margin of :func:`check_conditions`).  ``eventually_level_bounded``
    restates it for the smoothed family: the level sets of every ball
    average of radius 1/nu then sit inside the witness bound grown by 1/nu.
    ``quasiconcave`` and ``log_concave`` are exact decisions (see
    :func:`check_conditions`); each False comes with a counterwitness triple
    (x, y, lam) with f(lam*x + (1-lam)*y) < min(f(x), f(y)) - margin, resp.
    the same against the weighted geometric mean f(x)^lam * f(y)^(1-lam).
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
        return asdict(self)


def _step_in(row, m: float) -> float:
    """Offset into the row (lo, hi, form) that moves its value by at most m/4."""
    lo, hi, (_, b, _, _, root) = row
    cap = 0.5 * (hi - lo)
    if b == 0.0:
        return cap
    step = m / (4.0 * abs(b))
    # a sqrt arc has |f(t+d) - f(t)| <= |b| sqrt(d) anywhere on the piece
    return min(cap, step ** 2 if root else step)


def _verified_witness(d, x, y, lam: float, margin: float, geometric: bool = False) -> tuple | None:
    """(x, y, lam) when it strictly refutes quasiconcavity (or, with
    ``geometric``, log-concavity): f at lam*x + (1-lam)*y sits more than
    ``margin`` below min(f(x), f(y)), resp. f(x)^lam * f(y)^(1-lam).
    Points are floats in 1D and (x, y) pairs on a 2D grid."""
    if isinstance(x, tuple):
        z = tuple(lam * a + (1.0 - lam) * b for a, b in zip(x, y))
    else:
        z = lam * x + (1.0 - lam) * y
    fx, fy = d.evaluate(x), d.evaluate(y)
    bound = fx ** lam * fy ** (1.0 - lam) if geometric else min(fx, fy)
    if d.evaluate(z) < bound - margin:
        return (x, y, lam)
    return None


def _quasiconcave_exact(d: UscDensity1D, rows, margin: float) -> tuple[bool, tuple | None]:
    """Exact unimodality check: one depth test per row of the profile.

    Rows are monotone, so f approaches row k's infimum b_k, the lesser of
    its end values, at one end, and its sups left and right of the row are
    L_k and R_k, the largest values at the row ends at or before its start,
    resp. at or after its end (an infinite point is a row start, valued
    inf).  f is quasiconcave unless some row's depth min(L_k, R_k) - b_k
    tops 4 margins.  That row's witness takes x and y where L_k and R_k are
    first attained, and z stepped into the row from its bottom end; a
    witness that does not verify is float dust.
    """
    ends = sorted({t for lo, hi, _ in rows for t in (lo, hi)})
    # f is 0 at -inf and +inf, a break value at a breakpoint, and inf at an infinite point
    at = dict(zip(d._profile.breakpoints.tolist(), d._profile.break_values.tolist()))
    values = [0.0, *(at.get(t, math.inf) for t in ends[1:-1]), 0.0]
    # (max, first point attaining it) over the ends up to each, resp. from each on
    left, right, best = {}, {}, (-1.0, None)
    for t, v in zip(ends, values):
        best = left[t] = (v, t) if v > best[0] else best
    best = (-1.0, None)
    for t, v in zip(ends[::-1], values[::-1]):
        best = right[t] = (v, t) if v >= best[0] else best
    for lo, hi, form in rows:
        (l_val, x), (r_val, y) = left[lo], right[hi]
        v_lo, v_hi = _value(form, lo), _value(form, hi)
        depth = min(l_val, r_val) - min(v_lo, v_hi)
        if depth > 4.0 * margin:
            step = _step_in((lo, hi, form), depth)
            z = lo + step if v_lo <= v_hi else hi - step
            w = _verified_witness(d, x, y, (y - z) / (y - x), margin)
            if w:
                return False, w
    return True, None


def _witness_by_halving(d, triple, span: float, margin: float) -> tuple | None:
    """First verified log-concavity witness among triple(span * 2**-k).  A true violation
    passes the first; float dust runs through all, so one array read values the rest."""
    if w := _verified_witness(d, *triple(span), margin, geometric=True):
        return w
    triples = [triple(span * 0.5 ** k) for k in range(1, _WITNESS_HALVINGS)]
    f = d._profile.evaluate([t for x, y, lam in triples
                             for t in (x, y, lam * x + (1.0 - lam) * y)]).tolist()
    for (x, y, lam), fx, fy, fz in zip(triples, f[::3], f[1::3], f[2::3]):
        if fz < fx ** lam * fy ** (1.0 - lam) - margin:
            return x, y, lam
    return None


def _slope(form, t: float) -> float:
    """One-sided derivative of a row's formula at its end t; a sqrt arc is
    infinitely steep where its radicand vanishes."""
    _, b, s, t0, root = form
    if not root:
        return b
    w = math.sqrt(max(s * (t - t0), 0.0))
    return b * s / (2.0 * w) if w > 0.0 else math.copysign(math.inf, b * s)


def _log_convex_stretch(row) -> tuple[float, float] | None:
    """(anchor, far end) of the stretch of a sqrt arc's row on which log f
    is strictly convex; None when log f is concave on the whole row.

    With w = sqrt(s*(t - t0)), f*f'' - f'^2 = -b*(a + 2*b*w)/(4*w^3), and
    b*(a + 2*b*w) grows with w.  So log f is concave on the arc iff that
    factor is >= 0 at the anchor, the end where w is smallest; otherwise it
    is convex up to w = -a/(2*b) or the far end.
    """
    lo, hi, (a, b, s, t0, root) = row
    if not root:
        return None
    anchor, far = (lo, hi) if s == 1 else (hi, lo)
    if b * (a + 2.0 * b * math.sqrt(max(s * (anchor - t0), 0.0))) >= 0.0:
        return None
    w_end = min(-a / (2.0 * b), math.sqrt(max(s * (far - t0), 0.0)))
    return anchor, t0 + s * w_end * w_end


def _log_concave_exact(d: UscDensity1D, rows, margin: float) -> tuple[bool, tuple | None]:
    """Exact log-concavity check for a density that passed the
    quasiconcavity test, so that its support is an interval.

    Past the zero segments at the ends of the support, log f is concave iff
    every sqrt arc is (constant and affine pieces always are) and every
    interior breakpoint has no jump and a one-sided slope that does not
    increase, f'(t-) >= f'(t+).  A jump counts past ``margin``, a kink past
    ``margin`` per unit width of the support.  An infinite point is never
    log-concave: the profile is cut there, so no segment midpoint sits on
    it.  Each violation is tried with shrinking triples around it; one that
    no triple verifies is float dust.
    """
    live = [i for i, (lo, hi, f) in enumerate(rows) if max(_value(f, lo), _value(f, hi)) > 0.0]
    rows = rows[live[0]:live[-1] + 1]
    kink = margin / (d.support[1] - d.support[0])
    for t in d.infinite_points:
        for lo, hi, _ in rows:
            w = _verified_witness(d, t, 0.5 * (lo + hi), 0.5, margin, geometric=True)
            if w:
                return False, w
    for i, (t, hi, form) in enumerate(rows):
        if i:
            p_lo, p_hi, p_form = rows[i - 1]
            jump = _value(form, t) - _value(p_form, p_hi)
            # z = t - h/2 below a jump up, t + h/2 past a jump down, t at a kink
            lam = (0.75 if jump > margin else 0.25 if jump < -margin
                   else 0.5 if _slope(p_form, t) < _slope(form, t) - kink else None)
            if lam is not None:
                w = _witness_by_halving(d, lambda h: (t - h, t + h, lam),
                                        min(p_hi - p_lo, hi - t), margin)
                if w:
                    return False, w
        stretch = _log_convex_stretch(rows[i])
        if stretch is not None:
            anchor, far = stretch
            w = _witness_by_halving(d, lambda h: (anchor, anchor + h, 0.5), far - anchor, margin)
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


def _quasiconcave_grid(d: GridDensity, margin: float) -> tuple[bool, tuple | None]:
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
            w = _verified_witness(d, *_segment_leaving(d, cells[:k + 1]), margin)
            if w:
                return False, w
    return True, None


def _log_concave_grid(d: GridDensity, margin: float) -> tuple[bool, tuple | None]:
    """Exact log-concavity check for a 2D grid that passed the
    quasiconcavity check, so that its positive cells fill a rectangle.

    log f is concave on that rectangle and constant on each cell, hence
    constant: the grid is log-concave iff no positive cell drops by more
    than ``margin`` to a positive neighbour.  The witness steps
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
    if drop <= margin:
        return True, None
    # x is the larger cell's centre; z = x + 0.75 step and y = x + 1.25 step
    # both sit inside the smaller cell
    x = _cell_point(d, i + 0.5, j + 0.5)
    y = _cell_point(d, i + 0.5 + 1.25 * di, j + 0.5 + 1.25 * dj)
    w = _verified_witness(d, x, y, 0.4, margin, geometric=True)
    return (False, w) if w else (True, None)


def check_conditions(d, alpha_grid: Sequence[float] | None = None) -> ConditionReport:
    """Run the level-set and shape checks on a density.

    Both shape checks are decisions, in time linear in the pieces or cells
    (plus one sort of the cells of a 2D grid):

    * 1D (a 1D grid on its piecewise view): quasiconcave iff no row of the
      profile sits below both the largest value before it and the largest
      after it, an infinite point valued inf (see
      :func:`_quasiconcave_exact`); a row deeper than 4 margins is a valley,
      however small its steps.  Log-concave iff, in addition,
      every sqrt arc a + b*sqrt(s*(t - t0)) has b*(a + 2*b*w) >= 0 over its
      w range, and every interior breakpoint has no jump and a one-sided
      slope that does not increase (an infinite slope counts).
    * 2D grids: quasiconcave iff, at every value level, the cells valued
      at least that level fill their bounding box.  Log-concave iff one
      positive value fills a rectangle of cells and every other cell is 0.

    One margin, 1e-12 of the density's largest finite value (its largest
    piece end value or cell, read off the density with no search), tells
    float dust: a jump or cell difference below it, or a kink whose slope
    rises by less than it per unit width of the support, counts as none.
    It is at least 16 ulps of the largest term |a| + |b*g| of a piece
    formula a + b*g(s*(t - t0)) at a piece end (``_Profile.max_term``),
    which its values round by: far from the origin those terms outgrow the
    values.  A False comes only with a witness (x, y, lam) that beats
    min(f(x), f(y)), resp. f(x)^lam * f(y)^(1-lam), by more than it at
    lam*x + (1-lam)*y; a quasiconcavity witness refutes log-concavity too.
    ``alpha_grid`` must be given when an infinite point lies in the
    support's span.
    """
    pieces = _pieces_view(d)
    unit = float(d.values.max() if pieces is None else pieces._profile.f_max.max())
    margin = _WITNESS_MARGIN * unit
    if pieces is not None:
        lo, hi = pieces.support
        if alpha_grid is None and any(lo <= t <= hi for t in pieces.infinite_points):
            raise ValueError("alpha_grid must be given for unbounded densities")
        # a formula a + b*g rounds by ulps of its terms a and b*g
        margin = max(margin, _ROUNDING_ULPS * math.ulp(pieces._profile.max_term))
    if alpha_grid is None:
        alpha_grid = tuple(f * unit for f in (0.1, 0.25, 0.5, 0.75, 0.9))

    witness_alpha = witness_bound = None
    for alpha in sorted(a for a in alpha_grid if a > 0):
        rep = level_set(d, alpha - margin)  # strict-set variant
        if rep.bounded and rep.nonempty_interior:
            witness_alpha, witness_bound = alpha, rep.bound_M
            break
    level_ok = witness_alpha is not None

    if pieces is not None:
        rows = _rows(pieces)
        qc, qc_w = _quasiconcave_exact(pieces, rows, margin)
        lc, lc_w = _log_concave_exact(pieces, rows, margin) if qc else (False, qc_w)
    else:
        qc, qc_w = _quasiconcave_grid(d, margin)
        lc, lc_w = _log_concave_grid(d, margin) if qc else (False, qc_w)

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
        return ",".join(map(fmt17, astuple(self)))


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
            "rows": [list(astuple(r)) for r in self.rows],
            "map_sup": self.map_sup,
            "map_maximizers": [list(m) for m in self.map_maximizers],
            "map_canonical": self.map_canonical,
            "limit_points": list(self.limit_points),
            "verdict": self.verdict,
            "cluster_radius": self.cluster_radius,
        }


def _verdict(tail: Sequence[SweepRow]) -> str:
    dists = [r.dist_to_map for r in tail]
    cans = [r.canonical for r in tail]
    all_near = all(x <= MAP_NEAR_TOL for x in dists)
    settled = (max(cans) - min(cans)) <= _POSITION_TOL
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

    map_res = map_estimate(d, search)
    rows = []
    for c in ladder:
        res = bayes_estimate(d, LossSpec(c), search)
        rows.append(SweepRow(c, res.canonical, res.sup_value,
                             map_res.distance_to(res.canonical), *res.hull()))

    if len(rows) >= 2:
        tail = rows[-max(2, math.ceil(len(rows) / 2)):]
        limit_points = tuple(sum(g) / len(g) for g in
                             _clusters([r.canonical for r in tail], _POSITION_TOL))
        verdict = _verdict(tail)
    else:
        limit_points = (rows[-1].canonical,)
        verdict = "inconclusive"

    return SweepTrace(ladder=tuple(ladder), rows=tuple(rows), map_sup=map_res.sup_value,
                      map_maximizers=map_res.maximizers, map_canonical=map_res.canonical,
                      limit_points=limit_points, verdict=verdict, cluster_radius=_POSITION_TOL)


# ---------------------------------------------------------------------------
# Finite-scale hit-and-miss diagnostics for the smoothed family
# ---------------------------------------------------------------------------


def sup_on_interval(d, lo: float, hi: float, *, closed: bool = True) -> float:
    """Sup of the density over an interval (limits count toward the sup).

    A closed interval gives the sup of :func:`maximize_density` over it,
    the envelope at its ends included.  An open one takes, from each segment
    of the profile it meets with positive length, the values at the cut
    ends: only this-side limits, the zero segments off the support
    included.  An infinite point inside gives inf.  Works on piecewise
    densities and 1D grids; a NaN end, like hi < lo, raises ``ValueError``.
    """
    d = _pieces_1d(d, "sup_on_interval")
    if not lo <= hi:
        raise ValueError(f"sup_on_interval needs lo <= hi, neither NaN; got [{lo!r}, {hi!r}]")
    if closed:
        return maximize_density(d, (lo, hi)).sup_value
    cands = [_value(form, t) for s_lo, s_hi, form in _rows(d) if min(s_hi, hi) > max(s_lo, lo)
             for t in (max(s_lo, lo), min(s_hi, hi))]
    cands.extend(math.inf for t in d.infinite_points if lo < t < hi)
    return max(cands, default=0.0)


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

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class HypoReport:
    """Finite-family sup comparisons between the density and its ball averages.

    For closed B the averages never beat the density's sup over B grown by
    the ball radius r; for open O they never fall below the sup over centres
    in O of its inf over the ball (:func:`~mapbayes.argmax._window_min_sup`).
    Both references are exact.  A row's ``slack`` is the float error of the
    two numbers it compares: the ball search's ``tol_value``, the profile's
    mass error over 2r, and the mode search's ``tol_value`` or 4 ulps of the
    open reference.  Rows are evidence at the scales checked, nothing more.
    """

    rows: tuple[HypoRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json(self) -> dict:
        return {"ok": self.ok, "rows": [r.to_json() for r in self.rows]}


def hypo_diagnostic(d, nus: Sequence[float],
                    closed_intervals: Sequence[tuple[float, float]] = (),
                    open_intervals: Sequence[tuple[float, float]] = ()) -> HypoReport:
    """Run the hit-and-miss sup diagnostics for each scale nu in nus (1D only)."""
    pieces = _pieces_1d(d, "hypo_diagnostic")
    rows = []
    for nu in nus:
        if not (nu > 0 and math.isfinite(nu) and math.isfinite(2.0 / nu)):
            raise ValueError(f"scales nu must be positive with nu and 2/nu finite, got {nu!r}")
        r = 1.0 / nu
        for kind, intervals in (("closed", closed_intervals), ("open", open_intervals)):
            for lo, hi in intervals:
                sm = mollified_sup(BallObjective(pieces, r), (lo, hi))
                sup, slack = sm.sup_value, sm.tol_value + pieces._profile.error / (2.0 * r)
                if kind == "closed":
                    mode = maximize_density(pieces, (lo - r, hi + r))
                    ref, slack = mode.sup_value, slack + mode.tol_value
                else:
                    ref = _window_min_sup(pieces, r, lo, hi)
                    slack += 4.0 * math.ulp(ref)
                ok = sup <= ref + slack if kind == "closed" else sup >= ref - slack
                rows.append(HypoRow(kind, lo, hi, nu, sup, ref, slack, ok))
    return HypoReport(tuple(rows))
