"""Argmax machinery shared by the mode and window-objective estimators.

Both searches report the *set* of maximizers (points and closed intervals in
1D, axis-aligned rectangles in 2D) rather than an arbitrary single point,
because plateaus are common for piecewise-constant densities.  A canonical
representative — the smallest-norm point of the set, ties broken toward the
smaller coordinate — is attached for callers that need one number.

Every 1D density, a 1D grid included, is searched on its piecewise view
(a grid's cells become constant pieces); 2D grids have their own path.
The 1D window search is exact, with no sampling or local search: between
breakpoints of the density shifted by the window radius, the stationary
points of the window mass solve a linear equation (affine and constant
pieces) or a quadratic in the square root of a sqrt arc's radicand (a sqrt
arc against an affine piece or against another arc).  Both 1D searches
read the density's profile, one array table built with the density, which
records whether any segment has a slope and whether any is an arc: with
no slope the derivative is constant on each stretch and no equation is
solved; otherwise one numpy pass solves the linear equation on every
stretch, and only a stretch that meets an arc is solved on its own.  A
stretch on which the derivative vanishes identically is reported as a
plateau.  Candidates are scored in two passes: one vectorized pass over
the profile's cumulative masses, whose error E has a proved bound, then
an exact window mass at only the points that pass within the value
tolerance plus 2E of the best score, which keeps every point that can
decide the answer.

The 2D ball search is a branch and bound on exact disc masses: boxes of
centres are split and pruned until no box can beat the best disc mass
found by more than the value tolerance.  It reports that one point.

No search takes a tolerance: each works out its value tolerance from the
values it compares, a bound on their float error, plus a relative target
in the 2D ball search, which is not exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .density import (GridDensity, UscDensity1D, _corner_areas, _disc_lattice,
                      _disc_masses, _distinct, _lattice_cells, _lattice_sum, _pieces_view,
                      _support_box)
from .errors import EmptySearchBox, SearchNotCertified

__all__ = ["ArgmaxResult", "maximize_density", "maximize_window"]

#: share of the best value by which the 2D ball search may fall short of the sup
_REL_TOL_2D = 1e-6
#: refinement levels after which the 2D ball search stops with boxes open
_MAX_LEVELS_2D = 40
#: boxes to split at one level beyond which it stops too, which bounds its memory
_MAX_BOXES_2D = 1 << 18
#: array elements per batch of box centres in the 2D search
_BATCH_2D = 1 << 15


@dataclass(frozen=True)
class ArgmaxResult:
    """Outcome of an argmax search over a box.

    ``maximizers`` holds closed intervals ``(lo, hi)`` in 1D (``lo == hi``
    for isolated points) and rectangles ``((x0, x1), (y0, y1))`` in 2D.
    Every element attains ``sup_value`` up to ``tol_value``.  When
    ``sup_infinite`` is set the density is unbounded on the box,
    ``sup_value`` is ``inf`` and the maximizers are the witness points.
    """

    dim: int
    sup_value: float
    maximizers: tuple
    canonical: object
    tol_value: float
    sup_infinite: bool = False

    def distance_to(self, point) -> float:
        """Euclidean distance from a point to the maximizer set."""
        maximizers = self.maximizers
        if self.dim == 1:
            maximizers, point = [(m,) for m in maximizers], (float(point),)
        return min(math.hypot(*(max(lo - x, x - hi, 0.0) for (lo, hi), x in zip(m, point)))
                   for m in maximizers)

    def hull(self) -> tuple[float, float]:
        """Smallest interval containing the (1D) maximizer set."""
        if self.dim != 1:
            raise ValueError("hull is defined for 1D results")
        return (min(lo for lo, _ in self.maximizers),
                max(hi for _, hi in self.maximizers))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "sup_value": self.sup_value,
            "maximizers": [list(map(list, m)) if self.dim == 2 else list(m)
                           for m in self.maximizers],
            "canonical": list(self.canonical) if self.dim == 2 else self.canonical,
            "tol_value": self.tol_value,
            "sup_infinite": self.sup_infinite,
        }


def _nearest_zero(lo: float, hi: float) -> float:
    return 0.0 if lo <= 0.0 <= hi else (lo if lo > 0.0 else hi)


def _canonical(dim: int, maximizers):
    """The smallest-norm point of the set, ties broken toward the smaller coordinate."""
    if dim == 1:
        return min((_nearest_zero(*m) for m in maximizers), key=lambda x: (abs(x), x))
    return min((tuple(_nearest_zero(*iv) for iv in m) for m in maximizers),
               key=lambda p: (math.hypot(*p), p))


def _merge_elements(elements: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Sort 1D intervals/points and merge the ones that touch or overlap."""
    elements = sorted(elements)
    merged: list[list[float]] = []
    for lo, hi in elements:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


# ---------------------------------------------------------------------------
# Mode search (argmax of the density itself)
# ---------------------------------------------------------------------------


def maximize_density(d, box=None) -> ArgmaxResult:
    """Argmax of the pointwise density over a closed box.

    Pieces are monotone, so the exact candidates are the box ends and the
    piece endpoints (with the boundary-max convention) plus every flat
    segment of the density's profile, whatever its formula, which enters as
    a plateau interval; the profile's zero segments cover the box off the
    support.  The endpoint values are the profile's ``break_values``, taken
    when it was built; only a box end inside a segment is evaluated.  2D
    grids contribute their maximizing closed cells, and the part of the box
    off the grid enters as value 0.  The box defaults to the support.
    Values within 4 ulps of the sup, a bound on their float error, tie with
    it.
    """
    if box is None:
        box = _support_box(d)
    pieces = _pieces_view(d)
    if pieces is None:
        return _maximize_density_grid(d, box)
    return _maximize_density_pieces(pieces, box)


def _check_box(sides) -> list[tuple[float, float]]:
    """The sides (lo, hi) of a search box as floats; EmptySearchBox when a
    side has lo > hi, and ``ValueError`` when an end is NaN."""
    sides = [(float(lo), float(hi)) for lo, hi in sides]
    if not all(lo <= hi for lo, hi in sides):
        box = " x ".join(f"[{lo}, {hi}]" for lo, hi in sides)
        if any(lo > hi for lo, hi in sides):
            raise EmptySearchBox(f"box {box} is empty")
        raise ValueError(f"box {box} has a NaN end")
    return sides


def _maximize_density_pieces(d: UscDensity1D, box) -> ArgmaxResult:
    """The mode search on the profile: the box ends and the breakpoints
    inside are scored by their values, and the flat segments are the
    plateaus."""
    lo, hi = _check_box([box])[0]

    # past this, the box holds no infinite point, at which the profile is not cut
    witnesses = [t for t in d.infinite_points if lo <= t <= hi]
    if witnesses:
        maxi = tuple((t, t) for t in sorted(witnesses))
        return ArgmaxResult(1, math.inf, maxi, _canonical(1, maxi), 0.0, sup_infinite=True)

    profile = d._profile
    ends = profile.breakpoints
    if lo == hi:
        i = last = 0
        values = profile.evaluate([lo])
    else:
        # ends[i:j] lie strictly inside the box, and ends[i0:j1] add a box end
        # that is a breakpoint: all are valued off the profile
        i0, j1 = int(ends.searchsorted(lo)), int(ends.searchsorted(hi, side="right"))
        i = i0 + (i0 < ends.size and ends.item(i0) == lo)
        j = j1 - (j1 > 0 and ends.item(j1 - 1) == hi)
        last = j - i + 1
        values = profile.break_values[i0:j1]
        # only a box end inside a segment is evaluated
        head = int(i0 == i)
        inside = [lo] * head + [hi] * (j1 == j)
        if inside:
            v = profile.evaluate(inside)
            values = np.concatenate((v[:head], values, v[head:]))
    # the segments that meet (lo, hi): starts and ends both increase
    m, n = int(profile.ends.searchsorted(lo, side="right")), int(profile.starts.searchsorted(hi))
    if profile.sloped:
        flat = m + (profile.form[1, m:n] == 0.0).nonzero()[0]
    else:
        flat = np.arange(m, n)
    heights = profile.form[0, flat]
    # evaluate never gives -0.0, so a tie at zero keeps the +0.0 of values
    sup = max(float(values.max()), float(heights.max(initial=-math.inf)))
    tol_value = 4.0 * math.ulp(sup)

    # values[k] is the value at lo (k = 0), at hi (k = last) or at ends[i + k - 1]
    elements = [(t, t) for t in (lo if k == 0 else hi if k == last else ends.item(i + k - 1)
                                 for k in (values >= sup - tol_value).nonzero()[0].tolist())]
    top = flat[heights >= sup - tol_value]
    starts, seg_ends = profile.starts[top], profile.ends[top]
    # max(p.lo, lo) and min(p.hi, hi), each keeping its first argument on a tie
    elements += zip(np.where(lo > starts, lo, starts).tolist(),
                    np.where(hi < seg_ends, hi, seg_ends).tolist())
    maxi = _merge_elements(elements)
    return ArgmaxResult(1, sup, maxi, _canonical(1, maxi), tol_value)


def _maximize_density_grid(d: GridDensity, box) -> ArgmaxResult:
    (bx0, bx1), (by0, by1) = _check_box(box)
    (ox, gx1), (oy, gy1) = d.support
    (sx, x0, x1), (sy, y0, y1) = d._cells(0, bx0, bx1), d._cells(1, by0, by1)
    values = d.values[sx, sy].ravel()
    # the density is 0 off the grid, so a box that leaves it offers 0 as well
    off_grid = bx0 < ox or bx1 > gx1 or by0 < oy or by1 > gy1
    # argmax and max both keep the first of tied values, the cells in row-major order
    top = [float(values[np.argmax(values)])] if values.size else []
    sup = max(top + [0.0] * off_grid)
    tol_value = 4.0 * math.ulp(sup)
    if off_grid and sup - tol_value <= 0.0:
        maxi = (((bx0, bx1), (by0, by1)),)
    else:
        i, j = np.divmod(np.flatnonzero(values >= sup - tol_value), len(y0))
        maxi = tuple(((x0[a], x1[a]), (y0[b], y1[b])) for a, b in zip(i.tolist(), j.tolist()))
    return ArgmaxResult(2, sup, maxi, _canonical(2, maxi), tol_value)


# ---------------------------------------------------------------------------
# Window-objective search: argmax over theta of integral of f on [theta-r, theta+r]
# ---------------------------------------------------------------------------


def _quadratic_roots(qa: float, qb: float, qc: float) -> list[float] | None:
    """Real roots of qa*w^2 + qb*w + qc = 0; None when every coefficient is zero.

    Uses the cancellation-free form q = -(qb + sign(qb) sqrt(disc)) / 2 with
    roots q/qa and qc/q.  A negative discriminant has no real roots; a double
    root is a tangency of F', never a sign change, so dropping it is harmless.
    """
    if qa == 0.0:
        if qb == 0.0:
            return None if qc == 0.0 else []
        return [-qc / qb]
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    return [q / qa, qc / q] if q != 0.0 else [0.0]


def _stationary_points(form_hi: list[float], form_lo: list[float], r: float,
                       mid: float) -> list[float] | None:
    """Roots of F'(theta) = f_hi(theta + r) - f_lo(theta - r), in closed
    form, on a stretch where one of the two pieces, given by their profile
    columns (a, b, s, t0, root), is a sqrt arc that is not flat.

    Returns None when F' vanishes identically (a plateau of F).  A sqrt arc
    a + b*sqrt(s*(theta - tau)) is written in w = sqrt(s*(theta - tau)) >= 0,
    so theta = tau + s*w^2: against an affine piece F' = 0 is a quadratic in
    w, and against a second arc the substitution w1 = P + Q*w2 read off
    a1 + b1*w1 = a2 + b2*w2 gives a quadratic in w2.  The caller keeps the
    roots that fall strictly inside the stretch.
    """
    # F' = 0 reads the same with the sides swapped: put a sqrt arc first
    sides = [(form_hi, r), (form_lo, -r)]
    if not form_hi[4]:
        sides.reverse()
    ((a1, b1, s1, t1, _), shift1), ((a2, b2, s2, t2, root2), shift2) = sides
    tau1 = t1 - shift1
    if not root2:
        # the affine side is A + b2*(theta - mid)
        A = a2 + b2 * ((mid - t2) + shift2)
        ws = _quadratic_roots(-b2 * s1, b1, (a1 - A) - b2 * (tau1 - mid))
        return None if ws is None else [tau1 + s1 * w * w for w in ws if w >= 0.0]

    tau2 = t2 - shift2
    if abs(b2) > abs(b1):  # divide by the steeper arc, so |Q| <= 1
        a1, b1, s1, tau1, a2, b2, s2, tau2 = a2, b2, s2, tau2, a1, b1, s1, tau1
    P, Q = (a2 - a1) / b1, b2 / b1
    ws = _quadratic_roots(s1 * Q * Q - s2, 2.0 * s1 * P * Q, s1 * P * P + (tau1 - tau2))
    if ws is None:
        # then P = 0, Q = +-1 and the arcs coincide; Q = -1 only meets at w = 0
        return None if Q > 0.0 else []
    return [tau2 + s2 * w * w for w in ws if w >= 0.0 and P + Q * w >= 0.0]


def _clusters(points, radius: float) -> list[list[float]]:
    """Sort points and split them into runs whose neighbours lie within ``radius``."""
    groups: list[list[float]] = []
    for t in sorted(points):
        if groups and t - groups[-1][-1] <= radius:
            groups[-1].append(t)
        else:
            groups.append([t])
    return groups


def _stretches(d: UscDensity1D, r: float, lo: float, hi: float):
    """(cuts, mid, i_lo, i_hi, roots, owner, plateau): the cuts of [lo, hi]
    are its ends and every breakpoint shifted by -r or +r inside; on the
    stretch k between cuts k and k + 1, about mid[k], theta - r and theta + r
    stay in the segments i_lo[k] and i_hi[k].  roots are those of F'
    strictly inside a stretch, the vectorized pass's first, owner[j] the
    stretch of roots[j]; plateau marks where F' vanishes identically.  With
    no slope there is no root, and F' = 0 where the two heights are equal."""
    profile = d._profile
    shifted = np.add.outer(profile.breakpoints, (-r, r)).ravel()  # b - r, b + r for each b
    cuts = _distinct([lo, hi], shifted[(lo < shifted) & (shifted < hi)])
    u, v = cuts[:-1], cuts[1:]
    # an infinite box makes nan and inf stretches, which find no root
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = 0.5 * (u + v)
        up, down = mid + r, mid - r
        i_hi = profile.starts.searchsorted(up, side="right") - 1
        i_lo = profile.starts.searchsorted(down, side="right") - 1
        if not profile.sloped:
            # F' = a_hi - a_lo is constant on each stretch: no root, and a plateau
            # where the two heights are equal and the window's ends finite
            a = profile.form[0]
            plateau = (a[i_hi] == a[i_lo]) & np.isfinite(up) & np.isfinite(down)
            return cuts, mid, i_lo, i_hi, cuts[:0], np.arange(0), plateau
        a_p, b_p, _, t_p, arc_p = profile.form.take(i_hi, axis=1)
        a_m, b_m, _, t_m, arc_m = profile.form.take(i_lo, axis=1)
        # about the midpoint, so products stay small for steep distant pieces
        c1 = b_p - b_m
        c0 = (a_p - a_m) + b_p * ((mid - t_p) + r) - b_m * ((mid - t_m) - r)
        roots = mid - c0 / c1
    plateau = (c1 == 0.0) & (c0 == 0.0)
    inside = (u < roots) & (roots < v)  # c1 = 0 makes an infinite or nan root, inside none
    if not profile.arcs:
        owner = inside.nonzero()[0]
        return cuts, mid, i_lo, i_hi, roots[owner], owner, plateau
    arcs = np.logical_or(arc_p, arc_m)
    plateau &= ~arcs
    owner = (inside & ~arcs).nonzero()[0]
    arc = []  # (root, stretch) pairs
    for k in arcs.nonzero()[0].tolist():
        found = _stationary_points(profile.form[:, i_hi[k]].tolist(),
                                   profile.form[:, i_lo[k]].tolist(), r, float(mid[k]))
        if found is None:
            plateau[k] = True
        else:
            arc += [(t, k) for t in found if u[k] < t < v[k]]
    arc = np.array(arc).reshape(-1, 2).T
    return (cuts, mid, i_lo, i_hi, np.concatenate((roots[owner], arc[0])),
            np.concatenate((owner, arc[1].astype(np.int64))), plateau)


def _window_min_sup(d: UscDensity1D, r: float, lo: float, hi: float) -> float:
    """Sup over theta in [lo, hi] of the inf of d over [theta - r, theta + r].
    On a stretch of :func:`_stretches` that inf is min(f_lo(theta - r),
    f_hi(theta + r), C), C the least one-sided end value of the segments
    between, f_lo's end and f_hi's start.  The formulas are monotone, so the
    sup lies at a stretch end (their limit) or a root of F'.  Each cut is
    scored too, from the segments its window's ends meet: a window that fits
    a plateau exactly is a one-point maximum.  An infinite point lowers no inf."""
    p = d._profile
    cuts, _, i_lo, i_hi, roots, owner, _ = _stretches(d, r, lo, hi)
    # the segments' end values in order: start 0, end 0, start 1, end 1, ...
    ends = p._values(np.arange(2 * p.starts.size) // 2, np.c_[p.starts, p.ends].ravel())
    theta = np.concatenate((cuts[:-1], cuts[1:], roots, cuts))
    k = np.concatenate((*(np.arange(cuts.size - 1),) * 2, owner))
    j_lo = np.concatenate((i_lo[k], np.searchsorted(p.starts, cuts - r, side="right") - 1))
    j_hi = np.concatenate((i_hi[k], np.searchsorted(p.starts, cuts + r, side="left") - 1))
    j_hi = np.maximum(j_hi, 0)  # a cut at -inf
    # C: the least of ends[2 j_lo + 1 : 2 j_hi + 1], where j_hi > j_lo
    C = np.minimum.reduceat(ends, np.stack((2 * j_lo + 1, 2 * j_hi + 1), axis=1).ravel())[::2]
    inf = np.minimum(p._values(j_lo, theta - r), p._values(j_hi, theta + r))
    return float(np.where(j_hi > j_lo, np.minimum(inf, C), inf).max())


def _window_error(d: UscDensity1D, r: float, lo: float, hi: float) -> float:
    """Bound on the float error of d.integrate(theta - r, theta + r) for
    theta in [lo, hi].  The window ends, at most A from 0, are rounded by
    ulp(A)/2 each, which moves the mass by the density there.  Each piece
    the window meets adds its mass, and its share of the ``fsum``, within
    eps times its ``rounding``, which the density's profile keeps, 0 on its
    fillers: a multiple of its own terms' sizes, wherever it sits.  Its
    rows read run from the last piece to start at or before lo - r (the
    first if none does) to the last to start at or before hi + r.
    """
    p = d._profile
    i0, i1 = (p.starts.searchsorted((lo - r, hi + r), side="right") - 1).tolist()
    # an end on a filler steps back to the piece before it, so A is read off pieces
    i0, i1 = max(i0 - int(p.filler[i0]), 1), i1 - int(p.filler[i1])
    if i1 < i0:
        return 0.0
    starts, ends, rounding, f_max = (x[i0:i1 + 1] for x in (p.starts, p.ends, p.rounding, p.f_max))
    # a window whose first segment is k meets at most segments k .. j - 1
    j = starts.searchsorted(ends + 2.0 * r, side="right")
    cum = np.concatenate(([0.0], rounding.cumsum()))
    A = max(abs(starts[0]), abs(ends[-1])) + 2.0 * r
    return (max(0.0, float(f_max.max())) * math.ulp(A)
            + sys.float_info.epsilon * float((cum[j] - cum[:-1]).max()))


def maximize_window(
    d: UscDensity1D,
    radius: float,
    box: tuple[float, float],
    *,
    scale: float = 1.0,
) -> ArgmaxResult:
    """Maximize F(theta) = scale * integral of d over [theta-r, theta+r].

    The search is exact on the piecewise structure: F is smooth between
    breakpoints of d shifted by +-r, and on each such stretch its derivative
    f(theta+r) - f(theta-r) pairs two fixed segments, which two
    ``np.searchsorted`` calls on the density's profile
    (:class:`~mapbayes.density._Profile`) find for every stretch.
    F' = 0 is solved there in closed form: not at all when the profile has
    no slope, as F' is then the constant difference of two heights;
    c1 (theta - mid) + c0 = 0 for two affine/constant segments, in one
    numpy pass over all such stretches; a
    quadratic in w = sqrt(radicand), stretch by stretch, when a sqrt arc is
    involved (see :func:`_stationary_points`).  The candidates are the
    stretch ends plus these roots; a stretch where F' vanishes identically
    is a plateau.  Values within twice the float error of one window mass
    (:func:`_window_error`) of the sup tie with it, and tied candidates
    count as one point only within 8 ulps of the largest |theta| + r that
    meets mass in the box: the float dust of one point, at any scale.

    Scoring takes two passes.  The same profile gives every candidate and
    plateau midpoint an approximate F = scale * (G(theta + r) - G(theta - r))
    at once, G being the cumulative mass: the piece masses summed by
    ``np.cumsum``, plus the part of the piece holding the point.  Its error
    against the F an exact window mass gives is at most E: the profile's
    proved bound, times scale, plus the exact mass's own error.  Half of
    ``tol_value`` bounds that, and so does the profile's bound by the same
    per-piece terms; E adds both, so it rests on neither alone.  The exact
    F is then computed only at the points whose approximate F lies within
    ``tol_value + 2E`` of the best one.  Each point within ``tol_value`` of
    the sup passes, and so does the point that attains it, so the result is
    the one an exact mass at every point would give.
    """
    if radius <= 0.0:
        raise ValueError("window radius must be positive")
    lo, hi = _check_box([box])[0]
    r = float(radius)

    def F(theta: float) -> float:
        return scale * d.integrate(theta - r, theta + r)

    profile = d._profile
    cuts, mid, _, _, roots, _, plateau = _stretches(d, r, lo, hi)
    # the cuts, sorted and distinct, come first, so that a cut's zero wins over a root's
    points = _distinct(cuts, roots) if roots.size else cuts
    plateaus = plateau.nonzero()[0]
    theta = np.concatenate((points, mid[plateaus]))
    G = profile.cumulative(np.concatenate((theta + r, theta - r)))
    approx = scale * (G[:len(theta)] - G[len(theta):])
    tol_value = 2.0 * scale * _window_error(d, r, lo, hi)
    # |approx - F| <= E, so only these points can decide the answer
    E = 2.0 * scale * profile.error + 0.5 * tol_value
    near = approx >= approx.max() - (tol_value + 2.0 * E)
    value_at = {t: F(t) for t in points[near[:len(points)]].tolist()}
    top = plateaus[near[len(points):]]
    plat_scored = list(zip(map(F, mid[top].tolist()), cuts[top].tolist(), cuts[top + 1].tolist()))
    sup = max(max(value_at.values(), default=-math.inf),
              max((v for v, _, _ in plat_scored), default=-math.inf))

    elements = [(a, b) for v, a, b in plat_scored if v >= sup - tol_value]
    # a root and a shifted-breakpoint cut can land within float dust of each
    # other: 8 ulps of A + r, A bounding the |theta| of the box whose window
    # meets the support.  Keep the better-scoring point of each such cluster
    s0, s1 = d.support
    dust = 8.0 * math.ulp(min(max(abs(lo), abs(hi)), max(abs(s0), abs(s1)) + r) + r)
    for cluster in _clusters((t for t, v in value_at.items() if v >= sup - tol_value), dust):
        rep = max(cluster, key=lambda t: value_at[t])
        if not any(a - dust <= rep <= b + dust for a, b in elements):
            elements.append((rep, rep))
    maxi = _merge_elements(elements)
    return ArgmaxResult(1, sup, maxi, _canonical(1, maxi), tol_value)


def _lattice_boxes(lo: float, hi: float, o: float, h: float, n: int, k: int):
    """Level-0 boxes along one axis: [lo, hi] cut at the cell lines, kept to
    the cells within k of the grid, beyond which the objective and its
    bound are 0.  Returns the box ends and the cell each box lies in."""
    lo, hi = max(lo, o - k * h), min(hi, o + (n + k) * h)
    if lo > hi:
        return np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
    lines = o + h * np.arange(math.floor((lo - o) / h) + 1, math.ceil((hi - o) / h))
    edges = np.concatenate([[lo], lines[(lines > lo) & (lines < hi)], [hi]])
    a, b = edges[:-1], edges[1:]
    return a, b, np.minimum(np.maximum(np.floor((0.5 * (a + b) - o) / h).astype(np.int64), -k),
                            n - 1 + k)


def _window_max(bordered: np.ndarray, cells_x: np.ndarray, cells_y: np.ndarray,
                kx: int, ky: int) -> np.ndarray:
    """Max cell value (0 off the grid) within kx, ky cells of each lattice
    cell (i, j), i in cells_x and j in cells_y, read from the grid's zero-
    bordered copy (``GridDensity._bordered``).  The maxima are separable: a
    running ``np.maximum`` of the 2kx + 1 shifted rows, then of the 2ky + 1
    shifted columns, each a ``take`` whose index is clamped to the copy, so
    a cell off the grid reads its border's 0, which changes no max of
    nonnegative values.  With kx = ky = 0 these are the cells' own values.
    They only bound or seed :func:`maximize_objective_2d`; the value it
    reports is a disc mass."""
    top = bordered
    for axis, cells, k in ((0, cells_x, kx), (1, cells_y, ky)):
        source = top
        top = source.take(cells + (1 - k), axis=axis, mode="clip")
        for s in range(2 - k, k + 2):
            np.maximum(top, source.take(cells + s, axis=axis, mode="clip"), out=top)
    return top


def _box_bounds(g: GridDensity, cx: np.ndarray, cy: np.ndarray, wx: np.ndarray,
                wy: np.ndarray, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Disc masses M(c) at box centres, and upper bounds of M over the boxes.

    A box about c has half-widths wx, wy and half-diagonal delta, so the
    disc about any of its points lies in D(c, R + delta).  These bounds
    hold, and the least is kept:

    * the mass of the cells that meet D(c, R + delta);
    * M(c) + 2 R delta osc, with osc the spread of the cells meeting the
      annulus R - delta <= |x - c| <= R + delta: D(theta) and D(c) differ
      by two sets of area at most 2 R |theta - c|, both in the annulus;
    * M(c) + |dM/dx| wx + |dM/dy| wy + R delta sum_L J_L mu_L.  The
      gradient, R times the integral of f(c + R n) n over the circle, is
      exact: the mixed second difference of chord lengths.  On the way to
      theta it changes only where a point of the circle crosses a cell line
      L, by at most the largest jump J_L across L, and mu_L bounds the angle
      measure of such points.  This bound is second order in the box size
      near a smooth maximum.
    """
    masses = np.empty(len(cx))
    bounds = np.empty(len(cx))
    delta = np.hypot(wx, wy)
    reach = R + float(delta.max())
    vertices = [_lattice_cells(reach, h, n) + 1 for h, n in zip(g.spacing, g.shape)]
    step = max(1, _BATCH_2D // math.prod(vertices))
    for s in range(0, len(cx), step):
        part = slice(s, s + step)
        d, w_x, w_y = delta[part], wx[part], wy[part]
        ex, ey, vals = _disc_lattice(g, cx[part], cy[part], reach)
        a, b = ex[:, None, :], ey[None, :, :]
        masses[part] = m = _lattice_sum(_corner_areas(a, b, R), vals)

        chord_x, chord_y = np.sqrt(np.maximum(R * R - a * a, 0.0)), np.sqrt(np.maximum(R * R - b * b, 0.0))
        slope = (np.abs(_lattice_sum(np.maximum(np.minimum(b, chord_x) + chord_x, 0.0), vals)) * w_x
                 + np.abs(_lattice_sum(np.maximum(np.minimum(a, chord_y) + chord_y, 0.0), vals)) * w_y)
        turn = 0.0
        for lines, w, jumps in ((ex[1:-1], w_x, np.abs(vals[1:] - vals[:-1]).max(axis=1)),
                                (ey[1:-1], w_y, np.abs(vals[:, 1:] - vals[:, :-1]).max(axis=0))):
            lo = np.arccos(np.minimum(np.maximum((lines - w) / R, -1.0), 1.0))
            hi = np.arccos(np.minimum(np.maximum((lines + w) / R, -1.0), 1.0))
            turn = turn + (jumps * (2.0 * (lo - hi) + 1e-15)).sum(axis=0)

        near_x = np.maximum(np.maximum(ex[:-1], -ex[1:]), 0.0)[:, None, :]
        near_y = np.maximum(np.maximum(ey[:-1], -ey[1:]), 0.0)[None, :, :]
        far_x = np.maximum(-ex[:-1], ex[1:])[:, None, :]
        far_y = np.maximum(-ey[:-1], ey[1:])[None, :, :]
        near, far = near_x * near_x + near_y * near_y, far_x * far_x + far_y * far_y
        grown = near <= (R + d) ** 2
        ring = grown & (far >= np.maximum(R - d, 0.0) ** 2)
        osc = (np.where(ring, vals, 0.0).max(axis=(0, 1))
               - np.where(ring, vals, np.inf).min(axis=(0, 1)))
        bounds[part] = np.minimum(
            g.cell_volume * np.where(grown, vals, 0.0).sum(axis=(0, 1)),
            m + np.minimum(2.0 * R * d * osc, slope + R * d * turn))
    return masses, bounds


def maximize_objective_2d(objective, box) -> ArgmaxResult:
    """Certified argmax of a ball objective on a 2D grid, by branch and bound.

    ``objective`` is a :class:`~mapbayes.windows.BallObjective` on a 2D
    grid, with disc mass M (divided by pi R^2 when normalized).  A box is
    pruned once its upper bound is within the tolerance of the best value
    found, and the search stops when no box is left.  The tolerance is
    ``_REL_TOL_2D`` of the best value plus the float error of a disc mass:
    a few ulps of pi R^2 v_max for each cell the disc can meet.

    * Level 0 cuts the box at the cell lines.  A point of a cell lies within
      its half-diagonal delta of the cell centre c, so its disc lies in
      D(c, R + delta) and M <= pi R^2 * (max of the cells that disc meets,
      0 off the grid); :func:`_window_max` gives that bound for every
      cell.  The best value starts at the disc mass at the centre of the
      box cut from the tallest cell, the seed (its own centre if no cell is
      left, which must be finite), read by :func:`_window_max` at kx = ky =
      0.  Both gather per axis with ``take``, not by slices: on a grid far
      out near the float limit the lattice cells of adjacent boxes can
      repeat or skip.
    * Each refinement level splits the open boxes in four, evaluates the
      exact disc mass at the new centres and bounds each box by
      :func:`_box_bounds`.

    The result is one point with its exact value, and no point of the box
    beats it by more than the tolerance, reported as ``tol_value``.  The
    value is :func:`~mapbayes.windows.ball_integral` at the point, bit for
    bit: the seed's mass when no refined centre beats it (the same
    one-centre disc mass), else a fresh one-centre disc mass, since
    :func:`_box_bounds` sums a centre's cells on a wider lattice, which can
    change the last bit.  A search still open after ``_MAX_LEVELS_2D``
    levels, or with more than ``_MAX_BOXES_2D`` boxes to split, raises
    :class:`SearchNotCertified` with the open gap.
    """
    g, R = objective.density, objective.radius
    scale = 1.0 / (math.pi * R * R) if objective.normalized else 1.0
    (bx0, bx1), (by0, by1) = _check_box(box)
    (ox, _), (oy, _) = g.support
    hx, hy = g.spacing
    nx, ny = g.shape
    reach = R + 0.5 * math.hypot(hx, hy)
    kx, ky = int(reach / hx + 0.5 + 1e-9), int(reach / hy + 0.5 + 1e-9)
    float_error = 8.0 * sys.float_info.epsilon * (2 * kx + 1) * (2 * ky + 1) * (
        math.pi * R * R * float(g.values.max()))
    x0, x1, cells_x = _lattice_boxes(bx0, bx1, ox, hx, nx, kx)
    y0, y1, cells_y = _lattice_boxes(by0, by1, oy, hy, ny, ky)

    # seed: the centre of the box cut from the tallest cell
    if len(x0) and len(y0):
        own = _window_max(g._bordered, cells_x, cells_y, 0, 0)
        i, j = np.unravel_index(np.argmax(own), own.shape)
        px, py = 0.5 * (x0[i] + x1[i]), 0.5 * (y0[j] + y1[j])
    else:
        px, py = 0.5 * (bx0 + bx1), 0.5 * (by0 + by1)
    seed = best = float(_disc_masses(g, [px], [py], R)[0])

    def tol() -> float:
        return _REL_TOL_2D * best + float_error

    top = _window_max(g._bordered, cells_x, cells_y, kx, ky)
    ii, jj = np.nonzero(math.pi * R * R * top > best + tol())
    x0, x1, y0, y1 = x0[ii], x1[ii], y0[jj], y1[jj]
    level = 0
    while len(x0):
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        masses, bound = _box_bounds(g, cx, cy, 0.5 * (x1 - x0), 0.5 * (y1 - y0), R)
        k = int(np.argmax(masses))
        if masses[k] > best:
            best, px, py = float(masses[k]), cx[k], cy[k]
        keep = bound > best + tol()
        x0, x1, y0, y1, bound = x0[keep], x1[keep], y0[keep], y1[keep], bound[keep]
        if not len(x0):
            break
        if level == _MAX_LEVELS_2D or 4 * len(x0) > _MAX_BOXES_2D:
            raise SearchNotCertified(
                f"2D ball search stopped at refinement level {level} with {len(x0)} boxes "
                f"open: the sup may exceed {scale * best!r} by up to "
                f"{scale * (float(bound.max()) - best)!r}, more than the tolerance "
                f"{scale * tol()!r}")
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        x0, x1 = np.concatenate([x0, xm, x0, xm]), np.concatenate([xm, x1, xm, x1])
        y0, y1 = np.concatenate([y0, y0, ym, ym]), np.concatenate([ym, ym, y1, y1])
        level += 1
    px, py = float(px), float(py)
    value = objective._of_mass(seed) if best == seed else objective((px, py))
    return ArgmaxResult(2, value, (((px, px), (py, py)),), (px, py), scale * tol())
