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
arc against an affine piece or against another arc).  A stretch on which
the derivative vanishes identically is reported as a plateau.

The 2D ball search is a branch and bound on exact disc masses: boxes of
centres are split and pruned until no box can beat the best disc mass
found by more than the value tolerance.  It reports that one point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .density import (GridDensity, Piece, UscDensity1D, _corner_areas, _disc_lattice,
                      _disc_masses, _lattice_sum, _pieces_view, _support_box)
from .errors import EmptySearchBox, SearchNotCertified

__all__ = ["ArgmaxResult", "maximize_density", "maximize_window"]

#: default absolute value tolerance for grouping near-optimal candidates (exact 1D)
TOL_VALUE_EXACT = 1e-10
#: looser grouping tolerance for grid-backed searches
TOL_VALUE_GRID = 1e-6
#: refinement levels after which the 2D ball search stops with boxes open
_MAX_LEVELS_2D = 40
#: boxes to split at one level beyond which it stops too, which bounds its memory
_MAX_BOXES_2D = 1 << 18
#: array elements per batch of box centres in the 2D search
_BATCH_2D = 1 << 15


def _default_tol(d) -> float:
    """The value tolerance of every search on d: any grid (1D or 2D) groups
    at TOL_VALUE_GRID, pieces at TOL_VALUE_EXACT."""
    return TOL_VALUE_GRID if isinstance(d, GridDensity) else TOL_VALUE_EXACT


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
        return distance_to_maximizers(self.dim, self.maximizers, point)

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


def _interval_nearest_zero(lo: float, hi: float) -> float:
    if lo <= 0.0 <= hi:
        return 0.0
    return lo if lo > 0.0 else hi

def _rect_nearest_zero(rect) -> tuple[float, float]:
    return tuple(_interval_nearest_zero(lo, hi) for lo, hi in rect)


def _canonical_1d(maximizers: Sequence[tuple[float, float]]) -> float:
    best = None
    for lo, hi in maximizers:
        x = _interval_nearest_zero(lo, hi)
        key = (abs(x), x)
        if best is None or key < best[0]:
            best = (key, x)
    return best[1]


def _canonical_2d(maximizers) -> tuple[float, float]:
    best = None
    for rect in maximizers:
        p = _rect_nearest_zero(rect)
        key = (math.hypot(*p), p)
        if best is None or key < best[0]:
            best = (key, p)
    return best[1]


def distance_to_maximizers(dim: int, maximizers, point) -> float:
    if dim == 1:
        x = float(point)
        return min(max(lo - x, x - hi, 0.0) for lo, hi in maximizers)
    px, py = point
    best = math.inf
    for (x0, x1), (y0, y1) in maximizers:
        dx = max(x0 - px, px - x1, 0.0)
        dy = max(y0 - py, py - y1, 0.0)
        best = min(best, math.hypot(dx, dy))
    return best


def _merge_elements(elements: list[tuple[float, float]],
                    join_eps: float) -> tuple[tuple[float, float], ...]:
    """Sort 1D intervals/points and merge the ones that touch (within join_eps)."""
    elements = sorted(elements)
    merged: list[list[float]] = []
    for lo, hi in elements:
        if merged and lo <= merged[-1][1] + join_eps:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


# ---------------------------------------------------------------------------
# Mode search (argmax of the density itself)
# ---------------------------------------------------------------------------


def maximize_density(d, box=None) -> ArgmaxResult:
    """Argmax of the pointwise density over a closed box.

    Pieces are monotone, so the exact candidates are the piece endpoints
    (with the boundary-max convention) plus whole constant pieces and the
    stretches off the support, which enter as plateau intervals.  2D grids
    contribute their maximizing closed cells, and the part of the box off
    the grid enters as value 0.  The box defaults to the support.
    """
    tol_value = _default_tol(d)
    if box is None:
        box = _support_box(d)
    pieces = _pieces_view(d)
    if pieces is None:
        return _maximize_density_grid(d, box, tol_value)
    return _maximize_density_pieces(pieces, box, tol_value)


def _check_box1d(box) -> tuple[float, float]:
    lo, hi = float(box[0]), float(box[1])
    if lo > hi:
        raise EmptySearchBox(f"box [{lo}, {hi}] is empty")
    return lo, hi


def _maximize_density_pieces(d: UscDensity1D, box, tol_value: float) -> ArgmaxResult:
    lo, hi = _check_box1d(box)

    witnesses = [t for t in d.infinite_points if lo <= t <= hi]
    if witnesses:
        maxi = tuple((t, t) for t in sorted(witnesses))
        return ArgmaxResult(1, math.inf, maxi, _canonical_1d(maxi), tol_value,
                            sup_infinite=True)

    candidates = {lo, hi}
    candidates.update(b for b in d.breakpoints if lo <= b <= hi)
    plateaus = []
    covered_to = lo  # the box is covered by pieces up to here
    for p in d.pieces:
        if p.kind == "constant" and p.hi > lo and p.lo < hi:
            plateaus.append((max(p.lo, lo), min(p.hi, hi), p.params["k"]))
        if p.lo > covered_to and covered_to < hi:
            plateaus.append((covered_to, min(p.lo, hi), 0.0))
        covered_to = max(covered_to, p.hi)
    if covered_to < hi:
        plateaus.append((covered_to, hi, 0.0))

    scored = [(d.evaluate(t), t) for t in sorted(candidates)]
    sup = max(v for v, _ in scored)
    if plateaus:
        sup = max(sup, max(v for _, _, v in plateaus))

    elements = [(t, t) for v, t in scored if v >= sup - tol_value]
    elements += [(a, b) for a, b, v in plateaus if v >= sup - tol_value]
    maxi = _merge_elements(elements, 0.0)
    return ArgmaxResult(1, sup, maxi, _canonical_1d(maxi), tol_value)


def _maximize_density_grid(d: GridDensity, box, tol_value: float) -> ArgmaxResult:
    (bx0, bx1), (by0, by1) = ((float(lo), float(hi)) for lo, hi in box)
    if bx0 > bx1 or by0 > by1:
        raise EmptySearchBox("2D box is empty")
    (ox, gx1), (oy, gy1) = d.support
    hx, hy = d.spacing
    rects = []
    for i in range(d.shape[0]):
        x0, x1 = max(ox + i * hx, bx0), min(ox + (i + 1) * hx, bx1)
        if x0 > x1:
            continue
        for j in range(d.shape[1]):
            y0, y1 = max(oy + j * hy, by0), min(oy + (j + 1) * hy, by1)
            if y0 > y1:
                continue
            rects.append(((x0, x1), (y0, y1), float(d.values[i, j])))
    # the density is 0 off the grid, so a box that leaves it offers 0 as well
    off_grid = bx0 < ox or bx1 > gx1 or by0 < oy or by1 > gy1
    values = [v for _, _, v in rects]
    if off_grid:
        values.append(0.0)
    sup = max(values)
    if off_grid and sup - tol_value <= 0.0:
        maxi = (((bx0, bx1), (by0, by1)),)
    else:
        maxi = tuple((rx, ry) for rx, ry, v in rects if v >= sup - tol_value)
    return ArgmaxResult(2, sup, maxi, _canonical_2d(maxi), tol_value)


# ---------------------------------------------------------------------------
# Window-objective search: argmax over theta of integral of f on [theta-r, theta+r]
# ---------------------------------------------------------------------------


_GAP = Piece(0.0, 1.0, "constant", {"k": 0.0})  # stand-in for off-support stretches


def _piece_covering(d: UscDensity1D, x: float) -> Piece:
    """Piece whose half-open interval contains x, or the zero stand-in."""
    i = bisect_right(d._starts, x) - 1
    if 0 <= i < len(d.pieces):
        p = d.pieces[i]
        if p.lo <= x < p.hi:
            return p
    return _GAP


def _affine_coeffs(p: Piece) -> tuple[float, float, float] | None:
    """(a, b, t0) for pieces of the form a + b*(t - t0), flat sqrt arcs
    included; None for genuine sqrt arcs."""
    if p.kind == "constant":
        return p.params["k"], 0.0, 0.0
    if p.kind == "affine":
        return p.params["a"], p.params["b"], p.params.get("t0", 0.0)
    if p.params["b"] == 0.0:
        return p.params["a"], 0.0, 0.0
    return None


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


def _stationary_points(p_hi: Piece, p_lo: Piece, r: float,
                       mid: float) -> list[float] | None:
    """Roots of F'(theta) = p_hi(theta + r) - p_lo(theta - r), in closed form.

    Returns None when F' vanishes identically (a plateau of F).  A sqrt arc
    a + b*sqrt(s*(theta - tau)) is written in w = sqrt(s*(theta - tau)) >= 0,
    so theta = tau + s*w^2: against an affine piece F' = 0 is a quadratic in
    w, and against a second arc the substitution w1 = P + Q*w2 read off
    a1 + b1*w1 = a2 + b2*w2 gives a quadratic in w2.  The caller keeps the
    roots that fall strictly inside the stretch.
    """
    hi_aff = _affine_coeffs(p_hi)
    lo_aff = _affine_coeffs(p_lo)
    if hi_aff is not None and lo_aff is not None:
        a_p, b_p, t_p = hi_aff
        a_m, b_m, t_m = lo_aff
        # solve in coordinates shifted to the stretch midpoint m, so products
        # stay small even for steep distant pieces
        c1 = b_p - b_m
        c0 = (a_p - a_m) + b_p * ((mid - t_p) + r) - b_m * ((mid - t_m) - r)
        if c1 == 0.0:
            return None if c0 == 0.0 else []
        return [mid - c0 / c1]

    # F' = 0 reads the same with the sides swapped: put a sqrt arc first
    if hi_aff is None:
        (p1, shift1), (p2, shift2), aff = (p_hi, r), (p_lo, -r), lo_aff
    else:
        (p1, shift1), (p2, shift2), aff = (p_lo, -r), (p_hi, r), hi_aff
    a1, b1, s1 = p1.params["a"], p1.params["b"], p1.params["s"]
    tau1 = p1.params["t0"] - shift1
    if aff is not None:
        a, b, t0 = aff
        # the affine side is A + b*(theta - mid)
        A = a + b * ((mid - t0) + shift2)
        ws = _quadratic_roots(-b * s1, b1, (a1 - A) - b * (tau1 - mid))
        return None if ws is None else [tau1 + s1 * w * w for w in ws if w >= 0.0]

    a2, b2, s2 = p2.params["a"], p2.params["b"], p2.params["s"]
    tau2 = p2.params["t0"] - shift2
    if abs(b2) > abs(b1):  # divide by the steeper arc, so |Q| <= 1
        a1, b1, s1, tau1, a2, b2, s2, tau2 = a2, b2, s2, tau2, a1, b1, s1, tau1
    P, Q = (a2 - a1) / b1, b2 / b1
    ws = _quadratic_roots(s1 * Q * Q - s2, 2.0 * s1 * P * Q, s1 * P * P + (tau1 - tau2))
    if ws is None:
        # then P = 0, Q = +-1 and the arcs coincide; Q = -1 only meets at w = 0
        return None if Q > 0.0 else []
    return [tau2 + s2 * w * w for w in ws if w >= 0.0 and P + Q * w >= 0.0]


def _clusters(points, eps: float) -> list[list[float]]:
    """Sort points and split them into runs whose neighbours lie within eps."""
    groups: list[list[float]] = []
    for t in sorted(points):
        if groups and t - groups[-1][-1] <= eps:
            groups[-1].append(t)
        else:
            groups.append([t])
    return groups


def maximize_window(
    d: UscDensity1D,
    radius: float,
    box: tuple[float, float],
    *,
    scale: float = 1.0,
    tol_value: float = TOL_VALUE_EXACT,
) -> ArgmaxResult:
    """Maximize F(theta) = scale * integral of d over [theta-r, theta+r].

    The search is exact on the piecewise structure: F is smooth between
    breakpoints of d shifted by +-r, and on each such stretch its derivative
    f(theta+r) - f(theta-r) pairs two fixed pieces.  F' = 0 is solved there
    in closed form: a linear equation for two affine/constant pieces, a
    quadratic in w = sqrt(radicand) when a sqrt arc is involved (see
    :func:`_stationary_points`).  The candidates are the stretch ends plus
    these roots; a stretch where F' vanishes identically is a plateau.
    """
    if radius <= 0.0:
        raise ValueError("window radius must be positive")
    lo, hi = _check_box1d(box)
    r = float(radius)

    def F(theta: float) -> float:
        return scale * d.integrate(theta - r, theta + r)

    cuts = {lo, hi}
    for b in d.breakpoints:
        for t in (b - r, b + r):
            if lo < t < hi:
                cuts.add(t)
    cuts = sorted(cuts)

    candidates: set[float] = set(cuts)
    plateaus: list[tuple[float, float]] = []
    for u, v in zip(cuts, cuts[1:]):
        mid = 0.5 * (u + v)
        roots = _stationary_points(_piece_covering(d, mid + r),
                                   _piece_covering(d, mid - r), r, mid)
        if roots is None:
            plateaus.append((u, v))
        else:
            candidates.update(t for t in roots if u < t < v)

    value_at = {t: F(t) for t in candidates}
    plat_scored = [(F(0.5 * (a + b)), a, b) for a, b in plateaus]
    sup = max(max(value_at.values()), max((v for v, _, _ in plat_scored), default=-math.inf))

    elements = [(a, b) for v, a, b in plat_scored if v >= sup - tol_value]
    # a root and a shifted-breakpoint cut can land within float dust of each
    # other; keep the better-scoring point of each such cluster
    cluster_eps = 1e-9
    for cluster in _clusters((t for t, v in value_at.items() if v >= sup - tol_value),
                             cluster_eps):
        rep = max(cluster, key=lambda t: value_at[t])
        if not any(a - cluster_eps <= rep <= b + cluster_eps for a, b in elements):
            elements.append((rep, rep))
    maxi = _merge_elements(elements, 1e-12)
    return ArgmaxResult(1, sup, maxi, _canonical_1d(maxi), tol_value)


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
    return a, b, np.clip(np.floor((0.5 * (a + b) - o) / h).astype(np.int64), -k, n - 1 + k)


def _window_max(values: np.ndarray, cells_x: np.ndarray, cells_y: np.ndarray,
                kx: int, ky: int) -> np.ndarray:
    """Max cell value (0 off the grid) within kx, ky cells of each lattice
    cell (i, j), i in cells_x and j in cells_y, each at most kx, ky cells
    off the grid: two separable sliding-window maxima."""
    padded = np.pad(values, ((2 * kx, 2 * kx), (2 * ky, 2 * ky)))
    top = sliding_window_view(padded, 2 * kx + 1, axis=0).max(axis=-1)
    top = sliding_window_view(top, 2 * ky + 1, axis=1).max(axis=-1)
    return top[np.ix_(cells_x + kx, cells_y + ky)]


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
    hx, hy = g.spacing
    step = max(1, _BATCH_2D // ((math.ceil(2.0 * reach / hx) + 2) * (math.ceil(2.0 * reach / hy) + 2)))
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


def maximize_objective_2d(objective, box, *, tol_value: float) -> ArgmaxResult:
    """Certified argmax of a ball objective on a 2D grid, by branch and bound.

    ``objective`` is a :class:`~mapbayes.windows.BallObjective` on a 2D
    grid, with disc mass M (divided by pi R^2 when normalized).  A box is
    pruned once its upper bound is within ``tol_value`` of the best value
    found, and the search stops when no box is left:

    * Level 0 cuts the box at the cell lines.  A point of a cell lies within
      its half-diagonal delta of the cell centre c, so its disc lies in
      D(c, R + delta) and M <= pi R^2 * (max of the cells that disc meets,
      0 off the grid); two separable sliding-window maxima give that bound
      for every cell.  The best value starts at the disc mass at the centre
      of the box cut from the tallest cell.
    * Each refinement level splits the open boxes in four, evaluates the
      exact disc mass at the new centres and bounds each box by
      :func:`_box_bounds`.

    The result is one point with its exact value, and no point of the box
    beats it by more than ``tol_value``.  A search still open after
    ``_MAX_LEVELS_2D`` levels, or with more than ``_MAX_BOXES_2D`` boxes
    to split, raises :class:`SearchNotCertified` with the open gap.
    """
    g, R = objective.density, objective.radius
    scale = 1.0 / (math.pi * R * R) if objective.normalized else 1.0
    (bx0, bx1), (by0, by1) = ((float(lo), float(hi)) for lo, hi in box)
    if bx0 > bx1 or by0 > by1:
        raise EmptySearchBox("2D box is empty")
    (ox, _), (oy, _) = g.support
    hx, hy = g.spacing
    nx, ny = g.shape
    reach = R + 0.5 * math.hypot(hx, hy)
    kx, ky = int(reach / hx + 0.5 + 1e-9), int(reach / hy + 0.5 + 1e-9)
    x0, x1, cells_x = _lattice_boxes(bx0, bx1, ox, hx, nx, kx)
    y0, y1, cells_y = _lattice_boxes(by0, by1, oy, hy, ny, ky)

    # seed: the centre of the box cut from the tallest cell
    if len(x0) and len(y0):
        own = np.pad(g.values, 1)[np.ix_(np.clip(cells_x + 1, 0, nx + 1),
                                         np.clip(cells_y + 1, 0, ny + 1))]
        i, j = np.unravel_index(np.argmax(own), own.shape)
        px, py = 0.5 * (x0[i] + x1[i]), 0.5 * (y0[j] + y1[j])
    else:
        px, py = 0.5 * (bx0 + bx1), 0.5 * (by0 + by1)
    best = float(_disc_masses(g, [px], [py], R)[0])

    top = _window_max(g.values, cells_x, cells_y, kx, ky)
    ii, jj = np.nonzero(scale * math.pi * R * R * top > scale * best + tol_value)
    x0, x1, y0, y1 = x0[ii], x1[ii], y0[jj], y1[jj]
    level = 0
    while len(x0):
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        masses, bound = _box_bounds(g, cx, cy, 0.5 * (x1 - x0), 0.5 * (y1 - y0), R)
        k = int(np.argmax(masses))
        if masses[k] > best:
            best, px, py = float(masses[k]), cx[k], cy[k]
        keep = scale * bound > scale * best + tol_value
        x0, x1, y0, y1, bound = x0[keep], x1[keep], y0[keep], y1[keep], bound[keep]
        if not len(x0):
            break
        if level == _MAX_LEVELS_2D or 4 * len(x0) > _MAX_BOXES_2D:
            raise SearchNotCertified(
                f"2D ball search stopped at refinement level {level} with {len(x0)} boxes "
                f"open: the sup may exceed {scale * best!r} by up to "
                f"{scale * (float(bound.max()) - best)!r}, more than the tolerance "
                f"{tol_value!r}")
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        x0, x1 = np.concatenate([x0, xm, x0, xm]), np.concatenate([xm, x1, xm, x1])
        y0, y1 = np.concatenate([y0, y0, ym, ym]), np.concatenate([ym, ym, y1, y1])
        level += 1
    px, py = float(px), float(py)
    return ArgmaxResult(2, objective((px, py)), (((px, px), (py, py)),), (px, py), tol_value)
