"""Independent numerical oracles for cross-checking closed-form code paths.

Everything here works from pointwise evaluation only — no piece
antiderivatives, no package integrators — so agreement between these
routines and the library is genuine evidence, not circular.  The 1D-grid
scans read a grid's raw cell array instead, with numpy.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


def adaptive_simpson(f, lo: float, hi: float, *, breaks=(), tol: float = 1e-12,
                     max_depth: int = 48) -> float:
    """Adaptive Simpson quadrature with Richardson extrapolation.

    The interval is pre-split at ``breaks`` so each panel is smooth inside;
    the recursion then handles sqrt-type edges by depth alone.
    """
    if hi <= lo:
        return 0.0
    knots = [lo] + sorted(b for b in breaks if lo < b < hi) + [hi]
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        if b <= a:
            continue
        m = 0.5 * (a + b)
        fa, fm, fb = f(a), f(m), f(b)
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        total += _simpson_rec(f, a, b, fa, fm, fb, whole,
                              tol * (b - a) / (hi - lo), max_depth)
    return total


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_simpson_rec(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _simpson_rec(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


def brute_argmax(f, lo: float, hi: float, n: int = 200_000):
    """Dense-scan argmax with a local three-point golden polish.

    Deliberately dumb: resolution is (hi-lo)/n plus the polish, which is
    plenty to confirm closed-form argmax locations to ~1e-8.
    """
    if hi < lo:
        raise ValueError("empty interval")
    if hi == lo:
        return lo, f(lo)
    step = (hi - lo) / n
    best_k, best_v = 0, -math.inf
    for k in range(n + 1):
        v = f(lo + k * step)
        if v > best_v:
            best_k, best_v = k, v
    a = max(lo, lo + (best_k - 1) * step)
    b = min(hi, lo + (best_k + 1) * step)
    x, v = _golden(f, a, b)
    if v >= best_v:
        return x, v
    return lo + best_k * step, best_v


def _golden(f, a, b, iters: int = 120):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def window_mass(d, theta: float, r: float, *, tol: float = 1e-12) -> float:
    """Oracle for the ball-mass objective: Simpson over [theta-r, theta+r]."""
    lo, hi = theta - r, theta + r
    breaks = [b for b in getattr(d, "breakpoints", ()) if lo < b < hi]
    return adaptive_simpson(d.evaluate, lo, hi, breaks=breaks, tol=tol)


def disc_area_subdivision(center, R: float, rect, n: int = 2000) -> float:
    """Riemann estimate of disc/rectangle overlap area on an n-by-n grid.

    Midpoint rule over the rectangle; error is O(perimeter * cell), good to
    ~1e-3 relative at n=2000 — enough to catch sign or zone errors in the
    closed form, which is then tested against exact special cases.
    """
    (x0, x1), (y0, y1) = rect
    cx, cy = center
    hx, hy = (x1 - x0) / n, (y1 - y0) / n
    R2 = R * R
    inside = 0
    for i in range(n):
        x = x0 + (i + 0.5) * hx
        dx2 = (x - cx) ** 2
        if dx2 > R2:
            continue
        # count j-cells whose midpoint lies in the disc: |y-cy| <= sqrt(R2-dx2)
        half = math.sqrt(R2 - dx2)
        j_lo = math.ceil((cy - half - y0) / hy - 0.5)
        j_hi = math.floor((cy + half - y0) / hy - 0.5)
        j_lo, j_hi = max(j_lo, 0), min(j_hi, n - 1)
        if j_hi >= j_lo:
            inside += j_hi - j_lo + 1
    return inside * hx * hy


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def disc_rect_area(center, R: float, rect) -> float:
    """Disc/rectangle overlap area by Gauss-Legendre quadrature in the angle.

    With x = cx + R sin t, the covered chord height times dx/dt is smooth in
    t between the angles where the circle meets a rectangle side, so the
    quadrature on each such stretch is good to rounding.
    """
    (x0, x1), (y0, y1) = rect
    cx, cy = center
    ta = math.asin(min(max((x0 - cx) / R, -1.0), 1.0))
    tb = math.asin(min(max((x1 - cx) / R, -1.0), 1.0))
    cuts = {ta, tb}
    for y in (y0, y1):
        u = abs(y - cy) / R
        if u < 1.0:
            cuts.update(t for t in (math.acos(u), -math.acos(u)) if ta < t < tb)
    cuts = sorted(cuts)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        t = 0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES
        h = R * np.cos(t)
        height = np.maximum(np.minimum(y1, cy + h) - np.maximum(y0, cy - h), 0.0)
        total += 0.5 * (b - a) * float(np.dot(_GL_WEIGHTS, height * h))
    return total


def grid_disc_mass(values, origin, spacing, center, R: float) -> float:
    """Mass of a 2D cell grid (raw cell array) in a disc, cell by cell."""
    (ox, oy), (hx, hy) = origin, spacing
    nx, ny = values.shape
    total = 0.0
    for i in range(nx):
        for j in range(ny):
            rect = ((ox + i * hx, ox + (i + 1) * hx), (oy + j * hy, oy + (j + 1) * hy))
            if values[i, j] and rect[0][0] < center[0] + R and rect[0][1] > center[0] - R \
                    and rect[1][0] < center[1] + R and rect[1][1] > center[1] - R:
                total += float(values[i, j]) * disc_rect_area(center, R, rect)
    return total


# ---------------------------------------------------------------------------
# 1D grids, scanned from the raw cell array
# ---------------------------------------------------------------------------


def _grid_cells(grid):
    """Cell edges and cell values of a 1D grid, read off its fields."""
    values = np.asarray(grid.values, dtype=float)
    return grid.origin[0] + grid.spacing[0] * np.arange(len(values) + 1), values


def _merge(elements, join: float):
    merged = []
    for lo, hi in sorted(elements):
        if merged and lo <= merged[-1][1] + join:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((float(lo), float(hi)) for lo, hi in merged)


def _nearest_zero(intervals) -> float:
    points = [min(max(0.0, lo), hi) for lo, hi in intervals]
    return min(points, key=lambda x: (abs(x), x))


def grid_mode_scan(grid, box, tol: float):
    """(sup, maximizer intervals, canonical) of a 1D grid over a closed box.

    Every cell is clipped to the box; the stretches of the box off the grid
    count as value 0.  Elements within tol of the best are merged.
    """
    edges, values = _grid_cells(grid)
    lo, hi = box
    a, b = np.maximum(edges[:-1], lo), np.minimum(edges[1:], hi)
    keep = a <= b
    elements = list(zip(a[keep], b[keep], values[keep]))
    elements += [(s, t, 0.0) for s, t in ((lo, min(hi, edges[0])), (max(lo, edges[-1]), hi))
                 if s < t]
    sup = max(v for _, _, v in elements)
    maxi = _merge([(s, t) for s, t, v in elements if v >= sup - tol], 0.0)
    return float(sup), maxi, _nearest_zero(maxi)


def grid_window_scan(grid, r: float, box, tol: float):
    """(sup, maximizer intervals, canonical) of the ball mass of a 1D grid.

    The mass of [theta - r, theta + r] is piecewise linear in theta with
    kinks at the cell edges shifted by +-r, so it is scanned at the kinks
    inside the box and at the box ends.  A stretch between kinks is flat
    when the cell entering the window has the same value as the cell
    leaving it; flat stretches within tol of the best count whole.
    """
    edges, values = _grid_cells(grid)
    cum = np.concatenate(([0.0], np.cumsum(values * grid.spacing[0])))
    lo, hi = box

    def mass(theta):
        return np.interp(theta + r, edges, cum) - np.interp(theta - r, edges, cum)

    def cell_value(x):
        i = int(np.searchsorted(edges, x, side="right")) - 1
        return values[i] if 0 <= i < len(values) else 0.0

    kinks = np.concatenate(([lo, hi], edges - r, edges + r))
    kinks = np.unique(kinks[(kinks >= lo) & (kinks <= hi)])
    at_kinks = mass(kinks)
    sup = at_kinks.max()
    elements = [(t, t) for t, v in zip(kinks, at_kinks) if v >= sup - tol]
    for s, t in zip(kinks, kinks[1:]):
        m = 0.5 * (s + t)
        if cell_value(m + r) == cell_value(m - r) and mass(m) >= sup - tol:
            elements.append((s, t))
    maxi = _merge(elements, 1e-12)
    return float(sup), maxi, _nearest_zero(maxi)


# ---------------------------------------------------------------------------
# Shape conditions, refuted from pointwise values
# ---------------------------------------------------------------------------


def witness_gaps(d, x, y, lam: float) -> tuple[float, float]:
    """How far f(z), z = lam*x + (1-lam)*y, falls below min(f(x), f(y)) and
    below f(x)^lam * f(y)^(1-lam).  Points are floats or (x, y) pairs."""
    if isinstance(x, tuple):
        z = tuple(lam * a + (1.0 - lam) * b for a, b in zip(x, y))
    else:
        z = lam * x + (1.0 - lam) * y
    fx, fy, fz = d.evaluate(x), d.evaluate(y), d.evaluate(z)
    return min(fx, fy) - fz, fx ** lam * fy ** (1.0 - lam) - fz


def shape_violations(d, points_per_axis: int) -> tuple[float, float]:
    """Largest (quasiconcavity, log-concavity) violation over a fixed lattice.

    The lattice puts ``points_per_axis`` points a half step inside each axis
    of the support box.  Every pair of lattice points whose offset is a
    multiple of 4 steps on each axis is tried with lam in {1/4, 1/2, 3/4},
    so that z is a lattice point too and f is evaluated once per point.
    """
    box = d.support
    box = box if isinstance(box[0], tuple) else (box,)
    n = points_per_axis
    axes = [lo + (np.arange(n) + 0.5) * (hi - lo) / n for lo, hi in box]
    f = np.array([d.evaluate(p if len(p) > 1 else p[0])
                  for p in product(*(a.tolist() for a in axes))]).reshape((n,) * len(box))
    qc = lc = 0.0
    steps = range(-((n - 1) // 4) * 4, n, 4)
    for shift in product(steps, repeat=len(box)):
        if shift <= (0,) * len(box):
            continue  # swapping x and y, with lam -> 1 - lam, gives the same triple

        def moved(k: float):
            return f[tuple(slice(max(0, -s) + round(k * s), n - max(0, s) + round(k * s))
                           for s in shift)]

        fx, fy = moved(0.0), moved(1.0)
        for lam in (0.25, 0.5, 0.75):
            fz = moved(1.0 - lam)
            qc = max(qc, float(np.max(np.minimum(fx, fy) - fz)))
            lc = max(lc, float(np.max(fx ** lam * fy ** (1.0 - lam) - fz)))
    return qc, lc
