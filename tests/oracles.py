"""Independent numerical oracles for cross-checking closed-form code paths.

Everything here works from pointwise evaluation only — no piece mass
formulas, no package integrators — so agreement between these
routines and the library is genuine evidence, not circular.  The grid
scans read a grid's raw cell array instead, and the escaping
construction's window mass is integrated exactly from its definition, as
is a piecewise density's from its piece formulas.  The window search's
float-error bound and a density's inf over a window are worked out piece
by piece, without the profile the library reads them from.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
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


def escape_window_mass(a: Fraction, b: Fraction, bumps) -> Fraction:
    """Exact mass of the escaping construction's bumps in [a, b], in rationals.

    Written from the definition, not from the package's pieces: bump n rises
    linearly on [n - 8^-n, n] to 1 - 2^-n, stays there up to n + 2^-n - 8^-n
    and falls linearly to 0 at n + 2^-n.  Each linear stretch clipped to
    [a, b] adds its length times its value at the clipped midpoint.
    """
    total = Fraction(0)
    for n in bumps:
        ramp, top = Fraction(1, 8 ** n), n + Fraction(1, 2 ** n)
        height = 1 - Fraction(1, 2 ** n)
        knots = [(n - ramp, Fraction(0)), (Fraction(n), height), (top - ramp, height),
                 (top, Fraction(0))]
        for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
            lo, hi = max(a, x0), min(b, x1)
            if hi > lo:
                total += (hi - lo) * (y0 + (y1 - y0) * ((lo + hi) / 2 - x0) / (x1 - x0))
    return total


def exact_window_mass(d, a: float, b: float) -> Fraction:
    """Mass of the float pieces of d over the float window [a, b], from each
    piece's formula: exact in rationals on constant and affine pieces, where
    the midpoint rule is exact, and to 60 digits on sqrt arcs, whose term
    b*sqrt(u), u = s*(t - t0), integrates to s*b*(2/3)*u^(3/2)."""
    a, b = Fraction(a), Fraction(b)
    total = Fraction(0)
    for p in d.pieces:
        lo, hi = max(a, Fraction(p.lo)), min(b, Fraction(p.hi))
        if hi <= lo:
            continue
        q = {k: Fraction(v) for k, v in p.params.items()}
        if p.kind == "constant":
            total += (hi - lo) * q["k"]
        elif p.kind == "affine":
            total += (hi - lo) * (q["a"] + q["b"] * ((lo + hi) / 2 - q.get("t0", 0)))
        else:
            with localcontext() as ctx:
                ctx.prec = 60
                u_lo, u_hi = (max(q["s"] * (t - q["t0"]), Fraction(0)) for t in (lo, hi))
                w_lo, w_hi = (Decimal(u.numerator) / Decimal(u.denominator) for u in (u_lo, u_hi))
                power = Fraction(w_hi * w_hi.sqrt() - w_lo * w_lo.sqrt())
            total += (hi - lo) * q["a"] + q["s"] * q["b"] * Fraction(2, 3) * power
    return total


def integrate_by_pieces(d, lo: float, hi: float) -> float:
    """The mass of d over [lo, hi] as the pieces give it: the ``fsum`` of
    :meth:`Piece.integral` over each piece's part of the window, from the
    last piece to start at or before lo (the first if none does) on; a
    piece the window misses adds 0.  ``total_mass`` is this over each whole
    piece."""
    starts = [p.lo for p in d.pieces]
    i = max(bisect_right(starts, lo) - 1, 0)
    return math.fsum(p.integral(max(lo, p.lo), min(hi, p.hi)) for p in d.pieces[i:])


def window_inf_by_pieces(d, a: float, b: float) -> float:
    """The inf of d over [a, b], a < b, from its pieces: each piece the
    window meets with positive length gives the smaller of its formula's
    values at the ends of its part, pieces being monotone, and a part of
    the window no piece covers gives 0.  An infinite point lowers no inf."""
    vals, covered = [], a
    for p in sorted(d.pieces, key=lambda p: p.lo):
        x, y = max(a, p.lo), min(b, p.hi)
        if y > x:
            if p.lo > covered:
                vals.append(0.0)
            vals.append(min(p.value(x), p.value(y)))
            covered = max(covered, p.hi)
    return min(vals) if vals and covered >= b else 0.0


def window_error_by_pieces(d, r: float, lo: float, hi: float) -> float:
    """The float-error bound of ``mapbayes.argmax._window_error``, worked out
    on the pieces alone as the bound is stated there: pieces i0 .. i1 - 1,
    with i0 the last to start at or before lo - r (the first if none does)
    and i1 the number to start at or before hi + r.  Each piece's terms come
    from its formula a + b*g(s*(t - t0)): four times its width times |a|
    plus the larger |b*g| at its ends, plus, for a sqrt arc, eight times its
    power term (2/3) |b| u^1.5 at the larger radicand u = g^2; and its
    largest value."""
    starts = [p.lo for p in d.pieces]
    i0 = max(bisect_right(starts, lo - r) - 1, 0)
    i1 = bisect_right(starts, hi + r)
    if i1 <= i0:
        return 0.0
    pieces = d.pieces[i0:i1]
    ends = np.array([(p.lo, p.hi) for p in pieces])
    rounding = []
    for p in pieces:
        a, b, s, t0, root = p._form
        g = [math.sqrt(max(s * (t - t0), 0.0)) if root else t - t0 for t in (p.lo, p.hi)]
        bg, g_max = max(abs(b * x) for x in g), max(abs(x) for x in g)
        power = bg * g_max * g_max / 1.5 if root else 0.0
        rounding.append(4.0 * ((p.hi - p.lo) * (abs(a) + bg) + 2.0 * power))
    f_max = max(max(p.endpoint_values()) for p in pieces)
    # a window whose first piece is k meets at most pieces k .. j - 1
    j = np.searchsorted(ends[:, 0], ends[:, 1] + 2.0 * r, side="right")
    cum = np.concatenate(([0.0], np.cumsum(rounding)))
    A = max(abs(ends[0, 0]), abs(ends[-1, 1])) + 2.0 * r
    return (max(0.0, f_max) * math.ulp(A)
            + sys.float_info.epsilon * float((cum[j] - cum[:-1]).max()))


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


def uncapped_disc_lattice(g, cx, cy, rho: float):
    """``mapbayes.density._disc_lattice`` without its cap at the grid: along
    each axis all k = ceil(2 rho / h) + 1 cells from the one holding c - rho,
    each off the grid read as 0 from the grid's zero border."""
    def axis(c, o, h, n):
        k = math.ceil(2.0 * rho / h) + 1
        first = np.minimum(np.maximum(np.floor((c - rho - o) / h), -k), n).astype(np.int64)
        i = first + np.arange(k + 1)[:, None]
        return o + i * h - c, np.minimum(np.maximum(i[:-1] + 1, 0), n + 1)

    (ex, ix), (ey, iy) = (axis(c, o, h, n) for c, o, h, n in
                          zip((cx, cy), g.origin, g.spacing, g.shape))
    return ex, ey, g._bordered[ix[:, None, :], iy[None, :, :]]


def grid_window_max(values, i: int, j: int, kx: int, ky: int) -> float:
    """Largest value of a 2D cell array among the cells within kx, ky cells
    of cell (i, j), counting each cell off the grid as 0, cell by cell."""
    nx, ny = values.shape
    return max(float(values[a, b]) if 0 <= a < nx and 0 <= b < ny else 0.0
               for a in range(i - kx, i + kx + 1) for b in range(j - ky, j + ky + 1))


# ---------------------------------------------------------------------------
# Grids, scanned from the raw cell array
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


def grid_mode_scan_2d(grid, box):
    """(sup, maximizer rectangles, canonical, tol) of a 2D grid over a closed box.

    The per-cell scan in plain Python: every cell, with edges o + i*h, is cut
    to the box by ``max`` and ``min``, whose first argument wins a tie, in
    row-major order; a box that leaves the grid offers 0 as well, and if
    nothing beats 0 by more than tol the whole box is the maximizer.
    Values within tol = 4 ulps of the sup tie with it.
    """
    (bx0, bx1), (by0, by1) = ((float(lo), float(hi)) for lo, hi in box)
    (ox, oy), (hx, hy) = grid.origin, grid.spacing
    nx, ny = grid.values.shape
    rects = []
    for i in range(nx):
        x0, x1 = max(ox + i * hx, bx0), min(ox + (i + 1) * hx, bx1)
        if x0 > x1:
            continue
        for j in range(ny):
            y0, y1 = max(oy + j * hy, by0), min(oy + (j + 1) * hy, by1)
            if y0 > y1:
                continue
            rects.append(((x0, x1), (y0, y1), float(grid.values[i, j])))
    off_grid = bx0 < ox or bx1 > ox + hx * nx or by0 < oy or by1 > oy + hy * ny
    values = [v for _, _, v in rects] + [0.0] * off_grid
    sup = max(values)
    tol = 4.0 * math.ulp(sup)
    if off_grid and sup - tol <= 0.0:
        maxi = (((bx0, bx1), (by0, by1)),)
    else:
        maxi = tuple((rx, ry) for rx, ry, v in rects if v >= sup - tol)
    canonical = min((tuple(min(max(0.0, lo), hi) for lo, hi in m) for m in maxi),
                    key=lambda p: (math.hypot(*p), p))
    return sup, maxi, canonical, tol


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
# Piecewise modes, scanned with the one-point evaluate
# ---------------------------------------------------------------------------


def mode_scan(d, box):
    """(sup, maximizers, canonical, tol, sup_infinite) of a 1D piecewise
    density over a closed box, from the scalar ``evaluate`` alone.

    An infinite point in the box makes the sup infinite, with those points
    as witnesses.  Otherwise the box ends and every breakpoint strictly
    inside the box are scored one at a time, and each flat stretch that
    meets the box is scored by its height: a piece with b = 0, or a zero
    stretch between pieces or beyond them.  A flat stretch is cut to the
    box by ``max`` and ``min``, whose first argument wins a tie, and
    values within tol = 4 ulps of the sup tie with it.
    """
    lo, hi = float(box[0]), float(box[1])
    witnesses = sorted(t for t in d.infinite_points if lo <= t <= hi)
    if witnesses:
        maxi = tuple((t, t) for t in witnesses)
        return math.inf, maxi, _nearest_zero(maxi), 0.0, True
    points = [lo] if lo == hi else [lo, *(t for t in d.breakpoints if lo < t < hi), hi]
    scored = [(t, d.evaluate(t)) for t in points]
    flats, end = [], -math.inf
    for p in sorted(d.pieces, key=lambda p: p.lo):
        if p.lo > end:
            flats.append((end, p.lo, 0.0))
        if p.kind == "constant" or p.params["b"] == 0.0:
            flats.append((p.lo, p.hi, p.params["k" if p.kind == "constant" else "a"]))
        end = p.hi
    flats.append((end, math.inf, 0.0))
    flats = [(s, e, v) for s, e, v in flats if e > lo and s < hi]
    sup = max(max(v for _, v in scored), max((v for _, _, v in flats), default=-math.inf))
    tol = 4.0 * math.ulp(sup)
    maxi = _merge([(t, t) for t, v in scored if v >= sup - tol]
                  + [(max(s, lo), min(e, hi)) for s, e, v in flats if v >= sup - tol], 0.0)
    return sup, maxi, _nearest_zero(maxi), tol, False


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
