"""Ball-average objectives: the mass of a density in a moving ball.

``ball_integral`` evaluates, for a center theta, the integral of the density
over the closed ball of the given radius — in 1D the window
``[theta - r, theta + r]``, in 2D the disc.  The normalized variant divides
by the ball volume (2r, or pi r^2), i.e. it is the local average of the
density; constants are then fixed points of the smoothing.  The normalized
objective is a continuous surrogate whose sup never exceeds the sup of the
density itself, which is what the convergence diagnostics exploit.

Any 1D density, a 1D grid included, is integrated on its piecewise view;
2D grids use the exact disc/rectangle overlap.

``_search_ball`` decides how the Bayes report and ``mollified_sup`` search
(scan step, stopping step, value tolerance); no caller sets any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .argmax import ArgmaxResult, _default_tol, maximize_objective_2d, maximize_window
from .density import GridDensity, UscDensity1D, _pieces_view

__all__ = ["BallObjective", "ball_integral", "mollified_sup", "ball_volume"]

#: step at which the 2D compass refinement stops
_XTOL_2D = 1e-6


def ball_volume(dim: int, radius: float) -> float:
    """Volume of a ball: 2r in 1D, pi r^2 in 2D."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if dim == 1:
        return 2.0 * radius
    if dim == 2:
        return math.pi * radius * radius
    raise ValueError("only dims 1 and 2 are supported")


@dataclass(frozen=True)
class BallObjective:
    """A density paired with a ball radius and a normalization switch."""

    density: object
    radius: float
    normalized: bool = True
    _pieces: UscDensity1D | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "_pieces", _pieces_view(self.density))

    @property
    def dim(self) -> int:
        return 1 if self._pieces is not None else 2

    @property
    def ball_vol(self) -> float:
        return ball_volume(self.dim, self.radius)

    def value(self, theta) -> float:
        return ball_integral(self, theta)

    def __call__(self, theta) -> float:
        return ball_integral(self, theta)


def ball_integral(b: BallObjective, theta) -> float:
    """Mass of the density in the ball around theta (normalized if requested)."""
    r = b.radius
    if b._pieces is not None:
        t = float(theta)
        raw = b._pieces.integrate(t - r, t + r)
    else:
        raw = _disc_mass(b.density, tuple(theta), r)
    return raw / b.ball_vol if b.normalized else raw


def _search_ball(b: BallObjective, box) -> ArgmaxResult:
    """Argmax of the ball objective over a box: the exact window search in
    1D (scaled by 1/volume when normalized), scan-and-refine on 2D grids."""
    tol = _default_tol(b.density)
    if b._pieces is not None:
        scale = 1.0 / b.ball_vol if b.normalized else 1.0
        return maximize_window(b._pieces, b.radius, box, scale=scale, tol_value=tol)
    return maximize_objective_2d(b, box, coarse_step=min(b.density.spacing) / 2.0,
                                 xtol=_XTOL_2D, tol_value=tol)


def mollified_sup(b: BallObjective, box) -> ArgmaxResult:
    """Argmax of the normalized ball average over a box.

    In 1D this is the exact piecewise window search; on 2D grids it is
    scan-and-refine.  The ball average never exceeds the density's own sup
    over the box grown by the radius.  The value tolerance is
    TOL_VALUE_GRID for a grid density (1D or 2D) and TOL_VALUE_EXACT for
    pieces.
    """
    if not b.normalized:
        raise ValueError("mollified_sup expects a normalized objective")
    return _search_ball(b, box)


# ---------------------------------------------------------------------------
# Exact disc / rectangle overlap for 2D grids
# ---------------------------------------------------------------------------


def _antider_halfdisc(x: float, R: float) -> float:
    """Antiderivative of sqrt(R^2 - t^2), clamped to [-R, R]."""
    x = min(max(x, -R), R)
    return 0.5 * (x * math.sqrt(max(R * R - x * x, 0.0)) + R * R * math.asin(x / R))


def _corner_area(a: float, b: float, R: float) -> float:
    """Area of the disc of radius R at the origin within {x <= a, y <= b}."""
    if a <= -R or b <= -R:
        return 0.0
    a = min(a, R)
    if b >= R:
        # plain half-plane cut at x = a
        return a * math.sqrt(max(R * R - a * a, 0.0)) + R * R * (math.asin(a / R) + math.pi / 2.0)
    G = _antider_halfdisc
    s = math.sqrt(max(R * R - b * b, 0.0))
    if b < 0.0:
        if a <= -s:
            return 0.0
        x2 = min(a, s)
        return b * (x2 + s) + (G(x2, R) - G(-s, R))
    area = 0.0
    x1 = min(a, -s)
    if x1 > -R:
        area += 2.0 * (G(x1, R) - G(-R, R))
    if a > -s:
        x2 = min(a, s)
        area += b * (x2 + s) + (G(x2, R) - G(-s, R))
    if a > s:
        area += 2.0 * (G(min(a, R), R) - G(s, R))
    return area


def disc_rect_overlap(center: tuple[float, float], R: float,
                      rect: tuple[tuple[float, float], tuple[float, float]]) -> float:
    """Exact area of intersection of a disc with an axis-aligned rectangle."""
    (x0, x1), (y0, y1) = rect
    cx, cy = center
    C = _corner_area
    return (C(x1 - cx, y1 - cy, R) - C(x0 - cx, y1 - cy, R)
            - C(x1 - cx, y0 - cy, R) + C(x0 - cx, y0 - cy, R))


def _disc_mass(g: GridDensity, center: tuple[float, float], R: float) -> float:
    (ox, _), (oy, _) = g.support
    hx, hy = g.spacing
    cx, cy = center
    i_lo = max(0, math.floor((cx - R - ox) / hx))
    i_hi = min(g.shape[0], math.ceil((cx + R - ox) / hx))
    j_lo = max(0, math.floor((cy - R - oy) / hy))
    j_hi = min(g.shape[1], math.ceil((cy + R - oy) / hy))
    total = 0.0
    for i in range(i_lo, i_hi):
        x0, x1 = ox + i * hx, ox + (i + 1) * hx
        for j in range(j_lo, j_hi):
            v = float(g.values[i, j])
            if v == 0.0:
                continue
            y0, y1 = oy + j * hy, oy + (j + 1) * hy
            total += v * disc_rect_overlap(center, R, ((x0, x1), (y0, y1)))
    return total
