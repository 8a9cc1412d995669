"""Ball-average objectives: the mass of a density in a moving ball.

``ball_integral`` evaluates, for a center theta, the integral of the density
over the closed ball of the given radius — in 1D the window
``[theta - r, theta + r]``, in 2D the disc.  The normalized variant divides
by the ball volume (2r, or pi r^2), i.e. it is the local average of the
density; constants are then fixed points of the smoothing.  The normalized
objective is a continuous surrogate whose sup never exceeds the sup of the
density itself, which is what the convergence diagnostics exploit.

Any 1D density, a 1D grid included, is integrated on its piecewise view.
On 2D grids the disc mass is exact: each cell's overlap is a mixed second
difference of closed-form corner areas, computed for many centres at once
by the kernel the 2D search uses (``density._disc_masses``).

``_search_ball`` decides how the Bayes report and ``mollified_sup`` search:
the exact window search in 1D, the certified branch and bound on 2D grids,
each with the fixed value tolerance; no caller sets any of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .argmax import ArgmaxResult, _default_tol, maximize_objective_2d, maximize_window
from .density import UscDensity1D, _corner_areas, _disc_masses, _pieces_view

__all__ = ["BallObjective", "ball_integral", "mollified_sup", "ball_volume"]


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
        raw = float(_disc_masses(b.density, [theta[0]], [theta[1]], r)[0])
    return raw / b.ball_vol if b.normalized else raw


def _search_ball(b: BallObjective, box) -> ArgmaxResult:
    """Argmax of the ball objective over a box: the exact window search in
    1D (scaled by 1/volume when normalized), the certified branch and bound
    on 2D grids."""
    tol = _default_tol(b.density)
    if b._pieces is not None:
        scale = 1.0 / b.ball_vol if b.normalized else 1.0
        return maximize_window(b._pieces, b.radius, box, scale=scale, tol_value=tol)
    return maximize_objective_2d(b, box, tol_value=tol)


def mollified_sup(b: BallObjective, box) -> ArgmaxResult:
    """Argmax of the normalized ball average over a box.

    In 1D this is the exact piecewise window search.  On 2D grids it is the
    branch and bound of :func:`~mapbayes.argmax.maximize_objective_2d`, run
    in normalized units: the reported point's average is exact, and no
    point of the box beats it by more than ``tol_value``.  The ball average
    never exceeds the density's own sup over the box grown by the radius.
    The value tolerance is TOL_VALUE_GRID for a grid density (1D or 2D) and
    TOL_VALUE_EXACT for pieces.
    """
    if not b.normalized:
        raise ValueError("mollified_sup expects a normalized objective")
    return _search_ball(b, box)


# ---------------------------------------------------------------------------
# Exact disc / rectangle overlap for 2D grids
# ---------------------------------------------------------------------------


def disc_rect_overlap(center: tuple[float, float], R: float,
                      rect: tuple[tuple[float, float], tuple[float, float]]) -> float:
    """Exact area of intersection of a disc with an axis-aligned rectangle."""
    (x0, x1), (y0, y1) = rect
    cx, cy = center
    C = _corner_areas(np.array([[x0 - cx], [x1 - cx]]), np.array([[y0 - cy, y1 - cy]]), R)
    return float(C[1, 1] - C[0, 1] - C[1, 0] + C[0, 0])

