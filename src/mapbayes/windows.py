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
the exact window search in 1D, the certified branch and bound on 2D grids.
Each search works out its value tolerance from the values it compares; no
caller sets any of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .argmax import ArgmaxResult, maximize_objective_2d, maximize_window
from .density import UscDensity1D, _corner_areas, _disc_masses, _pieces_view

__all__ = ["BallObjective", "ball_integral", "mollified_sup"]


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
        """Volume of the ball: 2r in 1D, pi r^2 in 2D."""
        return 2.0 * self.radius if self.dim == 1 else math.pi * self.radius * self.radius

    def value(self, theta) -> float:
        return ball_integral(self, theta)

    def _of_mass(self, raw: float) -> float:
        """The objective's value for a ball mass: divided by the ball volume
        when normalized."""
        return raw / self.ball_vol if self.normalized else raw

    def __call__(self, theta) -> float:
        return ball_integral(self, theta)


def ball_integral(b: BallObjective, theta) -> float:
    """Mass of the density in the ball around theta (normalized if requested).

    A NaN centre raises ``ValueError``, and so does an infinite one in 2D;
    in 1D an infinite centre's window holds no mass."""
    r = b.radius
    if b._pieces is not None:
        t = float(theta)
        return b._of_mass(b._pieces.integrate(t - r, t + r))
    return b._of_mass(float(_disc_masses(b.density, [theta[0]], [theta[1]], r)[0]))


def _search_ball(b: BallObjective, box) -> ArgmaxResult:
    """Argmax of the ball objective over a box: the exact window search in
    1D (scaled by 1/volume when normalized), the certified branch and bound
    on 2D grids."""
    if b._pieces is not None:
        scale = 1.0 / b.ball_vol if b.normalized else 1.0
        return maximize_window(b._pieces, b.radius, box, scale=scale)
    return maximize_objective_2d(b, box)


def mollified_sup(b: BallObjective, box) -> ArgmaxResult:
    """Argmax of the normalized ball average over a box.

    In 1D this is the exact piecewise window search.  On 2D grids it is the
    branch and bound of :func:`~mapbayes.argmax.maximize_objective_2d`, run
    in normalized units: the reported point's average is exact, and no
    point of the box beats it by more than ``tol_value``.  The ball average
    never exceeds the density's own sup over the box grown by the radius.
    In 1D ``tol_value`` is twice the float error of one average; in 2D it
    adds the search's relative target to that.
    """
    if not b.normalized:
        raise ValueError("mollified_sup expects a normalized objective")
    return _search_ball(b, box)


# ---------------------------------------------------------------------------
# Exact disc / rectangle overlap for 2D grids
# ---------------------------------------------------------------------------


def disc_rect_overlap(center: tuple[float, float], R: float,
                      rect: tuple[tuple[float, float], tuple[float, float]]) -> float:
    """Exact area of intersection of a disc with an axis-aligned rectangle.
    Only the tests (of ``_corner_areas``) and ``perfbench/tracing.py`` use it."""
    (x0, x1), (y0, y1) = rect
    cx, cy = center
    C = _corner_areas(np.array([[x0 - cx], [x1 - cx]]), np.array([[y0 - cy, y1 - cy]]), R)
    return float(C[1, 1] - C[0, 1] - C[1, 0] + C[0, 0])

