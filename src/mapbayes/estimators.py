"""Point estimators built on a posterior density.

Two estimators are provided:

* :func:`map_estimate` — argmax of the pointwise density (the posterior mode).
* :func:`bayes_estimate` — optimal point under the sharp 0-1 loss that
  charges 1 whenever the estimate misses the truth by ``1/c`` or more.  Its
  expected loss at theta is ``1 - (posterior mass within 1/c of theta)``, so
  the optimizer is the argmax of the ball-mass objective; this is the same
  search as the normalized ball average up to the constant ball volume.

Both run any 1D density, a 1D grid included, on its piecewise view.  On 2D
grids the mode is found cell by cell and the Bayes report by a branch and
bound on exact disc masses, certified to a relative tolerance (see
``windows._search_ball``).  Every search reports the value tolerance it
worked out from the values it compared.

:func:`approx_gap` measures how far a fixed point theta is from being
optimal for the ball objective: the sup of the objective minus its value at
theta.  A vanishing gap along a radius ladder certifies theta as an
asymptotically near-optimal report even when the exact argmax wanders off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .argmax import ArgmaxResult, maximize_density
from .density import _support_box
from .windows import BallObjective, _search_ball, ball_integral

__all__ = ["LossSpec", "ApproxGap", "map_estimate", "bayes_estimate", "approx_gap"]


@dataclass(frozen=True)
class LossSpec:
    """Sharp 0-1 loss at scale c: zero loss iff the miss is less than 1/c."""

    c: float

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c) and math.isfinite(2.0 / self.c)):
            raise ValueError(f"loss scale c must be > 0 with c and 2/c finite, got {self.c!r}")

    @property
    def radius(self) -> float:
        return 1.0 / self.c


@dataclass(frozen=True)
class ApproxGap:
    """Shortfall of the ball objective at theta against its sup over the box."""

    theta: object
    c: float
    sup_value: float
    value_at_theta: float

    @property
    def gap(self) -> float:
        return self.sup_value - self.value_at_theta


def map_estimate(d, search=None) -> ArgmaxResult:
    """Posterior mode(s): argmax of the density over the search box.

    Defaults the box to the density's support.  Reports the full maximizer
    set; for an unbounded density the witness points are returned with
    ``sup_infinite`` set.
    """
    return maximize_density(d, search)


def bayes_estimate(d, loss: LossSpec, search=None) -> ArgmaxResult:
    """Optimal report under the sharp 0-1 loss: argmax of ball mass of radius 1/c.

    The default box is the support grown by the ball radius, which always
    contains a global maximizer of the objective.
    """
    r = loss.radius
    box = _support_box(d, r) if search is None else search
    return _search_ball(BallObjective(d, r, normalized=False), box)


def approx_gap(d, loss: LossSpec, theta, search=None) -> ApproxGap:
    """How sub-optimal is reporting theta under the sharp 0-1 loss at scale c?

    The sup is taken over the box *and* theta itself, so the gap is always
    nonnegative even if the caller's box misses the global argmax.
    """
    best = bayes_estimate(d, loss, search)
    b = BallObjective(d, loss.radius, normalized=False)
    at_theta = ball_integral(b, theta)
    sup = max(best.sup_value, at_theta)
    return ApproxGap(theta=theta, c=loss.c, sup_value=sup, value_at_theta=at_theta)
