"""A continuous density whose small-ball Bayes reports escape the mode.

The construction has a sharp cusp of height 1 at the origin — the unique
mode — flanked by an infinite train of ever-thinner plateaus marching off to
the right.  Bump ``n`` sits on ``[n - 8^-n, n + 2^-n]``: a linear ramp up,
a plateau of height ``1 - 2^-n``, and a linear ramp down.  Plateau heights
approach 1 but never reach it, while plateau *masses* shrink slowly enough
that a ball of radius ``1/(2*4^nu)`` parked on bump ``2*nu`` captures more
mass than the same ball parked on the cusp.  The sharp-loss optimum
therefore runs away to ``+inf`` along the scale ladder ``c = 2*4^nu`` even
though the mode never moves.

Only finitely many bumps are materialized (``max_bump``, default 20).  The
omitted tail mass ``2^-N - 4^-N/3`` is accounted for in the density's mass
tolerance, and the density carries a declaration that the idealized
construction has unbounded level sets below height 1.  Bumps whose ramp
width ``8^-n`` falls below float spacing at coordinate ``n`` (n >= 17) are
materialized as plain rectangles ``[n, n + 2^-n]`` of the same height; this
keeps the bump mass exactly ``(1 - 2^-n) * 2^-n`` and changes nothing at
float resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .density import UscDensity1D, affine_piece, constant_piece, sqrt_piece
from .diagnostics import SweepTrace, sweep
from .errors import CutoffTooSmall

__all__ = [
    "build",
    "scale_ladder",
    "objective_at_origin",
    "plateau_bound",
    "plateau_center",
    "domination_margin",
    "verify_nonconvergence",
    "NonconvergenceReport",
    "DominationRow",
    "DEFAULT_MAX_BUMP",
    "omitted_tail_mass",
    "ideal_total_mass",
    "sample_curve",
]

DEFAULT_MAX_BUMP = 20
#: the step of :func:`sample_curve`
_SAMPLE_STEP = 1e-3
#: the last bump whose plateau has width: from n = 48 on, n + 2^-n rounds to n
_MAX_BUMP = 47

_SQRT2 = math.sqrt(2.0)


def omitted_tail_mass(max_bump: int) -> float:
    """Mass of the bumps beyond the cutoff: sum over n > N of 2^-n - 4^-n."""
    return 2.0 ** -max_bump - (4.0 ** -max_bump) / 3.0


def build(max_bump: int = DEFAULT_MAX_BUMP) -> UscDensity1D:
    """Materialize the density with bumps 1..max_bump, for max_bump <= 47."""
    if not 1 <= max_bump <= _MAX_BUMP:
        raise ValueError(f"max_bump must be between 1 and {_MAX_BUMP}, got {max_bump}: "
                         "from bump 48 on, n + 2^-n rounds to n")
    pieces = [
        # central cusp 1 - sqrt(2|t|) on (-1/2, 1/2)
        sqrt_piece(-0.5, 0.0, 1.0, -_SQRT2, -1, 0.0),
        sqrt_piece(0.0, 0.5, 1.0, -_SQRT2, 1, 0.0),
    ]
    for n in range(1, max_bump + 1):
        height = 1.0 - 2.0 ** -n
        ramp_w = 8.0 ** -n
        rise_lo = n - ramp_w
        plateau_hi = n + (2.0 ** -n - ramp_w)
        fall_hi = n + 2.0 ** -n
        slope = (2.0 ** n - 1.0) * 4.0 ** n
        if rise_lo < n and n < plateau_hi < fall_hi:
            pieces.append(affine_piece(rise_lo, n, 0.0, slope, t0=rise_lo))
            pieces.append(constant_piece(n, plateau_hi, height))
            pieces.append(affine_piece(plateau_hi, fall_hi, 0.0, -slope, t0=fall_hi))
        else:
            # ramps thinner than float spacing at n: use the equal-mass rectangle
            pieces.append(constant_piece(n, fall_hi, height))
    return UscDensity1D(
        tuple(pieces),
        mass_tol=omitted_tail_mass(max_bump) + 1e-9,
        tail_height_sup=1.0,
    )


def ideal_total_mass(max_bump: int) -> float:
    """Closed-form mass of the materialized part: 1/3 + sum of bump masses."""
    return 1.0 / 3.0 + math.fsum(
        2.0 ** -n - 4.0 ** -n for n in range(1, max_bump + 1)
    )


def scale_ladder(nu_max: int) -> list[float]:
    """The loss scales c = 2 * 4^nu for nu = 1..nu_max."""
    if nu_max < 1:
        raise ValueError("nu_max must be at least 1")
    return [2.0 * 4.0 ** nu for nu in range(1, nu_max + 1)]


def _check_nu(nu: int):
    if nu < 1:
        raise ValueError("nu must be at least 1")


def objective_at_origin(nu: int) -> float:
    """Ball mass at the mode for radius 1/(2*4^nu): 4^-nu - (2/3) 8^-nu."""
    _check_nu(nu)
    return 4.0 ** -nu - (2.0 / 3.0) * 8.0 ** -nu


def plateau_bound(nu: int) -> float:
    """Lower bound for the ball mass on bump 2*nu: plateau mass alone.

    The ball of radius 1/(2*4^nu) centered past the plateau start covers the
    whole plateau of bump 2*nu, whose mass is (1 - 4^-nu)(4^-nu - 64^-nu).
    """
    _check_nu(nu)
    return (1.0 - 4.0 ** -nu) * (4.0 ** -nu - 64.0 ** -nu)


def plateau_center(nu: int) -> float:
    """Midpoint of the plateau of bump 2*nu (also the bump's symmetry center)."""
    _check_nu(nu)
    return 2 * nu + (4.0 ** -nu - 64.0 ** -nu) / 2.0


def domination_margin(nu: int) -> Fraction:
    """Exact rational margin plateau_bound - objective_at_origin.

    Equals (2/3) 8^-nu - 16^-nu - 64^-nu + 256^-nu, which is positive for
    every nu >= 1: the ball does strictly better on bump 2*nu than on the
    mode.
    """
    _check_nu(nu)
    return (Fraction(2, 3) / 8 ** nu - Fraction(1, 16 ** nu)
            - Fraction(1, 64 ** nu) + Fraction(1, 256 ** nu))


@dataclass(frozen=True)
class DominationRow:
    """Per-nu comparison of the ball objective at the mode vs on bump 2*nu."""

    nu: int
    c: float
    origin_value: float
    plateau_mass_bound: float
    center_value: float
    bayes_sup: float
    bayes_canonical: float


@dataclass(frozen=True)
class NonconvergenceReport:
    """Everything needed to certify the escape along the scale ladder.

    ``failures`` names each check that failed; it is empty when the
    escape is certified.  ``density`` is the ``build(max_bump)`` density
    the checks ran on.
    """

    max_bump: int
    map_sup: float
    map_canonical: float
    rows: tuple[DominationRow, ...]
    trace: SweepTrace
    failures: tuple[str, ...]
    density: UscDensity1D = field(repr=False)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_nonconvergence(nu_max: int = 6,
                          max_bump: int | None = None) -> NonconvergenceReport:
    """Check mode uniqueness, per-nu domination, and the escaping sweep.

    ``ok`` requires: the mode is the origin with sup 1; at every rung the
    measured ball mass at the bump-2*nu plateau center beats the closed-form
    value at the origin, every canonical Bayes report sits outside
    (-1/2, 1/2), and the ball mass at it is at least the plateau bound, so
    it lies on bump 2*nu; and the sweep verdict is an escape.  Each failed
    check is named in ``failures``.  Both searches run over
    (-1, 2*nu_max + 2), which holds the cusp and every bump the ladder
    reaches.
    """
    if max_bump is None:
        max_bump = max(DEFAULT_MAX_BUMP, 2 * nu_max)
    _check_nu(nu_max)
    if max_bump < 2 * nu_max:
        raise CutoffTooSmall(f"need bump {2 * nu_max} materialized, but max_bump is {max_bump}")
    d = build(max_bump)
    search = (-1.0, 2 * nu_max + 2.0)

    trace = sweep(d, scale_ladder(nu_max), search)  # it finds the mode too

    rows = []
    failures = []
    if not (abs(trace.map_sup - 1.0) <= 1e-12 and abs(trace.map_canonical) <= 1e-12):
        failures.append("mode at the origin")
    for nu, row in zip(range(1, nu_max + 1), trace.rows):
        r = 0.5 * 4.0 ** -nu
        center = plateau_center(nu)
        center_value = d.integrate(center - r, center + r)
        origin = objective_at_origin(nu)
        bound = plateau_bound(nu)
        rows.append(DominationRow(
            nu=nu, c=row.c, origin_value=origin, plateau_mass_bound=bound,
            center_value=center_value, bayes_sup=row.sup_value,
            bayes_canonical=row.canonical,
        ))
        checks = {
            "domination": center_value > origin and domination_margin(nu) > 0,
            "escape": abs(row.canonical) >= 0.5,
            "plateau bound": d.integrate(row.canonical - r, row.canonical + r) >= bound,
        }
        failures += [f"rung {nu} {name}" for name, passed in checks.items() if not passed]
    if trace.verdict != "diverges_from_MAP":
        failures.append("verdict")
    return NonconvergenceReport(max_bump=max_bump, map_sup=trace.map_sup,
                                map_canonical=trace.map_canonical, rows=tuple(rows),
                                trace=trace, failures=tuple(failures), density=d)


def sample_curve(d: UscDensity1D, lo: float, hi: float) -> np.ndarray:
    """Samples of d at t = lo + k*step, k = 0..n with n = round((hi - lo)/step),
    for plotting the construction: an (n+1, 2) array of (t, value) rows."""
    t = lo + np.arange(int(round((hi - lo) / _SAMPLE_STEP)) + 1) * _SAMPLE_STEP
    return np.column_stack((t, d._profile.evaluate(t)))
