import math

import numpy as np
import pytest

from mapbayes.density import (GridDensity, UscDensity1D, affine_piece, constant_piece,
                               sqrt_piece)


def random_piecewise(rng, *, max_pieces: int = 6, span: tuple[float, float] = (-2.0, 2.0),
                     gap_prob: float = 0.2) -> UscDensity1D:
    """A random normalized piecewise density mixing all three piece kinds.

    Partition points are drawn in span, occasional sub-intervals are left as
    gaps (density zero there), endpoint values stay strictly positive so
    pieces are nonnegative by monotonicity, and the whole thing is scaled to
    unit mass at the end.
    """
    lo, hi = span
    n = int(rng.integers(2, max_pieces + 1))
    cuts = np.sort(rng.uniform(lo, hi, size=n + 1))
    # enforce a minimum width so sqrt anchors stay numerically comfortable
    while np.min(np.diff(cuts)) < 1e-3:
        cuts = np.sort(rng.uniform(lo, hi, size=n + 1))
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        if rng.uniform() < gap_prob and len(pieces) > 0:
            continue
        kind = rng.choice(["constant", "affine", "sqrt"])
        v0, v1 = rng.uniform(0.05, 1.5, size=2)
        if kind == "constant":
            pieces.append(constant_piece(a, b, v0))
        elif kind == "affine":
            slope = (v1 - v0) / (b - a)
            pieces.append(affine_piece(a, b, v0, slope, t0=a))
        else:
            s = 1 if rng.uniform() < 0.5 else -1
            t0 = a if s == 1 else b
            w = math.sqrt(b - a)
            if s == 1:
                pieces.append(sqrt_piece(a, b, v0, (v1 - v0) / w, 1, t0))
            else:
                pieces.append(sqrt_piece(a, b, v1, (v0 - v1) / w, -1, t0))
    if not pieces:
        pieces = [constant_piece(lo, hi, 1.0)]
    return unit_mass(pieces)


def random_affine(rng, *, offset: float = 0.0, max_pieces: int = 10) -> UscDensity1D:
    """A random normalized density of affine and constant pieces from offset on.

    Each piece follows the one before, one in five after a gap and one in
    five overlapping it by the most a density admits, 1e-15 relative.  About
    one in seven is a ramp 1e-9 wide, with slopes up to 1.5e9 before the
    scaling; a constant piece makes a plateau of every window it holds.
    """
    t, pieces = offset, []
    for _ in range(int(rng.integers(2, max_pieces + 1))):
        lo = t
        if pieces and rng.uniform() < 0.2:
            lo = t - 1e-15 * max(1.0, abs(t))
        elif pieces and rng.uniform() < 0.25:
            lo = t + rng.uniform(0.01, 0.5)
        t = lo + (1e-9 if rng.uniform() < 0.15 else rng.uniform(0.01, 1.0))
        v0, v1 = rng.uniform(0.0, 1.5, size=2)
        if rng.uniform() < 0.3:
            pieces.append(constant_piece(lo, t, v0))
        else:
            pieces.append(affine_piece(lo, t, v0, (v1 - v0) / (t - lo), t0=lo))
    return unit_mass(pieces)


def unit_mass(pieces) -> UscDensity1D:
    """The density of the given pieces, with their values divided by their mass."""
    mass = math.fsum(p.integral(p.lo, p.hi) for p in pieces)
    scaled = []
    for p in pieces:
        params = dict(p.params)
        for key in ("k", "a", "b"):
            if key in params:
                params[key] = params[key] / mass
        scaled.append(type(p)(p.lo, p.hi, p.kind, params))
    return UscDensity1D(tuple(scaled), mass_tol=1e-6)


#: 1D grids as (origin, spacing, unnormalized cell values)
GRIDS_1D = {
    # zero cells inside the grid and at both of its ends
    "zero_cells": ((-0.5,), (0.25,), [0.0, 2.0, 0.0, 3.0, 3.0, 0.0, 1.0]),
    # two top cells 4e-9 apart, far more than the float error of the values compared
    "near_tie": ((0.0,), (0.5,), [1.0, 2.0, 0.5, 2.0 + 4e-9, 1.0]),
}


#: 4t on [0, 0.5), then 1 on [0.5, 1): the density jumps down from 2 to 1
JUMP_DOWN = UscDensity1D((affine_piece(0.0, 0.5, 0.0, 4.0), constant_piece(0.5, 1.0, 1.0)))

#: a 2x2 grid on [0, 0.5]^2 whose cell at the origin is 0
CORNER_ZERO_2D = GridDensity.normalized(2, (0.0, 0.0), (0.25, 0.25),
                                        np.array([[0.0, 1.0], [1.0, 1.0]]))


def grid_1d(name: str) -> GridDensity:
    origin, spacing, values = GRIDS_1D[name]
    return GridDensity.normalized(1, origin, spacing, np.array(values))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
