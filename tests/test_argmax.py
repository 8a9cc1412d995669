import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mapbayes as mb
from mapbayes.argmax import _box_bounds, maximize_density, maximize_window
from mapbayes.density import GridDensity, UscDensity1D, _disc_masses, constant_piece, sqrt_piece
from mapbayes.errors import EmptySearchBox

from conftest import CORNER_ZERO_2D, JUMP_DOWN, random_piecewise
from oracles import brute_argmax, window_mass


def test_density_argmax_on_family():
    cases = {
        "triangle": (((0.0, 0.0),), 0.0, 1.0),
        "uniform": (((0.0, 1.0),), 0.0, 1.0),
        "step": (((0.0, 0.5),), 0.0, 2.0),
        "ramp": (((1.0, 1.0),), 1.0, 2.0),
        "staircase": (((1.0, 1.5),), 1.0, 1.2),
    }
    family = mb.quasiconcave_family()
    for name, (maxi, canonical, sup) in cases.items():
        res = mb.map_estimate(family[name])
        assert res.maximizers == maxi, name
        assert res.canonical == canonical, name
        assert res.sup_value == sup, name


def test_density_argmax_sees_the_left_limit_at_a_jump_down():
    res = mb.map_estimate(JUMP_DOWN)
    assert (res.sup_value, res.maximizers) == (2.0, ((0.5, 0.5),))


def test_density_argmax_respects_box():
    d = mb.triangle()
    res = maximize_density(d, (0.2, 2.0))
    assert res.canonical == 0.2
    assert res.sup_value == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(EmptySearchBox):
        maximize_density(d, (1.0, 0.0))


@pytest.mark.parametrize("d, box, maxi, canonical", [
    (mb.two_bumps(), (-0.4, 0.4), ((-0.4, 0.4),), 0.0),
    (mb.uniform(0.0, 1.0), (2.0, 3.0), ((2.0, 3.0),), 2.0),
    (mb.two_bumps(), (-0.7, 0.7), ((-0.7, -0.5),), -0.5),
    (GridDensity.normalized(1, (0.5,), (0.25,), np.array([0.0, 0.0, 1.0, 3.0])),
     (0.2, 0.9), ((0.2, 0.9),), 0.2),
    (CORNER_ZERO_2D, ((2, 3), (2, 3)), (((2.0, 3.0), (2.0, 3.0)),), (2.0, 2.0)),
    (CORNER_ZERO_2D, ((-1, 0.2), (-1, 0.2)), (((-1.0, 0.2), (-1.0, 0.2)),), (0.0, 0.0)),
], ids=["gap_between_pieces", "past_the_support", "positive_sup", "grid_zero_cells",
        "grid_2d_past_the_grid", "grid_2d_zero_cell_and_off_grid"])
def test_density_argmax_counts_off_support_stretches(d, box, maxi, canonical):
    # the density is 0 off its support, so a box where nothing beats 0 is
    # maximized everywhere, gaps between pieces and beyond them included
    res = mb.map_estimate(d, box)
    assert res.maximizers == maxi
    assert res.canonical == canonical


def test_density_argmax_reports_infinite_sup():
    d = UscDensity1D((constant_piece(0.0, 1.0, 1.0),), infinite_points=(0.3,))
    res = mb.map_estimate(d)
    assert res.sup_infinite
    assert res.sup_value == math.inf
    assert res.canonical == 0.3


# two identical arcs 0.75*sqrt(t - t0) one unit apart: with r = 1 the window
# loses mass on the first exactly as fast as it gains on the second
_TWIN_ARCS = UscDensity1D((sqrt_piece(0.0, 1.0, 0.0, 0.75, 1, 0.0),
                           sqrt_piece(2.0, 3.0, 0.0, 0.75, 1, 2.0)))


@pytest.mark.parametrize("d, r, box, maxi", [
    (mb.uniform(), 0.25, (-0.5, 1.5), ((0.25, 0.75),)),
    (_TWIN_ARCS, 1.0, (1.0, 2.0), ((1.0, 2.0),)),
], ids=["uniform", "twin_sqrt_arcs"])
def test_window_plateau_uniform(d, r, box, maxi):
    res = maximize_window(d, r, box)
    assert res.maximizers == maxi
    assert res.canonical == maxi[0][0]
    assert res.sup_value == pytest.approx(0.5, abs=1e-15)


def test_window_symmetric_triangle_stays_at_apex():
    d = mb.triangle()
    for c in (4.0, 10.0, 100.0):
        r = 1.0 / c
        res = maximize_window(d, r, (-1.5, 1.5))
        assert abs(res.canonical) <= 1e-12
        # mass of the centered window: 2r - r^2
        assert res.sup_value == pytest.approx(2 * r - r * r, abs=1e-15)


@pytest.mark.parametrize("c", [4.0, 8.0, 64.0, 1000.0])
def test_window_asymmetric_triangle_closed_form(c):
    # interior stationary point: ramp slopes up/down meet where
    # f(theta + r) = f(theta - r); for apex 0.5 on [-1, 1] that lands at
    # 0.5 - r/2, for apex -0.2 on [-0.5, 1] at -0.2 + 0.6 r
    r = 1.0 / c
    res = maximize_window(mb.asymmetric_triangle(-1.0, 0.5, 1.0), r, (-1.5, 1.5))
    assert res.canonical == pytest.approx(0.5 - r / 2, abs=1e-12)
    res = maximize_window(mb.asymmetric_triangle(-0.5, -0.2, 1.0), r, (-1.0, 1.5))
    assert res.canonical == pytest.approx(-0.2 + 0.6 * r, abs=1e-12)


def test_window_matches_brute_oracle_on_asymmetric():
    d = mb.asymmetric_triangle(-1.0, 0.5, 1.0)
    r = 1.0 / 8.0
    res = maximize_window(d, r, (-1.5, 1.5))
    x, v = brute_argmax(lambda t: d.integrate(t - r, t + r), -1.5, 1.5, n=40_000)
    assert res.sup_value >= v - 1e-12
    assert abs(res.canonical - x) <= 1e-6


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.floats(0.005, 0.6))
def test_window_random_densities_beat_brute_scan(seed, r):
    # up to 10 pieces, so sqrt/sqrt and sqrt/affine stretches occur
    d = random_piecewise(np.random.default_rng(seed), max_pieces=10)
    lo, hi = d.support
    box = (lo - r, hi + r)
    res = maximize_window(d, r, box)
    # dense scan lower-bounds the sup; engine must match or beat it
    best = max(d.integrate(t - r, t + r)
               for t in np.linspace(box[0], box[1], 4000))
    assert res.sup_value >= best - 1e-9
    # the canonical point actually attains the reported sup
    assert d.integrate(res.canonical - r, res.canonical + r) == pytest.approx(
        res.sup_value, abs=1e-10)
    # and the reported sup agrees with the quadrature oracle there
    assert res.sup_value == pytest.approx(
        window_mass(d, res.canonical, r), abs=1e-9)


def test_window_canonical_prefers_smallest_norm():
    # symmetric two-plateau density: window optimum is attained on two
    # symmetric plateaus; canonical must take the point nearest the origin
    d = UscDensity1D((constant_piece(-2.0, -1.0, 0.5),
                      constant_piece(1.0, 2.0, 0.5)))
    res = maximize_window(d, 0.25, (-3.0, 3.0))
    assert len(res.maximizers) == 2
    assert res.canonical == pytest.approx(-1.25)
    assert abs(res.canonical) == min(abs(res.canonical),
                                     *[abs(x) for iv in res.maximizers for x in iv])


def test_import_leaves_scipy_out():
    src = str(Path(mb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import mapbayes, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_window_requires_positive_radius():
    with pytest.raises(ValueError):
        maximize_window(mb.triangle(), 0.0, (-1.0, 1.0))
    with pytest.raises(EmptySearchBox):
        maximize_window(mb.triangle(), 0.1, (1.0, -1.0))


def test_result_distance_and_hull():
    res = mb.map_estimate(mb.uniform())
    assert res.distance_to(0.5) == 0.0
    assert res.distance_to(1.25) == pytest.approx(0.25)
    assert res.hull() == (0.0, 1.0)


def test_result_json_shape():
    res = mb.map_estimate(mb.triangle())
    obj = res.to_json()
    assert obj["canonical"] == 0.0
    assert obj["maximizers"] == [[0.0, 0.0]]
    assert obj["sup_value"] == 1.0
    assert not obj["sup_infinite"]


@pytest.mark.parametrize("cells", [0.3, 1.2, 2.7])
def test_2d_box_bounds_hold_on_samples(rng, cells):
    # every bound must cover the disc mass at sampled points of its box,
    # for boxes about random points and about the best of a lattice, where
    # the gradient nearly vanishes and only the second-order term remains
    vals = rng.uniform(0.0, 1.0, size=(6, 5))
    g = GridDensity.normalized(2, (0.1, -0.2), (0.1, 0.13), vals)
    R = cells * 0.1
    lattice = np.arange(-0.2, 0.9, 0.0125)
    X, Y = np.meshgrid(lattice, lattice - 0.2, indexing="ij")
    masses = _disc_masses(g, X.ravel(), Y.ravel(), R)
    k = int(np.argmax(masses))
    centres = np.concatenate([rng.uniform(-0.1, 0.8, size=(12, 2)),
                              np.tile([X.ravel()[k], Y.ravel()[k]], (12, 1))])
    half = np.concatenate([10.0 ** rng.uniform(-4, -1, size=(12, 2))] * 2)
    at_centre, bound = _box_bounds(g, centres[:, 0], centres[:, 1], half[:, 0], half[:, 1], R)
    assert np.array_equal(at_centre, _disc_masses(g, centres[:, 0], centres[:, 1], R))
    u = np.linspace(-1.0, 1.0, 9)
    for (cx, cy), (wx, wy), top in zip(centres, half, bound):
        sx, sy = np.meshgrid(cx + wx * u, cy + wy * u, indexing="ij")
        assert _disc_masses(g, sx.ravel(), sy.ravel(), R).max() <= top * (1 + 1e-12)
