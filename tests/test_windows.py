import math
import warnings

import numpy as np
import pytest

import mapbayes as mb
from mapbayes.density import GridDensity, _disc_masses
from mapbayes.windows import BallObjective, ball_integral, disc_rect_overlap, mollified_sup

from conftest import random_piecewise
from oracles import disc_area_subdivision, disc_rect_area, grid_disc_mass, window_mass


def test_normalized_average_of_constant_is_fixed_point():
    d = mb.step()  # constant 2 on [0, 0.5)
    for nu in (4.0, 10.0, 64.0):
        r = 1.0 / nu
        b = BallObjective(d, r, normalized=True)
        for theta in np.linspace(r, 0.5 - r, 7):
            assert abs(b.value(theta) - 2.0) <= 1e-14


def test_raw_vs_normalized_windows():
    d = mb.triangle()
    raw = BallObjective(d, 0.1, normalized=False)
    avg = BallObjective(d, 0.1, normalized=True)
    assert raw.value(0.0) == pytest.approx(0.19, abs=1e-15)
    assert avg.value(0.0) == pytest.approx(0.95, abs=1e-15)
    assert avg.value(0.0) == pytest.approx(raw.value(0.0) / 0.2, abs=1e-15)


def test_ball_integral_matches_oracle(rng):
    for _ in range(15):
        d = random_piecewise(rng)
        lo, hi = d.support
        r = float(rng.uniform(0.01, 0.7))
        b = BallObjective(d, r, normalized=False)
        for theta in rng.uniform(lo - r, hi + r, size=3):
            assert ball_integral(b, float(theta)) == pytest.approx(
                window_mass(d, float(theta), r), abs=1e-9)


def test_mollified_sup_triangle_apex():
    d = mb.triangle()
    for nu in (4.0, 10.0, 50.0):
        res = mollified_sup(BallObjective(d, 1.0 / nu), (-1.2, 1.2))
        assert abs(res.canonical) <= 1e-12
        assert res.sup_value == pytest.approx(1.0 - 1.0 / (2.0 * nu), abs=1e-12)


def test_mollified_sup_requires_normalized():
    b = BallObjective(mb.triangle(), 0.1, normalized=False)
    with pytest.raises(ValueError):
        mollified_sup(b, (-1.0, 1.0))


def test_grid_1d_window_goes_through_pieces():
    vals = np.array([1.0, 3.0, 2.0, 2.0])
    g = GridDensity.normalized(1, (0.0,), (0.25,), vals)
    b = BallObjective(g, 0.1, normalized=False)
    d = g.to_pieces()
    for theta in (0.1, 0.3, 0.65, 0.95):
        assert ball_integral(b, theta) == pytest.approx(
            d.integrate(theta - 0.1, theta + 0.1), abs=1e-15)
    # a grid and its pieces group ties at one tolerance: the float error of
    # the averages compared, not a constant chosen by the density's type
    avg = mollified_sup(BallObjective(g, 0.1), (0.0, 1.0))
    assert avg == mollified_sup(BallObjective(d, 0.1), (0.0, 1.0))
    assert 0.0 < avg.tol_value < 1e-13 * avg.sup_value


# --- 2D geometry -----------------------------------------------------------


def test_disc_rect_overlap_exact_cases():
    box = ((-2.0, 2.0), (-2.0, 2.0))
    assert disc_rect_overlap((0.0, 0.0), 1.0, box) == pytest.approx(math.pi, abs=1e-12)
    assert disc_rect_overlap((0.0, 0.0), 1.0, ((0.0, 2.0), (0.0, 2.0))) == pytest.approx(
        math.pi / 4.0, abs=1e-12)
    assert disc_rect_overlap((0.0, 0.0), 1.0, ((0.0, 2.0), (-2.0, 2.0))) == pytest.approx(
        math.pi / 2.0, abs=1e-12)
    # vertical sliver x >= a inside the unit disc: pi/2 - a*sqrt(1-a^2) - asin(a)
    a = 0.9
    sliver = math.pi / 2 - a * math.sqrt(1 - a * a) - math.asin(a)
    assert disc_rect_overlap((0.0, 0.0), 1.0, ((a, 2.0), (-2.0, 2.0))) == pytest.approx(
        sliver, abs=1e-12)
    # disjoint and fully-contained rectangles
    assert disc_rect_overlap((5.0, 5.0), 1.0, box) == 0.0
    small = ((-0.3, 0.3), (-0.3, 0.3))
    assert disc_rect_overlap((0.0, 0.0), 1.0, small) == pytest.approx(0.36, abs=1e-12)


def test_disc_rect_overlap_against_subdivision(rng):
    for _ in range(8):
        cx, cy = rng.uniform(-1, 1, size=2)
        R = float(rng.uniform(0.3, 1.5))
        x0, y0 = rng.uniform(-2, 0.5, size=2)
        rect = ((float(x0), float(x0 + rng.uniform(0.5, 2.5))),
                (float(y0), float(y0 + rng.uniform(0.5, 2.5))))
        exact = disc_rect_overlap((float(cx), float(cy)), R, rect)
        approx = disc_area_subdivision((float(cx), float(cy)), R, rect, n=900)
        assert exact == pytest.approx(approx, abs=5e-3)
        assert exact >= -1e-15


def test_disc_rect_overlap_matches_quadrature(rng):
    for _ in range(200):
        cx, cy = rng.uniform(-1, 1, size=2)
        R = float(rng.uniform(0.05, 1.5))
        x0, y0 = rng.uniform(-2, 1, size=2)
        rect = ((float(x0), float(x0 + rng.uniform(0.01, 2.0))),
                (float(y0), float(y0 + rng.uniform(0.01, 2.0))))
        exact = disc_rect_overlap((float(cx), float(cy)), R, rect)
        assert exact == pytest.approx(disc_rect_area((cx, cy), R, rect),
                                      abs=1e-12 * math.pi * R * R)


def test_disc_mass_kernel_is_the_cell_sum_of_overlaps(rng):
    # random centres on, off and across the grid, at cell corners and edges too
    vals = rng.uniform(0.0, 2.0, size=(7, 5))
    vals[2, 3] = 0.0
    g = GridDensity.normalized(2, (-0.3, 0.2), (0.15, 0.25), vals)
    (ox, gx), (oy, gy) = g.support
    for R in (0.04, 0.2, 0.55):
        cx = np.concatenate([rng.uniform(ox - 2 * R, gx + 2 * R, 16), ox + 0.15 * np.arange(8)])
        cy = np.concatenate([rng.uniform(oy - 2 * R, gy + 2 * R, 16), np.full(8, oy + 0.25)])
        masses = _disc_masses(g, cx, cy, R)
        b = BallObjective(g, R, normalized=False)
        for x, y, m in zip(cx, cy, masses):
            cells = math.fsum(
                float(g.values[i, j]) * disc_rect_overlap(
                    (x, y), R, ((ox + i * 0.15, ox + (i + 1) * 0.15),
                                (oy + j * 0.25, oy + (j + 1) * 0.25)))
                for i in range(7) for j in range(5))
            assert m == pytest.approx(cells, rel=1e-14, abs=1e-300)
            assert ball_integral(b, (x, y)) == pytest.approx(m, rel=1e-15, abs=1e-300)
        k = int(np.argmax(masses))
        assert masses[k] == pytest.approx(
            grid_disc_mass(g.values, g.origin, g.spacing, (cx[k], cy[k]), R), rel=1e-12)


def test_a_disc_far_off_the_grid_holds_no_mass_without_a_cast_warning():
    # (3e18 - 0.3)/0.25 is past the int64 range: the lattice's first cell
    # index is clamped before its cast, so the mass is 0 from the cells
    # the disc meets, not from how an overflowing cast wraps
    g = GridDensity(2, (0.0, 0.0), (0.25, 0.25), np.ones((4, 4)))
    b = BallObjective(g, 0.3, normalized=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for centre in ((3e18, 0.5), (-3e18, 0.5), (0.5, -1e19), (1e19, 1e19)):
            assert ball_integral(b, centre) == 0.0
    for centre in ((math.inf, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError, match="a disc centre must be finite"):
            ball_integral(b, centre)


def test_disc_mass_on_uniform_grid():
    # uniform height h over [0,1]^2; a disc well inside has mass h*pi*r^2
    h = 1.0
    vals = np.full((8, 8), h)
    g = GridDensity.normalized(2, (0.0, 0.0), (0.125, 0.125), vals)
    r = 0.2
    b = BallObjective(g, r, normalized=False)
    assert b.value((0.5, 0.5)) == pytest.approx(math.pi * r * r * h, abs=1e-12)
    avg = BallObjective(g, r, normalized=True)
    assert avg.value((0.5, 0.5)) == pytest.approx(h, abs=1e-12)


def test_mollified_sup_2d_finds_peak():
    n = 21
    xs = np.linspace(-1, 1, n + 1)
    vals = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            cx = (xs[i] + xs[i + 1]) / 2
            cy = (xs[j] + xs[j + 1]) / 2
            vals[i, j] = max(0.0, 1.0 - abs(cx - 0.2) - abs(cy + 0.3))
    g = GridDensity.normalized(2, (-1.0, -1.0), (2.0 / n, 2.0 / n), vals)
    res = mollified_sup(BallObjective(g, 0.25), ((-1.0, 1.0), (-1.0, 1.0)))
    (px, py), = [(iv[0][0], iv[1][0]) for iv in res.maximizers]
    assert px == pytest.approx(0.2, abs=0.05)
    assert py == pytest.approx(-0.3, abs=0.05)
