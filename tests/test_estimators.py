import math

import numpy as np
import pytest

import mapbayes as mb
from mapbayes.density import GridDensity

from conftest import grid_1d, random_piecewise
from oracles import grid_mode_scan, grid_window_scan


def test_loss_spec_validation():
    assert mb.LossSpec(8.0).radius == 0.125
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            mb.LossSpec(bad)


def test_map_estimate_defaults_to_support():
    res = mb.map_estimate(mb.triangle())
    assert res.canonical == 0.0 and res.sup_value == 1.0


def test_bayes_estimate_reports_ball_mass():
    d = mb.asymmetric_triangle(-1.0, 0.5, 1.0)
    loss = mb.LossSpec(8.0)
    res = mb.bayes_estimate(d, loss)
    r = loss.radius
    assert res.sup_value == pytest.approx(
        d.integrate(res.canonical - r, res.canonical + r), abs=1e-14)


def test_bayes_estimate_default_box_reaches_past_support():
    # half of the optimal window for the step density hangs off the support
    d = mb.step()
    res = mb.bayes_estimate(d, mb.LossSpec(1.0))  # radius 1 covers everything
    assert res.sup_value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("vals", [[1.0, 3.0, 2.0, 2.0], [0.0, 2.0, 0.0, 3.0, 3.0, 0.0, 1.0]],
                         ids=["four_cells", "zero_cells"])
def test_bayes_estimate_grid_path_matches_piecewise(vals):
    g = GridDensity.normalized(1, (0.0,), (0.25,), np.array(vals))
    rg = mb.bayes_estimate(g, mb.LossSpec(8.0))
    rp = mb.bayes_estimate(g.to_pieces(), mb.LossSpec(8.0))
    assert rg.sup_value == pytest.approx(rp.sup_value, abs=1e-12)
    assert rg.canonical == pytest.approx(rp.canonical, abs=1e-9)


@pytest.mark.parametrize("name, search, maxi", [
    ("zero_cells", None, ((0.25, 0.75),)),
    ("zero_cells", (-1.0, 0.1), ((-0.25, 0.0),)),
    ("near_tie", None, ((0.5, 1.0), (1.5, 2.0))),
    ("near_tie", (0.75, 1.75), ((0.75, 1.0), (1.5, 1.75))),
])
def test_map_estimate_grid_1d_is_the_cell_scan(name, search, maxi):
    g = grid_1d(name)
    res = mb.map_estimate(g, search)
    sup, scan_maxi, canonical = grid_mode_scan(g, search or g.support[0], 1e-6)
    assert scan_maxi == maxi
    assert res == mb.ArgmaxResult(1, sup, maxi, canonical, 1e-6)


@pytest.mark.parametrize("name, c, search, maxi", [
    ("zero_cells", 10.0, None, ((0.35, 0.65),)),
    ("zero_cells", 4.0, (-1.0, 0.1), ((0.1, 0.1),)),
    ("near_tie", 10.0, None, ((0.6, 0.9), (1.6, 1.9))),
    ("near_tie", 2.0, None, ((0.5, 0.5), (2.0, 2.0))),
])
def test_bayes_estimate_grid_1d_is_the_window_scan(name, c, search, maxi):
    g = grid_1d(name)
    r = 1.0 / c
    res = mb.bayes_estimate(g, mb.LossSpec(c), search)
    lo, hi = g.support[0]
    sup, scan_maxi, canonical = grid_window_scan(g, r, search or (lo - r, hi + r), 1e-6)
    assert scan_maxi == maxi
    assert res.sup_value == pytest.approx(sup, abs=1e-15)
    assert res == mb.ArgmaxResult(1, res.sup_value, maxi, canonical, 1e-6)


def test_bayes_estimate_2d_grid():
    n = 15
    xs = np.linspace(0, 1, n + 1)
    vals = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            cx, cy = (xs[i] + xs[i + 1]) / 2, (xs[j] + xs[j + 1]) / 2
            vals[i, j] = 2.0 - abs(cx - 0.6) - abs(cy - 0.4)
    g = GridDensity.normalized(2, (0.0, 0.0), (1.0 / n, 1.0 / n), vals)
    res = mb.bayes_estimate(g, mb.LossSpec(5.0))
    (px, _), (py, _) = res.maximizers[0]
    assert px == pytest.approx(0.6, abs=0.08)
    assert py == pytest.approx(0.4, abs=0.08)


def test_approx_gap_zero_at_argmax_and_positive_elsewhere(rng):
    for _ in range(6):
        d = random_piecewise(rng)
        loss = mb.LossSpec(float(rng.uniform(2.0, 50.0)))
        best = mb.bayes_estimate(d, loss)
        g0 = mb.approx_gap(d, loss, best.canonical)
        assert 0.0 <= g0.gap <= 1e-10
        lo, hi = d.support
        g1 = mb.approx_gap(d, loss, float(rng.uniform(lo, hi)))
        assert g1.gap >= 0.0


def test_approx_gap_outside_box_still_nonnegative():
    d = mb.triangle()
    loss = mb.LossSpec(10.0)
    # search box far from the apex: sup must still cover the queried theta
    g = mb.approx_gap(d, loss, 0.0, search=(0.7, 0.9))
    assert g.gap == 0.0
    assert g.value_at_theta == pytest.approx(0.19, abs=1e-15)


def test_counterexample_gap_decreases_while_argmax_escapes():
    d = mb.build(20)
    gaps = []
    for nu in range(1, 7):
        loss = mb.LossSpec(2.0 * 4.0 ** nu)
        res = mb.bayes_estimate(d, loss)
        assert abs(res.canonical) > 0.5  # argmax is out on a bump
        gaps.append(mb.approx_gap(d, loss, 0.0).gap)
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3
