import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mapbayes as mb
import mapbayes.argmax
from mapbayes.density import GridDensity, _disc_masses, _support_box
from mapbayes.windows import BallObjective, ball_integral

from conftest import grid_1d, random_piecewise
from oracles import grid_disc_mass, grid_mode_scan, grid_window_scan


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


def _lattice_best(g: GridDensity, R: float, per_cell: int) -> float:
    """Best exact disc mass over per_cell x per_cell centres in each cell of
    the default search box, the support grown by R."""
    (x0, x1), (y0, y1) = g.support
    hx, hy = g.spacing
    xs = np.arange(x0 - R, x1 + R, hx / per_cell) + 0.5 * hx / per_cell
    ys = np.arange(y0 - R, y1 + R, hy / per_cell) + 0.5 * hy / per_cell
    ys = ys[ys <= y1 + R]
    return max(float(_disc_masses(g, np.full(len(ys), x), ys, R).max())
               for x in xs[xs <= x1 + R])


def _assert_certified(g: GridDensity, c: float, per_cell: int) -> mb.ArgmaxResult:
    """The 2D Bayes report against the lattice, the ceiling pi R^2 v_max and
    its own ball mass; the normalized search against the same lattice."""
    R = 1.0 / c
    lattice = _lattice_best(g, R, per_cell)
    res = mb.bayes_estimate(g, mb.LossSpec(c))
    assert res.tol_value == 1e-6
    assert res.sup_value >= lattice - res.tol_value
    assert res.sup_value <= math.pi * R * R * float(g.values.max()) * (1.0 + 1e-12)
    assert ball_integral(BallObjective(g, R, normalized=False), res.canonical) == res.sup_value
    (px, px1), (py, py1) = res.maximizers[0]
    assert len(res.maximizers) == 1 and (px, py) == (px1, py1) == res.canonical
    avg = mb.mollified_sup(BallObjective(g, R), _support_box(g, R))
    assert avg.sup_value >= lattice / (math.pi * R * R) - avg.tol_value
    return res


def test_bayes_estimate_2d_finds_the_tall_cell():
    # a disc of radius 0.32 cells fits inside the one tall cell, 400 times
    # taller than its neighbours
    n, c = 160, 500.0
    xs = (np.arange(n) + 0.5) / n
    vals = np.exp(-0.5 * ((xs[:, None] - 0.5) ** 2 + (xs[None, :] - 0.5) ** 2) / 0.3 ** 2)
    vals[131, 131] *= 400.0
    g = GridDensity.normalized(2, (0.0, 0.0), (1.0 / n, 1.0 / n), vals)
    res = mb.bayes_estimate(g, mb.LossSpec(c))
    assert res.sup_value == pytest.approx(float(g.values.max()) * math.pi / c ** 2,
                                          abs=res.tol_value)
    assert all(131 / n <= p <= 132 / n for p in res.canonical)


def test_bayes_estimate_2d_noise_grid_is_certified():
    # R = 1.6 cells on cell noise: many near-ties between disc positions
    g = GridDensity.normalized(2, (0.0, 0.0), (1 / 48, 1 / 48),
                               np.random.default_rng(5).uniform(0.5, 1.5, (48, 48)))
    res = _assert_certified(g, 30.0, 4)
    assert res.sup_value == pytest.approx(
        grid_disc_mass(g.values, g.origin, g.spacing, res.canonical, 1 / 30.0), rel=1e-12)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       aspect=st.floats(0.5, 2.0), cells=st.floats(0.2, 3.0), seed=st.integers(0, 2**32 - 1))
def test_bayes_estimate_2d_beats_the_lattice(shape, aspect, cells, seed):
    vals = np.random.default_rng(seed).uniform(0.0, 1.0, shape)
    vals[0, 0] += 0.1  # never all zero
    h = 0.1
    g = GridDensity.normalized(2, (-0.2, 0.3), (h, h * aspect), vals)
    _assert_certified(g, 1.0 / (cells * h), 4)


def test_2d_search_names_an_open_gap(monkeypatch):
    g = GridDensity.normalized(2, (0.0, 0.0), (1 / 48, 1 / 48),
                               np.random.default_rng(5).uniform(0.5, 1.5, (48, 48)))
    monkeypatch.setattr(mapbayes.argmax, "_MAX_LEVELS_2D", 2)
    with pytest.raises(mb.SearchNotCertified, match="refinement level 2 with .* boxes open"):
        mb.bayes_estimate(g, mb.LossSpec(30.0))


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


_TRI = mb.triangle()
_LOSS = mb.LossSpec(4.0)
_AVG = mb.BallObjective(_TRI, 0.25)


# tolerances, the 2D scan, the hypo slack, the sampler and the counterexample
# search box are fixed by the package; passing any of them is a caller error
_REMOVED_KNOBS = [
    (mb.map_estimate, (_TRI,), "tol_value", 1e-3),
    (mb.maximize_density, (_TRI,), "tol_value", 1e-3),
    (mb.bayes_estimate, (_TRI, _LOSS), "tol_value", 1e-3),
    (mb.bayes_estimate, (_TRI, _LOSS), "scale", 2.0),
    (mb.bayes_estimate, (_TRI, _LOSS), "coarse_step", 0.1),
    (mb.bayes_estimate, (_TRI, _LOSS), "xtol", 1e-3),
    (mb.sweep, (_TRI, [8.0, 16.0]), "tol_value", 1e-3),
    (mb.sweep, (_TRI, [8.0, 16.0]), "coarse_step", 0.1),
    (mb.approx_gap, (_TRI, _LOSS, 0.0), "tol_value", 1e-3),
    (mb.approx_gap, (_TRI, _LOSS, 0.0), "coarse_step", 0.1),
    (mb.mollified_sup, (_AVG, (-1.0, 1.0)), "tol_value", 1e-3),
    (mb.mollified_sup, (_AVG, (-1.0, 1.0)), "coarse_step", 0.1),
    (mb.mollified_sup, (_AVG, (-1.0, 1.0)), "xtol", 1e-3),
    (mb.hypo_diagnostic, (_TRI, [4.0], [(-0.5, 0.5)]), "slack", 1e-6),
    (mb.hypo_diagnostic, (_TRI, [4.0], [(-0.5, 0.5)]), "tol_value", 1e-3),
    (mb.check_conditions, (_TRI,), "seed", 1),
    (mb.check_conditions, (_TRI,), "n_triples", 100),
    (mb.verify_nonconvergence, (2,), "search", (-1.0, 6.0)),
]


@pytest.mark.parametrize("fn, args, knob, value", _REMOVED_KNOBS,
                         ids=[f"{fn.__name__}-{knob}" for fn, _, knob, _ in _REMOVED_KNOBS])
def test_removed_knobs_stay_gone(fn, args, knob, value):
    params = inspect.signature(fn).parameters.values()
    assert not any(p.kind is p.VAR_KEYWORD for p in params)
    with pytest.raises(TypeError):
        fn(*args, **{knob: value})
