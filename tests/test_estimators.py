import inspect
import math
import warnings

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


def test_a_loss_scale_whose_radius_overflows_is_refused():
    # below about 5.6e-309 the radius 1/c is inf, and below about 1.1e-308
    # the window width 2/c; the smallest normal c keeps both finite
    for tiny in (1e-320, 5e-324, 1e-308):
        with pytest.raises(ValueError, match=rf"c and 2/c finite, got {tiny!r}$"):
            mb.LossSpec(tiny)
    assert mb.LossSpec(2.2250738585072014e-308).radius == 4.49423283715579e+307


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
    ("near_tie", None, ((1.5, 2.0),)),
    ("near_tie", (0.75, 1.75), ((1.5, 1.75),)),
])
def test_map_estimate_grid_1d_is_the_cell_scan(name, search, maxi):
    g = grid_1d(name)
    res = mb.map_estimate(g, search)
    sup, scan_maxi, canonical = grid_mode_scan(g, search or g.support[0], res.tol_value)
    assert scan_maxi == maxi
    # cell values are compared as they are: the tolerance is a few ulps of the sup
    assert res == mb.ArgmaxResult(1, sup, maxi, canonical, 4.0 * math.ulp(sup))


@pytest.mark.parametrize("name, c, search, maxi", [
    ("zero_cells", 10.0, None, ((0.35, 0.65),)),
    ("zero_cells", 4.0, (-1.0, 0.1), ((0.1, 0.1),)),
    ("near_tie", 10.0, None, ((1.6, 1.9),)),
    ("near_tie", 2.0, None, ((2.0, 2.0),)),
])
def test_bayes_estimate_grid_1d_is_the_window_scan(name, c, search, maxi):
    g = grid_1d(name)
    r = 1.0 / c
    res = mb.bayes_estimate(g, mb.LossSpec(c), search)
    lo, hi = g.support[0]
    sup, scan_maxi, canonical = grid_window_scan(g, r, search or (lo - r, hi + r), res.tol_value)
    assert scan_maxi == maxi
    assert res.sup_value == pytest.approx(sup, abs=1e-15)
    # the float error of a window mass, far below the near tie's 4e-9
    assert 0.0 < res.tol_value < 1e-14
    assert res == mb.ArgmaxResult(1, res.sup_value, maxi, canonical, res.tol_value)


def test_grid_1d_small_relative_lead_is_one_maximizer():
    # at c = 1e5 the ball masses are about 2e-5 and cell 97 leads by 0.3%:
    # far less than any fixed absolute tolerance of 1e-6, far more than the
    # float error of the masses compared
    v = 1.0 + np.random.default_rng(0).uniform(0.0, 1e-3, 256)
    v[97] += 3e-3
    g = GridDensity.normalized(1, (0.0,), (1 / 256,), v)
    res = mb.bayes_estimate(g, mb.LossSpec(1e5))
    assert res.maximizers == ((97 / 256 + 1e-5, 98 / 256 - 1e-5),)
    assert mb.map_estimate(g).maximizers == ((97 / 256, 98 / 256),)


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
    assert res.tol_value == pytest.approx(1e-6 * res.sup_value, rel=1e-5)
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


_XS6 = (np.arange(6) + 0.5) / 6
_BUMP_6 = GridDensity.normalized(2, (0.0, 0.0), (1 / 6, 1 / 6), np.exp(
    -0.5 * ((_XS6[:, None] - 0.5) ** 2 + (_XS6[None, :] - 0.5) ** 2) / 0.3 ** 2))
_REFINES = GridDensity.normalized(2, (0.0, 0.0), (0.25, 0.25),
                                  [[1, 2, 1.5], [0.5, 3, 1], [2, 1, 4]])
# the mass _box_bounds sums for its best centre, on its wider lattice, is
# one ulp below ball_integral's there
_REFINES_ULP = GridDensity.normalized(2, (0.0, 0.0), (0.25, 0.25),
                                      [[3, 4, 3], [4, 4, 1], [1, 2, 2], [4, 4, 1]])


@pytest.mark.parametrize("g, c, levels", [(_BUMP_6, 15.0, 0), (_REFINES, 4.0, 13),
                                          (_REFINES_ULP, 4.0, 12)],
                         ids=["stops_at_level_0", "refines", "refines_off_the_lattice_sum"])
@pytest.mark.parametrize("normalized", [False, True], ids=["bayes", "mollified"])
def test_2d_report_value_is_the_ball_integral_at_its_point(monkeypatch, g, c, levels,
                                                           normalized):
    # whether the seed stands or a refined centre beats it, the reported
    # value is ball_integral's at the reported point, bit for bit
    evaluated = []
    box_bounds = mapbayes.argmax._box_bounds
    monkeypatch.setattr(mapbayes.argmax, "_box_bounds",
                        lambda *args: evaluated.append(1) or box_bounds(*args))
    b = BallObjective(g, 1.0 / c, normalized=normalized)
    res = (mb.mollified_sup(b, _support_box(g, 1.0 / c)) if normalized
           else mb.bayes_estimate(g, mb.LossSpec(c)))
    assert len(evaluated) == levels
    assert res.sup_value.hex() == ball_integral(b, res.canonical).hex()


_NOISE_5x4 = GridDensity.normalized(2, (-0.3, 0.2), (0.2, 0.15),
                                    np.random.default_rng(11).uniform(0.2, 1.0, (5, 4)))


@pytest.mark.parametrize("g, c, box, refines", [
    (_BUMP_6, 15.0, ((0.1, 0.93), (-0.2, 0.55)), False),
    (_BUMP_6, 15.0, ((0.61, 1.3), (0.05, 0.12)), True),
    (_BUMP_6, 15.0, ((-0.5, 0.07), (0.9, 1.4)), True),
    (_NOISE_5x4, 20.0, ((0.05, 0.83), (-0.1, 0.5)), False),
    (_NOISE_5x4, 8.0, ((0.05, 0.83), (-0.1, 0.5)), True),
    (_NOISE_5x4, 8.0, ((-0.41, 0.13), (0.27, 0.9)), True),
    (_NOISE_5x4, 8.0, ((0.6, 0.9), (0.71, 0.95)), True),
], ids=["bump_level_0", "bump_right", "bump_left_top", "noise_level_0", "noise_right_bottom",
        "noise_left_top", "noise_inside"])
def test_2d_bayes_over_a_box_that_cuts_cells_and_runs_past_the_grid(monkeypatch, g, c, box,
                                                                   refines):
    # box ends inside cells and past each side of the grid: the report lies in
    # the box, its value is ball_integral's there, bit for bit, and no centre of
    # a 4 x 4 lattice in each cell inside the box beats it by more than tol_value
    evaluated = []
    box_bounds = mapbayes.argmax._box_bounds
    monkeypatch.setattr(mapbayes.argmax, "_box_bounds",
                        lambda *args: evaluated.append(1) or box_bounds(*args))
    R = 1.0 / c
    res = mb.bayes_estimate(g, mb.LossSpec(c), box)
    assert bool(evaluated) == refines
    (bx0, bx1), (by0, by1) = box
    px, py = res.canonical
    assert res.maximizers == (((px, px), (py, py)),)
    assert bx0 <= px <= bx1 and by0 <= py <= by1
    assert res.sup_value.hex() == ball_integral(BallObjective(g, R, normalized=False),
                                                res.canonical).hex()
    centres = []
    for (lo, hi), o, h in zip(box, g.origin, g.spacing):
        cells = np.arange(math.floor((lo - o) / h), math.ceil((hi - o) / h))
        t = (o + h * (cells[:, None] + (np.arange(4) + 0.5) / 4)).ravel()
        centres.append(t[(lo <= t) & (t <= hi)])
    cx, cy = np.meshgrid(*centres, indexing="ij")
    assert cx.size >= 16
    best = float(_disc_masses(g, cx.ravel(), cy.ravel(), R).max())
    assert best <= res.sup_value + res.tol_value


def test_2d_bayes_over_a_box_far_off_the_grid():
    # no level-0 box is left near the grid, so the seed is the box's centre:
    # at 5e18 its cell index is past the int64 range and is clamped before
    # its cast, and at infinity it is refused
    g = GridDensity(2, (0.0, 0.0), (0.25, 0.25), np.ones((4, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = mb.bayes_estimate(g, mb.LossSpec(4.0), ((5.0, 1e19), (0.0, 1.0)))
    assert res.sup_value == 0.0 and res.canonical == (5e18, 0.5)
    with pytest.raises(ValueError, match=r"a disc centre must be finite, got \(inf, 0.5\)"):
        mb.bayes_estimate(g, mb.LossSpec(4.0), ((2.0, math.inf), (0.0, 1.0)))


@pytest.mark.parametrize("k", range(31))
def test_two_equal_triangles_keep_both_bayes_maximizers_at_any_scale(k):
    # peaks at 0 and a = 4^-k, each of mass 1/2 and half-width a/2, at c = 8/a:
    # the window search merges only candidates within a few ulps of each
    # other, so it keeps both peaks however small a is, as the mode search does
    a = 4.0 ** -k
    h, b = 1.0 / a, 2.0 / (a * a)
    d = mb.UscDensity1D([mb.affine_piece(-a / 2, 0.0, 0.0, b, -a / 2),
                         mb.affine_piece(0.0, a / 2, h, -b, 0.0),
                         mb.affine_piece(a / 2, a, 0.0, b, a / 2),
                         mb.affine_piece(a, 1.5 * a, h, -b, a)])
    assert mb.map_estimate(d).maximizers == ((0.0, 0.0), (a, a))
    assert mb.bayes_estimate(d, mb.LossSpec(8.0 / a)).maximizers == ((0.0, 0.0), (a, a))


def test_approx_gap_refuses_a_nan_point():
    # a NaN bound or centre is refused, not integrated as an empty window;
    # an infinite 1D point is legal (its window holds no mass), an infinite
    # 2D centre is refused
    with pytest.raises(ValueError, match="NaN"):
        mb.triangle().integrate(0.0, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        mb.triangle().integrate(math.nan, 1.0)
    assert mb.triangle().integrate(0.0, math.inf) == 0.5
    with pytest.raises(ValueError, match="NaN"):
        mb.approx_gap(mb.triangle(), mb.LossSpec(4.0), math.nan)
    assert mb.approx_gap(mb.triangle(), mb.LossSpec(4.0), math.inf).value_at_theta == 0.0
    for point in ((math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            mb.approx_gap(_BUMP_6, mb.LossSpec(15.0), point)


def test_a_nan_search_box_end_is_refused():
    # a NaN end is refused with the box named, not searched as an empty or
    # a one-point box; lo > hi stays EmptySearchBox
    for d in (mb.triangle(), grid_1d("zero_cells")):
        for box in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
            with pytest.raises(ValueError, match=r"^box \[.*\] has a NaN end$"):
                mb.map_estimate(d, box)
            with pytest.raises(ValueError, match="has a NaN end"):
                mb.bayes_estimate(d, mb.LossSpec(4.0), box)
    for box in (((math.nan, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, math.nan))):
        for search in (lambda: mb.map_estimate(_BUMP_6, box),
                       lambda: mb.bayes_estimate(_BUMP_6, mb.LossSpec(15.0), box)):
            with pytest.raises(ValueError, match=r"^box \[.*\] x \[.*\] has a NaN end$"):
                search()
    with pytest.raises(mb.EmptySearchBox, match=r"^box \[0\.0, 1\.0\] x \[1\.0, 0\.0\] is empty$"):
        mb.map_estimate(_BUMP_6, ((0.0, 1.0), (1.0, 0.0)))


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
_AVG_2D = mb.BallObjective(
    GridDensity.normalized(2, (0.0, 0.0), (0.5, 0.5), np.ones((2, 2))), 0.25)


# tolerances, the 2D scan, the hypo slack, the sampler, the counterexample
# search box, the sample step and the grid mass tolerance are fixed by the
# package, and the closed forms of the construction take no cutoff; passing
# any of them is a caller error
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
    (mb.maximize_window, (_TRI, 0.25, (-1.0, 1.0)), "tol_value", 1e-3),
    (mapbayes.argmax.maximize_objective_2d, (_AVG_2D, ((0.0, 1.0), (0.0, 1.0))), "tol_value",
     1e-3),
    (mb.mollified_sup, (_AVG, (-1.0, 1.0)), "tol_value", 1e-3),
    (mb.mollified_sup, (_AVG, (-1.0, 1.0)), "coarse_step", 0.1),
    (mb.mollified_sup, (_AVG, (-1.0, 1.0)), "xtol", 1e-3),
    (mb.hypo_diagnostic, (_TRI, [4.0], [(-0.5, 0.5)]), "slack", 1e-6),
    (mb.hypo_diagnostic, (_TRI, [4.0], [(-0.5, 0.5)]), "tol_value", 1e-3),
    (mb.check_conditions, (_TRI,), "seed", 1),
    (mb.check_conditions, (_TRI,), "n_triples", 100),
    (mb.verify_nonconvergence, (2,), "search", (-1.0, 6.0)),
    (mb.objective_at_origin, (2,), "max_bump", 20),
    (mb.plateau_bound, (2,), "max_bump", 20),
    (mb.plateau_center, (2,), "max_bump", 20),
    (mb.sample_curve, (_TRI, -1.0, 1.0), "step", 1e-3),
    (GridDensity, (2, (0.0, 0.0), (0.5, 0.5), np.ones((2, 2))), "mass_tol", 1e-6),
    (GridDensity.normalized, (2, (0.0, 0.0), (0.5, 0.5), np.ones((2, 2))), "mass_tol", 1e-6),
    (GridDensity.from_json, (_AVG_2D.density.to_json(),), "mass_tol", 1e-6),
]


@pytest.mark.parametrize("fn, args, knob, value", _REMOVED_KNOBS,
                         ids=[f"{fn.__name__}-{knob}" for fn, _, knob, _ in _REMOVED_KNOBS])
def test_removed_knobs_stay_gone(fn, args, knob, value):
    params = inspect.signature(fn).parameters.values()
    assert not any(p.kind is p.VAR_KEYWORD for p in params)
    with pytest.raises(TypeError):
        fn(*args, **{knob: value})
