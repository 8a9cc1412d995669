import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mapbayes as mb
from mapbayes.density import (GridDensity, UscDensity1D, affine_piece, constant_piece,
                               sqrt_piece)
from mapbayes.diagnostics import _WITNESS_MARGIN, ConditionReport, fmt17, sup_on_interval

from conftest import CORNER_ZERO_2D, grid_1d, random_piecewise, unit_mass
from oracles import grid_mode_scan, grid_window_scan, shape_violations, witness_gaps


# --- level sets -------------------------------------------------------------


def test_level_set_triangle():
    rep = mb.level_set(mb.triangle(), 0.5)
    assert rep.intervals == ((-0.5, 0.5),)
    assert rep.bounded and rep.bound_M == 0.5 and rep.nonempty_interior
    assert mb.level_set(mb.triangle(), 1.5).intervals == ()
    top = mb.level_set(mb.triangle(), 1.0)
    assert top.intervals == ((0.0, 0.0),)
    assert not top.nonempty_interior


def test_level_set_nonpositive_alpha_is_everything():
    rep = mb.level_set(mb.triangle(), 0.0)
    assert not rep.bounded
    assert rep.intervals == ((-math.inf, math.inf),)


def test_level_set_merges_touching_pieces():
    rep = mb.level_set(mb.staircase(), 0.3)
    assert rep.intervals == ((0.0, 1.5),)
    rep = mb.level_set(mb.staircase(), 0.7)
    assert rep.intervals == ((1.0, 1.5),)


def test_level_set_random_scan_consistency(rng):
    for _ in range(8):
        d = random_piecewise(rng)
        lo, hi = d.support
        alpha = float(rng.uniform(0.1, 1.0))
        rep = mb.level_set(d, alpha)
        for t in rng.uniform(lo, hi, size=300):
            v = d.evaluate(float(t))
            if v >= alpha + 1e-9:
                assert rep.contains(float(t))


@pytest.mark.parametrize("origin, spacing, values, alpha, intervals, bound_M", [
    (0.0, 0.25, [0.5, 1.5, 1.0, 1.0], 0.9, ((0.25, 1.0),), 1.0),
    (-0.5, 0.25, [0.0, 1.0, 0.0, 1.25, 1.25, 0.0, 0.5], 0.5,
     ((-0.25, 0.0), (0.25, 0.75), (1.0, 1.25)), 1.25),
    # level sets are exact: the cell 2e-9 below alpha stays out
    (0.0, 0.5, [0.4, 0.6, 0.2, 0.6 + 4e-9, 0.2], 0.6 + 2e-9, ((1.5, 2.0),), 2.0),
], ids=["four_cells", "zero_cells", "near_tie"])
def test_level_set_grid_1d(origin, spacing, values, alpha, intervals, bound_M):
    g = mb.density_from_json({"dim": 1, "origin": origin, "spacing": spacing,
                              "values": values})
    rep = mb.level_set(g, alpha)
    assert rep.intervals == intervals
    assert rep.bound_M == bound_M
    assert rep.bounded and rep.nonempty_interior and rep.cells is None


def test_level_set_grid_2d_cells():
    g = mb.density_from_json({
        "dim": 2, "origin": [0.0, 0.0], "spacing": [0.5, 0.5],
        "values": [[4.0, 0.0], [0.0, 0.0]]})
    rep = mb.level_set(g, 0.5)
    assert rep.cells == (((0.0, 0.5), (0.0, 0.5)),)
    assert rep.bounded and rep.bound_M == 0.5


def test_level_set_honours_declared_unbounded_tail():
    d = mb.build(12)
    for alpha in (0.25, 0.96875, 0.999):
        rep = mb.level_set(d, alpha)
        assert not rep.bounded
        assert rep.bound_M == math.inf
    at_top = mb.level_set(d, 1.0)
    assert at_top.bounded and at_top.intervals == ((0.0, 0.0),)
    assert mb.level_set(d, 1.5).intervals == ()


# --- shape conditions -------------------------------------------------------


def test_conditions_on_quasiconcave_family():
    expected_logconcave = {
        "triangle": True, "uniform": True, "step": True, "ramp": True,
        "staircase": False,  # interior jump up, so log f cannot be concave
        "asym_right": True, "asym_left": True,
    }
    for name, d in mb.quasiconcave_family().items():
        rep = mb.check_conditions(d)
        assert rep.level_set_ok, name
        assert rep.eventually_level_bounded, name
        assert rep.quasiconcave and rep.quasiconcave_witness is None, name
        assert rep.log_concave == expected_logconcave[name], name


def test_conditions_two_bumps_witness_is_strict():
    rep = mb.check_conditions(mb.two_bumps())
    assert rep.level_set_ok
    assert not rep.quasiconcave and not rep.log_concave
    x, y, lam = rep.quasiconcave_witness
    d = mb.two_bumps()
    z = lam * x + (1 - lam) * y
    assert d.evaluate(z) < min(d.evaluate(x), d.evaluate(y))


@pytest.mark.parametrize("spikes, quasiconcave", [
    ((0.25,), False),       # {f >= 1} = {0.25} and [0.5, 1]: a valley between them
    ((0.0,), False),        # the profile rises from 2/3 to 4/3 after the spike
    ((0.75,), True),        # the spike tops the upper step
    ((1.0,), True),         # and so it does at the end of the support
    ((1.5,), False),        # a zero gap before the spike
    ((0.75, 0.9), False),   # two spikes
])
def test_quasiconcavity_sees_infinite_points(spikes, quasiconcave):
    d = UscDensity1D((constant_piece(0.0, 0.5, 2.0 / 3.0), constant_piece(0.5, 1.0, 4.0 / 3.0)),
                     infinite_points=spikes)
    rep = mb.check_conditions(d, alpha_grid=[0.5, 1.0])
    assert rep.quasiconcave is quasiconcave
    assert not rep.log_concave
    if not quasiconcave:
        x, y, lam = rep.quasiconcave_witness
        z = lam * x + (1 - lam) * y
        assert d.evaluate(z) < min(d.evaluate(x), d.evaluate(y)) - _WITNESS_MARGIN


def test_conditions_counterexample():
    d = mb.build(16)
    rep = mb.check_conditions(d)
    assert not rep.level_set_ok
    assert not rep.eventually_level_bounded
    assert not rep.quasiconcave
    x, y, lam = rep.quasiconcave_witness
    z = lam * x + (1 - lam) * y
    assert d.evaluate(z) < min(d.evaluate(x), d.evaluate(y))


def test_conditions_random_densities_witnesses_verify(rng):
    for _ in range(10):
        d = random_piecewise(rng)
        rep = mb.check_conditions(d)
        if rep.quasiconcave_witness is not None:
            x, y, lam = rep.quasiconcave_witness
            z = lam * x + (1 - lam) * y
            assert d.evaluate(z) < min(d.evaluate(x), d.evaluate(y)) - 1e-12
        if not rep.quasiconcave:
            assert not rep.log_concave


def test_condition_report_rejects_impossible_combination():
    with pytest.raises(RuntimeError):
        ConditionReport(level_set_ok=True, witness_alpha=0.5, witness_bound=1.0,
                        quasiconcave=False, quasiconcave_witness=None,
                        log_concave=True, log_concave_witness=None,
                        eventually_level_bounded=True)


def test_conditions_2d_grid_sampling():
    # min of two unimodal axis profiles: every level set is a rectangle of
    # cells, so the step function itself is genuinely quasiconcave
    profile = np.array([0.2, 0.5, 0.8, 1.0, 1.0, 0.7, 0.4, 0.1])
    vals = np.minimum.outer(profile, profile)
    g = mb.GridDensity.normalized(2, (0.0, 0.0), (0.25, 0.25), vals)
    rep = mb.check_conditions(g)
    assert rep.level_set_ok
    assert rep.quasiconcave
    # but not constant on its support, so not log-concave
    assert not rep.log_concave
    assert witness_gaps(g, *rep.log_concave_witness)[1] > _WITNESS_MARGIN


def _grid_2d(values) -> GridDensity:
    return GridDensity.normalized(2, (0.0, 0.0), (0.25, 0.25), np.array(values, dtype=float))


def _l1_cone() -> GridDensity:
    """The cell discretization of the L1 cone on an 8x8 grid."""
    vals = np.zeros((8, 8))
    for i in range(8):
        for j in range(8):
            vals[i, j] = max(0.0, 1.0 - abs(i - 3.5) / 4 - abs(j - 3.5) / 4)
    return _grid_2d(vals)


def test_conditions_2d_discretized_cone_is_refuted():
    # the cell discretization of the L1 cone has staircase level sets, so
    # some level set does not fill its bounding box; the valley is certified
    g = _l1_cone()
    rep = mb.check_conditions(g)
    assert not rep.quasiconcave
    (x, y, lam) = rep.quasiconcave_witness
    z = (lam * x[0] + (1 - lam) * y[0], lam * x[1] + (1 - lam) * y[1])
    assert g.evaluate(z) < min(g.evaluate(x), g.evaluate(y)) - 1e-12


def _one_tall_cell() -> GridDensity:
    vals = np.ones((4, 4))
    vals[1, 2] += 1e-7
    return _grid_2d(vals)


def _rectangle_in_zeros() -> GridDensity:
    vals = np.zeros((5, 6))
    vals[1:4, 2:4] = 1.0
    return _grid_2d(vals)


@pytest.mark.parametrize("d, quasiconcave, log_concave", [
    # 1 - 0.5 sqrt(t - t0): log f is convex near the anchor t0
    (unit_mass([sqrt_piece(0.0, 1.0, 1.0, -0.5, 1, 0.0)]), True, False),
    (unit_mass([sqrt_piece(0.0, 1.0, 0.5, 1.0, 1, 0.0)]), True, True),
    # the slope jumps from 0.5 to +inf where the sqrt arc starts
    (unit_mass([affine_piece(-1.0, 0.0, 1.0, 0.5), sqrt_piece(0.0, 1.0, 1.0, 1.0, 1, 0.0)]),
     True, False),
    (mb.staircase(), True, False),
    (CORNER_ZERO_2D, False, False),
    (_one_tall_cell(), True, False),
    (_rectangle_in_zeros(), True, True),
], ids=["decreasing_sqrt", "increasing_sqrt", "affine_into_sqrt", "staircase",
        "l_shape_2d", "one_tall_cell_2d", "rectangle_in_zeros_2d"])
def test_shape_checks_are_exact(d, quasiconcave, log_concave):
    rep = mb.check_conditions(d)
    assert (rep.quasiconcave, rep.log_concave) == (quasiconcave, log_concave)
    if quasiconcave:
        assert rep.quasiconcave_witness is None
    else:
        assert witness_gaps(d, *rep.quasiconcave_witness)[0] > _WITNESS_MARGIN
    if log_concave:
        assert rep.log_concave_witness is None
    else:
        assert witness_gaps(d, *rep.log_concave_witness)[1] > _WITNESS_MARGIN


def test_staircase_is_refuted_by_the_geometric_mean_only():
    rep = mb.check_conditions(mb.staircase())
    qc_gap, lc_gap = witness_gaps(mb.staircase(), *rep.log_concave_witness)
    assert lc_gap > _WITNESS_MARGIN >= qc_gap


@pytest.mark.parametrize("d, bound", [
    (mb.triangle(), 8),
    (GridDensity.normalized(1, (0.0,), (1 / 256,), np.ones(256)), 3 * 256),
    (GridDensity.normalized(1, (-1.0,), (1 / 128,), 1.0 - np.abs(np.linspace(-1, 1, 256))),
     3 * 256),
    (_grid_2d(np.ones((8, 8))), 3 * 64),
    (_l1_cone(), 3 * 64),
], ids=["triangle", "uniform_256", "tent_256", "uniform_8x8", "l1_cone_8x8"])
def test_check_conditions_evaluations_are_linear_in_size(monkeypatch, d, bound):
    points = []
    for cls in (UscDensity1D, GridDensity):
        def counted(self, point, evaluate=cls.evaluate):
            points.append(point)
            return evaluate(self, point)

        monkeypatch.setattr(cls, "evaluate", counted)
    mb.check_conditions(d)
    assert len(points) <= bound


def _assert_refutes_what_the_lattice_refutes(d, points_per_axis: int):
    rep = mb.check_conditions(d)
    qc_violation, lc_violation = shape_violations(d, points_per_axis)
    if qc_violation > _WITNESS_MARGIN:
        assert not rep.quasiconcave
    if lc_violation > _WITNESS_MARGIN:
        assert not rep.log_concave
    if not rep.quasiconcave:
        assert witness_gaps(d, *rep.quasiconcave_witness)[0] > _WITNESS_MARGIN
    if not rep.log_concave:
        assert witness_gaps(d, *rep.log_concave_witness)[1] > _WITNESS_MARGIN


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_shape_checks_refute_what_a_lattice_refutes_1d(seed):
    d = random_piecewise(np.random.default_rng(seed), max_pieces=8)
    _assert_refutes_what_the_lattice_refutes(d, 256)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       cells=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=36, max_size=36))
def test_shape_checks_refute_what_a_lattice_refutes_2d(shape, cells):
    # few distinct values, so level sets share cells and zero cells abound
    values = np.array(cells[:shape[0] * shape[1]]).reshape(shape)
    assume(values.sum() > 0)
    _assert_refutes_what_the_lattice_refutes(_grid_2d(values), 24)


# --- sweeps -----------------------------------------------------------------


def test_sweep_triangle_converges():
    tr = mb.sweep(mb.triangle(), [8.0, 32.0, 128.0, 512.0])
    assert tr.verdict == "converges_to_MAP"
    assert all(row.dist_to_map == 0.0 for row in tr.rows)
    assert tr.limit_points == (0.0,)


def test_sweep_uniform_limit_point():
    tr = mb.sweep(mb.uniform(), [4.0, 8.0])
    assert tr.verdict == "limit_point_is_MAP"
    assert [row.canonical for row in tr.rows] == [0.25, 0.125]


def test_sweep_asymmetric_decay_rule():
    ladder = [2.0 * 4.0 ** nu for nu in range(1, 7)]
    tr = mb.sweep(mb.asymmetric_triangle(-1.0, 0.5, 1.0), ladder)
    assert tr.verdict == "converges_to_MAP"
    dists = [row.dist_to_map for row in tr.rows]
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))


def test_sweep_counterexample_diverges():
    d = mb.build(12)
    tr = mb.sweep(d, mb.scale_ladder(5), (-1.0, 12.0))
    assert tr.verdict == "diverges_from_MAP"
    assert all(row.dist_to_map > 0.5 for row in tr.rows)


@pytest.mark.parametrize("name, limit_points", [
    ("zero_cells", (0.28125, 0.3125, 0.375)),
    ("near_tie", (0.53125, 0.5625, 0.625)),
])
def test_sweep_grid_1d_follows_the_scans(name, limit_points):
    g = grid_1d(name)
    ladder = [2.0, 4.0, 8.0, 16.0, 32.0]
    tr = mb.sweep(g, ladder)
    lo, hi = g.support[0]
    _, map_maxi, map_canonical = grid_mode_scan(g, (lo, hi), 1e-6)
    assert (tr.map_maximizers, tr.map_canonical) == (map_maxi, map_canonical)
    assert tr.cluster_radius == 10.0 * 1e-6
    for c, row in zip(ladder, tr.rows):
        r = 1.0 / c
        sup, maxi, canonical = grid_window_scan(g, r, (lo - r, hi + r), 1e-6)
        assert row.canonical == canonical
        assert (row.argmax_lo, row.argmax_hi) == (maxi[0][0], maxi[-1][1])
        assert row.sup_value == pytest.approx(sup, abs=1e-15)
        assert row.dist_to_map == min(max(a - canonical, canonical - b, 0.0)
                                      for a, b in map_maxi)
    assert tr.limit_points == limit_points
    assert tr.verdict == "limit_point_is_MAP"


def test_sweep_single_rung_inconclusive():
    tr = mb.sweep(mb.triangle(), [8.0])
    assert tr.verdict == "inconclusive"


def test_sweep_ladder_validation():
    with pytest.raises(ValueError):
        mb.sweep(mb.triangle(), [])
    with pytest.raises(ValueError):
        mb.sweep(mb.triangle(), [8.0, 8.0])
    with pytest.raises(ValueError):
        mb.sweep(mb.triangle(), [-1.0, 8.0])


def test_sweep_csv_round_trip():
    tr = mb.sweep(mb.triangle(), [8.0, 32.0])
    lines = tr.csv_lines()
    assert lines[0] == "c,canonical,sup_value,dist_to_map,argmax_lo,argmax_hi"
    assert len(lines) == 3
    for line, row in zip(lines[1:], tr.rows):
        fields = [float(tok) for tok in line.split(",")]
        assert fields[0] == row.c
        assert fields[2] == row.sup_value  # 17 significant digits round-trip


def test_fmt17_round_trips():
    for x in (1 / 3, 0.1845703125, 2.0 ** -48, -math.pi):
        assert float(fmt17(x)) == x


# --- finite-scale hypo diagnostics -----------------------------------------


def test_sup_on_interval_open_vs_closed():
    d = mb.staircase()
    assert sup_on_interval(d, 0.0, 1.0, closed=True) == 1.2   # envelope at 1
    assert sup_on_interval(d, 0.0, 1.0, closed=False) == 0.4  # left limit only
    assert sup_on_interval(d, 0.2, 0.8) == 0.4
    assert sup_on_interval(d, -1.0, -0.5) == 0.0
    assert sup_on_interval(d, 0.5, 2.0) == 1.2
    assert sup_on_interval(d, 1.2, 1.2) == 1.2  # degenerate closed interval


def test_sup_on_interval_includes_gap_zero():
    d = mb.two_bumps()
    assert sup_on_interval(d, -0.4, 0.4, closed=True) == 0.0
    assert sup_on_interval(d, -0.6, 0.6) == 1.2


def test_hypo_triangle_all_pass():
    rep = mb.hypo_diagnostic(mb.triangle(), [4.0, 10.0, 50.0],
                             closed_intervals=[(-0.5, 0.5), (0.2, 0.9)],
                             open_intervals=[(-0.5, 0.5)])
    assert rep.ok
    assert all(not r.skipped for r in rep.rows)
    closed0 = [r for r in rep.rows if r.kind == "closed" and r.lo == -0.5]
    for r in closed0:
        assert r.sup_smoothed == pytest.approx(1.0 - 1.0 / (2 * r.nu), abs=1e-12)


def test_hypo_open_interval_skips_on_jump():
    rep = mb.hypo_diagnostic(mb.staircase(), [4.0], open_intervals=[(0.2, 1.4)])
    (row,) = rep.rows
    assert row.skipped and "jump" in row.reason
    assert rep.ok  # skips do not fail the family check


def test_hypo_open_interval_skips_when_shrunken_empty():
    rep = mb.hypo_diagnostic(mb.triangle(), [4.0], open_intervals=[(-0.2, 0.2)])
    (row,) = rep.rows
    assert row.skipped and "empty" in row.reason


def test_hypo_counterexample_closed_boxes():
    d = mb.build(12)
    rep = mb.hypo_diagnostic(d, [2.0, 4.0, 8.0],
                             closed_intervals=[(-0.5, 0.5), (1.5, 2.5), (-1.0, 5.0)])
    assert rep.ok
    for r in rep.rows:
        assert r.sup_smoothed <= r.sup_reference + 1e-12


def test_one_d_diagnostics_reject_2d_grids():
    g = mb.GridDensity.normalized(2, (0.0, 0.0), (0.25, 0.25), np.ones((4, 4)))
    for call in (lambda: mb.sweep(g, [8.0, 16.0]),
                 lambda: mb.hypo_diagnostic(g, [4.0], closed_intervals=[(0.0, 1.0)]),
                 lambda: sup_on_interval(g, 0.0, 1.0)):
        with pytest.raises(ValueError, match="1D densities only"):
            call()


def test_hypo_rejects_bad_scale():
    with pytest.raises(ValueError):
        mb.hypo_diagnostic(mb.triangle(), [0.0], closed_intervals=[(-1, 1)])
