import math
from fractions import Fraction

import pytest

import mapbayes as mb
from mapbayes.counterexample import ideal_total_mass
from mapbayes.errors import CutoffTooSmall

from oracles import adaptive_simpson, window_mass


def test_mass_accounting_exact():
    for n_max in (4, 8, 12, 20):
        d = mb.build(n_max)
        assert d.total_mass == pytest.approx(ideal_total_mass(n_max), abs=1e-12)
        # materialized mass plus the omitted tail is the full unit mass
        assert ideal_total_mass(n_max) + mb.omitted_tail_mass(n_max) == pytest.approx(
            1.0, abs=1e-15)


def test_cusp_shape_and_mass():
    d = mb.build(4)
    assert d.evaluate(0.0) == 1.0
    assert d.evaluate(0.125) == pytest.approx(1.0 - math.sqrt(0.25), abs=1e-15)
    assert d.evaluate(0.5) == 0.0
    # cusp mass is exactly 1/3: split-at-zero Simpson confirms the pieces
    assert d.integrate(-0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert adaptive_simpson(d.evaluate, -0.5, 0.5, breaks=[0.0]) == pytest.approx(
        1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 16])
def test_triangle_bump_geometry(n):
    d = mb.build(max(n, 2))
    height = 1.0 - 2.0 ** -n
    # ramp meets the plateau without a jump (exactly at n, to float dust)
    assert d.evaluate(n) == pytest.approx(height, abs=1e-12)
    assert d.evaluate(n - 8.0 ** -n / 2) < height
    # bump mass: plateau + two half-ramps = (1 - 2^-n) * 2^-n
    lo, hi = n - 8.0 ** -n, n + 2.0 ** -n
    assert d.integrate(lo, hi) == pytest.approx((1.0 - 2.0 ** -n) * 2.0 ** -n,
                                                rel=1e-12)


def test_far_bumps_are_equal_mass_rectangles():
    d = mb.build(20)
    for n in (17, 18, 19, 20):
        lo, hi = float(n), n + 2.0 ** -n
        ps = [p for p in d.pieces if lo <= p.lo < hi]
        assert len(ps) == 1 and ps[0].kind == "constant"
        assert ps[0].params["k"] == 1.0 - 2.0 ** -n
        assert d.integrate(lo, hi) == pytest.approx((1.0 - 2.0 ** -n) * 2.0 ** -n,
                                                    rel=1e-12)


def test_objective_at_origin_matches_quadrature():
    d = mb.build(12)
    for nu in (1, 2, 3, 4):
        r = 0.5 * 4.0 ** -nu
        closed = mb.objective_at_origin(nu)
        assert closed == pytest.approx(d.integrate(-r, r), abs=1e-15)
        assert closed == pytest.approx(window_mass(d, 0.0, r), abs=1e-12)


def test_plateau_bound_is_a_lower_bound_for_center_mass():
    d = mb.build(20)
    for nu in (1, 2, 3, 4, 5, 6):
        r = 0.5 * 4.0 ** -nu
        center = mb.plateau_center(nu)
        mass = d.integrate(center - r, center + r)
        assert mass >= mb.plateau_bound(nu)
        assert mass > mb.objective_at_origin(nu)


def test_domination_margin_exact_arithmetic():
    for nu in range(1, 65):
        margin = mb.domination_margin(nu)
        assert isinstance(margin, Fraction)
        assert margin > 0
    assert float(mb.domination_margin(1)) == pytest.approx(
        mb.plateau_bound(1) - mb.objective_at_origin(1), abs=1e-15)
    # the nu=1 numbers themselves
    assert mb.plateau_bound(1) == 45.0 / 256.0
    assert mb.objective_at_origin(1) == pytest.approx(1.0 / 6.0, abs=1e-16)


def test_scale_ladder():
    assert mb.scale_ladder(4) == [8.0, 32.0, 128.0, 512.0]
    with pytest.raises(ValueError):
        mb.scale_ladder(0)


def test_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        mb.objective_at_origin(5, max_bump=9)
    with pytest.raises(CutoffTooSmall):
        mb.verify_nonconvergence(6, max_bump=8)
    with pytest.raises(ValueError):
        mb.build(0)
    assert "CounterexampleSpec" not in mb.__all__


def test_declared_unbounded_tail():
    d = mb.build(20)
    assert d.tail_height_sup == 1.0


def test_verify_nonconvergence_small_ladder():
    rep = mb.verify_nonconvergence(3)
    assert rep.ok
    assert rep.trace.verdict == "diverges_from_MAP"
    assert rep.map_canonical == 0.0 and rep.map_sup == 1.0
    for nu, row in zip(range(1, 4), rep.rows):
        assert abs(row.bayes_canonical) > 0.5
        assert row.bayes_canonical == pytest.approx(2.0 * nu, abs=0.2)
        assert row.center_value > row.origin_value


def test_bayes_sup_beats_any_window_at_origin():
    d = mb.build(20)
    for nu in (1, 2, 3):
        r = 0.5 * 4.0 ** -nu
        res = mb.bayes_estimate(d, mb.LossSpec(2.0 * 4.0 ** nu))
        assert res.sup_value > d.integrate(-r, r)


def test_sample_curve_shape():
    d = mb.build(4)
    pts = mb.sample_curve(d, -0.5, 2.5, step=0.01)
    assert len(pts) == 301
    assert pts[0][0] == -0.5 and pts[-1][0] == pytest.approx(2.5)
    assert max(v for _, v in pts) == pytest.approx(1.0)


def test_bayes_report_is_the_bump_centre():
    # at rung 6 a shifted-breakpoint cut 7e-12 left of the centre of bump 12
    # scores within the value tolerance; near-duplicate points are clustered
    # and the exact stationary point at the centre is the one kept
    res = mb.bayes_estimate(mb.build(), mb.LossSpec(mb.scale_ladder(6)[-1]), (-1.0, 14.0))
    assert res.maximizers == ((mb.plateau_center(6), mb.plateau_center(6)),)
