import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mapbayes as mb
from mapbayes.density import (
    GridDensity,
    Piece,
    UscDensity1D,
    _Profile,
    _distinct,
    _pieces_view,
    _solve_ge,
    affine_piece,
    constant_piece,
    density_from_json,
    sqrt_piece,
)
from mapbayes.diagnostics import sup_on_interval

from conftest import CORNER_ZERO_2D, JUMP_DOWN, grid_1d, random_affine, random_piecewise
from oracles import adaptive_simpson, integrate_by_pieces


def test_piece_values_by_kind():
    c = constant_piece(0.0, 1.0, 0.7)
    assert c.value(0.3) == 0.7
    a = affine_piece(0.0, 1.0, 0.5, 2.0)
    assert a.value(0.25) == pytest.approx(1.0, abs=1e-15)
    s = sqrt_piece(0.0, 1.0, 0.0, 2.0, 1, 0.0)
    assert s.value(0.25) == pytest.approx(1.0, abs=1e-15)
    s_rev = sqrt_piece(0.0, 1.0, 0.0, 2.0, -1, 1.0)
    assert s_rev.value(0.75) == pytest.approx(1.0, abs=1e-15)


def test_piece_validation():
    with pytest.raises(ValueError):
        constant_piece(1.0, 1.0, 0.5)  # empty interval
    with pytest.raises(ValueError):
        constant_piece(0.0, 1.0, -0.5)  # negative
    with pytest.raises(ValueError):
        affine_piece(0.0, 1.0, 0.0, -1.0)  # dips below zero
    with pytest.raises(ValueError):
        sqrt_piece(0.0, 1.0, 0.0, 1.0, 1, 0.5)  # radicand negative on [0, 0.5)
    with pytest.raises(ValueError):
        Piece(0.0, 1.0, "cubic", {})


def test_a_tail_that_rounds_below_zero_is_accepted():
    # 0.1 - (0.1/11)*t is 0 at t = 11 but rounds to -1.4e-17 there: dust of
    # the formula's terms 0.1, far below 1e-12 of them, though both ends are near 0
    tail = affine_piece(11.0 - 1e-14, 11.0, 0.1, -0.1 / 11.0)
    lo_v, hi_v = tail.endpoint_values()
    assert 0.0 < lo_v < 1e-15 and -1e-16 < hi_v < 0.0
    d = UscDensity1D((constant_piece(11.0 - 1.0, 11.0 - 1e-14, 1.0), tail))
    assert d.evaluate(11.0) == 0.0
    with pytest.raises(ValueError):
        constant_piece(0.0, 1.0, -1e-20)  # a constant adds no rounding: negative at any scale


def test_affine_local_reference_far_from_origin():
    # a steep thin ramp at t ~ 16; the global a + b*t form would lose the
    # value completely to cancellation, the t0 form keeps it exact
    slope = (2.0 ** 16 - 1.0) * 4.0 ** 16
    lo = 16.0 - 8.0 ** -16
    p = affine_piece(lo, 16.0, 0.0, slope, t0=lo)
    assert p.value(lo) == 0.0
    assert p.value(16.0) == 1.0 - 2.0 ** -16


@pytest.mark.parametrize("kind", ["constant", "affine", "sqrt"])
def test_piece_integral_matches_simpson(kind, rng):
    for _ in range(20):
        a, w = rng.uniform(-3, 3), rng.uniform(0.1, 2.0)
        b = a + w
        if kind == "constant":
            p = constant_piece(a, b, rng.uniform(0.1, 2.0))
        elif kind == "affine":
            v0, v1 = rng.uniform(0.1, 2.0, size=2)
            p = affine_piece(a, b, v0, (v1 - v0) / w, t0=a)
        else:
            v0, v1 = rng.uniform(0.1, 2.0, size=2)
            p = sqrt_piece(a, b, v0, (v1 - v0) / math.sqrt(w), 1, a)
        x, y = sorted(rng.uniform(a, b, size=2))
        assert p.integral(x, y) == pytest.approx(
            adaptive_simpson(p.value, x, y), abs=1e-12)


def test_envelope_takes_max_of_one_sided_limits():
    d = mb.staircase()
    assert d.evaluate(1.0) == 1.2       # jump point: larger side wins
    assert d.evaluate(0.0) == 0.4       # support edge: zero outside loses
    assert d.evaluate(1.5) == 1.2       # right support edge, left limit
    assert d.evaluate(2.0) == 0.0
    assert d.evaluate(-0.3) == 0.0
    assert d.evaluate(math.nan) == 0.0  # no segment holds nan: 0, not an error
    assert mb.step().evaluate(0.5) == 2.0
    assert JUMP_DOWN.evaluate(0.5) == 2.0  # jump down: the left limit wins


def test_envelope_on_gap_interior():
    d = mb.two_bumps()
    assert d.evaluate(0.0) == 0.0
    assert d.evaluate(-0.5) == 1.2
    assert d.evaluate(0.5) == 0.8


def test_infinite_points_reported():
    d = UscDensity1D((constant_piece(0.0, 1.0, 1.0),), infinite_points=(0.25,))
    assert d.evaluate(0.25) == math.inf
    assert d.evaluate(0.26) == 1.0


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_infinite_point_is_refused(t):
    # at a NaN one, evaluate(nan) would be inf, while the searches and
    # shape checks would go on as if the density had no infinite point
    with pytest.raises(ValueError, match=f"infinite point {t} is not finite"):
        UscDensity1D(mb.triangle().pieces, infinite_points=(0.5, t))


def _assert_table_evaluate_is_evaluate(d, ts):
    ts = np.array(sorted(ts))
    got = d._profile.evaluate(ts)
    want = np.array([d.evaluate(t) for t in ts.tolist()])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _ends_and_neighbours(d, ulps=1):
    out = []
    for b in d.breakpoints:
        below = above = b
        out.append(b)
        for _ in range(ulps):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            out += [below, above]
    return out


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), extra=st.lists(st.floats(-3.0, 3.0), max_size=20),
       spike=st.one_of(st.sampled_from(["lo", "hi"]), st.floats(-0.5, 1.5)))
def test_segment_table_evaluate_is_evaluate_at_every_point(seed, extra, spike):
    # every breakpoint and its float neighbours, points off the support and
    # an infinite point, on the support, at one of its ends or beyond it, on
    # densities with gaps between their pieces
    d = random_piecewise(np.random.default_rng(seed), max_pieces=8, gap_prob=0.35)
    lo, hi = d.support
    at = {"lo": lo, "hi": hi}.get(spike) if isinstance(spike, str) else lo + spike * (hi - lo)
    d = UscDensity1D(d.pieces, mass_tol=1e-6, infinite_points=(at,))
    _assert_table_evaluate_is_evaluate(
        d, [*_ends_and_neighbours(d), lo - 1.0, hi + 1.0, at, *extra])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(xs=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]),
                             st.floats(allow_nan=False)), max_size=30))
def test_distinct_is_the_sorted_set(xs):
    # bit for bit: of 0.0 and -0.0 the first in xs is kept, as a set keeps it
    def signed(ts):
        return [(t, math.copysign(1.0, t)) for t in ts]

    assert signed(_distinct(xs).tolist()) == signed(sorted(set(xs)))


def test_evaluate_keeps_both_limits_at_an_infinite_point_in_an_overlap():
    # the pieces overlap by 1e-15 and an infinite point sits inside the
    # overlap: at t = 1.0 both pieces reach t, and the earlier one is larger
    a, b = affine_piece(0.0, 1.0, 0.2, 0.6), constant_piece(1.0 - 1e-15, 2.0, 0.5)
    d = UscDensity1D((a, b), mass_tol=0.5, infinite_points=(1.0 - 5e-16,))
    assert d.evaluate(1.0) == a.value(1.0) > 0.5
    assert d.evaluate(1.0 - 5e-16) == math.inf
    _assert_table_evaluate_is_evaluate(d, _ends_and_neighbours(d, ulps=4))


def test_segment_table_evaluate_at_rounding_edges():
    # on the counterexample n - 8^-n rounds to n from n = 18 on, where the
    # ramps become rectangles, and the cusp's formula dips below 0 at its
    # ends; bump 16's two ramps are one ulp wide, so two ulps out of a
    # breakpoint lies past a whole piece; the sqrt piece is anchored 1e-16
    # past its start, where its radicand is negative; JUMP_DOWN's ramp
    # starts at exactly 0; a piece of value -0.0 evaluates to +0.0
    d = mb.build(20)
    ts = [-0.0, *(n + e for n in range(1, 21) for e in (-(8.0 ** -n), 0.0, 8.0 ** -n))]
    _assert_table_evaluate_is_evaluate(d, ts + _ends_and_neighbours(d, ulps=2))
    anchored = UscDensity1D((sqrt_piece(0.0, 1.0, 1.0 / 3.0, 1.0, 1, 1e-16),))
    negative_zero = UscDensity1D((constant_piece(0.0, 1.0, 1.0), constant_piece(1.0, 2.0, -0.0)))
    for e in (anchored, JUMP_DOWN, negative_zero):
        _assert_table_evaluate_is_evaluate(e, [*_ends_and_neighbours(e), 1.5])


def test_mass_validation():
    with pytest.raises(ValueError):
        UscDensity1D((constant_piece(0.0, 1.0, 2.0),))  # mass 2
    # explicit tolerance admits it
    UscDensity1D((constant_piece(0.0, 1.0, 2.0),), mass_tol=1.5)
    # an infinite end or parameter is refused before any mass or value is formed
    for pieces in [(affine_piece(0.0, 1.0, 1.0, 0.0, t0=math.inf),),
                   (sqrt_piece(0.0, 1.0, 1.0, 0.0, -1, math.inf),),
                   (constant_piece(-math.inf, 0.0, 0.0), constant_piece(0.0, 1.0, 1.0))]:
        with pytest.raises(ValueError, match=r"^piece on \[.*\) has an end or a parameter that "
                                             r"is not finite$"):
            UscDensity1D(pieces)


def test_a_flat_piece_far_from_the_origin_builds_beside_a_sloped_piece():
    # a flat piece's value and mass do not see its t0: beside a sloped piece its
    # mass once took (x - t0) + (y - t0), which overflowed to a total mass of nan
    far = affine_piece(0.0, 1.0, 0.5, 0.0, t0=-1e308)
    for other, sloped in [(affine_piece(1.0, 2.0, 0.25, 0.5, t0=1.0), True),
                          (affine_piece(1.0, 2.0, 0.5, 0.0, t0=-1e308), False)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d = UscDensity1D((far, other))
            assert d._profile.sloped == sloped
            assert d.total_mass == 1.0
            assert (d.evaluate(0.5), d.integrate(0.0, 1.0)) == (0.5, 0.5)
            res = mb.bayes_estimate(d, mb.LossSpec(4.0))
        assert res.sup_value == d.integrate(res.canonical - 0.25, res.canonical + 0.25)


def test_overlapping_pieces_rejected():
    with pytest.raises(ValueError, match=r"^pieces overlap near t=0\.5$"):
        UscDensity1D((constant_piece(0.0, 1.0, 1.0),
                      constant_piece(0.5, 1.5, 1.0)), mass_tol=2.0)
    # a piece inside the 1e-15 overlap the one before may have: its end does not
    # pass that piece's, so the ends would not increase
    with pytest.raises(ValueError, match=r"^pieces overlap near t=999\.9999999999997$"):
        UscDensity1D((constant_piece(0.0, 1000.0, 0.0009),
                      constant_piece(999.9999999999997, 999.9999999999999, 0.0001),
                      constant_piece(1000.0, 1001.0, 0.1)), mass_tol=1e-3)
    # an overlap of 1e-15 relative is admitted, and its end kept as a
    # breakpoint; the profile puts a zero piece in the gap and in both tails
    a, b, c = (constant_piece(2.0 - 2e-15, 2.5, 0.4), constant_piece(0.0, 1.0, 0.6),
               constant_piece(1.5, 2.0, 0.4))
    d = UscDensity1D((a, b, c))
    p = d._profile
    assert p.starts.tolist() == [-math.inf, 0.0, 1.0, 1.5, 2.0 - 2e-15, 2.5]
    assert p.ends.tolist() == [0.0, 1.0, 1.5, 2.0, 2.5, math.inf]
    assert p.filler.tolist() == [True, False, True, False, False, True]
    assert p.form.T.tolist() == [[k, 0.0, 1.0, 0.0, 0.0] for k in (0.0, 0.6, 0.0, 0.4, 0.4, 0.0)]
    assert d.breakpoints == (0.0, 1.0, 1.5, 2.0 - 2e-15, 2.0, 2.5)


def test_integrate_clips_and_adds(rng):
    d = mb.triangle()
    assert d.integrate(-5.0, 5.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        d.integrate(0.5, 0.25)
    mid = d.integrate(-1.0, 0.3)
    assert mid + d.integrate(0.3, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_integrate_random_against_simpson(rng):
    for _ in range(25):
        d = random_piecewise(rng)
        lo, hi = d.support
        a, b = sorted(rng.uniform(lo - 0.5, hi + 0.5, size=2))
        oracle = adaptive_simpson(d.evaluate, a, b,
                                  breaks=[t for t in d.breakpoints if a < t < b])
        assert d.integrate(a, b) == pytest.approx(oracle, abs=1e-10)


def _cell_view(seed: int) -> UscDensity1D:
    """The cell view of a random 1D grid of up to 64 cells, some of them 0,
    at an origin anywhere in [-1e3, 1e3]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 65))
    values = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) > 0.2) + 1e-3
    return GridDensity.normalized(1, rng.uniform(-1e3, 1e3), rng.uniform(1e-3, 1.0),
                                  values).to_pieces()


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(d=st.one_of(st.integers(0, 2**32 - 1).map(
           lambda seed: random_piecewise(np.random.default_rng(seed), max_pieces=8,
                                         gap_prob=0.3)),
                   st.integers(1, 22).map(mb.build),
                   st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([0.0, -3.0, 1e3])).map(
           lambda a: random_affine(np.random.default_rng(a[0]), offset=a[1])),
                   st.integers(0, 2**32 - 1).map(_cell_view)),
       windows=st.lists(st.tuples(st.one_of(st.floats(-0.5, 1.5), st.integers(0, 10**6),
                                            st.just(-math.inf)),
                                  st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.2, 3.0, math.inf])),
                        min_size=1, max_size=25))
def test_integrate_is_the_fsum_of_the_piece_integrals(d, windows):
    # bit for bit, on sqrt arcs, on pieces overlapping by 1e-15 relative and
    # on a grid's cell view, whose pieces are built after its integrals:
    # windows 1e-12 wide, windows at a breakpoint (an integer draw picks
    # one), windows off the support, and windows with an infinite end (from
    # -inf at a -inf draw, or to +inf at an infinite width)
    lo, hi = d.support
    masses = []
    for at, width in windows:
        if at == -math.inf:
            a, b = at, lo + width * (hi - lo)
        else:
            a = d.breakpoints[at % len(d.breakpoints)] if isinstance(at, int) else lo + at * (hi - lo)
            b = a + width
        masses.append((a, b, d.integrate(a, b)))
    for a, b, mass in masses:
        assert mass.hex() == integrate_by_pieces(d, a, b).hex()
    assert d.total_mass.hex() == math.fsum(p.integral(p.lo, p.hi) for p in d.pieces).hex()


def test_solve_ge_consistent_with_scan(rng):
    for _ in range(10):
        d = random_piecewise(rng)
        lo, hi = d.support
        alpha = rng.uniform(0.05, 1.2)
        covered = []
        for p in d.pieces:
            covered.extend(_solve_ge((p.lo, p.hi, p._form), alpha))
        ts = rng.uniform(lo, hi, size=400)
        for t in ts:
            v = d.evaluate(t)
            inside = any(a <= t <= b for a, b in covered)
            if v >= alpha + 1e-9:
                assert inside
            if v <= alpha - 1e-9:
                # t may still touch an interval endpoint shared with a
                # neighbouring piece whose envelope clears alpha
                assert not any(a + 1e-12 < t < b - 1e-12 for a, b in covered)


def test_lipschitz_bound_is_a_bound(rng):
    for _ in range(10):
        d = random_piecewise(rng)
        lo, hi = d.support
        a, b = sorted(rng.uniform(lo, hi, size=2))
        if b - a < 1e-3:
            continue
        for p in d.pieces:
            L = p.lipschitz_bound(a, b)
            x, y = max(a, p.lo), min(b, p.hi)
            if y < x:
                assert L == 0.0  # the piece misses [a, b]
                continue
            if not math.isfinite(L):
                continue
            ts = np.sort(rng.uniform(x, y, size=100))
            for t1, t2 in zip(ts, ts[1:]):
                assert abs(p.value(t2) - p.value(t1)) <= L * (t2 - t1) + 1e-9


def test_piecewise_json_round_trip():
    d = mb.build(8)
    blob = json.dumps(d.to_json())
    d2 = density_from_json(json.loads(blob),
                           mass_tol=mb.omitted_tail_mass(8) + 1e-9,
                           tail_height_sup=1.0)
    assert d2.pieces == d.pieces
    for t in (-0.3, 0.0, 0.2, 1.0, 2.03125, 6.0):
        assert d2.evaluate(t) == d.evaluate(t)


def test_grid_json_round_trip():
    g = GridDensity.normalized(1, (0.0,), (0.25,), np.array([1.0, 2.0, 0.5, 0.5]))
    blob = json.dumps(g.to_json())
    g2 = density_from_json(json.loads(blob))
    assert isinstance(g2, GridDensity)
    assert g2.total_mass == pytest.approx(1.0, abs=1e-12)
    assert g2.evaluate(0.3) == g.evaluate(0.3)
    # 1.5 == 1.0 + 0.5 and True == 1, but neither is the integer 1
    for dim in (1.5, 1.0, "1", True):
        with pytest.raises(ValueError, match="dim must be the integer 1 or 2"):
            density_from_json({**g.to_json(), "dim": dim})


def test_grid_density_basics():
    vals = np.array([1.0, 3.0, 2.0, 2.0])
    g = GridDensity.normalized(1, (0.0,), (0.25,), vals)
    assert g.total_mass == pytest.approx(1.0, abs=1e-15)
    assert g.evaluate(0.30) == pytest.approx(1.5, abs=1e-15)
    # cell boundary takes the larger neighbour
    assert g.evaluate(0.25) == pytest.approx(1.5, abs=1e-15)
    assert g.evaluate(0.5) == pytest.approx(1.5, abs=1e-15)
    assert g.evaluate(-0.1) == 0.0
    assert g.evaluate(1.0) == pytest.approx(1.0, abs=1e-15)  # right edge
    # 1e17 + 1.0 rounds to 1e17: the cell would have no width
    with pytest.raises(ValueError, match="cell edges along axis 0 do not strictly increase"):
        GridDensity(1, (1e17,), (1.0,), np.array([1.0]))
    with pytest.raises(ValueError, match="cell edges along axis 1 do not strictly increase"):
        GridDensity(2, (0.0, -1e17), (1.0, 1.0), np.array([[1.0]]))
    # the edges -3e8 + i*3e-5 round by up to 0.1% of a cell: the Riemann mass
    # is 1, but the cell view's mass over the edges is not, and the grid is refused
    far = {"dim": 1, "origin": -3e8, "spacing": 3e-5, "values": [8333.333333333334] * 4}
    refused = r"cell view's total mass 0\.99986\d* .*: origin -300000000\.0, spacing 3e-05"
    with pytest.raises(ValueError, match=refused):
        GridDensity(1, (-3e8,), (3e-5,), far["values"])
    with pytest.raises(ValueError, match=refused):
        density_from_json(far)
    # a -0.0 cell reads 0.0 on the cell view, as a piece does
    assert repr(GridDensity(1, (0.0,), (0.5,), [-0.0, 2.0]).evaluate(0.25)) == "0.0"


def test_grid_to_pieces_equivalent():
    vals = np.array([1.0, 3.0, 2.0, 2.0])
    g = GridDensity.normalized(1, (0.0,), (0.25,), vals)
    d = g.to_pieces()
    assert g.to_pieces() is d  # built with the grid
    for t in np.linspace(-0.2, 1.2, 57):
        assert d.evaluate(t) == pytest.approx(g.evaluate(t), abs=1e-15)
    assert d.integrate(0.1, 0.9) == pytest.approx(
        adaptive_simpson(g.evaluate, 0.1, 0.9, breaks=[0.25, 0.5, 0.75]), abs=1e-12)
    # the view comes from the cell arrays; it equals the density of the
    # cells' constant pieces, each built on its own, fields and _form alike
    v = np.random.default_rng(5).uniform(0.0, 1.0, 256)
    v[[0, 100, 101]] = 0.0
    g = GridDensity.normalized(1, (-0.7,), (3 / 256,), v)
    o, h = g.origin[0], g.spacing[0]
    ref = UscDensity1D(tuple(constant_piece(o + i * h, o + (i + 1) * h, float(x))
                             for i, x in enumerate(g.values)), mass_tol=1e-6)
    d = g.to_pieces()
    assert [vars(p) for p in d.pieces] == [vars(p) for p in ref.pieces]
    for name in ("starts", "ends", "form", "filler"):
        assert getattr(d._profile, name).tobytes() == getattr(ref._profile, name).tobytes()
    assert d.breakpoints == ref.breakpoints
    assert d.total_mass == ref.total_mass


def test_grid_view_search_builds_no_piece(monkeypatch):
    # posterior, its cell view, MAP, Bayes report and every 1D diagnostic
    # read the cell arrays alone; the pieces come on first read, and the
    # density of those pieces gives the same answers and the same profile
    prior = mb.triangle()
    model = mb.BayesModel(prior, lambda x, t: math.exp(-0.5 * ((t - x) / 0.3) ** 2), 0.2)

    def answers(e):
        return (mb.map_estimate(e), mb.bayes_estimate(e, mb.LossSpec(40.0)),
                mb.check_conditions(e), [mb.level_set(e, a) for a in (0.1, 0.5, 1.0, 2.0)],
                [sup_on_interval(e, a, b, closed=closed)
                 for a, b in ((-0.5, 0.5), (0.0, 0.3), (-2.0, 2.0)) for closed in (True, False)],
                mb.hypo_diagnostic(e, [4.0, 16.0], closed_intervals=[(-0.5, 0.5)],
                                   open_intervals=[(-0.5, 0.5), (0.0, 0.8)]))

    def refuse(*args, **kwargs):
        raise AssertionError("a Piece was built")

    monkeypatch.setattr(Piece, "__post_init__", refuse)
    post = mb.posterior(model, grid_resolution=256)
    d = post.to_pieces()
    got = answers(post)
    assert "pieces" not in vars(d)
    monkeypatch.undo()
    ref = UscDensity1D(d.pieces, mass_tol=1e-6)
    assert got == answers(ref)
    for name in ("starts", "ends", "form", "filler", "rounding", "f_max", "cum"):
        assert getattr(d._profile, name).tobytes() == getattr(ref._profile, name).tobytes()
    assert d._profile.error == ref._profile.error


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 1024), seed=st.integers(0, 2**32 - 1),
       origin=st.one_of(st.sampled_from([0.0, -0.0, 1e8, -1e8]), st.floats(-5.0, 5.0)),
       spacing=st.floats(3.3e-5, 10.0), scale=st.sampled_from([1.0, 5e-324, 1e-310, 1e300]),
       zeros=st.floats(0.0, 1.0))
def test_the_cell_builder_is_the_piece_builder_on_constant_columns(n, seed, origin, spacing,
                                                                   scale, zeros):
    # a 1D grid's profile from its edges and heights is _Profile.of of its cells'
    # constant pieces, every field bit for bit: subnormal and 1e300-scale heights,
    # and 0.0 and -0.0 cells, whose values at the edges keep a sign of zero
    rng = np.random.default_rng(seed)
    heights = rng.uniform(0.0, 2.0, n) * scale
    zero = rng.uniform(size=n) < zeros
    heights[zero] = np.where(rng.uniform(size=n) < 0.5, 0.0, -0.0)[zero]
    edges = origin + np.arange(n + 1) * spacing
    assume((edges[1:] > edges[:-1]).all())
    pieces = list(map(constant_piece, edges[:-1].tolist(), edges[1:].tolist(), heights.tolist()))
    columns = np.array([(p.lo, p.hi, *p._form) for p in pieces], dtype=float).T
    want = _Profile.of(columns, ())
    got = UscDensity1D._of_cells(edges, heights, math.inf)._profile

    def raw(x):
        x = np.asarray(x)
        return x.dtype.str, x.shape, x.tobytes()

    for f in dataclasses.fields(_Profile):
        assert raw(getattr(got, f.name)) == raw(getattr(want, f.name)), f.name


def test_grid_2d_evaluate_boundary_max():
    vals = np.array([[1.0, 2.0], [4.0, 3.0]])
    g = GridDensity.normalized(2, (0.0, 0.0), (0.5, 0.5), vals)
    h = g.values  # normalized copies
    assert g.evaluate((0.25, 0.25)) == h[0, 0]
    assert g.evaluate((0.5, 0.25)) == max(h[0, 0], h[1, 0])
    assert g.evaluate((0.5, 0.5)) == h.max()
    assert g.evaluate((1.2, 0.2)) == 0.0
    # a -0.0 cell reads +0.0, alone and on its edges, as a 1D grid's cell does
    z = GridDensity(2, (0.0, 0.0), (0.5, 0.5), [[-0.0, 2.0], [1.0, 1.0]])
    z1 = GridDensity(1, (0.0,), (0.5,), [-0.0, 2.0])
    for got in (z.evaluate((0.1, 0.1)), z.evaluate((0.0, 0.0)), z1.evaluate(0.1), z1.evaluate(0.0)):
        assert math.copysign(1.0, got) == 1.0 and got == 0.0
    assert z.evaluate((0.5, 0.0)) == 1.0 and z.evaluate((0.0, 0.5)) == 2.0


def test_grid_evaluate_takes_the_larger_cell_where_the_quotient_rounds_low():
    # (-2.7 + 3.0) / 0.3 = 0.9999999999999993, so a lookup by the floor of the
    # quotient would name only the cell left of the line x = -2.7: the edges
    # name the cell right of it too
    g = GridDensity.normalized(1, (-3.0,), (0.3,), np.array([1.0, 2.0]))
    assert g.evaluate(-2.7) == g.values[1]
    g2 = GridDensity.normalized(2, (-3.0, 0.0), (0.3, 0.5), np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert g2.evaluate((-2.7, 0.25)) == g2.values[1, 0]
    assert g2.evaluate((-2.7, 0.5)) == g2.values[1].max()


def test_grid_evaluate_at_a_non_finite_or_far_point_is_zero():
    # no cell holds NaN or +-inf, nor 1e308, whose quotient (x - o)/h would
    # overflow to inf: each gives 0, on the 1D cell view and on the 2D edges
    g = GridDensity.normalized(1, (0.0,), (1e-10,), np.array([1.0, 3.0]))
    g2 = GridDensity.normalized(2, (0.0, 0.0), (0.5, 1e-10), np.array([[1.0, 2.0], [4.0, 3.0]]))
    for x in (math.nan, math.inf, -math.inf, 1e308, -1e308):
        assert g.evaluate(x) == g.to_pieces().evaluate(x) == 0.0
        assert g2.evaluate((x, 1e-10)) == g2.evaluate((0.5, x)) == 0.0
    assert g.evaluate(1e-10) == g.values[1] and g2.evaluate((0.5, 1e-10)) == g2.values.max()


# --- posterior machinery ----------------------------------------------------


def test_posterior_shifts_toward_observation():
    prior = mb.uniform(0.0, 1.0)
    model = mb.BayesModel(prior, lambda x, t: math.exp(-8.0 * (x - t) ** 2), 0.75)
    post = mb.posterior(model, grid_resolution=512)
    assert post.total_mass == pytest.approx(1.0, abs=1e-9)
    assert mb.map_estimate(post).canonical == pytest.approx(0.75, abs=2e-2)


def test_posterior_matches_pointwise_ratio():
    prior = mb.triangle()
    lik = lambda x, t: math.exp(-0.5 * (x - t) ** 2)
    model = mb.BayesModel(prior, lik, 0.4)
    ev, err = mb.evidence(model)
    assert err < 1e-6
    oracle = adaptive_simpson(lambda t: prior.evaluate(t) * lik(0.4, t),
                              -1.0, 1.0, breaks=[0.0])
    assert ev == pytest.approx(oracle, abs=1e-8)
    post = mb.posterior(model, grid_resolution=2048)
    for t in (-0.5, -0.1, 0.2, 0.6):
        assert post.evaluate(t) == pytest.approx(
            prior.evaluate(t) * lik(0.4, t) / ev, rel=2e-3)


@pytest.mark.parametrize("prior", [mb.triangle(), mb.two_bumps(), mb.build(12)],
                         ids=["triangle", "two_bumps", "counterexample"])
def test_evidence_and_posterior_1d_take_the_pointwise_prior(prior):
    # both quadratures multiply the prior's pointwise value at each cell
    # midpoint into the likelihood there, so they equal these sums exactly:
    # the evidence cuts each piece in k * max(1, round(1024 * width / support
    # width)) cells, the posterior the support in even cells
    lik = lambda x, t: math.exp(-0.5 * (t - x) ** 2)
    lo, hi = prior.support

    def cell_sum(k):
        terms = []
        for p in prior.pieces:
            n = k * max(1, round(1024 * (p.hi - p.lo) / (hi - lo)))
            h = (p.hi - p.lo) / n
            terms += [h * prior.evaluate(t) * lik(0.3, t)
                      for t in (p.lo + (j + 0.5) * h for j in range(n))]
        return math.fsum(terms)

    e1, e2 = cell_sum(1), cell_sum(2)
    assert mb.evidence(mb.BayesModel(prior, lik, 0.3)) == (e2 + (e2 - e1) / 3.0, abs(e2 - e1))

    def weights(n):
        h = (hi - lo) / n
        return h, [prior.evaluate(t) * lik(0.3, t) for t in (lo + h * (k + 0.5) for k in range(n))]

    h, w = weights(256)
    w = np.array(w)
    post = mb.posterior(mb.BayesModel(prior, lik, 0.3), grid_resolution=256)
    assert np.array_equal(post.values, w / float(w.sum() * h))


@pytest.mark.parametrize("prior", [
    grid_1d("zero_cells"), grid_1d("near_tie"), mb.staircase(), mb.two_bumps(), mb.triangle(),
    GridDensity.normalized(1, (-3.0,), (0.3,), np.array([1.0, 2.0])),
    GridDensity.normalized(1, (-3.0,), (0.3,), np.array([1.0, 2.0, 3.0])),
], ids=["zero_cells", "near_tie", "staircase", "two_bumps", "triangle", "two_cells", "three_cells"])
@pytest.mark.parametrize("n", [1, 7, 1024])
def test_evidence_1d_cells_stay_inside_each_piece(prior, n):
    # no cell straddles a jump, so a constant likelihood gives back the
    # prior's own mass, and the midpoint rule is exact on every cell
    mass = _pieces_view(prior).total_mass
    ev, err = mb.evidence(mb.BayesModel(prior, lambda x, t: 1.0, 0.0), grid_resolution=n)
    assert abs(ev - mass) <= math.ulp(mass) and err == 0.0


def test_evidence_1d_grid_is_the_2d_layout_s():
    # an affine likelihood on zero_cells, laid out as a column of a 2D grid
    g = grid_1d("zero_cells")
    column = GridDensity(2, (g.origin[0], 0.0), (g.spacing[0], 1.0), g.values.reshape(-1, 1))
    ev, err = mb.evidence(mb.BayesModel(g, lambda x, t: 1.0 + t, 0.0))
    assert ev == mb.evidence(mb.BayesModel(column, lambda x, t: 1.0 + t[0], 0.0))[0]
    assert ev == 1.4305555555555556 and err == 0.0


def test_evidence_2d_affine_likelihood_has_no_error():
    # the midpoint rule is exact for an affine likelihood on every cell
    ev, err = mb.evidence(mb.BayesModel(CORNER_ZERO_2D, lambda x, t: 1.0 + t[0], 0.0))
    assert ev == pytest.approx(31.0 / 24.0, abs=1e-15)
    assert err <= 1e-15 * ev


def test_evidence_2d_gaussian_likelihood_beats_the_cell_sum():
    g = CORNER_ZERO_2D
    lik = lambda x, t: math.exp(-((t[0] - 0.3) ** 2 + (t[1] - 0.2) ** 2) / 0.02)

    def cell_sum(k):
        # every cell split k x k, keeping its prior value
        h = g.spacing[0] / k
        mids = (np.arange(2 * k) + 0.5) * h
        tx, ty = np.meshgrid(mids, mids, indexing="ij")
        prior = np.repeat(np.repeat(g.values, k, axis=0), k, axis=1)
        return float(np.sum(prior * np.exp(-((tx - 0.3) ** 2 + (ty - 0.2) ** 2) / 0.02))) * h * h

    reference, e_n = cell_sum(64), cell_sum(1)
    ev, err = mb.evidence(mb.BayesModel(g, lik, 0.0))
    assert err > 0.0
    assert abs(ev - reference) < abs(e_n - reference)


def test_posterior_constant_likelihood_returns_prior():
    prior = mb.triangle()
    probed = mb.BayesModel(prior, lambda x, t: 0.7, 0.0)
    assert mb.posterior(probed) is prior


def test_posterior_sees_narrow_likelihood_feature():
    # the likelihood differs from a constant only within 1e-3 of 0.1265;
    # constancy is decided from the posterior's own grid midpoints, so the
    # feature is seen and moves the mode off the prior's apex at 0
    prior = mb.triangle()
    lik = lambda x, t: 1.0 if abs(t - 0.1265) <= 1e-3 else 0.5
    post = mb.posterior(mb.BayesModel(prior, lik, 0.0))
    assert isinstance(post, GridDensity)
    assert mb.map_estimate(post).canonical == pytest.approx(0.1265, abs=2.0 / 1024)


def test_zero_and_divergent_evidence():
    prior = mb.uniform()
    with pytest.raises(mb.ZeroEvidence):
        mb.posterior(mb.BayesModel(prior, lambda x, t: 0.0, 0.0))
    with pytest.raises(mb.DivergentEvidence):
        mb.posterior(mb.BayesModel(prior, lambda x, t: math.inf, 0.0))
    # the likelihood lives on the gap between the bumps, plus a spike that
    # falls between the 1024 posterior midpoints on [-1, 1]: every posterior
    # weight is zero although a finer quadrature would see the spike
    lik = lambda x, t: 1.0 if -0.5 <= t < 0.5 or abs(t + 0.75 - 2.0 ** -11) < 1e-6 else 0.0
    with pytest.raises(mb.ZeroEvidence):
        mb.posterior(mb.BayesModel(mb.two_bumps(), lik, 0.0))


@pytest.mark.parametrize("prior, n_cells", [
    (mb.triangle(), 256),
    (GridDensity.normalized(1, (0.0,), (0.25,), np.array([1.0, 3.0, 0.0, 2.0])), 4),
    (GridDensity.normalized(2, (0.0, 0.0), (0.25, 0.5), np.arange(1.0, 13.0).reshape(4, 3)), 12),
], ids=["pieces", "grid_1d", "grid_2d"])
def test_posterior_evaluates_the_likelihood_once_per_cell(prior, n_cells):
    thetas = []

    def likelihood(x, theta):
        thetas.append(theta)
        return math.exp(-float(np.sum((np.asarray(theta) - x) ** 2)))

    post = mb.posterior(mb.BayesModel(prior, likelihood, 0.3), grid_resolution=256)
    assert len(thetas) == n_cells
    assert post.values.size == n_cells


@pytest.mark.parametrize("prior, dim", [
    (mb.triangle(), 1),
    (GridDensity.normalized(1, (0.0,), (0.25,), np.array([1.0, 3.0, 0.0, 2.0])), 1),
    (GridDensity.normalized(2, (0.0, 0.0), (0.25, 0.5), np.arange(1.0, 13.0).reshape(4, 3)), 2),
], ids=["pieces", "grid_1d", "grid_2d"])
def test_likelihood_gets_python_floats_in_both_dims(prior, dim):
    # a float in 1D and a tuple of two floats in 2D, never a numpy scalar,
    # so a division by zero raises in both dims
    thetas = []

    def likelihood(x, theta):
        thetas.append(theta)
        return 1.0 / (1.0 + float(np.sum((np.asarray(theta) - x) ** 2)))

    m = mb.BayesModel(prior, likelihood, 0.3)
    mb.posterior(m, grid_resolution=16)
    mb.evidence(m, grid_resolution=16)
    if dim == 1:
        assert all(type(t) is float for t in thetas)
    else:
        assert all(type(t) is tuple and [type(c) for c in t] == [float, float] for t in thetas)
    zero = (lambda x, t: 1.0 / (t - t)) if dim == 1 else (lambda x, t: 1.0 / (t[0] - t[0]))
    for f in (mb.posterior, mb.evidence):
        with pytest.raises(ZeroDivisionError):
            f(mb.BayesModel(prior, zero, 0.3))


@pytest.mark.parametrize("prior", [mb.two_bumps(), mb.build(6), grid_1d("zero_cells"),
                                   CORNER_ZERO_2D], ids=["pieces", "arcs", "grid_1d", "grid_2d"])
def test_posterior_is_the_normalized_weights(prior):
    # one pass from the weights prior x likelihood at the cell midpoints to
    # the posterior gives what GridDensity.normalized does, bit for bit
    def lik(x, t):
        return math.exp(-float(np.sum((np.asarray(t) - x) ** 2)))

    if isinstance(prior, GridDensity):
        origin, spacing, shape = prior.origin, prior.spacing, prior.values.shape
    else:
        lo, hi = prior.support
        origin, spacing, shape = (lo,), ((hi - lo) / 256,), (256,)
    axes = [(o + (np.arange(n) + 0.5) * h).tolist() for o, h, n in zip(origin, spacing, shape)]
    if len(axes) == 1:
        weights = [prior.evaluate(t) * lik(0.3, t) for t in axes[0]]
    else:
        weights = [[prior.values[i, j] * lik(0.3, (x, y)) for j, y in enumerate(axes[1])]
                   for i, x in enumerate(axes[0])]
    want = GridDensity.normalized(len(shape), origin, spacing, np.array(weights))
    post = mb.posterior(mb.BayesModel(prior, lik, 0.3), grid_resolution=256)
    assert (post.dim, post.origin, post.spacing) == (want.dim, want.origin, want.spacing)
    assert [v.hex() for v in post.values.ravel().tolist()] == [
        v.hex() for v in want.values.ravel().tolist()]


@pytest.mark.parametrize("f", [mb.posterior, mb.evidence])
@pytest.mark.parametrize("prior, lik, first", [
    # -1 on the left half of the triangle and 2 on the right: summed, these
    # weights make an evidence of 0.5, and half the posterior cells negative
    (mb.triangle(), lambda x, t: -1.0 if t < 0.0 else 2.0, "at -0.9990234375 is -1.0"),
    (mb.triangle(), lambda x, t: math.nan if t > 0.5 else 1.0, "at 0.5009765625 is nan"),
    (GridDensity.normalized(2, (0.0, 0.0), (0.25, 0.5), np.arange(1.0, 13.0).reshape(4, 3)),
     lambda x, t: math.nan if t[1] > 1.0 else 1.0, r"at \(0.125, 1.25\) is nan"),
    # the last cell only, so the point is rebuilt from a flat index past the first row
    (GridDensity.normalized(2, (0.0, 0.0), (0.25, 0.5), np.arange(1.0, 13.0).reshape(4, 3)),
     lambda x, t: -1.0 if t == (0.875, 1.25) else 1.0, r"at \(0.875, 1.25\) is -1.0"),
], ids=["negative", "nan", "nan_2d", "negative_2d_last_cell"])
def test_a_nan_or_negative_likelihood_is_refused(f, prior, lik, first):
    # both quadratures name the first point, in their own order, where the
    # likelihood is NaN or negative
    with pytest.raises(ValueError, match=f"likelihood {first}, not >= 0"):
        f(mb.BayesModel(prior, lik, 0.0))


@pytest.mark.parametrize("f", [mb.posterior, mb.evidence])
def test_an_infinite_likelihood_value_makes_the_evidence_diverge(f):
    with pytest.raises(mb.DivergentEvidence):
        f(mb.BayesModel(mb.triangle(), lambda x, t: math.inf if t > 0.5 else 1.0, 0.0))


@pytest.mark.parametrize("n", [1.5, 2.5, 0, -3, True, 256.0], ids=repr)
@pytest.mark.parametrize("f", [mb.posterior, mb.evidence])
def test_grid_resolution_must_be_a_positive_int(f, n):
    # 1.5 made two cells of width 4/3 that ran past the triangle's support,
    # 0 divided by zero, -3 made no cells, and True was taken as 1
    m = mb.BayesModel(mb.triangle(), lambda x, t: math.exp(-t * t), 0.0)
    with pytest.raises(ValueError, match=f"grid_resolution must be a positive int, got {n!r}"):
        f(m, n)
    assert repr(f(m, np.int64(16))) == repr(f(m, 16))
