import math
import os
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mapbayes as mb
from mapbayes import density
from mapbayes.argmax import (ArgmaxResult, _box_bounds, _window_error, _window_max,
                             _window_min_sup, maximize_density, maximize_window)
from mapbayes.density import (GridDensity, UscDensity1D, _disc_masses, affine_piece,
                              constant_piece, sqrt_piece)
from mapbayes.errors import EmptySearchBox

from conftest import CORNER_ZERO_2D, JUMP_DOWN, random_affine, random_piecewise, unit_mass
from oracles import (brute_argmax, exact_window_mass, grid_mode_scan_2d, grid_window_max,
                     mode_scan, window_error_by_pieces, window_mass)


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
    (mb.two_bumps(), (-0.2, -0.2), ((-0.2, -0.2),), -0.2),
    (GridDensity.normalized(1, (0.5,), (0.25,), np.array([0.0, 0.0, 1.0, 3.0])),
     (0.2, 0.9), ((0.2, 0.9),), 0.2),
    (CORNER_ZERO_2D, ((2, 3), (2, 3)), (((2.0, 3.0), (2.0, 3.0)),), (2.0, 2.0)),
    (CORNER_ZERO_2D, ((-1, 0.2), (-1, 0.2)), (((-1.0, 0.2), (-1.0, 0.2)),), (0.0, 0.0)),
], ids=["gap_between_pieces", "past_the_support", "positive_sup", "point_in_the_gap",
         "grid_zero_cells",
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


def _points_of(d):
    """Breakpoints, points inside a segment, and points off the support of d."""
    ends = d.breakpoints
    lo, hi = d.support
    return st.one_of(
        st.sampled_from(ends),
        st.tuples(st.integers(0, len(ends) - 2), st.floats(0.01, 0.99)).map(
            lambda a: ends[a[0]] + a[1] * (ends[a[0] + 1] - ends[a[0]])),
        st.floats(0.01, 2.0).map(lambda x: lo - x),
        st.floats(0.01, 2.0).map(lambda x: hi + x))


def _draw_density(data):
    """Densities with gaps and sqrt arcs of both orientations, with pieces
    overlapping by 1e-15, or 1D grid views with zero cells; half of them
    get an infinite point, on a breakpoint, inside a segment or off the
    support."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["piecewise", "affine", "grid"]))
    if kind == "piecewise":
        d = random_piecewise(rng, max_pieces=8, gap_prob=0.35)
    elif kind == "affine":
        d = random_affine(rng, offset=float(rng.uniform(-3.0, 3.0)))
    else:
        values = rng.choice([0.0, 0.0, 0.5, 1.0, 2.0], size=int(rng.integers(1, 10)))
        values[rng.integers(values.size)] = 1.0
        origin, spacing = float(rng.uniform(-2.0, 1.0)), float(rng.choice([0.25, 0.1, 1.0 / 3.0]))
        d = GridDensity.normalized(1, (origin,), (spacing,), values).to_pieces()
    if data.draw(st.booleans()):
        d = UscDensity1D(d.pieces, mass_tol=1e-6, infinite_points=(data.draw(_points_of(d)),))
    return d


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_profile_break_values_are_evaluate_at_the_breakpoints(data):
    # the breakpoints are the segment starts unless pieces overlap, and the
    # values are read off the pieces' end values: both match the definitions
    d = _draw_density(data)
    ends = sorted({*(p.lo for p in d.pieces), *(p.hi for p in d.pieces)})
    assert [t.hex() for t in d._profile.breakpoints.tolist()] == [t.hex() for t in ends]
    assert [t.hex() for t in d.breakpoints] == [t.hex() for t in ends]
    want = [d.evaluate(t).hex() for t in d.breakpoints]
    assert [v.hex() for v in d._profile.break_values.tolist()] == want


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_density_argmax_is_the_pointwise_scan(data):
    # box ends on breakpoints, inside segments, off the support and equal,
    # bit for bit against the scan with the one-point evaluate
    d = _draw_density(data)
    a = data.draw(_points_of(d))
    b = data.draw(st.one_of(_points_of(d), st.just(a)))
    box = (min(a, b), max(a, b))
    res = mb.map_estimate(d, box)
    got = (res.sup_value, res.maximizers, res.canonical, res.tol_value, res.sup_infinite)
    assert repr(got) == repr(mode_scan(d, box))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_2d_density_argmax_is_the_per_cell_scan(data):
    # small grids of tied top cells and zero cells of both signs, searched
    # over boxes on cell lines, inside cells, and partly or wholly off the
    # grid, report what the per-cell scan does, signed zeros included
    nx, ny = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    values = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0]),
                                         min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    assume(values.max() > 0.0)
    origin = data.draw(st.tuples(*[st.sampled_from([0.0, -0.0, -1.0, 0.3])] * 2))
    spacing = data.draw(st.tuples(*[st.sampled_from([0.25, 0.1, 1.0 / 3.0])] * 2))
    g = GridDensity.normalized(2, origin, spacing, values)
    box = []
    for o, h, n in zip(g.origin, g.spacing, g.shape):
        at = st.one_of(st.integers(-4, 2 * n + 4).map(lambda i, o=o, h=h: o + 0.5 * i * h),
                       st.sampled_from([0.0, -0.0]), st.floats(o - 2.0 * n * h, o + 3.0 * n * h))
        box.append(tuple(sorted(data.draw(st.tuples(at, at)))))
    for b in (box, g.support):
        assert repr(maximize_density(g, b)) == repr(ArgmaxResult(2, *grid_mode_scan_2d(g, b)))


def test_searches_keep_the_zero_a_box_starts_at():
    # -0.0 and the 0.0 of a breakpoint or cell line count as one point; the
    # box end comes first, so its -0.0 is the one reported
    d = mb.uniform()
    for res in (mb.map_estimate(d, (-0.0, 1.0)), maximize_window(d, 2.0, (-0.0, 1.0))):
        assert res.maximizers == ((-0.0, 1.0),)
        assert math.copysign(1.0, res.maximizers[0][0]) == -1.0
    for res in (mb.map_estimate(d, (-0.0, 0.0)), maximize_window(d, 0.25, (-0.0, 0.0))):
        assert [math.copysign(1.0, t) for t in res.maximizers[0]] == [-1.0, -1.0]
    g = GridDensity.normalized(2, (-1.0, -1.0), (0.5, 0.5), np.ones((4, 4)))
    res = mb.map_estimate(g, ((-0.0, 0.5), (-0.0, 0.5)))
    assert len(res.maximizers) == 9  # the cells cut to the box's edges count too
    assert [math.copysign(1.0, t) for iv in res.maximizers[0] for t in iv] == [-1.0, 1.0] * 2


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


# mirror images: equal plateaus about -0.6 and 0.6, and equal triangles about
# -1 and 1 written in the global form a + b*t, so that the masses at mirrored
# centres are equal but rounded differently
_MIRRORED_PLATEAUS = UscDensity1D((constant_piece(-0.9, -0.3, 5 / 6),
                                   constant_piece(0.3, 0.9, 5 / 6)))
_MIRRORED_TRIANGLES = UscDensity1D((
    affine_piece(-1.5, -1.0, 3.0, 2.0), affine_piece(-1.0, -0.5, -1.0, -2.0),
    affine_piece(0.5, 1.0, -1.0, 2.0), affine_piece(1.0, 1.5, 3.0, -2.0)))


@pytest.mark.parametrize("c", [4.0, 10.0, 1e3, 1e5, 1e7])
def test_window_keeps_ties_at_mirrored_points(c):
    r = 1.0 / c
    res = mb.bayes_estimate(_MIRRORED_PLATEAUS, mb.LossSpec(c))
    assert res.maximizers == ((-0.9 + r, -0.3 - r), (0.3 + r, 0.9 - r))
    res = mb.bayes_estimate(_MIRRORED_TRIANGLES, mb.LossSpec(c))
    assert [lo for lo, _ in res.maximizers] == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert mb.map_estimate(_MIRRORED_TRIANGLES).maximizers == ((-1.0, -1.0), (1.0, 1.0))


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


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), offset=st.floats(-1000.0, 1000.0),
       log_r=st.floats(-9.5, 0.5))
def test_window_on_affine_densities_agrees_with_the_oracles(seed, offset, log_r):
    # affine and constant pieces only, so every stretch is solved in the
    # one vectorized pass: gaps, plateaus, steep ramps 1e-9 wide, pieces
    # overlapping by 1e-15 relative, far from the origin
    d = random_affine(np.random.default_rng(seed), offset=offset)
    r = 10.0 ** log_r
    lo, hi = d.support
    box = (lo - r, hi + r)
    res = maximize_window(d, r, box)
    tol = Fraction(res.tol_value)
    sup = Fraction(res.sup_value)
    # the canonical point attains the sup, and so does every maximizer
    # element, each to the reported tolerance, in exact arithmetic
    c = res.canonical
    assert abs(exact_window_mass(d, c - r, c + r) - sup) <= tol
    for a, b in res.maximizers:
        for t in (a, 0.5 * (a + b), b):
            assert exact_window_mass(d, t - r, t + r) >= sup - tol
    # no point of a dense scan beats the sup by more than the tolerance
    _, best = brute_argmax(lambda t: d.integrate(t - r, t + r), *box, n=2000)
    assert best <= res.sup_value + res.tol_value


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), offset=st.floats(0.0, 1000.0),
       log_r=st.floats(-7.0, 0.0))
def test_window_table_mass_is_within_its_error_bound(seed, offset, log_r):
    # the table's window mass, from one cumulative sum, against the exact
    # mass of the same float pieces over the same float window; far from the
    # origin the linear terms a*t round the most
    d = random_piecewise(np.random.default_rng(seed), max_pieces=10,
                         span=(offset - 2.0, offset + 2.0))
    r = 10.0 ** log_r
    lo, hi = d.support
    ends = np.array(d.breakpoints)
    theta = np.concatenate([ends - r, ends + r, np.linspace(lo - 2.0 * r, hi + 2.0 * r, 41)])
    table = d._profile
    approx = table.cumulative(theta + r) - table.cumulative(theta - r)
    for t, v in zip(theta.tolist(), approx.tolist()):
        assert abs(Fraction(v) - exact_window_mass(d, t - r, t + r)) <= Fraction(table.error)


def _density_of(kind: str, rng) -> UscDensity1D:
    """A random density with gaps, one whose pieces overlap by 1e-15
    relative, or the escaping construction."""
    if kind == "gaps":
        return random_piecewise(rng, max_pieces=8, gap_prob=0.35)
    if kind == "overlaps":
        return random_affine(rng, offset=float(rng.uniform(-50.0, 50.0)))
    return mb.build(int(rng.integers(1, 13)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["gaps", "overlaps", "escape"]),
       log_r=st.floats(-4.0, 0.0))
def test_infinite_boxes_give_the_support_search(seed, kind, log_r):
    # off the support the window mass and the density are 0, so a box
    # reaching to -inf or +inf finds what the box about the support finds
    d = _density_of(kind, np.random.default_rng(seed))
    r, inf = 10.0 ** log_r, math.inf
    lo, hi = d.support
    want = repr(maximize_window(d, r, (lo - r, hi + r)))
    for box in ((-inf, inf), (lo - r, inf), (-inf, hi + r)):
        assert repr(maximize_window(d, r, box)) == want, box
    want = repr(maximize_density(d))
    for box in ((-inf, inf), (lo, inf)):
        assert repr(maximize_density(d, box)) == want, box


def _flat_density(seed: int) -> UscDensity1D:
    """One density with no slope: a 1D grid's cell view, some cells 0 or
    -0.0, about an origin that puts cells on both sides of 0; or flat pieces
    (constants, and affine and sqrt pieces with b = 0.0 or -0.0) with gaps,
    zero and -0.0 heights, and one piece overlapping the one before by 1e-15
    relative."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    heights = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) > 0.3)
    heights[rng.integers(n)] += 1e-3
    heights[(heights == 0.0) & (rng.uniform(size=n) < 0.5)] = -0.0
    if seed % 2:
        origin, spacing = rng.uniform(-3.0, 1.0), rng.uniform(0.01, 0.5)
        values = GridDensity.normalized(1, origin, spacing, heights).values
        return GridDensity(1, (origin,), (spacing,), values).to_pieces()
    pieces, t, overlap = [], rng.uniform(-3.0, 1.0), int(rng.integers(1, n + 1))
    for i, k in enumerate(heights.tolist()):
        lo = t - 1e-15 * max(1.0, abs(t)) if i == overlap else t + rng.uniform(0.0, 0.5) * (
            rng.uniform() < 0.3)
        t = lo + rng.uniform(0.01, 0.5)
        b = rng.choice([0.0, -0.0])
        pieces.append(rng.choice([constant_piece(lo, t, k),
                                  affine_piece(lo, t, k, b, t0=rng.uniform(-5.0, 5.0)),
                                  sqrt_piece(lo, t, k, b, 1, lo - rng.uniform(0.0, 2.0)),
                                  sqrt_piece(lo, t, k, b, -1, t + rng.uniform(0.0, 2.0))]))
    return UscDensity1D(unit_mass(pieces).pieces, mass_tol=1e-6)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_r=st.floats(-3.0, 0.5), at=st.floats(0.0, 1.0))
def test_a_profile_with_no_slope_answers_as_its_full_algebra_does(seed, log_r, at):
    # the same pieces built again through _Profile.of, a grid's cells as constant
    # pieces, with the kind facts forced to "sloped, with arcs", so that every
    # reader runs the full affine and arc algebra
    def answers(d):
        p = d._profile
        r, inf = 10.0 ** log_r, math.inf
        lo, hi = d.support
        mid = lo + at * (hi - lo)
        ts = np.concatenate((p.breakpoints, p.breakpoints - r, np.linspace(lo - 1.0, hi + 1.0, 97),
                             [-inf, inf, -0.0, 0.0]))
        boxes = [(lo, hi), (lo - r, hi + r), (mid, mid), (lo, mid), (-inf, inf), (-inf, mid),
                 (mid, inf)]
        return ([np.asarray(getattr(p, name)).tobytes() for name in
                  ("rounding", "f_max", "cum", "error", "break_values", "total_mass")],
                 p.evaluate(ts).tobytes(),
                 [repr(maximize_density(d, box)) for box in boxes],
                 [repr(maximize_window(d, r, box)) for box in boxes],
                 [repr(_window_min_sup(d, r, *box)) for box in boxes])

    d = _flat_density(seed)
    assert (d._profile.sloped, d._profile.arcs) == (False, False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_kinds", lambda form: (True, True))
        full = UscDensity1D(d.pieces, mass_tol=d.mass_tol)
    assert (full._profile.sloped, full._profile.arcs) == (True, True)
    assert answers(d) == answers(full)


def test_the_benchmarks_posterior_view_records_no_slope_and_no_arc():
    # the posterior of a sloped prior is cell-constant, so its view takes every
    # skip; the escaping construction has slopes and arcs; b = 0 is flat, whatever the kind
    model = mb.BayesModel(mb.triangle(), lambda x, t: math.exp(-0.5 * ((t - x) / 0.3) ** 2), 0.2)
    cases = [(mb.posterior(model, 256).to_pieces(), (False, False)),
             (mb.triangle(), (True, False)),
             (mb.build(6), (True, True)),
             (UscDensity1D((affine_piece(0.0, 0.5, 1.0, 0.0, t0=0.2),
                            affine_piece(0.5, 0.75, 1.0, -0.0, t0=0.3),
                            sqrt_piece(0.75, 1.0, 1.0, 0.0, 1, 0.75))), (False, False))]
    for d, kinds in cases:
        assert (d._profile.sloped, d._profile.arcs) == kinds


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["gaps", "overlaps"]),
       log_r=st.floats(-4.0, 0.0), spike=st.floats(0.0, 1.0))
def test_window_error_is_the_piece_by_piece_bound(seed, kind, log_r, spike):
    # boxes whose ends, less r and plus r, fall on piece ends, one ulp off
    # them, in gaps, off the support and at infinity, on densities with gaps
    # or overlaps and an infinite point
    d = _density_of(kind, np.random.default_rng(seed))
    lo, hi = d.support
    d = UscDensity1D(d.pieces, mass_tol=1e-6, infinite_points=(lo + spike * (hi - lo),))
    r, inf = 10.0 ** log_r, math.inf
    ends = [p.lo for p in d.pieces] + [p.hi for p in d.pieces]
    gaps = [0.5 * (a.hi + b.lo) for a, b in zip(d.pieces, d.pieces[1:]) if b.lo > a.hi]
    xs = sorted({y for x in ends for y in (math.nextafter(x, -inf), x, math.nextafter(x, inf))}
                | set(gaps) | {lo - 1.0, hi + 1.0, -inf, inf})
    for x in xs:
        for y in xs:
            if x <= y:
                assert _window_error(d, r, x + r, y - r) == window_error_by_pieces(
                    d, r, x + r, y - r), (x, y)


@pytest.mark.parametrize("nu, bumps", [(12, [22, 23, 24]), (13, list(range(21, 27)))])
def test_window_keeps_the_near_ties_of_the_escape(nu, bumps):
    # bump 2 nu beats its neighbours by about 16^-nu, below the float error
    # of the masses, so the bumps within the tolerance all stay maximizers
    res = maximize_window(mb.build(2 * nu), 0.5 * 4.0 ** -nu, (-1.0, 2 * nu + 2.0))
    assert [math.floor(lo) for lo, _ in res.maximizers] == bumps


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


def test_searches_leave_numpy_ma_out():
    # np.unique imports numpy.ma on its first call, 1.7 MB more resident
    # memory; a fresh interpreter, since pytest or hypothesis may import it here
    src = str(Path(mb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, numpy as np, mapbayes as mb\n"
            "d = mb.triangle()\n"
            "mb.map_estimate(d); mb.bayes_estimate(d, mb.LossSpec(8.0))\n"
            "mb.sweep(d, mb.scale_ladder(3))\n"
            "g = mb.GridDensity.normalized(2, (0.0, 0.0), (0.25, 0.25), np.ones((4, 4)))\n"
            "mb.bayes_estimate(g, mb.LossSpec(8.0))\n"
            "assert 'numpy.ma' not in sys.modules")
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


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_2d_window_max_is_the_per_cell_max(data):
    # the level-0 bound of the 2D ball search, and at kx = ky = 0 its seed:
    # lattice cells up to k off the grid, read from the grid bordered by one
    # zero cell, on values drawn from a few levels, so zeros and ties are common
    nx, ny = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 7))
    kx, ky = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    level = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                      st.floats(0.0, 10.0, allow_subnormal=False))
    values = np.array(data.draw(st.lists(level, min_size=nx * ny, max_size=nx * ny)))
    values = values.reshape(nx, ny)
    cells_x = np.array(sorted(data.draw(st.lists(st.integers(-kx, nx - 1 + kx), min_size=1,
                                                 max_size=nx + 2 * kx))))
    cells_y = np.array(sorted(data.draw(st.lists(st.integers(-ky, ny - 1 + ky), min_size=1,
                                                 max_size=ny + 2 * ky))))
    top = _window_max(np.pad(values, 1), cells_x, cells_y, kx, ky)
    assert top.shape == (len(cells_x), len(cells_y))
    assert [[float(v) for v in row] for row in top] == [
        [grid_window_max(values, i, j, kx, ky) for j in cells_y.tolist()]
        for i in cells_x.tolist()]
