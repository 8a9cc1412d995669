import json
import math

import numpy as np
import pytest

import mapbayes as mb
from mapbayes.density import (
    GridDensity,
    Piece,
    UscDensity1D,
    affine_piece,
    constant_piece,
    density_from_json,
    density_to_json,
    sqrt_piece,
)

from conftest import CORNER_ZERO_2D, random_piecewise
from oracles import adaptive_simpson


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
    assert mb.step().evaluate(0.5) == 2.0


def test_envelope_on_gap_interior():
    d = mb.two_bumps()
    assert d.evaluate(0.0) == 0.0
    assert d.evaluate(-0.5) == 1.2
    assert d.evaluate(0.5) == 0.8


def test_infinite_points_reported():
    d = UscDensity1D((constant_piece(0.0, 1.0, 1.0),), infinite_points=(0.25,))
    assert d.evaluate(0.25) == math.inf
    assert d.evaluate(0.26) == 1.0


def test_mass_validation():
    with pytest.raises(ValueError):
        UscDensity1D((constant_piece(0.0, 1.0, 2.0),))  # mass 2
    # explicit tolerance admits it
    UscDensity1D((constant_piece(0.0, 1.0, 2.0),), mass_tol=1.5)


def test_overlapping_pieces_rejected():
    with pytest.raises(ValueError):
        UscDensity1D((constant_piece(0.0, 1.0, 1.0),
                      constant_piece(0.5, 1.5, 1.0)), mass_tol=2.0)


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


def test_solve_ge_consistent_with_scan(rng):
    for _ in range(10):
        d = random_piecewise(rng)
        lo, hi = d.support
        alpha = rng.uniform(0.05, 1.2)
        covered = []
        for p in d.pieces:
            covered.extend(p.solve_ge(alpha))
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
        L = d.lipschitz_bound(a, b)
        if not math.isfinite(L):
            continue
        ts = np.sort(rng.uniform(a, b, size=100))
        breaks = set(d.breakpoints)
        for t1, t2 in zip(ts, ts[1:]):
            if any(t1 < c < t2 for c in breaks):
                continue  # bound speaks about slopes, not jumps
            assert abs(d.evaluate(t2) - d.evaluate(t1)) <= L * (t2 - t1) + 1e-9


def test_piecewise_json_round_trip():
    d = mb.build(8)
    blob = json.dumps(density_to_json(d))
    d2 = density_from_json(json.loads(blob),
                           mass_tol=mb.omitted_tail_mass(8) + 1e-9,
                           tail_height_sup=1.0)
    assert d2.pieces == d.pieces
    for t in (-0.3, 0.0, 0.2, 1.0, 2.03125, 6.0):
        assert d2.evaluate(t) == d.evaluate(t)


def test_grid_json_round_trip():
    g = GridDensity.normalized(1, (0.0,), (0.25,), np.array([1.0, 2.0, 0.5, 0.5]))
    blob = json.dumps(density_to_json(g))
    g2 = density_from_json(json.loads(blob))
    assert isinstance(g2, GridDensity)
    assert g2.total_mass == pytest.approx(1.0, abs=1e-12)
    assert g2.evaluate(0.3) == g.evaluate(0.3)


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


def test_grid_to_pieces_equivalent():
    vals = np.array([1.0, 3.0, 2.0, 2.0])
    g = GridDensity.normalized(1, (0.0,), (0.25,), vals)
    d = g.to_pieces()
    assert g.to_pieces() is d  # built once per grid
    for t in np.linspace(-0.2, 1.2, 57):
        assert d.evaluate(t) == pytest.approx(g.evaluate(t), abs=1e-15)
    assert d.integrate(0.1, 0.9) == pytest.approx(
        adaptive_simpson(g.evaluate, 0.1, 0.9, breaks=[0.25, 0.5, 0.75]), abs=1e-12)


def test_grid_2d_evaluate_boundary_max():
    vals = np.array([[1.0, 2.0], [4.0, 3.0]])
    g = GridDensity.normalized(2, (0.0, 0.0), (0.5, 0.5), vals)
    h = g.values  # normalized copies
    assert g.evaluate((0.25, 0.25)) == h[0, 0]
    assert g.evaluate((0.5, 0.25)) == max(h[0, 0], h[1, 0])
    assert g.evaluate((0.5, 0.5)) == h.max()
    assert g.evaluate((1.2, 0.2)) == 0.0


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
    model = mb.BayesModel(prior, lambda x, t: 0.7, 0.0,
                          likelihood_constant=True)
    assert mb.posterior(model) is prior
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
