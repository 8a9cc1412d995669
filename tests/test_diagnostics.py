import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mapbayes as mb
import mapbayes.diagnostics
from mapbayes.density import (GridDensity, Piece, UscDensity1D, _pieces_view, affine_piece,
                               constant_piece, sqrt_piece)
from mapbayes.diagnostics import _WITNESS_MARGIN, ConditionReport, fmt17, sup_on_interval

from conftest import CORNER_ZERO_2D, JUMP_DOWN, grid_1d, random_piecewise, unit_mass
from oracles import (grid_mode_scan, grid_window_scan, shape_violations, window_inf_by_pieces,
                     witness_gaps)


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


def test_level_set_refuses_a_nan_alpha():
    for d in (mb.triangle(), grid_1d("zero_cells"), CORNER_ZERO_2D):
        with pytest.raises(ValueError, match="NaN"):
            mb.level_set(d, math.nan)


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
@given(seed=st.integers(0, 2**32 - 1), digits=st.integers(2, 12))
def test_the_halving_search_returns_the_first_triple_the_one_point_values_verify(seed, digits):
    # past the first triple the search values its points by one array read;
    # it must give what the one-point evaluate gives, triple by triple
    d = random_piecewise(np.random.default_rng(seed), max_pieces=8)
    margin = 10.0 ** -digits * float(d._profile.f_max.max())
    dg = mapbayes.diagnostics
    rows = dg._rows(d)
    for (p_lo, _, _), (t, hi, _) in zip(rows[1:-2], rows[2:-1]):
        for lam in (0.25, 0.5, 0.75):
            def triple(h):
                return t - h, t + h, lam
            span = min(t - p_lo, hi - t)
            one_point = next((w for k in range(dg._WITNESS_HALVINGS)
                              if (w := dg._verified_witness(d, *triple(span * 0.5 ** k), margin,
                                                            geometric=True))), None)
            assert dg._witness_by_halving(d, triple, span, margin) == one_point


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       cells=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=36, max_size=36))
def test_shape_checks_refute_what_a_lattice_refutes_2d(shape, cells):
    # few distinct values, so level sets share cells and zero cells abound
    values = np.array(cells[:shape[0] * shape[1]]).reshape(shape)
    assume(values.sum() > 0)
    _assert_refutes_what_the_lattice_refutes(_grid_2d(values), 24)



def _walk(kind: str, values) -> UscDensity1D | GridDensity:
    """A 1D grid of the given cell values, or the continuous chain of affine
    pieces on [i, i + 1] through them, normalized."""
    n = len(values) - (kind == "chain")
    if kind == "grid":
        return GridDensity.normalized(1, (0.0,), (1.0 / n,), np.array(values))
    return unit_mass([affine_piece(float(i), float(i + 1), values[i], values[i + 1] - values[i],
                                   t0=float(i)) for i in range(n)])


def _valley(delta: float) -> list[float]:
    """201 values falling from 1 by delta per step to the middle, then rising back."""
    return [1.0 - delta * (100 - abs(i - 100)) for i in range(201)]


@pytest.mark.parametrize("d", [_walk("grid", _valley(0.5e-12)), _walk("grid", _valley(2e-12)),
                               _walk("chain", _valley(0.5e-12))],
                         ids=["grid_50_margins", "grid_200_margins", "affine_chain"])
def test_a_valley_of_small_steps_is_refuted(d):
    # every step is far below 4 margins; the valley is 50 or 200 deep
    rep = mb.check_conditions(d)
    assert not rep.quasiconcave and not rep.log_concave
    unit = max(d.evaluate(t) for t in _pieces_view(d).breakpoints)
    assert witness_gaps(d, *rep.quasiconcave_witness)[0] > _WITNESS_MARGIN * unit


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(["grid", "chain"]),
       steps=st.lists(st.sampled_from([-3, -1, 0, 1, 3]), min_size=2, max_size=64))
def test_a_random_walk_is_refuted_where_the_lattice_sees_a_valley(kind, steps):
    d = _walk(kind, (1.0 + 1e-12 * np.cumsum([0, *steps])).tolist())
    rep = mb.check_conditions(d)
    unit = max(d.evaluate(t) for t in _pieces_view(d).breakpoints)
    if shape_violations(d, 256)[0] > 4.0 * _WITNESS_MARGIN * unit:
        assert not rep.quasiconcave
    if not rep.quasiconcave:
        assert witness_gaps(d, *rep.quasiconcave_witness)[0] > _WITNESS_MARGIN * unit


@pytest.mark.parametrize("d", [mb.two_bumps(), mb.triangle(), _l1_cone(), _rectangle_in_zeros()],
                         ids=["two_bumps", "triangle", "l1_cone_2d", "rectangle_in_zeros_2d"])
def test_check_conditions_runs_no_mode_search(monkeypatch, d):
    def refused(*args, **kwargs):
        raise AssertionError("check_conditions ran a mode search")

    monkeypatch.setattr(mapbayes.diagnostics, "map_estimate", refused)
    rep = mb.check_conditions(d)
    assert rep.level_set_ok


#: uniform on [0, 1] with a spike at the midpoint of its one piece
_SPIKE_AT_MIDPOINT = UscDensity1D((constant_piece(0.0, 1.0, 1.0),), infinite_points=(0.5,))


def test_log_concavity_sees_a_spike_at_a_segment_midpoint():
    rep = mb.check_conditions(_SPIKE_AT_MIDPOINT, alpha_grid=[0.5])
    assert rep.quasiconcave
    assert not rep.log_concave
    assert rep.log_concave_witness == (0.5, 0.25, 0.5)
    assert witness_gaps(_SPIKE_AT_MIDPOINT, *rep.log_concave_witness)[1] > _WITNESS_MARGIN


def _bimodal(s: float) -> UscDensity1D:
    """Heights 1.2s, 0.6s and 1.2s on the thirds of [0, 1/s): never quasiconcave."""
    w = 1.0 / s
    return UscDensity1D((constant_piece(0.0, w / 3, 1.2 * s),
                         constant_piece(w / 3, 2 * w / 3, 0.6 * s),
                         constant_piece(2 * w / 3, w, 1.2 * s)))


@pytest.mark.parametrize("s", [1.0, 1e-8, 1e-9, 1e-10])
def test_a_dip_is_refuted_at_any_scale(s):
    # the margin is in units of the density's largest value, 1.2s
    d = _bimodal(s)
    rep = mb.check_conditions(d)
    assert not rep.quasiconcave and not rep.log_concave
    assert witness_gaps(d, *rep.quasiconcave_witness)[0] > _WITNESS_MARGIN * 1.2 * s


def _moved(d: UscDensity1D, c: float) -> UscDensity1D:
    """d moved right by c, its affine pieces in the plain a + b*t form: far
    from the origin their terms a and b*t dwarf the values, and round by ulps
    of them."""
    pieces = []
    for p in d.pieces:
        params = dict(p.params)
        if p.kind == "affine":
            params = {"a": params["a"] - params["b"] * (params.get("t0", 0.0) + c),
                      "b": params["b"]}
        elif p.kind == "sqrt":
            params["t0"] += c
        pieces.append(Piece(p.lo + c, p.hi + c, p.kind, params))
    return UscDensity1D(tuple(pieces))


@pytest.mark.parametrize("c", [1e3, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("name", ["triangle", "uniform", "step", "ramp", "staircase",
                                  "asym_right", "two_bumps"])
def test_shape_checks_see_past_the_rounding_of_far_pieces(name, c):
    # the apex of asym_right moved by 1e5 has its two pieces 1e-10 apart, a
    # rounding of their terms near 7e5: no jump, and no witness made of it
    d = dict(mb.quasiconcave_family(), two_bumps=mb.two_bumps())[name]
    rep, moved = mb.check_conditions(d), mb.check_conditions(_moved(d, c))
    assert (moved.quasiconcave, moved.log_concave) == (rep.quasiconcave, rep.log_concave)
    assert (moved.quasiconcave_witness is None) == (rep.quasiconcave_witness is None)
    assert (moved.log_concave_witness is None) == (rep.log_concave_witness is None)


def _mapped(d, k: int):
    """d under t -> 4^k*t and f -> 4^-k*f (a 2D grid's values go by 16^-k,
    to keep unit mass).  Powers of 4 keep every float operation exact,
    sqrt arcs included."""
    t = 4.0 ** k
    if isinstance(d, GridDensity):
        return GridDensity(2, tuple(x * t for x in d.origin), tuple(h * t for h in d.spacing),
                           d.values / t ** 2)
    pieces = []
    for p in d.pieces:
        by = {"k": 1 / t, "a": 1 / t, "t0": t, "s": 1,
              "b": 1 / t ** 2 if p.kind == "affine" else 1 / 8.0 ** k}
        pieces.append(Piece(p.lo * t, p.hi * t, p.kind,
                            {name: v * by[name] for name, v in p.params.items()}))
    tail = None if d.tail_height_sup is None else d.tail_height_sup / t
    return UscDensity1D(tuple(pieces), d.mass_tol, tuple(x * t for x in d.infinite_points), tail)


def _mapped_report(rep: ConditionReport, t: float, v: float) -> ConditionReport:
    """The report the map with coordinates times t and values times v must give."""
    def point(x):
        return tuple(c * t for c in x) if isinstance(x, tuple) else x * t

    def witness(w):
        return None if w is None else (point(w[0]), point(w[1]), w[2])

    return replace(rep, witness_alpha=None if rep.witness_alpha is None else rep.witness_alpha * v,
                   witness_bound=None if rep.witness_bound is None else rep.witness_bound * t,
                   quasiconcave_witness=witness(rep.quasiconcave_witness),
                   log_concave_witness=witness(rep.log_concave_witness))


_STEPS_WITH_SPIKES = [
    UscDensity1D((constant_piece(0.0, 0.5, 2.0 / 3.0), constant_piece(0.5, 1.0, 4.0 / 3.0)),
                 infinite_points=spikes)
    for spikes in [(0.25,), (0.0,), (0.75,), (1.0,), (1.5,), (0.75, 0.9)]]

_FIXED_DENSITIES = [
    *mb.quasiconcave_family().values(), mb.two_bumps(), *map(mb.build, range(1, 13)), JUMP_DOWN,
    *_STEPS_WITH_SPIKES, _SPIKE_AT_MIDPOINT,
    *(_moved(dict(mb.quasiconcave_family(), two_bumps=mb.two_bumps())[name], 1e5)
      for name in ("triangle", "asym_right", "staircase", "two_bumps")),
    unit_mass([sqrt_piece(0.0, 1.0, 1.0, -0.5, 1, 0.0)]),
    unit_mass([affine_piece(-1.0, 0.0, 1.0, 0.5), sqrt_piece(0.0, 1.0, 1.0, 1.0, 1, 0.0)]),
]


@st.composite
def _densities(draw):
    kind = draw(st.sampled_from(["fixed", "random", "grid"]))
    if kind == "fixed":
        return draw(st.sampled_from(_FIXED_DENSITIES))
    if kind == "random":
        return random_piecewise(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                                max_pieces=8)
    shape = draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    cells = draw(st.lists(st.sampled_from([0.0, 1.0, 1.0 + 1e-13, 1.0 + 1e-9, 2.0, 3.0]),
                          min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    assume(sum(cells) > 0)
    origin = draw(st.tuples(*[st.floats(-2.0, 2.0)] * 2))
    spacing = draw(st.tuples(*[st.floats(0.1, 1.0)] * 2))
    return GridDensity.normalized(2, origin, spacing, np.array(cells).reshape(shape))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(d=_densities(), k=st.integers(-20, 20))
def test_shape_checks_are_in_the_density_s_own_units(d, k):
    # t -> 4^k*t, f -> 4^-k*f: every flag stays, every number maps exactly
    t = 4.0 ** k
    v = 1 / t ** 2 if isinstance(d, GridDensity) else 1 / t
    alphas = (0.25, 0.5, 1.0) if getattr(d, "infinite_points", ()) else None
    rep = mb.check_conditions(d, alphas)
    mapped = mb.check_conditions(_mapped(d, k), alphas and [a * v for a in alphas])
    assert mapped == _mapped_report(rep, t, v)


@pytest.mark.parametrize("lo, apex, hi", [(1e4, 1e4 + 0.1, 1e4 + 2), (1e5, 1e5 + 0.3, 1e5 + 1)])
def test_far_asymmetric_triangles_build_and_are_log_concave(lo, apex, hi):
    # each side is written from its foot, and its masses are local: no mass
    # check refuses it, and no rounding of far terms makes a jump at the apex
    rep = mb.check_conditions(mb.asymmetric_triangle(lo, apex, hi))
    assert rep.quasiconcave and rep.log_concave


#: the grid of the breakpoints in _dyadic_density
_Q = 2.0 ** -10


@st.composite
def _dyadic_layouts(draw):
    """Up to five pieces as (gap, width, end weights, foot) in units of _Q:
    constant pieces of weight 1 to 3 and, unless only constant pieces are
    drawn, affine ones with end weights 0 to 3, written from the foot."""
    constant = draw(st.booleans())
    weights = st.integers(1, 3) if constant else st.integers(0, 3)
    layout = draw(st.lists(st.tuples(st.integers(0, 600), st.integers(1, 1024), weights,
                                     weights, st.booleans()), min_size=1, max_size=5))
    assume(sum(w0 + w1 for _, _, w0, w1, _ in layout) > 0)
    return constant, [(g, w, w0, w0 if constant else w1, foot) for g, w, w0, w1, foot in layout]


def _dyadic_density(layout, s: float) -> UscDensity1D:
    """The pieces of a layout from _Q * -2048 on, moved by s, with unit
    mass: every end, t0 included, is a sum that the shift keeps exact."""
    h = 1.0 / sum(w * _Q * (w0 + w1) / 2 for _, w, w0, w1, _ in layout)
    t, pieces = -2048, []
    for gap, w, w0, w1, foot in layout:
        lo, hi = (t + gap) * _Q + s, (t + gap + w) * _Q + s
        t += gap + w
        if w0 == w1:
            pieces.append(constant_piece(lo, hi, w0 * h))
        else:
            t0, a = (lo, w0 * h) if foot else (hi, w1 * h)
            pieces.append(affine_piece(lo, hi, a, (w1 - w0) * h / (hi - lo), t0=t0))
    return UscDensity1D(tuple(pieces))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(drawn=_dyadic_layouts(), m=st.integers(-1023, 1023), j=st.integers(-10, 30),
       k=st.integers(1, 8),
       windows=st.lists(st.tuples(st.integers(-4096, 4096), st.integers(0, 4096)),
                        min_size=1, max_size=8))
def test_answers_move_with_the_density(drawn, m, j, k, windows):
    # t -> t + s with s = m 2^j, |s| < 2^40, and every end on the grid _Q:
    # each sum is exact, so the masses are the same bit for bit.  Constant
    # heights of 1 to 3 units h make window masses h*_Q apart or tied, wider
    # than any tol_value here (at most 2 * 3h * ulp(2^40) = 0.75 h*_Q), so
    # the sets move by exactly s
    constant, layout = drawn
    s = m * 2.0 ** j
    d, moved = _dyadic_density(layout, 0.0), _dyadic_density(layout, s)
    assert moved.total_mass.hex() == d.total_mass.hex()
    for x, width in windows:
        a, b = x * _Q, (x + width) * _Q
        assert moved.integrate(a + s, b + s).hex() == d.integrate(a, b).hex()
    x = np.array([x * _Q for x, _ in windows])
    assert moved._profile.cumulative(x + s).tobytes() == d._profile.cumulative(x).tobytes()

    def flags(rep):
        return rep.level_set_ok, rep.quasiconcave, rep.log_concave, rep.eventually_level_bounded

    assert flags(mb.check_conditions(moved)) == flags(mb.check_conditions(d))
    if not constant:
        return
    loss = mb.LossSpec(2.0 ** k)
    for estimate in (mb.map_estimate, lambda e: mb.bayes_estimate(e, loss)):
        want, got = estimate(d), estimate(moved)
        assert got.sup_value.hex() == want.sup_value.hex()
        assert got.maximizers == tuple((a + s, b + s) for a, b in want.maximizers)
    heights = sorted({p.params["k"] for p in d.pieces})
    for alpha in heights + [0.5 * (x + y) for x, y in zip([0.0] + heights, heights)]:
        want, got = mb.level_set(d, alpha), mb.level_set(moved, alpha)
        assert got.intervals == tuple((a + s, b + s) for a, b in want.intervals)
        assert got.bounded == want.bounded


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


@pytest.mark.parametrize("piece", [
    constant_piece(-1.0, 1.0, 0.5),
    affine_piece(-1.0, 1.0, 0.5, 0.0),
    sqrt_piece(-1.0, 1.0, 0.5, 0.0, 1, -1.0),
], ids=["constant", "flat_affine", "flat_sqrt"])
def test_flat_pieces_are_plateaus(piece):
    # uniform on [-1, 1] whatever formula writes it: its mode set is the
    # whole support, and the ball reports stay in it
    d = UscDensity1D((piece,))
    assert mb.map_estimate(d).maximizers == ((-1.0, 1.0),)
    assert mb.sweep(d, [2.0, 8.0, 32.0, 128.0]).verdict == "converges_to_MAP"


_W = math.sqrt(0.5)

#: flat affine (t0 != 0) and flat sqrt pieces of both orientations between
#: sloped affine pieces and sqrt arcs: a valley just past the flat affine
#: piece, a convex kink at the first flat sqrt piece, and a log-concave one
_FLAT_LAYOUTS = {
    "valley": [
        sqrt_piece(0.0, 1.0, 0.2, 0.5, 1, 0.0),
        affine_piece(1.0, 1.5, 0.3, 0.0, t0=1.25),
        affine_piece(1.5, 2.0, 0.5, -0.4, t0=1.5),
        sqrt_piece(2.0, 2.5, 0.3, 0.0, -1, 2.5),
        sqrt_piece(2.5, 3.0, 0.1, 0.2 / _W, 1, 2.5),
        sqrt_piece(3.0, 3.5, 0.2, 0.0, 1, 3.0),
    ],
    "kink": [
        sqrt_piece(0.0, 1.0, 0.2, 0.5, 1, 0.0),
        affine_piece(1.0, 1.5, 0.7, 0.0, t0=1.25),
        affine_piece(1.5, 2.0, 0.7, -0.4, t0=1.5),
        sqrt_piece(2.0, 2.5, 0.5, 0.0, -1, 2.5),
        sqrt_piece(2.5, 3.0, 0.1, 0.4 / _W, -1, 3.0),
        sqrt_piece(3.0, 3.5, 0.1, 0.0, 1, 3.0),
    ],
    "log_concave": [
        sqrt_piece(0.0, 1.0, 0.2, 0.5, 1, 0.0),
        sqrt_piece(1.0, 1.5, 0.7, 0.0, 1, 1.0),
        sqrt_piece(1.5, 2.0, 0.7, 0.0, -1, 2.0),
        affine_piece(2.0, 2.5, 0.7, -0.8, t0=2.0),
    ],
}


@pytest.mark.parametrize("layout", sorted(_FLAT_LAYOUTS))
def test_flat_piece_of_any_kind_is_a_constant(layout):
    d = unit_mass(_FLAT_LAYOUTS[layout])
    twin = UscDensity1D(tuple(
        constant_piece(p.lo, p.hi, p.params["a"])
        if p.kind != "constant" and p.params["b"] == 0.0 else p
        for p in d.pieces), mass_tol=1e-6)
    assert [p.kind for p in twin.pieces].count("constant") >= 2
    lo, hi = d.support
    mid = 0.5 * (lo + hi)

    def answers(e):
        yield mb.map_estimate(e)
        yield mb.map_estimate(e, (lo - 1.0, hi + 1.0))
        for c in (2.0, 8.0, 64.0, 1000.0):
            yield mb.bayes_estimate(e, mb.LossSpec(c))
        yield mb.check_conditions(e, alpha_grid=[0.1, 0.5, 0.9])
        for alpha in (0.1, 0.25, 0.4, 0.6):
            yield mb.level_set(e, alpha)
        for a, b in ((lo, hi), (0.9, 2.6), (1.1, 1.4), (2.1, 3.4)):
            yield sup_on_interval(e, a, b, closed=True), sup_on_interval(e, a, b, closed=False)
        yield mb.hypo_diagnostic(e, [4.0, 16.0], [(lo, mid)], [(lo, hi), (1.1, 2.4)])
        ts = [x for b in e.breakpoints
              for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]
        yield [e.evaluate(t) for t in ts]
        yield e._profile.evaluate(ts).tolist()

    assert list(answers(d)) == list(answers(twin))


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
    ("near_tie", (1.53125, 1.5625, 1.625)),
])
def test_sweep_grid_1d_follows_the_scans(name, limit_points):
    g = grid_1d(name)
    ladder = [2.0, 4.0, 8.0, 16.0, 32.0]
    tr = mb.sweep(g, ladder)
    lo, hi = g.support[0]
    map_res = mb.map_estimate(g)
    _, map_maxi, map_canonical = grid_mode_scan(g, (lo, hi), map_res.tol_value)
    assert (tr.map_maximizers, tr.map_canonical) == (map_maxi, map_canonical)
    assert tr.cluster_radius == 1e-9  # a distance, fixed apart from any value tolerance
    for c, row in zip(ladder, tr.rows):
        r = 1.0 / c
        res = mb.bayes_estimate(g, mb.LossSpec(c))
        sup, maxi, canonical = grid_window_scan(g, r, (lo - r, hi + r), res.tol_value)
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
    # two_bumps at the edges of its gap and its support: a closed interval
    # takes the envelope at its ends, an open one only the limits inside
    d = mb.two_bumps()
    assert sup_on_interval(d, -0.5, 0.5, closed=True) == 1.2
    assert sup_on_interval(d, -0.5, 0.5, closed=False) == 0.0
    assert sup_on_interval(d, -2.0, -1.0, closed=True) == 1.2
    assert sup_on_interval(d, -2.0, -1.0, closed=False) == 0.0
    assert sup_on_interval(d, 1.0, 3.0, closed=False) == 0.0


def test_sup_on_interval_includes_gap_zero():
    d = mb.two_bumps()
    assert sup_on_interval(d, -0.4, 0.4, closed=True) == 0.0
    assert sup_on_interval(d, -0.6, 0.6) == 1.2
    assert sup_on_interval(d, -0.5, 0.5, closed=False) == 0.0
    assert sup_on_interval(d, 1.0, 3.0, closed=False) == 0.0


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ends=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       spike=st.floats(-3.5, 3.5))
def test_interval_sups_are_the_max_at_ends_and_breakpoints(seed, ends, spike):
    # pieces are monotone, so on an interval with ends off the breakpoints
    # every sup is the largest pointwise value at an end or a breakpoint
    # inside; an infinite point makes it inf where the interval holds it
    lo, hi = sorted(ends)
    assume(lo < hi)
    base = random_piecewise(np.random.default_rng(seed), max_pieces=8)
    d = UscDensity1D(base.pieces, mass_tol=1e-6, infinite_points=(spike,))
    expect = max(base.evaluate(t) for t in (lo, hi, *(b for b in d.breakpoints if lo < b < hi)))
    closed = math.inf if lo <= spike <= hi else expect
    assert sup_on_interval(d, lo, hi, closed=True) == closed
    assert sup_on_interval(d, lo, hi, closed=False) == (math.inf if lo < spike < hi else expect)
    assert mb.map_estimate(d, (lo, hi)).sup_value == closed


def test_hypo_triangle_all_pass():
    rep = mb.hypo_diagnostic(mb.triangle(), [4.0, 10.0, 50.0],
                             closed_intervals=[(-0.5, 0.5), (0.2, 0.9)],
                             open_intervals=[(-0.5, 0.5)])
    assert rep.ok
    closed0 = [r for r in rep.rows if r.kind == "closed" and r.lo == -0.5]
    for r in closed0:
        assert r.sup_smoothed == pytest.approx(1.0 - 1.0 / (2 * r.nu), abs=1e-12)


def test_hypo_open_reference_across_a_jump():
    # r = 1/4: the window [1.0, 1.5] fits the top step exactly, and its
    # inf there is 1.2; any other centre's window meets a lower step
    rep = mb.hypo_diagnostic(mb.staircase(), [4.0], open_intervals=[(0.2, 1.4)])
    (row,) = rep.rows
    assert row.sup_reference == 1.2 and row.ok


def test_hypo_open_rows_across_a_gap():
    # r = 0.1: the open row inside the gap compares with the density's 0
    # there; the one reaching into both bumps has a window inside the
    # taller bump, whose inf is its height
    rep = mb.hypo_diagnostic(mb.two_bumps(), [10.0],
                             open_intervals=[(-0.45, 0.45), (-0.9, 0.9)])
    inside, across = rep.rows
    assert inside.sup_reference == 0.0 and inside.ok
    assert across.sup_reference == 1.2 and across.ok
    assert rep.ok


def test_hypo_open_reference_past_an_infinite_point():
    # a spike lowers no inf: the windows inside the unit step give 1
    rep = mb.hypo_diagnostic(_SPIKE_AT_MIDPOINT, [10.0], open_intervals=[(0.1, 0.9)])
    (row,) = rep.rows
    assert row.sup_reference == 1.0 and row.ok


def test_hypo_open_reference_when_the_ball_outgrows_the_interval():
    # r = 1/4 is wider than (-0.2, 0.2); the centre 0 sees 1 - r at both ends
    rep = mb.hypo_diagnostic(mb.triangle(), [4.0], open_intervals=[(-0.2, 0.2)])
    (row,) = rep.rows
    assert row.sup_reference == 0.75 and row.ok


@pytest.mark.parametrize("nu, reference", [(4, 0.2928932188134524), (256, 0.9116116523516815)])
def test_hypo_open_reference_on_the_cusp(nu, reference):
    # the cusp 1 - sqrt(2|t|) of the escaping construction: the best window
    # is centred, with inf 1 - sqrt(2r) at its ends
    rep = mb.hypo_diagnostic(mb.build(12), [nu], open_intervals=[(-0.4, 0.4)])
    (row,) = rep.rows
    assert row.sup_reference == reference == 1.0 - math.sqrt(2.0) * math.sqrt(1.0 / nu)
    assert row.ok


def test_hypo_rows_on_a_tiny_two_bumps_pass():
    # two_bumps scaled by 2^-10: the closed row's smoothed sup is
    # 1228.800000000001 against a sup of 1228.8, within the search's float error
    d = UscDensity1D((constant_piece(-2.0 ** -10, -2.0 ** -11, 1228.8),
                      constant_piece(2.0 ** -11, 2.0 ** -10, 819.2)))
    box = [(-0.00087890625, 0.00087890625)]
    rep = mb.hypo_diagnostic(d, [13312.0], box, box)
    assert [r.sup_reference for r in rep.rows] == [1228.8, 1228.8]
    assert all(r.ok for r in rep.rows) and rep.ok


def _hypo_boxes(d) -> list[tuple[float, float]]:
    lo, hi = d.support
    w = hi - lo
    return [(lo, hi), (lo + 0.25 * w, lo + 0.75 * w), (lo - 0.125 * w, lo + 0.375 * w),
            (lo + 0.375 * w, lo + 0.4375 * w)]


@st.composite
def _densities_1d(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_FIXED_DENSITIES))
    return random_piecewise(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                            max_pieces=8)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(d=_densities_1d(), k=st.integers(-20, 20))
def test_hypo_rows_are_in_the_density_s_own_units(d, k):
    # t -> 4^k*t, f -> 4^-k*f: every row keeps its verdict, and its sups,
    # reference and slack map by 4^-k exactly
    t = 4.0 ** k
    lo, hi = d.support
    nus = [c / (hi - lo) for c in (2.0, 16.0, 128.0)]
    boxes = _hypo_boxes(d)
    rep = mb.hypo_diagnostic(d, nus, boxes, boxes)
    moved = mb.hypo_diagnostic(_mapped(d, k), [nu / t for nu in nus],
                               [(a * t, b * t) for a, b in boxes],
                               [(a * t, b * t) for a, b in boxes])
    assert moved.ok == rep.ok
    for r, m in zip(rep.rows, moved.rows, strict=True):
        assert (m.kind, m.ok) == (r.kind, r.ok)
        assert (m.sup_smoothed, m.sup_reference, m.slack) == (
            r.sup_smoothed / t, r.sup_reference / t, r.slack / t)


def _steps_2r_wide(seed: int) -> UscDensity1D:
    """Steps on cells 1/8 wide, some left empty: at nu = 16 each cell is as
    wide as a window."""
    heights = np.random.default_rng(seed).choice([0.0, 0.5, 1.0, 2.0], size=8)
    heights[3] = 1.5
    return unit_mass([constant_piece(i / 8, (i + 1) / 8, float(v))
                      for i, v in enumerate(heights) if v > 0.0])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.booleans())
def test_hypo_open_reference_is_the_best_window_inf(seed, steps):
    # the open reference is at least the window inf by pieces at every
    # centre of a dense grid and at every cut, within the row's slack, and
    # the smoothed sup reaches it
    d = (_steps_2r_wide(seed) if steps
         else random_piecewise(np.random.default_rng(seed), max_pieces=8))
    rep = mb.hypo_diagnostic(d, [4.0, 16.0, 64.0], open_intervals=_hypo_boxes(d))
    for row in rep.rows:
        r = 1.0 / row.nu
        cuts = [c for b in d.breakpoints for c in (b - r, b + r) if row.lo <= c <= row.hi]
        for theta in [*np.linspace(row.lo, row.hi, 201).tolist(), *cuts]:
            assert window_inf_by_pieces(d, theta - r, theta + r) <= row.sup_reference + row.slack
        assert row.sup_reference <= row.sup_smoothed + row.slack
        assert row.ok


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
    for nu in (0.0, math.nan):
        with pytest.raises(ValueError, match="scales nu must be positive"):
            mb.hypo_diagnostic(mb.triangle(), [nu], closed_intervals=[(-1, 1)])


def test_hypo_refuses_a_scale_whose_window_overflows():
    # nu = inf has radius 0; at 1e-320 the radius 1/nu overflows, and at
    # 1e-308 the width 2/nu that the averages divide by does
    for nu in (math.inf, 1e-320, 1e-308):
        with pytest.raises(ValueError, match=rf"nu and 2/nu finite, got {nu!r}$"):
            mb.hypo_diagnostic(mb.triangle(), [4.0, nu], [(-0.5, 0.5)], [(-0.5, 0.5)])
    assert mb.hypo_diagnostic(mb.triangle(), [1e-307], [(-0.5, 0.5)], [(-0.5, 0.5)]).ok


def test_a_nan_interval_end_is_refused():
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan)):
        for closed in (True, False):
            with pytest.raises(ValueError, match="NaN"):
                sup_on_interval(mb.triangle(), lo, hi, closed=closed)
        for intervals in ({"closed_intervals": [(lo, hi)]}, {"open_intervals": [(lo, hi)]}):
            with pytest.raises(ValueError, match="NaN"):
                mb.hypo_diagnostic(mb.triangle(), [4.0], **intervals)
