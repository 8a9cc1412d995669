"""Piecewise and gridded densities with upper-semicontinuous pointwise semantics.

A density here is an ordinary nonnegative function, but pointwise values at
piece boundaries are taken as the larger of the one-sided limits (with the
constant 0 outside the support counting as a limit).  That convention makes
the pointwise supremum a max wherever the function is bounded, which is what
the mode-seeking code in :mod:`mapbayes.estimators` relies on.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import DivergentEvidence, ZeroEvidence

__all__ = [
    "Piece",
    "UscDensity1D",
    "GridDensity",
    "BayesModel",
    "posterior",
    "evidence",
    "density_from_json",
    "density_to_json",
]

_KINDS = ("constant", "affine", "sqrt")


@dataclass(frozen=True)
class Piece:
    """One analytic piece of a 1D density on the half-open interval [lo, hi).

    kind selects the formula on the interval:

    * ``constant``: k
    * ``affine``: a + b*(t - t0), with the reference point t0 defaulting to 0
      (the plain a + b*t form)
    * ``sqrt``: a + b*sqrt(s*(t - t0)) with orientation s in {+1, -1}

    All three have closed-form antiderivatives, so window integrals of the
    density are exact up to float rounding.  The affine reference point
    exists for numerical reasons: a steep short ramp far from the origin
    (slopes of 1e14 and widths of 1e-14 occur in the bundled escaping-bump
    density) would cancel catastrophically in the global a + b*t form.
    """

    lo: float
    hi: float
    kind: str
    params: dict

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "params", {
            k: (int(v) if k == "s" else float(v)) for k, v in self.params.items()})
        if not self.lo < self.hi:
            raise ValueError(f"piece needs lo < hi, got [{self.lo}, {self.hi})")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown piece kind {self.kind!r}")
        if self.kind == "sqrt":
            s = self.params["s"]
            if s not in (-1, 1):
                raise ValueError("sqrt piece orientation s must be +1 or -1")
            t0 = self.params["t0"]
            # the radicand s*(t - t0) must be >= 0 on the whole interval
            if s == 1 and t0 > self.lo + 1e-15 * max(1.0, abs(self.lo)):
                raise ValueError("sqrt piece with s=+1 needs t0 <= lo")
            if s == -1 and t0 < self.hi - 1e-15 * max(1.0, abs(self.hi)):
                raise ValueError("sqrt piece with s=-1 needs t0 >= hi")
        lo_v, hi_v = self.endpoint_values()
        if min(lo_v, hi_v) < -1e-12:
            raise ValueError(f"piece is negative on [{self.lo}, {self.hi})")

    # -- pointwise -----------------------------------------------------------

    def value(self, t: float) -> float:
        """Continuous extension of the piece formula to the closed interval."""
        if self.kind == "constant":
            return self.params["k"]
        if self.kind == "affine":
            p = self.params
            return p["a"] + p["b"] * (t - p.get("t0", 0.0))
        p = self.params
        u = p["s"] * (t - p["t0"])
        return p["a"] + p["b"] * math.sqrt(max(u, 0.0))

    def endpoint_values(self) -> tuple[float, float]:
        """Values of the continuous extension at lo and hi.

        Pieces are monotone (constant, affine, or a monotone sqrt arc), so
        these are also the extreme values on the piece.
        """
        return self.value(self.lo), self.value(self.hi)

    def direction(self) -> int:
        """+1 strictly increasing, -1 strictly decreasing, 0 constant."""
        if self.kind == "constant":
            return 0
        if self.kind == "affine":
            b = self.params["b"]
            return 0 if b == 0 else (1 if b > 0 else -1)
        b = self.params["b"]
        if b == 0:
            return 0
        # d/dt sqrt(s*(t-t0)) has the sign of s
        return int(math.copysign(1, b * self.params["s"]))

    # -- integration ---------------------------------------------------------

    def antiderivative(self, t: float) -> float:
        if self.kind == "constant":
            return self.params["k"] * t
        if self.kind == "affine":
            p = self.params
            dt = t - p.get("t0", 0.0)
            return p["a"] * t + 0.5 * p["b"] * dt * dt
        p = self.params
        u = p["s"] * (t - p["t0"])
        return p["a"] * t + p["s"] * (2.0 * p["b"] / 3.0) * max(u, 0.0) ** 1.5

    def integral(self, a: float, b: float) -> float:
        """Integral of the piece formula over [a, b] (caller clips to the piece)."""
        if b <= a:
            return 0.0
        return self.antiderivative(b) - self.antiderivative(a)

    def lipschitz_bound(self, a: float, b: float) -> float:
        """Upper bound on |f'| over [a, b] intersected with the piece; may be inf."""
        a = max(a, self.lo)
        b = min(b, self.hi)
        if b < a:
            return 0.0
        if self.kind == "constant":
            return 0.0
        if self.kind == "affine":
            return abs(self.params["b"])
        p = self.params
        bq = abs(p["b"])
        if bq == 0:
            return 0.0
        # |f'| = |b| / (2 sqrt(u)), largest where the radicand u is smallest
        u_min = (a - p["t0"]) if p["s"] == 1 else (p["t0"] - b)
        if u_min <= 0.0:
            return math.inf
        return bq / (2.0 * math.sqrt(u_min))

    def solve_ge(self, alpha: float) -> list[tuple[float, float]]:
        """Closed subintervals of [lo, hi] where the piece value is >= alpha.

        Pieces are monotone, so the endpoint values bracket the range; they
        are checked first, which keeps float rounding in the interior cut
        (noticeable at very steep slopes) from conjuring slivers where the
        value never actually reaches alpha.
        """
        lo, hi = self.lo, self.hi
        if self.kind == "constant":
            return [(lo, hi)] if self.params["k"] >= alpha else []
        v_lo, v_hi = self.endpoint_values()
        if max(v_lo, v_hi) < alpha:
            return []
        if min(v_lo, v_hi) >= alpha:
            return [(lo, hi)]
        if self.kind == "affine":
            a, b = self.params["a"], self.params["b"]
            if b == 0:
                return [(lo, hi)] if a >= alpha else []
            t_star = self.params.get("t0", 0.0) + (alpha - a) / b
            if b > 0:
                seg = (max(lo, t_star), hi)
            else:
                seg = (lo, min(hi, t_star))
            return [seg] if seg[0] <= seg[1] else []
        p = self.params
        a, b, s, t0 = p["a"], p["b"], p["s"], p["t0"]
        if b == 0:
            return [(lo, hi)] if a >= alpha else []
        # solve b*sqrt(u) >= alpha - a for the radicand u >= 0
        rhs = (alpha - a) / b
        if b > 0:
            u_lo, u_hi = (max(rhs, 0.0) ** 2 if rhs > 0 else 0.0), math.inf
        else:
            if rhs < 0:
                return []
            u_lo, u_hi = 0.0, rhs * rhs
        if s == 1:
            seg = (max(lo, t0 + u_lo), hi if u_hi == math.inf else min(hi, t0 + u_hi))
        else:
            seg = (lo if u_hi == math.inf else max(lo, t0 - u_hi), min(hi, t0 - u_lo))
        return [seg] if seg[0] <= seg[1] else []

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "kind": self.kind, "params": dict(self.params)}

    @staticmethod
    def from_json(obj: dict) -> "Piece":
        return Piece(float(obj["lo"]), float(obj["hi"]), str(obj["kind"]),
                     {k: (int(v) if k == "s" else float(v)) for k, v in obj["params"].items()})


def constant_piece(lo: float, hi: float, k: float) -> Piece:
    return Piece(lo, hi, "constant", {"k": k})


def affine_piece(lo: float, hi: float, a: float, b: float, t0: float = 0.0) -> Piece:
    params = {"a": a, "b": b} if t0 == 0.0 else {"a": a, "b": b, "t0": t0}
    return Piece(lo, hi, "affine", params)


def sqrt_piece(lo: float, hi: float, a: float, b: float, s: int, t0: float) -> Piece:
    return Piece(lo, hi, "sqrt", {"a": a, "b": b, "s": s, "t0": t0})


@dataclass(frozen=True)
class UscDensity1D:
    """A 1D density given by non-overlapping analytic pieces.

    ``evaluate`` applies the boundary convention described in the module
    docstring.  ``mass_tol`` is how far the total mass may sit from 1; the
    default suits exactly normalized constructions, while truncated ones
    (see :mod:`mapbayes.counterexample`) pass a looser value covering the
    mass they deliberately omit.

    ``infinite_points`` marks isolated points where the density is +inf
    (the pointwise sup is then infinite and mode searches report a witness).
    ``tail_height_sup`` declares that the construction continues beyond the
    materialized pieces with plateaus whose heights approach the given value;
    level sets below it are treated as unbounded.
    """

    pieces: tuple[Piece, ...]
    mass_tol: float = 1e-9
    infinite_points: tuple[float, ...] = ()
    tail_height_sup: float | None = None
    _starts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pieces = tuple(sorted(self.pieces, key=lambda p: p.lo))
        if not pieces:
            raise ValueError("a density needs at least one piece")
        for prev, cur in zip(pieces, pieces[1:]):
            if cur.lo < prev.hi - 1e-15 * max(1.0, abs(prev.hi)):
                raise ValueError(f"pieces overlap near t={cur.lo}")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_starts", tuple(p.lo for p in pieces))
        mass = self.total_mass
        if not math.isfinite(mass) or abs(mass - 1.0) > self.mass_tol:
            raise ValueError(f"total mass {mass} is not within {self.mass_tol} of 1")

    @property
    def total_mass(self) -> float:
        return math.fsum(p.integral(p.lo, p.hi) for p in self.pieces)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Sorted distinct piece endpoints (the only discontinuity/kink candidates)."""
        pts = sorted({p.lo for p in self.pieces} | {p.hi for p in self.pieces})
        return tuple(pts)

    @property
    def support(self) -> tuple[float, float]:
        """Smallest interval containing all pieces."""
        return self.pieces[0].lo, max(p.hi for p in self.pieces)

    def _containing(self, t: float) -> list[Piece]:
        # pieces[i - 1] is the last to start at or before t; pieces[i - 2]
        # may end at t, where it meets it
        i = bisect_right(self._starts, t)
        out = []
        for j in (i - 2, i - 1):
            if 0 <= j < len(self.pieces):
                p = self.pieces[j]
                if p.lo <= t <= p.hi:
                    out.append(p)
        return out

    def evaluate(self, t: float) -> float:
        """Pointwise value: the max of one-sided limits at t (0 off support).

        Never negative: the density is nonnegative by construction, and any
        sub-zero float dust a piece formula produces at its edge loses to
        the off-support zero limit anyway.
        """
        if t in self.infinite_points:
            return math.inf
        vals = [p.value(t) for p in self._containing(t)]
        return max(vals) if vals and max(vals) > 0.0 else 0.0

    def __call__(self, t: float) -> float:
        return self.evaluate(t)

    def integrate(self, lo: float, hi: float) -> float:
        """Exact integral over [lo, hi] via per-piece antiderivatives."""
        if hi < lo:
            raise ValueError("integrate needs lo <= hi")
        terms = []
        i = max(bisect_right(self._starts, lo) - 1, 0)
        for p in self.pieces[i:]:
            if p.lo >= hi:
                break
            a, b = max(lo, p.lo), min(hi, p.hi)
            if b > a:
                terms.append(p.integral(a, b))
        return math.fsum(terms)

    def lipschitz_bound(self, lo: float, hi: float) -> float:
        """Bound on |f'| over [lo, hi] ignoring jumps between pieces."""
        return max((p.lipschitz_bound(lo, hi) for p in self.pieces), default=0.0)

    def to_json(self) -> dict:
        return {"pieces": [p.to_json() for p in self.pieces]}

    @staticmethod
    def from_json(obj: dict, **kwargs) -> "UscDensity1D":
        return UscDensity1D(tuple(Piece.from_json(p) for p in obj["pieces"]), **kwargs)


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Cell-constant density on a regular 1D or 2D grid.

    Values live on cells; a point on a cell boundary evaluates to the max of
    the adjacent cell values (0 outside the grid), matching the boundary
    convention of the piecewise class.  The estimators and diagnostics run a
    1D grid on its constant-piece view (:meth:`to_pieces`).
    """

    dim: int
    origin: tuple[float, ...]
    spacing: tuple[float, ...]
    values: np.ndarray
    mass_tol: float = 1e-6
    _pieces: UscDensity1D | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        object.__setattr__(self, "spacing", tuple(float(x) for x in self.spacing))
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if values.ndim != self.dim:
            raise ValueError(f"values must be {self.dim}-dimensional")
        if len(self.origin) != self.dim or len(self.spacing) != self.dim:
            raise ValueError("origin/spacing length must match dim")
        if any(h <= 0 for h in self.spacing):
            raise ValueError("spacing must be positive")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("cell values must be finite and nonnegative")
        mass = self.total_mass
        if abs(mass - 1.0) > self.mass_tol:
            raise ValueError(f"grid mass {mass} is not within {self.mass_tol} of 1")

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def total_mass(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def support(self) -> tuple[tuple[float, float], ...]:
        """Bounding box of the grid, one (lo, hi) pair per axis."""
        return tuple(
            (self.origin[k], self.origin[k] + self.spacing[k] * self.shape[k])
            for k in range(self.dim)
        )

    @staticmethod
    def normalized(dim, origin, spacing, values, **kwargs) -> "GridDensity":
        """Build a grid density rescaled so its Riemann mass is exactly 1."""
        values = np.asarray(values, dtype=float)
        vol = float(np.prod([float(h) for h in np.atleast_1d(spacing)]))
        mass = float(values.sum() * vol)
        if mass <= 0:
            raise ValueError("cannot normalize a grid with zero mass")
        return GridDensity(dim, tuple(np.atleast_1d(origin)), tuple(np.atleast_1d(spacing)),
                           values / mass, **kwargs)

    def _axis_cells(self, k: int, x: float) -> list[int]:
        """Cell indices along axis k whose closed extent contains coordinate x."""
        o, h, n = self.origin[k], self.spacing[k], self.shape[k]
        pos = (x - o) / h
        i = math.floor(pos)
        out = []
        for j in (i - 1, i):
            if 0 <= j < n and o + j * h <= x <= o + (j + 1) * h:
                out.append(j)
        return out

    def evaluate(self, point) -> float:
        coords = (point,) if self.dim == 1 else tuple(point)
        per_axis = [self._axis_cells(k, coords[k]) for k in range(self.dim)]
        return float(max((self.values[ij] for ij in product(*per_axis)), default=0.0))

    def __call__(self, point) -> float:
        return self.evaluate(point)

    def to_pieces(self) -> UscDensity1D:
        """Exact piecewise view of a 1D grid (each cell becomes a constant
        piece), built on the first call and kept for the later ones."""
        if self.dim != 1:
            raise ValueError("to_pieces applies to 1D grids only")
        if self._pieces is None:
            o, h = self.origin[0], self.spacing[0]
            pieces = tuple(
                constant_piece(o + i * h, o + (i + 1) * h, float(v))
                for i, v in enumerate(self.values)
            )
            object.__setattr__(self, "_pieces",
                               UscDensity1D(pieces, mass_tol=max(self.mass_tol, 1e-6)))
        return self._pieces

    def to_json(self) -> dict:
        if self.dim == 1:
            return {"dim": 1, "origin": self.origin[0], "spacing": self.spacing[0],
                    "values": [float(v) for v in self.values]}
        return {"dim": 2, "origin": list(self.origin), "spacing": list(self.spacing),
                "values": [[float(v) for v in row] for row in self.values]}

    @staticmethod
    def from_json(obj: dict, **kwargs) -> "GridDensity":
        dim = int(obj["dim"])
        origin = obj["origin"]
        spacing = obj["spacing"]
        if dim == 1:
            origin = (float(origin),) if np.isscalar(origin) else tuple(origin)
            spacing = (float(spacing),) if np.isscalar(spacing) else tuple(spacing)
        else:
            origin, spacing = tuple(origin), tuple(spacing)
        return GridDensity(dim, origin, spacing, np.asarray(obj["values"], dtype=float), **kwargs)


Density = UscDensity1D | GridDensity


def _pieces_view(d: Density) -> UscDensity1D | None:
    """The density as pieces when it is 1D (a 1D grid as its constant pieces);
    None for a 2D grid.  Every 1D computation runs on this view."""
    if isinstance(d, UscDensity1D):
        return d
    if not isinstance(d, GridDensity):
        raise TypeError(f"unsupported density type {type(d).__name__}")
    return d.to_pieces() if d.dim == 1 else None


def _support_box(d: Density, grow: float = 0.0):
    """Smallest box holding the support, widened by ``grow`` on every side:
    (lo, hi) for a 1D density, ((x0, x1), (y0, y1)) for a 2D grid."""
    pieces = _pieces_view(d)
    if pieces is not None:
        lo, hi = pieces.support
        return lo - grow, hi + grow
    (x0, x1), (y0, y1) = d.support
    return (x0 - grow, x1 + grow), (y0 - grow, y1 + grow)


# ---------------------------------------------------------------------------
# Disc masses on 2D grids, many centres at once
# ---------------------------------------------------------------------------


def _corner_areas(a, b, R: float):
    """Area of the disc of radius R at the origin within {x <= a, y <= b},
    elementwise over broadcast arrays.

    With s the half chord at height b and G the antiderivative of
    sqrt(R^2 - t^2), the part below y = b over |x| <= s gives
    b*(x2 + s) + G(x2) + G(s) with x2 = clip(a, -s, s); for b > 0 the whole
    chords beyond |x| = s add 2*(G(u) + G(R) - G(x2) - G(s)), u = clip(a, -R, R).
    Each sum pairs odd terms, so a corner off the disc gives exactly 0 and
    one past it exactly 4*G(R).
    """
    def G(x):
        return 0.5 * (x * np.sqrt(np.maximum(R * R - x * x, 0.0)) + R * R * np.arcsin(x / R))

    s = np.sqrt(np.maximum(R * R - b * b, 0.0))
    x2 = np.minimum(np.maximum(a, -s), s)
    chords = G(x2) + G(s)
    low = b * (x2 + s) + chords
    return np.where(b > 0.0, low + 2.0 * ((G(np.minimum(np.maximum(a, -R), R)) + G(R)) - chords),
                    low)


def _disc_lattice(g: GridDensity, cx, cy, rho: float):
    """The cells that a square of half-width rho about each centre can meet.

    Returns their vertex offsets from the centres, of shapes (kx + 1, N)
    and (ky + 1, N), and their values (kx, ky, N), which are 0 off the
    grid.  kx and ky depend on rho only, so every centre gets the same
    lattice; the centres run along the last axis, where numpy loops fastest.
    """
    (ox, _), (oy, _) = g.support
    hx, hy = g.spacing
    nx, ny = g.shape
    cx, cy = np.asarray(cx, dtype=float), np.asarray(cy, dtype=float)
    ix = np.floor((cx - rho - ox) / hx).astype(np.int64) + np.arange(
        math.ceil(2.0 * rho / hx) + 2)[:, None]
    iy = np.floor((cy - rho - oy) / hy).astype(np.int64) + np.arange(
        math.ceil(2.0 * rho / hy) + 2)[:, None]
    padded = np.zeros((nx + 2, ny + 2))
    padded[1:-1, 1:-1] = g.values
    vals = padded[np.minimum(np.maximum(ix[:-1] + 1, 0), nx + 1)[:, None, :],
                  np.minimum(np.maximum(iy[:-1] + 1, 0), ny + 1)[None, :, :]]
    return ox + ix * hx - cx, oy + iy * hy - cy, vals


def _lattice_sum(F: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Sum over the cells of their value times the mixed second difference
    of F, given at the vertices, for each centre."""
    cells = F[1:, 1:] - F[:-1, 1:] - F[1:, :-1] + F[:-1, :-1]
    return (cells * vals).sum(axis=(0, 1))


def _disc_masses(g: GridDensity, cx, cy, R: float) -> np.ndarray:
    """Exact mass of a 2D grid in the disc of radius R about each centre:
    each cell's overlap is the mixed second difference of
    :func:`_corner_areas` on the centre's vertex lattice."""
    ex, ey, vals = _disc_lattice(g, cx, cy, R)
    return _lattice_sum(_corner_areas(ex[:, None, :], ey[None, :, :], R), vals)


def density_to_json(d: Density) -> dict:
    return d.to_json()


def density_from_json(obj: dict, **kwargs) -> Density:
    """Dispatch on the JSON shape: piece lists vs grids."""
    if "pieces" in obj:
        return UscDensity1D.from_json(obj, **kwargs)
    if "values" in obj:
        return GridDensity.from_json(obj, **kwargs)
    raise ValueError("density JSON needs either a 'pieces' or a 'values' field")


# ---------------------------------------------------------------------------
# Bayes models and posteriors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BayesModel:
    """Prior + likelihood + one observation.

    ``likelihood(x, theta)`` must be nonnegative.  ``likelihood_constant``
    declares whether it is constant in theta; leave it None to let
    :func:`posterior` decide from the likelihood values at its own grid
    midpoints (the values it multiplies into the prior): the prior comes
    back unchanged exactly when all of them are equal.
    """

    prior: Density
    likelihood: Callable[[object, object], float]
    observation: object
    likelihood_constant: bool | None = None


def _midpoints(origin, spacing, shape):
    """Cell midpoints of a regular grid: an array in 1D, (x, y) pairs in
    row-major order in 2D."""
    if len(shape) == 1:
        return origin[0] + spacing[0] * (np.arange(shape[0]) + 0.5)
    (x0, y0), (hx, hy) = origin, spacing
    return [(x0 + (i + 0.5) * hx, y0 + (j + 0.5) * hy)
            for i in range(shape[0]) for j in range(shape[1])]


def evidence(m: BayesModel, grid_resolution: int = 1024) -> tuple[float, float]:
    """Marginal likelihood by composite midpoint rule, with a doubled-grid check.

    Returns (estimate, error_indicator) where the estimate is Richardson
    extrapolated from the two grids and the indicator is |E_2n - E_n|.  On a
    2D grid prior E_n is the sum over its cells and E_2n splits every cell
    2x2, keeping the cell's prior value (``grid_resolution`` is not used).
    """
    g = m.prior
    if _pieces_view(g) is None:
        def midpoint(k: int) -> float:
            h = (g.spacing[0] / k, g.spacing[1] / k)
            prior = np.repeat(np.repeat(g.values, k, axis=0), k, axis=1)
            points = _midpoints(g.origin, h, prior.shape)
            return h[0] * h[1] * math.fsum(
                v * m.likelihood(m.observation, t)
                for v, t in zip(prior.ravel().tolist(), points)
            )

        e1, e2 = midpoint(1), midpoint(2)
    else:
        lo, hi = _support_box(g)
        def midpoint(n: int) -> float:
            h = (hi - lo) / n
            return h * math.fsum(
                g.evaluate(t) * m.likelihood(m.observation, t)
                for t in _midpoints((lo,), (h,), (n,))
            )

        e1 = midpoint(grid_resolution)
        e2 = midpoint(2 * grid_resolution)
    # midpoint rule is O(h^2); Richardson combination cancels the leading term
    est = e2 + (e2 - e1) / 3.0
    return _check_evidence(est), abs(e2 - e1)


def _check_evidence(est: float) -> float:
    if not math.isfinite(est):
        raise DivergentEvidence(f"evidence quadrature returned {est}")
    if est <= 0.0:
        raise ZeroEvidence("evidence quadrature returned zero")
    return est


def posterior(m: BayesModel, grid_resolution: int = 1024) -> Density:
    """Posterior density of the model.

    The likelihood is evaluated once at each midpoint of the posterior grid:
    the prior's own cells for a grid prior, ``grid_resolution`` cells over
    the support otherwise.  If it does not depend on theta (declared, or all
    midpoint values equal) the prior is returned as-is (same pieces /
    cells).  Otherwise the result is a cell-constant grid with exactly unit
    Riemann mass; zero or non-finite evidence (the Riemann mass of prior
    times likelihood) raises.
    """
    g = m.prior
    if isinstance(g, GridDensity):
        origin, spacing, prior = g.origin, g.spacing, g.values
        points = _midpoints(origin, spacing, prior.shape)
    else:
        lo, hi = g.support
        origin, spacing = (lo,), ((hi - lo) / grid_resolution,)
        points = _midpoints(origin, spacing, (grid_resolution,))
        prior = np.array([g.evaluate(t) for t in points])

    like = np.array([m.likelihood(m.observation, t)
                     for t in (points[:1] if m.likelihood_constant else points)])
    if m.likelihood_constant or (m.likelihood_constant is None
                                 and np.all(like == like[0])):
        if not math.isfinite(like[0]):
            raise DivergentEvidence("constant likelihood is non-finite")
        if like[0] <= 0.0:
            raise ZeroEvidence("constant likelihood is zero")
        return g

    w = prior * like.reshape(prior.shape)
    _check_evidence(float(w.sum()) * float(np.prod(spacing)))
    return GridDensity.normalized(len(origin), origin, spacing, w)
