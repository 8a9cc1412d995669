"""Piecewise and gridded densities with upper-semicontinuous pointwise semantics.

A density here is an ordinary nonnegative function, but pointwise values at
piece boundaries are taken as the larger of the one-sided limits (with the
constant 0 outside the support counting as a limit).  That convention makes
the pointwise supremum a max wherever the function is bounded, which is what
the mode-seeking code in :mod:`mapbayes.estimators` relies on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import product, repeat
from typing import Callable

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
]


@dataclass(frozen=True)
class Piece:
    """One analytic piece of a 1D density on the half-open interval [lo, hi).

    Every piece is one formula, a + b*g(s*(t - t0)), with g the square root
    for a sqrt arc and the identity otherwise.  kind and params write it:

    * ``constant``: k, that is a = k and b = 0
    * ``affine``: a + b*(t - t0), with the reference point t0 defaulting to 0
      (the plain a + b*t form) and s = 1
    * ``sqrt``: a + b*sqrt(s*(t - t0)) with orientation s in {+1, -1}

    A piece with b = 0 is flat, whatever its kind: its formula is a, and it
    answers every question exactly as the constant piece a does.  Every
    piece has a closed-form mass over a window, taken in a form local to
    the window (:func:`_mass`), so a mass rounds with the sizes of the
    piece's own terms, wherever the piece sits.  The affine reference point
    keeps the terms local too: a steep short ramp far from the origin
    (slopes of 1e14 and widths of 1e-14 occur in the bundled escaping-bump
    density) written a + b*t would have terms that dwarf its values, and
    with t0 at a piece end its terms are its values.

    Only construction reads params: it derives ``_form``, the tuple
    (a, b, s, t0, root) with root set for a sqrt arc that is not flat, and
    every method works from that.
    """

    lo: float
    hi: float
    kind: str
    params: dict
    _form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        p = {k: (v if k == "s" else float(v)) for k, v in self.params.items()}
        if "s" in p:
            # int(1.9) would be 1: take the orientation only when it is exactly +-1
            if p["s"] not in (-1, 1):
                raise ValueError(f"piece orientation s must be +1 or -1, got {p['s']!r}")
            p["s"] = int(p["s"])
        object.__setattr__(self, "params", p)
        if not self.lo < self.hi:
            raise ValueError(f"piece needs lo < hi, got [{self.lo}, {self.hi})")
        if self.kind == "constant":
            form = (p["k"], 0.0, 1, 0.0, False)
        elif self.kind == "affine":
            form = (p["a"], p["b"], 1, p.get("t0", 0.0), False)
        elif self.kind == "sqrt":
            s, t0 = p["s"], p["t0"]
            # the radicand s*(t - t0) must be >= 0 on the whole interval
            if s == 1 and t0 > self.lo + 1e-15 * max(1.0, abs(self.lo)):
                raise ValueError("sqrt piece with s=+1 needs t0 <= lo")
            if s == -1 and t0 < self.hi - 1e-15 * max(1.0, abs(self.hi)):
                raise ValueError("sqrt piece with s=-1 needs t0 >= hi")
            form = (p["a"], p["b"], s, t0, p["b"] != 0.0)
        else:
            raise ValueError(f"unknown piece kind {self.kind!r}")
        object.__setattr__(self, "_form", form)
        lo_v, hi_v = self.endpoint_values()
        a = form[0]  # dust: 1e-12 of the largest terms the formula adds, a and b*g
        if min(lo_v, hi_v) < -1e-12 * (abs(a) + max(abs(lo_v - a), abs(hi_v - a))):
            raise ValueError(f"piece is negative on [{self.lo}, {self.hi})")

    # -- pointwise -----------------------------------------------------------

    def value(self, t: float) -> float:
        """Continuous extension of the piece formula to the closed interval."""
        return _value(self._form, t)

    def endpoint_values(self) -> tuple[float, float]:
        """Values of the continuous extension at lo and hi.

        Pieces are monotone (constant, affine, or a monotone sqrt arc), so
        these are also the extreme values on the piece.
        """
        return self.value(self.lo), self.value(self.hi)

    # -- integration ---------------------------------------------------------

    def integral(self, a: float, b: float) -> float:
        """Integral of the piece formula over [a, b] (caller clips to the piece)."""
        if b <= a:
            return 0.0
        return _mass(self._form, a, b)

    def lipschitz_bound(self, a: float, b: float) -> float:
        """Upper bound on |f'| over [a, b] intersected with the piece; may be inf."""
        _, slope, s, t0, root = self._form
        a, b = max(a, self.lo), min(b, self.hi)
        if b < a or slope == 0.0:
            return 0.0
        if not root:
            return abs(slope)
        # |f'| = |b| / (2 sqrt(u)), largest where the radicand u is smallest
        u_min = (a - t0) if s == 1 else (t0 - b)
        return abs(slope) / (2.0 * math.sqrt(u_min)) if u_min > 0.0 else math.inf

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "kind": self.kind, "params": dict(self.params)}

    @staticmethod
    def from_json(obj: dict) -> "Piece":
        for what, v in [("lo", obj["lo"]), ("hi", obj["hi"]), *obj["params"].items()]:
            _check_numbers(v, f"piece {what}")
        return Piece(obj["lo"], obj["hi"], obj["kind"], obj["params"])


def _value(form, t: float) -> float:
    """The formula a + b*g(s*(t - t0)) of a piece's ``_form`` (a, b, s, t0, root) at t."""
    a, b, s, t0, root = form
    if b == 0.0:
        return a
    if root:
        return a + b * math.sqrt(max(s * (t - t0), 0.0))
    return a + b * (t - t0)


def _mass(form, x: float, y: float) -> float:
    """The integral over [x, y] of a piece's ``_form``, local to the window:
    the width times the value at the midpoint, and for an arc a*(y - x)
    plus the difference of its power terms (2/3)*s*b*u^1.5, which take
    Python's ``**``: numpy's power can differ in the last bit."""
    a, b, s, t0, root = form
    if b == 0.0:
        return a * (y - x)
    if root:
        return a * (y - x) + s * (2.0 * b / 3.0) * (max(s * (y - t0), 0.0) ** 1.5
                                                   - max(s * (x - t0), 0.0) ** 1.5)
    return (y - x) * (a + 0.5 * b * ((x - t0) + (y - t0)))


def _solve_ge(row, alpha: float) -> list[tuple[float, float]]:
    """Closed subintervals of [lo, hi] where the row (lo, hi, form) of a
    piece is >= alpha.  Pieces are monotone, so the end values bracket the
    range; they are checked first, which keeps float rounding in the
    interior cut (noticeable at very steep slopes) from conjuring slivers
    where the value never actually reaches alpha."""
    lo, hi, form = row
    a, b, s, t0, root = form
    if b == 0.0:
        return [(lo, hi)] if a >= alpha else []
    v_lo, v_hi = _value(form, lo), _value(form, hi)
    if max(v_lo, v_hi) < alpha:
        return []
    if min(v_lo, v_hi) >= alpha:
        return [(lo, hi)]
    if not root:
        t_star = t0 + (alpha - a) / b
        seg = (max(lo, t_star), hi) if b > 0 else (lo, min(hi, t_star))
        return [seg] if seg[0] <= seg[1] else []
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


def _check_numbers(node, what: str) -> None:
    """Raise TypeError unless node is an int or a float, not a bool, or a
    list of them to any depth: ``float()`` would take the string "1.0"."""
    if isinstance(node, list):
        for v in node:
            _check_numbers(v, what)
    elif isinstance(node, bool) or not isinstance(node, (int, float)):
        raise TypeError(f"{what} must be a number, got {node!r}")


def _distinct(*parts) -> np.ndarray:
    """The sorted distinct values of the arrays joined into x, as ``sorted(set(x))`` gives
    them: 0.0 and -0.0 count as one, and the stable sort keeps the first in x, as a set does."""
    x = np.concatenate(parts)
    x.sort(kind="stable")
    return x[np.concatenate(([True], x[1:] != x[:-1]))[:x.size]]  # x may be empty


def constant_piece(lo: float, hi: float, k: float) -> Piece:
    return Piece(lo, hi, "constant", {"k": k})


def affine_piece(lo: float, hi: float, a: float, b: float, t0: float = 0.0) -> Piece:
    params = {"a": a, "b": b} if t0 == 0.0 else {"a": a, "b": b, "t0": t0}
    return Piece(lo, hi, "affine", params)


def sqrt_piece(lo: float, hi: float, a: float, b: float, s: int, t0: float) -> Piece:
    return Piece(lo, hi, "sqrt", {"a": a, "b": b, "s": s, "t0": t0})


def _kinds(form: np.ndarray) -> tuple[bool, bool]:
    """The two facts a profile records of its segments' ``_form`` rows (a,
    b, s, t0, root): whether any has a slope (b != 0; a flat affine or sqrt
    piece has none), and whether any is a sqrt arc."""
    return bool(form[1].any()), bool(form[4].any())


def _masses(form: np.ndarray, x: np.ndarray, y: np.ndarray, sloped: bool,
            arcs: bool) -> np.ndarray:
    """:func:`_mass` over [x, y] at each index, of the piece whose ``_form``
    (a, b, s, t0, root) is the column of the five rows at the same index;
    sloped and arcs are :func:`_kinds` of those columns.  With no slope
    every mass is a*(y - x), and form may hold the row a alone."""
    if not sloped:
        return (y - x) * form[0]
    a, b, s, t0, root = form
    m = (y - x) * (a + 0.5 * b * ((x - t0) + (y - t0)))
    if arcs:  # np.where would compute the arcs' power term everywhere
        power = np.maximum(s * (y - t0), 0.0) ** 1.5 - np.maximum(s * (x - t0), 0.0) ** 1.5
        m = np.where(root, a * (y - x) + s * (2.0 * b / 3.0) * power, m)
    return m


@dataclass(frozen=True, eq=False)
class _Profile:
    """A 1D density's profile over the whole line as arrays, one column per
    segment: the pieces in order, and a zero ``filler`` in each gap between
    them and out to -inf and +inf.  Infinite points do not cut a piece.  It
    is the one structure a density builds, and every search, diagnostic
    and value reads it.  Two builders make it: :meth:`of` builds every piece
    density's from its pieces' columns, and :meth:`of_cells` a 1D grid's
    cell view's from the cell edges and heights.  Contiguous constant cells
    have no gap, overlap, slope or arc, so :meth:`of_cells` skips that
    algebra and writes each field in one or two array operations, each the
    float operation :meth:`of` makes on the same constant columns: the two
    profiles agree bit for bit, signed zeros included.

    * ``starts``, ``ends`` and ``form``: each segment's own ends (pieces may
      overlap, but their ends strictly increase) and ``_form`` rows a, b, s, t0, root,
      with t0 = 0 for a flat piece (b = 0);
      ``infinite``: the infinite points.
    * ``sloped`` and ``arcs`` (:func:`_kinds`): whether any segment has a slope, b != 0,
      and whether any is a sqrt arc, decided once.  Every reader skips the algebra of a
      kind the profile lacks: with no slope a value is a, a mass a*(y - x), and the window
      search's F' is constant on each stretch, so it solves no equation.
    * ``breakpoints``: every distinct piece end in order; ``break_values``: ``evaluate``
      there, bit for bit.  Without overlaps they are the segment starts past -inf, at the
      larger of the segment's start value and the end value before (0 on a filler), both
      read off the build's end values; with, the ends sorted distinct, valued by ``evaluate``.
    * ``columns``: the pieces alone, rows lo, hi and ``_form``, one column each.  ``integrate``
      and the one-point ``evaluate`` read as Python floats only the pieces a ``searchsorted``
      finds, the level sets every piece; ``total_mass``: the ``fsum`` of the pieces'
      :meth:`Piece.integral`.
    * ``max_term``: the largest |a| + |b*g| at a piece end, whose ulps the values round by.
    * ``rounding``, ``f_max``: the per-piece terms of
      :func:`mapbayes.argmax._window_error`.  ``f_max`` is a piece's largest
      value.  ``rounding`` bounds in units of eps the error of its mass over
      a window inside it, plus half an eps of the mass for the sum that
      takes it: 4 w (|a| + |b*g|) + 8 P, with w its width, |b*g| the larger
      at its ends, and P an arc's power term (2/3) |b| u^1.5 at the larger
      radicand u = g^2.  To first order an affine mass errs by eps w (1.5 |a|
      + 3 |b*g|), seven roundings, and an arc's by eps (1.5 w |a| + 6.5 P),
      with ``**`` within 1.5 ulps (numpy's can be an ulp off Python's).
    * ``cum``: [0, m_0, m_0 + m_1, ...], the ``np.cumsum`` of the segments'
      masses m_k (:func:`_masses`); they and the per-piece terms are 0 on
      the fillers.
    * ``error``: a bound on |cumulative(b) - cumulative(a) - I| over every
      float window [a, b], with I the exact mass that
      ``UscDensity1D.integrate(a, b)`` rounds, n pieces and S = sum |m_k|.
      The masses in ``cum`` and the two partial masses at the window ends
      are each within eps times their piece's ``rounding``: at most eps *
      (2 max rounding + sum rounding).  Each ``cum`` entry is within
      (n - 1) eps S of the exact sum of its float masses, by the bound on
      recursive summation.  Six more eps S cover the three additions, the
      roundings of the scale product on both sides, and the search's
      threshold.  Where pieces overlap (by 1e-15 relative at most), ``cum``
      counts all of the earlier piece while ``integrate`` skips its tail
      before a: three times the sum of the overlap widths, each times the
      earlier piece's largest |value|, covers both ends.  The same terms
      bound the error of ``integrate`` itself, an ``fsum`` of the masses of
      the pieces a window meets.
    """

    starts: np.ndarray
    ends: np.ndarray
    form: np.ndarray
    sloped: bool
    arcs: bool
    infinite: np.ndarray
    filler: np.ndarray
    breakpoints: np.ndarray
    columns: np.ndarray
    total_mass: float
    max_term: float
    rounding: np.ndarray
    f_max: np.ndarray
    cum: np.ndarray
    error: float
    break_values: np.ndarray = field(init=False)

    @staticmethod
    def of(columns: np.ndarray, infinite_points) -> "_Profile":
        """The profile of pieces given as columns in order of lo, one per
        piece, with rows lo, hi and the ``_form`` a, b, s, t0, root.  A
        filler goes in each gap between them, where a piece starts after the
        one before ends, and out to -inf and +inf."""
        lo, hi, form = columns[0], columns[1], columns[2:]
        a, b, s, t0, root = form
        n = lo.size
        sloped, arcs = _kinds(form)
        # a filler goes before piece at[j]: the first, each gap's, and past the last
        at = np.concatenate(([0], (lo[1:] > hi[:-1]).nonzero()[0] + 1, [n]))
        fill = at + np.arange(at.size)  # the fillers' columns
        filler = np.zeros(n + at.size, dtype=bool)
        filler[fill] = True
        mass = _masses(form, lo, hi, sloped, arcs)
        # numpy's flat and affine masses are Piece.integral's, bit for bit,
        # but an arc's power terms need Python's **
        integral = mass.tolist()
        # g(s*(t - t0)) at lo and hi, so the end values are Piece.value's, bit for bit
        g = columns[:2] - t0
        if arcs:
            j = root.nonzero()[0]
            g[:, j] = np.sqrt(np.maximum(s[j] * g[:, j], 0.0))
            for k, (x, y, *f) in zip(j.tolist(), columns[:, j].T.tolist()):
                integral[k] = _mass(f, x, y)
            g_max = np.abs(g).max(axis=0)
        values = a + b * g
        if sloped:
            bg = np.abs(b * g).max(axis=0)
            terms = np.abs(a) + bg
        else:
            terms = np.abs(a)
        rounding = (hi - lo) * terms
        if arcs:  # an arc's power term, (2/3) |b| u^1.5 at its larger radicand u = g^2
            rounding += 2.0 * np.where(root != 0.0, bg * g_max * g_max / 1.5, 0.0)
        rounding *= 4.0
        total = float(np.abs(mass).sum())
        over = np.maximum(hi[:-1] - lo[1:], 0.0)
        overlaps = over.any()  # then an end lies inside the next piece
        overlap = float(over @ np.abs(values).max(axis=0)[:-1]) if overlaps else 0.0
        error = (sys.float_info.epsilon
                 * (2.0 * float(rounding.max()) + float(rounding.sum()) + (2 * n + 4) * total)
                 + 3.0 * overlap)
        # the rows: lo, hi, the _form rows, rounding, f_max, mass, the values
        # at lo and at hi; a filler is the zero constant piece, _form (0, 0,
        # 1, 0, False), and its per-piece terms are 0: its outer ends are infinite
        table = np.zeros((12, filler.size))
        rows = np.concatenate((columns, [rounding, values.max(axis=0), mass], values))
        table[:, ~filler] = rows
        table[0, fill] = np.concatenate(([-math.inf], hi))[at]
        table[1, fill] = np.concatenate((lo, [math.inf]))[at]
        table[4, fill] = 1.0
        profile = _Profile(table[0], table[1], table[2:7], sloped, arcs,
                           np.array(infinite_points, dtype=float), filler,
                           _distinct(lo, hi) if overlaps else table[0, 1:], rows[:7],
                           math.fsum(integral), float(terms.max()), table[7], table[8],
                           np.concatenate(([0.0], table[9].cumsum())), error)
        t, v, w = profile.breakpoints, table[10, 1:], table[11, :-1]
        object.__setattr__(profile, "break_values", profile.evaluate(t) if overlaps
                           else profile._floored(t, np.where(w > v, w, v)))
        return profile

    @staticmethod
    def of_cells(edges: np.ndarray, heights: np.ndarray) -> "_Profile":
        """:meth:`of` of the constant pieces heights[i] on [edges[i], edges[i + 1]), bit for
        bit, for edges that strictly increase: a filler at each end and none between, and
        the edges as ``breakpoints``.  As in :meth:`of`, a piece's value at an end t is
        a + b*g, here heights[i] + 0.0 * t, which is +0.0 for a -0.0 height where t's sign
        bit is clear; ``rounding`` takes |a|; and ``cum`` adds the masses to the first
        filler's 0.0."""
        n = heights.size
        # the rows: starts, ends, the _form rows a, b, s, t0, root, rounding and f_max
        table = np.zeros((9, n + 2))
        table[0, 0], table[1, -1] = -math.inf, math.inf
        table[0, 1:] = table[1, :-1] = edges
        table[2, 1:-1] = heights
        table[4] = 1.0
        cum = np.zeros(n + 3)  # 0, the first filler's 0, the masses and the last filler's 0
        mass = np.multiply(edges[1:] - edges[:-1], heights, out=cum[2:-1])
        total_mass = math.fsum(mass.tolist())
        size = np.abs(mass)
        rounding = np.multiply(size, 4.0, out=table[7, 1:-1])
        error = sys.float_info.epsilon * (2.0 * float(rounding.max()) + float(rounding.sum())
                                          + (2 * n + 4) * float(size.sum()))
        zero = edges * 0.0
        np.maximum(heights + zero[:-1], heights + zero[1:], out=table[8, 1:-1])
        np.cumsum(cum[1:], out=cum[1:])
        filler = np.zeros(n + 2, dtype=bool)
        filler[0] = filler[-1] = True
        profile = _Profile(table[0], table[1], table[2:7], False, False, np.array((), dtype=float),
                           filler, table[0, 1:], table[:7, 1:-1], total_mass,
                           float(np.abs(heights).max()), table[7], table[8], cum, error)
        # an edge's value is the larger of its two cells' heights, 0 past the ends,
        # and + 0.0 makes a zero of either sign +0.0, as ``_floored`` does
        a = table[2]
        object.__setattr__(profile, "break_values", np.maximum(a[:-1], a[1:]) + 0.0)
        return profile

    def evaluate(self, t) -> np.ndarray:
        """:meth:`UscDensity1D.evaluate` at each t of a 1D array, bit for bit:
        the larger value of the segment holding t and of the one before it
        where that reaches t, by :meth:`_values` in place, which keeps its
        memory to a few arrays of len(t) floats."""
        t = np.asarray(t, dtype=float)
        i = self.starts.searchsorted(t, side="right") - 1
        # the segment before reaches t at its end, or past it where pieces overlap
        k = ((i > 0) & (t <= self.ends[i - 1])).nonzero()[0]
        v = self._values(np.concatenate((i, i[k] - 1)), np.concatenate((t, t[k])))
        v, w = v[:t.size], v[t.size:]
        v[k] = np.where(w > v[k], w, v[k])
        return self._floored(t, v)

    def _values(self, i: np.ndarray, t: np.ndarray) -> np.ndarray:
        """:func:`_value` at each t, bit for bit, of segment i at the same
        index, as a new array: with no slope the heights a, else in place in
        the copy of the segments' columns that ``take`` makes."""
        if not self.sloped:
            return self.form[0].take(i)
        a, b, s, t0, root = self.form.take(i, axis=1)
        g = np.subtract(t, t0, out=t0)
        with np.errstate(invalid="ignore"):  # 0 * inf, where b == 0 picks a
            if self.arcs:
                np.sqrt(np.maximum(s * g, 0.0, out=s), out=s)
                np.copyto(g, s, where=root != 0.0)
            g *= b
            g += a
        np.copyto(g, a, where=b == 0.0)
        return g

    def _floored(self, t: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``evaluate``'s last step, in place on v, the larger one-sided value at
        each t: 0 where v is not positive, and inf at an infinite point."""
        v[~(v > 0.0)] = 0.0
        if self.infinite.size:
            v[np.isin(t, self.infinite)] = math.inf
        return v

    def cumulative(self, x: np.ndarray) -> np.ndarray:
        """G(x) = cum[i] + the mass of segment i over [starts[i], clip(x,
        starts[i], ends[i])] at each x (:func:`_masses`), with segment i the
        one holding x, or the first or last piece for x off the support: an
        outer filler's infinite end would make inf - inf.  The clip of x
        keeps ``np.clip``'s ties: the segment's end wins where it equals x."""
        i = np.minimum(np.maximum(self.starts.searchsorted(x, side="right") - 1, 1),
                       len(self.starts) - 2)
        lo, hi = self.starts[i], self.ends[i]
        x = np.where(x > lo, x, lo)
        x = np.where(x < hi, x, hi)
        form = self.form if self.sloped else self.form[:1]
        return self.cum[i] + _masses(form.take(i, axis=1), lo, x, self.sloped, self.arcs)


@dataclass(frozen=True)
class UscDensity1D:
    """A 1D density given by non-overlapping analytic pieces.

    Piece ends and parameters are finite.  A piece may start before the one
    before it ends, by 1e-15 relative at most, but must end after it: the
    piece ends strictly increase.  ``evaluate`` applies the boundary convention described in the module
    docstring.  ``mass_tol`` is how far the total mass may sit from 1; the
    default suits exactly normalized constructions, while truncated ones
    (see :mod:`mapbayes.counterexample`) pass a looser value covering the
    mass they deliberately omit.

    ``infinite_points`` marks isolated points where the density is +inf
    (the pointwise sup is then infinite and mode searches report a witness).
    ``tail_height_sup`` declares that the construction continues beyond the
    materialized pieces with plateaus whose heights approach the given value;
    level sets below it are treated as unbounded.

    ``_profile`` is the profile over the whole line, one array table built
    with the density (:class:`_Profile`) from its pieces' columns, read off
    them in one pass: the pieces in order and a zero filler in each gap
    between them and out to -inf and +inf.  Every search, diagnostic and
    value reads it alone; only ``to_json``, ``==`` and ``repr`` read
    ``pieces``.  A 1D grid's cell view (:meth:`GridDensity.to_pieces`), built
    with the grid from its cell arrays (:meth:`_of_cells`), builds its pieces
    on first read.
    ``breakpoints`` and ``support`` read the profile's arrays on each call.
    """

    pieces: tuple[Piece, ...]
    mass_tol: float = 1e-9
    infinite_points: tuple[float, ...] = ()
    tail_height_sup: float | None = None
    _profile: _Profile = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pieces = tuple(sorted(self.pieces, key=lambda p: p.lo))
        if not pieces:
            raise ValueError("a density needs at least one piece")
        columns = np.array([(p.lo, p.hi, *p._form) for p in pieces], dtype=float).T
        finite = np.isfinite(columns).all(axis=0)
        if not finite.all():  # a flat piece's mass, a*(hi - lo), would not see t0
            p = pieces[int(finite.argmin())]
            raise ValueError(f"piece on [{p.lo}, {p.hi}) has an end or a parameter that is "
                             "not finite")
        # a flat piece's value a and mass a*(hi - lo) do not see t0: 0 keeps the
        # algebra of a sloped profile from forming (t - t0) with a t0 far out, which overflows
        columns[5, columns[3] == 0.0] = 0.0
        # an overlap past 1e-15 relative (abutting pieces skip the bound), or a
        # piece inside the one before, whose end it does not pass: so the ends increase
        after, before = columns[0, 1:], columns[1, :-1]
        over = np.flatnonzero((after < before)
                              & ((after < before - 1e-15 * np.maximum(1.0, np.abs(before)))
                                 | ~(columns[1, 1:] > before)))
        if over.size:
            raise ValueError(f"pieces overlap near t={after[over[0]]}")
        for t in self.infinite_points:
            if not math.isfinite(t):
                raise ValueError(f"infinite point {t} is not finite: the density is +inf "
                                 "only at isolated finite points")
        object.__setattr__(self, "pieces", pieces)
        self._build(_Profile.of(columns, self.infinite_points))

    @staticmethod
    def _of_cells(edges: np.ndarray, heights: np.ndarray, mass_tol: float) -> "UscDensity1D":
        """The density of the constant pieces heights[i] on [edges[i],
        edges[i + 1]), with its pieces left to be built on first read.  The
        caller has checked what the pieces would: the edges strictly
        increase, and every height is a float >= 0.  Its profile comes
        straight from the two arrays (:meth:`_Profile.of_cells`), the
        profile :meth:`_Profile.of` would build of those pieces, bit for
        bit, without the gap, overlap, slope and arc algebra that
        contiguous constant cells never use."""
        d = object.__new__(UscDensity1D)
        d.__dict__.update(mass_tol=mass_tol, infinite_points=(), tail_height_sup=None)
        d._build(_Profile.of_cells(edges, heights))
        return d

    def _build(self, profile: _Profile) -> None:
        object.__setattr__(self, "_profile", profile)
        mass = self.total_mass
        if not math.isfinite(mass) or abs(mass - 1.0) > self.mass_tol:
            raise ValueError(f"total mass {mass} is not within {self.mass_tol} of 1")

    def __getattr__(self, name: str):
        """Build a cell view's ``pieces`` on first read, one constant piece per cell."""
        profile = self.__dict__.get("_profile")
        if profile is None or name != "pieces":
            raise AttributeError(name)
        pieces = tuple(map(constant_piece, *profile.columns[:3].tolist()))
        object.__setattr__(self, "pieces", pieces)
        return self.pieces

    @property
    def total_mass(self) -> float:
        return self._profile.total_mass

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Sorted distinct piece endpoints (the only discontinuity/kink candidates)."""
        return tuple(self._profile.breakpoints.tolist())

    @property
    def support(self) -> tuple[float, float]:
        """Smallest interval containing all pieces."""
        return self._profile.breakpoints.item(0), self._profile.breakpoints.item(-1)

    def evaluate(self, t: float) -> float:
        """Pointwise value: the max of one-sided limits at t (0 off support).

        The profile's piece columns give one limit, the other where it reaches
        t: piece j, the last to start at or before t, and piece j - 1, or a zero
        filler from the end of piece j on.  Never negative: any sub-zero float
        dust a piece formula makes at its edge loses to the off-support zero.
        """
        if t in self.infinite_points:
            return math.inf
        c = self._profile.columns
        j = int(c[0].searchsorted(t, side="right")) - 1
        if j < 0 or not t <= c.item(1, j):
            return 0.0
        v = _value(c[2:, j].tolist(), t)
        if j and t < c.item(1, j) and t <= c.item(1, j - 1):
            v = max(v, _value(c[2:, j - 1].tolist(), t))
        return v if v > 0.0 else 0.0

    def __call__(self, t: float) -> float:
        return self.evaluate(t)

    def integrate(self, lo: float, hi: float) -> float:
        """Exact integral over [lo, hi], the ``fsum`` of each piece's :func:`_mass` over
        its part of the window, the pieces from the last to start at or before lo to the
        last at or before hi, found by one ``searchsorted`` and alone read as floats.
        Infinite bounds are legal; a NaN bound, like hi < lo, raises ``ValueError``."""
        if not lo <= hi:
            raise ValueError(f"integrate needs lo <= hi, neither NaN; got [{lo!r}, {hi!r}]")
        c = self._profile.columns
        i, j = c[0].searchsorted((lo, hi), side="right").tolist()
        terms = []
        for x, y, a, b, s, t0, root in c[:, max(i - 1, 0):j].T.tolist():
            u, v = max(lo, x), min(hi, y)
            if v > u:
                terms.append(_mass((a, b, s, t0, root), u, v))
        return math.fsum(terms)

    def to_json(self) -> dict:
        return {"pieces": [p.to_json() for p in self.pieces]}

    @staticmethod
    def from_json(obj: dict, **kwargs) -> "UscDensity1D":
        return UscDensity1D(tuple(Piece.from_json(p) for p in obj["pieces"]), **kwargs)


#: how far a grid's Riemann mass may sit from 1
_GRID_MASS_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Cell-constant density on a regular 1D or 2D grid.

    Values live on cells; a point on a cell boundary evaluates to the max of
    the adjacent cell values (0 outside the grid), matching the boundary
    convention of the piecewise class.  The cell edges o + i*h (``_edges``),
    by which every cell lookup goes (``_cells``), must strictly increase
    along each axis: an origin far from 0 with a spacing below its ulp
    collapses them, and is refused.  A 1D grid is built with its
    constant-piece view (:meth:`to_pieces`), on which it evaluates and every
    estimator and diagnostic runs, and is refused where the view's mass over
    the rounded edges is not within the grid's tolerance of 1.  A 2D grid
    keeps its cells with one zero cell around them (``_bordered``), which
    every 2D gather reads by a per-axis index clamped to it.
    """

    dim: int
    origin: tuple[float, ...]
    spacing: tuple[float, ...]
    values: np.ndarray
    _pieces: UscDensity1D | None = field(default=None, init=False, repr=False)
    _edges: tuple = field(default=(), init=False, repr=False)
    _bordered: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # 1.0 == 1 and True == 1, so the type is checked too
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim not in (1, 2):
            raise ValueError(f"dim must be the integer 1 or 2, got {self.dim!r}")
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        object.__setattr__(self, "spacing", tuple(float(x) for x in self.spacing))
        if values.ndim != self.dim:
            raise ValueError(f"values must be {self.dim}-dimensional")
        if len(self.origin) != self.dim or len(self.spacing) != self.dim:
            raise ValueError("origin/spacing length must match dim")
        if any(h <= 0 for h in self.spacing):
            raise ValueError("spacing must be positive")
        if (values < 0).any() or not np.isfinite(values).all():
            raise ValueError("cell values must be finite and nonnegative")
        # each axis's cell edges o + i*h, i = 0..n, bit for bit as the Python float expression
        object.__setattr__(self, "_edges", tuple(
            o + np.arange(n + 1) * h for o, h, n in zip(self.origin, self.spacing, values.shape)))
        for k, edges in enumerate(self._edges):
            if not (edges[1:] > edges[:-1]).all():
                raise ValueError(f"cell edges along axis {k} do not strictly increase: "
                                 f"origin {self.origin[k]}, spacing {self.spacing[k]}")
        mass = self.total_mass
        if abs(mass - 1.0) > _GRID_MASS_TOL:
            raise ValueError(f"grid mass {mass} is not within {_GRID_MASS_TOL} of 1")
        if self.dim == 2:
            object.__setattr__(self, "_bordered", np.zeros(np.add(values.shape, 2)))
            self._bordered[1:-1, 1:-1] = values
            return
        try:  # the Riemann mass passed, so only the rounding of the edges can fail this
            object.__setattr__(self, "_pieces", UscDensity1D._of_cells(
                self._edges[0], values, _GRID_MASS_TOL))
        except ValueError as e:
            raise ValueError(f"cell edges along axis 0 round off their spacing, so the cell view's "
                             f"{e}: origin {self.origin[0]}, spacing {self.spacing[0]}") from None

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

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
    def normalized(dim, origin, spacing, values) -> "GridDensity":
        """Build a grid density rescaled so its Riemann mass is exactly 1."""
        values = np.asarray(values, dtype=float)
        mass = float(values.sum() * math.prod(map(float, np.atleast_1d(spacing))))
        if mass <= 0:
            raise ValueError("cannot normalize a grid with zero mass")
        return GridDensity(dim, tuple(np.atleast_1d(origin)), tuple(np.atleast_1d(spacing)),
                           values / mass)

    def _cells(self, k: int, lo: float, hi: float):
        """The cells along axis k whose closed extent meets [lo, hi], as a slice
        found by the edges, and their extents cut to it, as lists: max(edge,
        lo) and min(edge, hi), each keeping its first argument on a tie.  A
        NaN end, which sorts past every edge, meets no cell."""
        e = self._edges[k]
        i, j = int(e[1:].searchsorted(lo)), int(e[:-1].searchsorted(hi, side="right"))
        e0, e1 = e[i:j], e[i + 1:j + 1]
        return (slice(i, j), np.where(lo > e0, lo, e0).tolist(),
                np.where(hi < e1, hi, e1).tolist())

    def evaluate(self, point) -> float:
        if self.dim == 1:
            return self._pieces.evaluate(point)
        (sx, _, _), (sy, _, _) = (self._cells(k, x, x) for k, x in enumerate(point))
        values = self.values[sx, sy]
        v = float(values.max()) if values.size else 0.0
        return v if v > 0.0 else 0.0  # a -0.0 cell reads 0.0, as on the 1D cell view

    def __call__(self, point) -> float:
        return self.evaluate(point)

    def to_pieces(self) -> UscDensity1D:
        """Exact piecewise view of a 1D grid, each cell a constant piece,
        built with the grid (``_pieces``).  Its profile, the one structure
        every search and diagnostic reads, comes straight from the cell
        arrays, the edges o + i*h and the values, which the grid has checked:
        its edges strictly increase and its values are finite and
        nonnegative.  No :class:`Piece` is made until ``pieces`` is first
        read, by ``to_json``, ``==`` or ``repr``."""
        if self.dim != 1:
            raise ValueError("to_pieces applies to 1D grids only")
        return self._pieces

    def to_json(self) -> dict:
        if self.dim == 1:
            return {"dim": 1, "origin": self.origin[0], "spacing": self.spacing[0],
                    "values": [float(v) for v in self.values]}
        return {"dim": 2, "origin": list(self.origin), "spacing": list(self.spacing),
                "values": [[float(v) for v in row] for row in self.values]}

    @staticmethod
    def from_json(obj: dict) -> "GridDensity":
        for what in ("origin", "spacing", "values"):
            _check_numbers(obj[what], f"grid {what}")
        # a 1D grid may give its origin and spacing as bare numbers
        origin, spacing = (tuple(x) if isinstance(x, list) else (x,)
                           for x in (obj["origin"], obj["spacing"]))
        return GridDensity(obj["dim"], origin, spacing, np.asarray(obj["values"], dtype=float))


Density = UscDensity1D | GridDensity


def _pieces_view(d: Density) -> UscDensity1D | None:
    """The density as pieces when it is 1D (a 1D grid as its constant-piece view, which
    a 2D grid has as None).  Every 1D computation runs on this view."""
    if isinstance(d, UscDensity1D):
        return d
    if not isinstance(d, GridDensity):
        raise TypeError(f"unsupported density type {type(d).__name__}")
    return d._pieces


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

    # |b| is clipped to R, past which the half chord is 0, so a far b makes no overflow
    s = np.sqrt(R * R - np.minimum(np.abs(b), R) ** 2)
    x2 = np.minimum(np.maximum(a, -s), s)
    chords = G(x2) + G(s)
    low = b * (x2 + s) + chords
    return np.where(b > 0.0, low + 2.0 * ((G(np.minimum(np.maximum(a, -R), R)) + G(R)) - chords),
                    low)


def _lattice_cells(rho: float, h: float, n: int) -> int:
    """The cells of :func:`_disc_lattice` for two centres or more along an
    axis of n cells of width h."""
    return min(math.ceil(2.0 * rho / h) + 1, n + 2)


def _disc_lattice(g: GridDensity, cx: np.ndarray, cy: np.ndarray, rho: float):
    """The cells that a square of half-width rho about each centre can meet.

    Returns their vertex offsets from the centres, of shapes (kx + 1, N)
    and (ky + 1, N), and their values (kx, ky, N), which are 0 off the
    grid.  kx and ky depend on rho only, so every centre gets the same
    lattice; the centres run along the last axis, where numpy loops fastest.
    A lattice wholly off the grid is moved to just off it before its index
    is cast, so a centre far off reads zeros, not an index that wraps.

    For two centres or more, an axis is capped at its n cells and one zero
    border cell on each side: where the k = ceil(2 rho / h) + 1 cells of the
    square's lattice pass n + 2, its vertices are its two ends and the n + 1
    in a row from the first past its start that is 0 or more, or as many
    less as keep the end after them.  So every grid cell it meets stays a
    cell of its own, and on each side the zero cells past them merge into
    one, which meets an annulus exactly where one of them does, so the
    ring of :func:`mapbayes.argmax._box_bounds` still counts their 0.
    numpy sums such a batch term by term in lattice order, where the
    merged zeros change no sum.  A lone centre keeps the whole lattice:
    numpy sums its terms pairwise, so merging would regroup them and could
    move its mass in the last bit.
    """
    def axis(c, o, h, n):
        k = math.ceil(2.0 * rho / h) + 1
        first = np.minimum(np.maximum(np.floor((c - rho - o) / h), -k), n).astype(np.int64)
        if c.size > 1 and _lattice_cells(rho, h, n) < k:
            start = np.minimum(np.maximum(first + 1, 0), first + (k - n - 1))
            i = np.concatenate((first[None], start + np.arange(n + 1)[:, None], (first + k)[None]))
        else:
            i = first + np.arange(k + 1)[:, None]
        return o + i * h - c, np.minimum(np.maximum(i[:-1] + 1, 0), n + 1)

    (ex, ix), (ey, iy) = (axis(c, o, h, n) for c, o, h, n in
                          zip((cx, cy), g.origin, g.spacing, g.shape))
    return ex, ey, g._bordered[ix[:, None, :], iy[None, :, :]]


def _lattice_sum(F: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Sum over the cells of their value times the mixed second difference
    of F, given at the vertices, for each centre."""
    cells = F[1:, 1:] - F[:-1, 1:] - F[1:, :-1] + F[:-1, :-1]
    return (cells * vals).sum(axis=(0, 1))


def _disc_masses(g: GridDensity, cx, cy, R: float) -> np.ndarray:
    """Exact mass of a 2D grid in the disc of radius R about each centre,
    which must be finite: each cell's overlap is the mixed second
    difference of :func:`_corner_areas` on the centre's vertex lattice."""
    cx, cy = np.asarray(cx, dtype=float), np.asarray(cy, dtype=float)
    finite = np.isfinite(cx) & np.isfinite(cy)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"a disc centre must be finite, got ({float(cx[k])!r}, {float(cy[k])!r})")
    ex, ey, vals = _disc_lattice(g, cx, cy, R)
    return _lattice_sum(_corner_areas(ex[:, None, :], ey[None, :, :], R), vals)


def density_from_json(obj: dict, **kwargs) -> Density:
    """Dispatch on the JSON shape: piece lists vs grids (the keywords are for pieces)."""
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

    ``likelihood(x, theta)`` must be nonnegative: a NaN or negative value raises
    ``ValueError``, and +inf makes the evidence diverge.  It gets the observation
    as x and one point as theta: a Python ``float`` in 1D, a tuple of two in
    2D, never a numpy scalar, so a division by zero raises in both dims.
    :func:`posterior` and :func:`evidence` call it once per cell midpoint of
    their grids, in row-major order, and do not keep the points.
    :func:`posterior` returns the prior unchanged exactly when the
    likelihood values at its own grid midpoints (the values it multiplies
    into the prior) are all equal.
    """

    prior: Density
    likelihood: Callable[[object, object], float]
    observation: object


def _midpoints(origin, spacing, shape) -> list[np.ndarray]:
    """Cell midpoints o + (i + 0.5)*h of a regular grid, one array per axis."""
    return [o + (np.arange(n) + 0.5) * h for o, h, n in zip(origin, spacing, shape)]


def _check_resolution(n) -> None:  # 1.5 makes cells past the support, and True == 1
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"grid_resolution must be a positive int, got {n!r}")


def _likelihood_at(m: BayesModel, axes) -> np.ndarray:
    """The likelihood of the observation at each point of the grid with these axes, as
    floats: one call per point, in row-major order, with the points streamed from the axes
    and not kept.  ``ValueError`` names the first point where it is NaN or negative, rebuilt
    from its flat index."""
    axes = [x.tolist() for x in axes]
    shape = tuple(map(len, axes))
    points = axes[0] if len(axes) == 1 else product(*axes)
    like = np.fromiter(map(m.likelihood, repeat(m.observation), points), float, math.prod(shape))
    if not (like >= 0.0).all():
        i = int((like >= 0.0).argmin())
        point = tuple(x[k] for x, k in zip(axes, np.unravel_index(i, shape)))
        raise ValueError(f"likelihood at {point[0] if len(axes) == 1 else point!r} is "
                         f"{float(like[i])!r}, not >= 0")
    return like


def evidence(m: BayesModel, grid_resolution: int = 1024) -> tuple[float, float]:
    """Marginal likelihood by composite midpoint rule, with a doubled-grid check.

    Returns (estimate, error_indicator) where the estimate is Richardson
    extrapolated from the two grids and the indicator is |E_2n - E_n|.  No
    cell of E_n crosses a jump of the prior, and E_2n splits each in two
    (2x2 in 2D).  On a 2D grid prior E_n takes its cells (``grid_resolution``
    is not used); in 1D it cuts each piece (each cell of a 1D grid) into
    max(1, round(grid_resolution * width / support width)) equal cells, and
    the gaps between pieces get none.  Bad input raises as in :func:`posterior`.
    """
    _check_resolution(grid_resolution)
    g = m.prior
    pieces = _pieces_view(g)
    if pieces is None:
        def midpoint(k: int) -> float:
            h = (g.spacing[0] / k, g.spacing[1] / k)
            prior = np.repeat(np.repeat(g.values, k, axis=0), k, axis=1)
            like = _likelihood_at(m, _midpoints(g.origin, h, prior.shape))
            return h[0] * h[1] * math.fsum((prior.ravel() * like).tolist())
    else:
        p = pieces._profile
        lo, hi = p.columns[0], p.columns[1]
        cuts = np.maximum(1, np.rint(grid_resolution * (hi - lo) / (hi[-1] - lo[0]))).astype(int)

        def midpoint(k: int) -> float:
            n = k * cuts
            h = np.repeat((hi - lo) / n, n)
            # cell j of a piece has its midpoint at lo + (j + 0.5) * h
            j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
            points = np.repeat(lo, n) + (j + 0.5) * h
            return math.fsum((h * p.evaluate(points) * _likelihood_at(m, [points])).tolist())
    e1, e2 = midpoint(1), midpoint(2)
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
    the support otherwise.  If all those values are equal the prior is
    returned as-is (same pieces / cells).  Otherwise the result is a
    cell-constant grid with exactly unit Riemann mass; zero or non-finite
    evidence (the Riemann mass of prior times likelihood) raises, and so do, with
    ``ValueError``, a ``grid_resolution`` not a positive int and a NaN or negative likelihood.
    """
    _check_resolution(grid_resolution)
    g = m.prior
    if isinstance(g, GridDensity):
        origin, spacing, prior = g.origin, g.spacing, g.values
        axes = _midpoints(origin, spacing, prior.shape)
    else:
        lo, hi = g.support
        origin, spacing = (lo,), ((hi - lo) / grid_resolution,)
        axes = _midpoints(origin, spacing, (grid_resolution,))
        prior = g._profile.evaluate(axes[0])

    like = _likelihood_at(m, axes)
    if (like == like[0]).all():
        if not math.isfinite(like[0]):
            raise DivergentEvidence("constant likelihood is non-finite")
        if like[0] <= 0.0:
            raise ZeroEvidence("constant likelihood is zero")
        return g

    w = prior * like.reshape(prior.shape)
    mass = _check_evidence(float(w.sum()) * math.prod(spacing))  # GridDensity.normalized's mass
    return GridDensity(len(origin), origin, spacing, w / mass)
