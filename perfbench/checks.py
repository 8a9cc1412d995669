"""Output checks made apart from the program.

Nothing here calls into ``mapbayes``: each check recomputes what it needs
from closed forms, from the benchmark's own pointwise evaluators, or from
the plain numbers an op returned.  Every check returns a list of problems;
an empty list means the op's output is correct.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# Pointwise oracles
# ---------------------------------------------------------------------------


def escape_density(t: float) -> float:
    """The escaping construction, written from its definition.

    A cusp 1 - sqrt(2|t|) on (-1/2, 1/2), and for each n >= 1 a bump on
    [n - 8^-n, n + 2^-n]: a linear ramp up to 1 - 2^-n, a plateau, and a
    linear ramp down of the same width 8^-n.
    """
    if -0.5 < t < 0.5:
        return 1.0 - math.sqrt(2.0 * abs(t))
    n = round(t)
    if n < 1:
        return 0.0
    ramp, height, top = 8.0 ** -n, 1.0 - 2.0 ** -n, n + 2.0 ** -n
    if n - ramp <= t <= n:
        return height * (t - (n - ramp)) / ramp
    if n <= t <= top - ramp:
        return height
    if top - ramp <= t <= top:
        return height * (top - t) / ramp
    return 0.0


def adaptive_simpson(f, lo: float, hi: float, tol: float, depth: int = 60) -> float:
    """Adaptive Simpson quadrature from pointwise values only."""
    m = 0.5 * (lo + hi)
    fa, fm, fb = f(lo), f(m), f(hi)
    return _simpson(f, lo, hi, fa, fm, fb, (hi - lo) / 6.0 * (fa + 4.0 * fm + fb),
                    tol, depth)


def _simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _simpson(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


class PiecewiseOracle:
    """Pointwise evaluator for a piece list in the program's JSON schema.

    At a piece boundary the value is the larger one-sided limit, and the
    value is zero off the pieces, which is the density convention the
    program documents.
    """

    def __init__(self, pieces_json):
        self.pieces = sorted(
            (float(p["lo"]), float(p["hi"]), p["kind"], dict(p["params"]))
            for p in pieces_json)
        self.starts = [p[0] for p in self.pieces]

    @staticmethod
    def _formula(kind, q, t):
        if kind == "constant":
            return q["k"]
        if kind == "affine":
            return q["a"] + q["b"] * (t - q.get("t0", 0.0))
        return q["a"] + q["b"] * math.sqrt(max(q["s"] * (t - q["t0"]), 0.0))

    def __call__(self, t: float) -> float:
        i = bisect.bisect_right(self.starts, t)
        vals = [self._formula(kind, q, t)
                for lo, hi, kind, q in self.pieces[max(i - 2, 0):i + 1]
                if lo <= t <= hi]
        return max(max(vals, default=0.0), 0.0)

    def profile(self) -> list[float]:
        """One-sided values at every breakpoint, left to right, zeros included.

        Pieces are monotone, so the density is quasiconcave exactly when this
        sequence never rises after it has fallen.
        """
        seq = [0.0]
        prev_hi = None
        for lo, hi, kind, q in self.pieces:
            if prev_hi is not None and lo > prev_hi:
                seq.append(0.0)
            seq += [self._formula(kind, q, lo), self._formula(kind, q, hi)]
            prev_hi = hi
        return seq + [0.0]


def is_unimodal(seq, tol: float) -> bool:
    fallen = False
    for a, b in zip(seq, seq[1:]):
        if b < a - tol:
            fallen = True
        elif b > a + tol and fallen:
            return False
    return True


# ---------------------------------------------------------------------------
# escape_ladder: `mapbayes counterexample --nu-max K`
# ---------------------------------------------------------------------------


def plateau_bound_exact(nu: int) -> Fraction:
    """(1 - 4^-nu)(4^-nu - 64^-nu): the plateau mass of bump 2*nu."""
    return (1 - Fraction(1, 4 ** nu)) * (Fraction(1, 4 ** nu) - Fraction(1, 64 ** nu))


def check_escape(nu_max: int, out: Path, exit_code: int) -> list[str]:
    if exit_code != 0:
        return [f"CLI exited {exit_code}"]
    problems = []
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
    if not (verdict["ok"] is True and verdict["verdict"] == "diverges_from_MAP"
            and verdict["map_canonical"] == 0.0 and verdict["map_sup"] == 1.0
            and verdict["nu_max"] == nu_max):
        problems.append(f"verdict.json is wrong: {verdict}")
    with open(out / "domination.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["nu"]) for r in rows] != list(range(1, nu_max + 1)):
        return problems + ["domination.csv does not list rungs 1..nu_max"]
    for row in rows:
        nu = int(row["nu"])
        canonical, sup = float(row["bayes_canonical"]), float(row["bayes_sup"])
        bound = plateau_bound_exact(nu)
        if abs(canonical) < 0.5:
            problems.append(f"rung {nu}: canonical {canonical} is inside (-1/2, 1/2)")
        if not bound <= Fraction(sup) <= Fraction(1, 4 ** nu):
            problems.append(f"rung {nu}: sup {sup} outside [plateau bound, 2r]")
        # the Simpson tolerance is 1e-13 of the bound; allow ten times that
        r = 0.5 * 4.0 ** -nu
        mass = adaptive_simpson(escape_density, canonical - r, canonical + r,
                                1e-13 * float(bound))
        if mass < float(bound) * (1.0 - 1e-12):
            problems.append(f"rung {nu}: ball mass {mass!r} at the canonical "
                            f"{canonical!r} is below the plateau bound {float(bound)!r}")
        origin = Fraction(1, 4 ** nu) - Fraction(2, 3) / 8 ** nu
        if abs(Fraction(float(row["origin_value"])) - origin) > origin * Fraction(1, 10 ** 14):
            problems.append(f"rung {nu}: origin_value {row['origin_value']} != {float(origin)!r}")
    return problems


# ---------------------------------------------------------------------------
# posterior_report: posterior, MAP, Bayes report and shape conditions in 1D
# ---------------------------------------------------------------------------


def ball_mass_1d(edges: np.ndarray, cum: np.ndarray, values: np.ndarray,
                 r: float, theta: np.ndarray) -> np.ndarray:
    """Mass of the cell density in [theta - r, theta + r] from cumulative masses."""
    def cdf(x):
        j = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(values) - 1)
        inside = cum[j] + values[j] * (x - edges[j])
        return np.where(x <= edges[0], 0.0, np.where(x >= edges[-1], cum[-1], inside))
    return cdf(theta + r) - cdf(theta - r)


def check_posterior_report(inst, post, map_res, bayes_res, cond) -> list[str]:
    problems = []
    prior = PiecewiseOracle(inst.prior_json["pieces"])
    values = np.asarray(post.values, dtype=float)
    n = len(values)
    lo, hi = inst.support
    h = (hi - lo) / n
    if post.dim != 1 or n != inst.cells or post.origin[0] != lo or abs(post.spacing[0] - h) > 1e-15 * h:
        return [f"posterior grid has dim {post.dim}, {n} cells, origin "
                f"{post.origin}, spacing {post.spacing}"]
    if abs(math.fsum(values) * h - 1.0) > 1e-12:
        problems.append(f"posterior mass {math.fsum(values) * h!r} is not 1")

    # Bayes' rule at the cell midpoints: posterior = prior * likelihood / evidence
    mids = lo + h * (np.arange(n) + 0.5)
    w = np.array([prior(t) * inst.likelihood.value(t) for t in mids])
    expect = w / (math.fsum(w) * h)
    if np.max(np.abs(values - expect)) > 1e-12 * np.max(expect):
        problems.append("posterior cells do not follow Bayes' rule")

    if map_res.sup_value != values.max():
        problems.append(f"MAP sup {map_res.sup_value!r} != largest cell {values.max()!r}")

    # Bayes report: the ball-mass function is piecewise linear with kinks at
    # cell edges +- r, so its maximum over the box is taken at a kink
    r = 1.0 / inst.c
    edges = lo + h * np.arange(n + 1)
    cum = np.concatenate(([0.0], np.cumsum(values * h)))
    box_lo, box_hi = lo - r, hi + r
    kinks = np.concatenate((edges - r, edges + r, [box_lo, box_hi]))
    kinks = kinks[(kinks >= box_lo) & (kinks <= box_hi)]
    best = float(np.max(ball_mass_1d(edges, cum, values, r, kinks)))
    if abs(bayes_res.sup_value - best) > 1e-12:
        problems.append(f"Bayes sup {bayes_res.sup_value!r} != exact maximum {best!r}")
    at_canonical = float(ball_mass_1d(edges, cum, values, r, np.array([bayes_res.canonical]))[0])
    if at_canonical < best - bayes_res.tol_value:
        problems.append(f"ball mass {at_canonical!r} at the canonical is more than "
                        f"tol_value below the maximum {best!r}")

    unimodal = is_unimodal(prior.profile(), 1e-9)
    if cond.quasiconcave != unimodal:
        problems.append(f"quasiconcave={cond.quasiconcave}, breakpoint scan says {unimodal}")
    if cond.quasiconcave_witness is not None:
        x, y, lam = cond.quasiconcave_witness
        if not prior(lam * x + (1 - lam) * y) < min(prior(x), prior(y)):
            problems.append(f"quasiconcavity witness {cond.quasiconcave_witness} does not hold")
    if cond.log_concave_witness is not None:
        x, y, lam = cond.log_concave_witness
        if not prior(lam * x + (1 - lam) * y) < prior(x) ** lam * prior(y) ** (1 - lam):
            problems.append(f"log-concavity witness {cond.log_concave_witness} does not hold")
    return problems


# ---------------------------------------------------------------------------
# grid2d: posterior and Bayes report on a 2D grid
# ---------------------------------------------------------------------------


def disc_mass_subdivision(values, origin, spacing, center, r: float, m: int = 200) -> float:
    """Disc mass by the midpoint rule on an m-by-m split of every cell it meets.

    The split follows cell edges, so the only discretisation error is at the
    circle itself.
    """
    (ox, oy), (hx, hy), (cx, cy) = origin, spacing, center
    nx, ny = values.shape
    total = 0.0
    for i in range(max(0, math.floor((cx - r - ox) / hx)), min(nx, math.ceil((cx + r - ox) / hx))):
        for j in range(max(0, math.floor((cy - r - oy) / hy)), min(ny, math.ceil((cy + r - oy) / hy))):
            x0, x1 = max(ox + i * hx, cx - r), min(ox + (i + 1) * hx, cx + r)
            y0, y1 = max(oy + j * hy, cy - r), min(oy + (j + 1) * hy, cy + r)
            if x1 <= x0 or y1 <= y0:
                continue
            dx, dy = (x1 - x0) / m, (y1 - y0) / m
            xs = x0 + dx * (np.arange(m) + 0.5) - cx
            ys = y0 + dy * (np.arange(m) + 0.5) - cy
            inside = np.count_nonzero(xs[:, None] ** 2 + ys[None, :] ** 2 <= r * r)
            total += float(values[i, j]) * inside * dx * dy
    return total


def check_grid2d(inst, post, bayes_res) -> list[str]:
    problems = []
    values = np.asarray(post.values, dtype=float)
    (hx, hy) = post.spacing
    if values.shape != inst.prior_values.shape or post.origin != inst.origin:
        return [f"posterior grid has shape {values.shape}, origin {post.origin}"]
    if abs(math.fsum(values.ravel()) * hx * hy - 1.0) > 1e-12:
        problems.append("posterior mass is not 1")

    nx, ny = values.shape
    xs = inst.origin[0] + hx * (np.arange(nx) + 0.5)
    ys = inst.origin[1] + hy * (np.arange(ny) + 0.5)
    w = inst.prior_values * inst.likelihood.grid(xs, ys)
    expect = w / (math.fsum(w.ravel()) * hx * hy)
    if np.max(np.abs(values - expect)) > 1e-12 * np.max(expect):
        problems.append("posterior cells do not follow Bayes' rule")

    # a disc of radius <= half a cell fits inside the tallest cell
    r = 1.0 / inst.c
    ceiling = float(values.max()) * math.pi * r * r
    sup = bayes_res.sup_value
    if not ceiling - bayes_res.tol_value <= sup <= ceiling * (1.0 + 1e-12):
        problems.append(f"sup {sup!r} is not within tol_value below v_max*pi*r^2 = {ceiling!r}")
    mass = disc_mass_subdivision(values, post.origin, post.spacing, bayes_res.canonical, r)
    if abs(mass - sup) > 2e-3 * sup:
        problems.append(f"disc mass {mass!r} at the canonical disagrees with sup {sup!r}")
    return problems
