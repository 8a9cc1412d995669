"""The three workloads: a seeded instance list, the timed op, and its check.

Each workload's instance list is one *pass*.  The benchmark runs whole
passes in a seeded order, so every run attempts the same multiset of ops
and the known-fault ops are always the same share of them.  The list
composition puts the median and the 90th percentile of the op time well
inside one size class each (see README.md), so neither percentile sits on
the jump between two classes.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import mapbayes as mb
from mapbayes import cli

import checks


def instance(label: str, size_class: str, known_fault: bool = False, **data):
    """One op's fixed inputs; ``known_fault`` marks the op a named fault fails."""
    return SimpleNamespace(label=label, size_class=size_class, known_fault=known_fault,
                           **data)


class Gaussian1D:
    """Unnormalised Gaussian likelihood exp(-(x - theta)^2 / (2 sigma^2))."""

    def __init__(self, x: float, sigma: float):
        self.x = x
        self.sigma = sigma

    def value(self, theta: float) -> float:
        return math.exp(-0.5 * ((self.x - theta) / self.sigma) ** 2)

    def __call__(self, x, theta):
        return math.exp(-0.5 * ((x - theta) / self.sigma) ** 2)


class Gaussian2D:
    """Isotropic unnormalised Gaussian likelihood around the observation."""

    def __init__(self, obs: tuple[float, float], sigma: float):
        self.obs = obs
        self.sigma = sigma

    def grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        d2 = (xs[:, None] - self.obs[0]) ** 2 + (ys[None, :] - self.obs[1]) ** 2
        return np.exp(-0.5 * d2 / self.sigma ** 2)

    def __call__(self, x, theta):
        return math.exp(-0.5 * ((x[0] - theta[0]) ** 2 + (x[1] - theta[1]) ** 2)
                        / self.sigma ** 2)


# ---------------------------------------------------------------------------
# escape_ladder
# ---------------------------------------------------------------------------


class EscapeLadder:
    """`mapbayes counterexample --nu-max K` in-process, into a scratch directory.

    K = 11 fails every time: the window search groups near-optimal
    candidates with an absolute tolerance of 1e-10 while the ball masses
    shrink like 4^-nu, so the canonical report at rung 11 is the mode and
    the CLI exits 4.
    """

    # ops per pass for each K; p50 falls in the K=5 block, p90 in the K=8 block
    COMPOSITION = {2: 2, 3: 2, 4: 3, 5: 6, 6: 2, 7: 1, 8: 3, 11: 1}
    FAULTY_K = 11

    def __init__(self, seed: int, scratch: Path):
        self.scratch = scratch / "escape_ladder"
        self.instances = [
            instance(f"K={k}", f"K={k}", known_fault=(k == self.FAULTY_K), k=k)
            for k, count in self.COMPOSITION.items() for _ in range(count)]
        self.artifact_bytes = 0

    def prepare(self, inst) -> None:
        self.artifact_bytes = 0
        self.scratch.mkdir(parents=True, exist_ok=True)
        for f in self.scratch.iterdir():
            f.unlink()

    def run(self, inst):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["counterexample", "--nu-max", str(inst.k),
                             "--out", str(self.scratch)])

    def check(self, inst, exit_code) -> list[str]:
        self.artifact_bytes = sum(f.stat().st_size for f in self.scratch.iterdir())
        return checks.check_escape(inst.k, self.scratch, exit_code)


# ---------------------------------------------------------------------------
# posterior_report
# ---------------------------------------------------------------------------


def _normalized(pieces_spec) -> mb.UscDensity1D:
    """Affine pieces (lo, hi, v_lo, v_hi), scaled to unit mass."""
    mass = math.fsum(0.5 * (v0 + v1) * (hi - lo) for lo, hi, v0, v1 in pieces_spec)
    return mb.UscDensity1D(tuple(
        mb.affine_piece(lo, hi, v0 / mass, (v1 - v0) / mass / (hi - lo), t0=lo)
        for lo, hi, v0, v1 in pieces_spec))


def random_tent(rng) -> mb.UscDensity1D:
    """A concave piecewise-linear density, hence log-concave."""
    lo, width = rng.uniform(-2.0, 0.0), rng.uniform(1.0, 4.0)
    knots = lo + width * np.concatenate(([0.0], np.sort(rng.uniform(0.1, 0.9, 3)), [1.0]))
    peak, beta = lo + width * rng.uniform(0.3, 0.7), rng.uniform(0.5, 0.9)
    vals = 1.0 - beta * ((knots - peak) / width) ** 2
    return _normalized([(a, b, va, vb) for a, b, va, vb
                        in zip(knots, knots[1:], vals, vals[1:])])


def random_two_bumps(rng) -> mb.UscDensity1D:
    """Two tents with a gap between them, hence not quasiconcave."""
    lo = rng.uniform(-2.0, 0.0)
    w1, gap, w2 = rng.uniform(0.4, 1.2), rng.uniform(0.2, 0.8), rng.uniform(0.4, 1.2)
    h1, h2 = rng.uniform(0.5, 1.5, 2)
    a, b = lo + w1, lo + w1 + gap
    return _normalized([(lo, lo + w1 / 2, 0.1 * h1, h1), (lo + w1 / 2, a, h1, 0.1 * h1),
                        (b, b + w2 / 2, 0.1 * h2, h2), (b + w2 / 2, b + w2, h2, 0.1 * h2)])


class PosteriorReport:
    """Posterior on 256 cells, then MAP, Bayes report and shape conditions.

    The cost of an op is set by two things the list fixes per class: whether
    ``check_conditions`` runs its 10k log-concavity triples (log-concave
    priors) or stops at the exact quasiconcavity walk, and the number of
    posterior cells a window covers, k = 2r / cell width.  The scale is
    c = 512 / (k * support width), jittered by +-10%, which puts c between
    tens and hundreds.
    """

    CELLS = 256

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng([seed, 2])
        lo_q = rng.uniform(-1.0, -0.6)
        plan = [
            # not log-concave, cheap condition check, k = 4
            ("shape/k4", mb.two_bumps()), ("shape/k4", mb.staircase()),
            ("shape/k4", mb.build(6)),
            *[("shape/k4", random_two_bumps(rng)) for _ in range(3)],
            # log-concave: 10k sampled triples, k = 4
            ("logconcave/k4", mb.triangle()),
            ("logconcave/k4", mb.asymmetric_triangle(lo_q, rng.uniform(-0.4, 0.4), 1.0)),
            ("logconcave/k4", mb.uniform(0.0, rng.uniform(0.5, 2.0))),
            ("logconcave/k4", mb.step()), ("logconcave/k4", mb.ramp()),
            *[("logconcave/k4", random_tent(rng)) for _ in range(5)],
            # log-concave, k = 12
            ("logconcave/k12", mb.triangle()), ("logconcave/k12", mb.ramp()),
            *[("logconcave/k12", random_tent(rng)) for _ in range(2)],
        ]
        self.instances = []
        for size_class, prior in plan:
            pieces_json = prior.to_json()
            lo = min(p["lo"] for p in pieces_json["pieces"])
            hi = max(p["hi"] for p in pieces_json["pieces"])
            width = hi - lo
            k = int(size_class.rsplit("k", 1)[1])
            lik = Gaussian1D(lo + width * rng.uniform(0.2, 0.8), width * rng.uniform(0.3, 0.8))
            c = self.CELLS * 2.0 / (k * width) * rng.uniform(0.9, 1.1)
            self.instances.append(instance(
                f"{size_class} W={width:.2f} c={c:.0f}", size_class, prior=prior,
                prior_json=pieces_json, support=(lo, hi), likelihood=lik, c=c,
                cells=self.CELLS))

    def prepare(self, inst) -> None:
        pass

    def run(self, inst):
        post = mb.posterior(mb.BayesModel(inst.prior, inst.likelihood, inst.likelihood.x),
                            self.CELLS)
        map_res = mb.map_estimate(post)
        bayes_res = mb.bayes_estimate(post, mb.LossSpec(inst.c))
        cond = mb.check_conditions(inst.prior)
        return post, map_res, bayes_res, cond

    def check(self, inst, result) -> list[str]:
        return checks.check_posterior_report(inst, *result)


# ---------------------------------------------------------------------------
# grid2d
# ---------------------------------------------------------------------------


class Grid2D:
    """2D grid prior times a 2D Gaussian likelihood, then the Bayes report.

    Smooth seeded Gaussian bumps on the unit square, so every posterior is
    unimodal, with a ball radius of 0.8 of half a cell.  The radius is the
    same for every grid: the search's cost per disc depends on where discs
    fall against cell edges, so a random radius spreads the times of one
    size class across its neighbours.  The fixed
    160x160 grid with one tall cell fails every time: the 2D search caps its
    coarse scan at 64 points per axis and climbs locally, so its sup is tens
    of times below the mass of the disc that fits inside the tall cell.
    """

    # grids per pass for each side; p50 falls in the 48 block, p90 in the 64 block.
    # The coarse scan has 65x65 points for every side >= 32, so 32 would cost
    # the same as 48 and blur the boundary p50 sits next to.
    COMPOSITION = {16: 3, 24: 3, 48: 8, 64: 5}
    RADIUS_OF_HALF_CELL = 0.8
    TALL = {"n": 160, "cell": (131, 131), "factor": 400.0, "c": 500.0}

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng([seed, 3])
        self.instances = []
        for n, count in self.COMPOSITION.items():
            for _ in range(count):
                mu = rng.uniform(0.25, 0.75, 2)
                s = rng.uniform(0.12, 0.3)
                values = self._bump(n, mu, s)
                lik = Gaussian2D(tuple(rng.uniform(0.3, 0.7, 2)), rng.uniform(0.25, 0.5))
                c = 2.0 * n / self.RADIUS_OF_HALF_CELL
                self.instances.append(self._instance(f"{n}x{n}", values, lik, c))
        t = self.TALL
        values = self._bump(t["n"], (0.5, 0.5), 0.3)
        values[t["cell"]] *= t["factor"]
        self.instances.append(self._instance(
            "tall160", values, Gaussian2D((0.5, 0.5), 0.4), t["c"], known_fault=True))

    @staticmethod
    def _bump(n: int, mu, s: float) -> np.ndarray:
        xs = (np.arange(n) + 0.5) / n
        return np.exp(-0.5 * ((xs[:, None] - mu[0]) ** 2 + (xs[None, :] - mu[1]) ** 2) / s ** 2)

    @staticmethod
    def _instance(size_class, values, lik, c, known_fault=False):
        n = values.shape[0]
        prior = mb.GridDensity.normalized(2, (0.0, 0.0), (1.0 / n, 1.0 / n), values)
        return instance(f"{size_class} c={c:.0f}", size_class, known_fault, prior=prior,
                        prior_values=prior.values.copy(), origin=prior.origin,
                        likelihood=lik, c=c)

    def prepare(self, inst) -> None:
        pass

    def run(self, inst):
        post = mb.posterior(mb.BayesModel(inst.prior, inst.likelihood, inst.likelihood.obs))
        return post, mb.bayes_estimate(post, mb.LossSpec(inst.c))

    def check(self, inst, result) -> list[str]:
        return checks.check_grid2d(inst, *result)


WORKLOADS = {
    "escape_ladder": EscapeLadder,
    "posterior_report": PosteriorReport,
    "grid2d": Grid2D,
}


def build(name: str, seed: int, scratch: Path):
    return WORKLOADS[name](seed, scratch)
