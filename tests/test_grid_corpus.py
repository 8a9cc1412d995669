"""The grid lookups, pinned bit for bit on a corpus of random 1D and 2D grids.

Each case draws one grid from ``random.Random(case)``, with its values
normalized in Python floats, so that no NumPy stream or sum decides the
bytes.  Origins run from -0.0 to 1e9 in size, so some cell edges o + i*h
round far from i*h.  The answers of ``evaluate`` (at every cell edge, its
float neighbours, a point inside each cell, +-inf and NaN),
``map_estimate`` (the default box and boxes cut from those points),
``level_set`` (at each cell value and its float neighbours) and
``check_conditions`` are written as ``repr`` lines and hashed as one
sha256.  A grid whose 1D cell view is refused, its mass over the rounded
cell edges too far from 1, gives one line that says so.
"""

import hashlib
import math
import random

import mapbayes as mb
from mapbayes import GridDensity

_CASES = 400
_SHA256 = "7a521d85ddc0c078e783cfae2347c268be58079339d2543eb544e4af128da845"


def _origin(rng: random.Random) -> float:
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((0.0, -0.0))
    if kind == 1:
        return rng.uniform(-5.0, 5.0)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(3.0, 9.0)


def _spacing(rng: random.Random) -> float:
    return 2.0 ** rng.randint(-8, 2) if rng.random() < 0.5 else 10.0 ** rng.uniform(-5.0, 1.0)


def grid_case(case: int):
    """The grid of a case, its edges per axis as Python floats o + i*h, and the rng."""
    rng = random.Random(case)
    dim = rng.choice((1, 2))
    shape = [rng.randint(1, 10 if dim == 1 else 4) for _ in range(dim)]
    origin = [_origin(rng) for _ in range(dim)]
    spacing = [_spacing(rng) for _ in range(dim)]
    # a few levels, so cells tie, and zero cells
    levels = [0.0] + [rng.uniform(0.1, 2.0) for _ in range(rng.randint(1, 4))]
    raw = [rng.choice(levels) for _ in range(math.prod(shape))]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1.0
    mass = math.fsum(raw) * math.prod(spacing)
    flat = [v / mass for v in raw]
    values = flat if dim == 1 else [flat[i * shape[1]:(i + 1) * shape[1]] for i in range(shape[0])]
    edges = [[o + i * h for i in range(n + 1)] for o, h, n in zip(origin, spacing, shape)]
    return GridDensity(dim, tuple(origin), tuple(spacing), values), edges, rng


def _points(edges: list[float], rng: random.Random) -> list[float]:
    """Every edge, its float neighbours and a point inside each cell, then -inf, inf and NaN."""
    out = [x for e in edges for x in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
    out += [rng.uniform(a, b) for a, b in zip(edges, edges[1:])]
    return out + [-math.inf, math.inf, math.nan]


def _side(points: list[float], rng: random.Random) -> tuple[float, float]:
    a, b = rng.choice(points[:-1]), rng.choice(points[:-1])  # no NaN end
    return (a, b) if a <= b else (b, a)


def case_lines(case: int) -> list[str]:
    try:
        g, edges, rng = grid_case(case)
        if g.dim == 1:
            g.to_pieces()
    except ValueError:
        return [f"{case} refused"]
    lines = [f"{case} grid {g.origin!r} {g.spacing!r} {g.shape!r}"]
    axes = [_points(e, rng) for e in edges]
    if g.dim == 1:
        points = axes[0]
    else:
        # every cell corner, and each axis's points against the other's in a shuffled order
        xs, ys = axes
        points = [(x, y) for x in edges[0] for y in edges[1]]
        for mine, other, flip in ((xs, ys, False), (ys, xs, True)):
            other = rng.sample(other, len(other))
            pairs = [(p, other[i % len(other)]) for i, p in enumerate(mine)]
            points += [(q, p) for p, q in pairs] if flip else pairs
    lines += [f"{case} evaluate {p!r} {g.evaluate(p)!r}" for p in points]
    boxes = [None]
    for _ in range(3):
        sides = [_side(a, rng) for a in axes]
        boxes.append(sides[0] if g.dim == 1 else tuple(sides))
    lines += [f"{case} map {box!r} {mb.map_estimate(g, box)!r}" for box in boxes]
    heights = sorted(set(g.values.ravel().tolist()))
    alphas = [a for v in heights
              for a in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
    lines += [f"{case} level_set {a!r} {mb.level_set(g, a)!r}" for a in alphas]
    lines.append(f"{case} check {mb.check_conditions(g)!r}")
    return lines


def corpus_lines() -> list[str]:
    return [line for case in range(_CASES) for line in case_lines(case)]


def test_grid_answers_are_pinned():
    lines = corpus_lines()
    assert not [line for line in lines if "np." in line], "an answer holds a numpy scalar"
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _SHA256, f"{len(lines)} lines hash to {digest}"
