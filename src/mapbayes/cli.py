"""Command-line front end.

Every subcommand reads a small JSON config (except ``counterexample``,
which is driven by flags), runs one analysis, and writes deterministic
artifacts into ``--out``: JSON with sorted keys, CSV with 17-significant-
digit floats, no timestamps.  Running a command twice produces
byte-identical files.

Exit codes: 0 success, 2 bad config or usage, 3 domain error (zero
evidence, empty search box, a failed nonconvergence verification, ...),
4 unexpected internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import gallery
from .counterexample import (_MAX_BUMP, DEFAULT_MAX_BUMP, build, sample_curve, scale_ladder,
                             verify_nonconvergence)
from .density import _pieces_view, density_from_json
from .diagnostics import check_conditions, fmt17, hypo_diagnostic, sweep
from .errors import ConfigError, MapBayesError
from .estimators import LossSpec, bayes_estimate, map_estimate

# every gallery density but the family, which is a dict of them
_BUILTINS = {name: getattr(gallery, name) for name in gallery.__all__
             if name != "quasiconcave_family"}
_BUILTINS["counterexample"] = lambda max_bump=DEFAULT_MAX_BUMP: build(_count(max_bump, "max_bump"))


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    found = _refused_at(cfg, "")
    if found is not None:
        raise ConfigError(f"config {path}: {found}")
    return cfg


def _refused_at(node, where: str) -> str | None:
    """Where the first value no config entry takes sits, and what it is: true
    or false (a bool passes for the number 0 or 1), or a number no finite
    float holds (json.load reads NaN, Infinity and 1e400 as nan or inf)."""
    if isinstance(node, bool):
        return f"{where} is {json.dumps(node)}; no config entry takes a boolean"
    if isinstance(node, float) and not math.isfinite(node) or (
            isinstance(node, int) and abs(node) > sys.float_info.max):
        return (f"{where} is not a finite number; no config entry takes NaN, "
                "Infinity or a number past 1.8e308")
    if isinstance(node, dict):
        items = ((f"{where}.{k}" if where else str(k), v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(node))
    else:
        return None
    for place, v in items:
        found = _refused_at(v, place)
        if found is not None:
            return found
    return None


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _density(node):
    """Build a density from a config node: builtin, inline JSON, or file path."""
    if isinstance(node, str):
        node = _load_config(node)
    if not isinstance(node, dict):
        raise ConfigError("density must be an object or a path to a JSON file")
    if "builtin" in node:
        kwargs = {k: v for k, v in node.items() if k != "builtin"}
        name = node["builtin"]
        if name not in _BUILTINS:
            raise ConfigError(
                f"unknown builtin density {name!r}; known: {sorted(_BUILTINS)}")
        try:
            return _BUILTINS[name](**kwargs)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad parameters for builtin {name!r}: {exc}") from exc
    try:
        return density_from_json(node)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad density description: {exc}") from exc


def _floats(node, what: str, n: int | None = None, positive: bool = False) -> list[float]:
    """The floats of ``node``, a JSON list of numbers (n of them if n is given,
    each > 0 if ``positive``), or a ConfigError saying what the field must be.
    Every number is a finite int or float once ``_load_config`` has passed it."""
    if (isinstance(node, list) and n in (None, len(node))
            and all(isinstance(v, (int, float)) and (v > 0 or not positive) for v in node)):
        return [float(v) for v in node]
    raise ConfigError(what)


def _count(n, name: str) -> int:
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"{name} must be an integer N >= 1, got {n!r}")
    return n


def _box(node, d):
    """The search box ``node`` for density d: [lo, hi] in 1D, [[x0, x1], [y0, y1]] in 2D."""
    if node is None:
        return None
    if _pieces_view(d) is not None:
        return tuple(_floats(node, "search must be [lo, hi] for a 1D density", 2))
    shape = "search must be [[x0, x1], [y0, y1]] for a 2D density"
    if not (isinstance(node, list) and len(node) == 2):
        raise ConfigError(shape)
    return tuple(tuple(_floats(v, shape, 2)) for v in node)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_command(cmd):
    """Load ``--config`` and its density, then run ``cmd(cfg, density, args)``."""
    def run(args) -> None:
        cfg = _load_config(args.config)
        cmd(cfg, _density(_require(cfg, "density")), args)
    return run


@_config_command
def _cmd_map(cfg, d, args) -> None:
    box = _box(cfg.get("search"), d)
    res = map_estimate(d, box)
    _write_json(_outdir(args) / "map.json",
                {"search": box, "result": res.to_json()})


@_config_command
def _cmd_bayes(cfg, d, args) -> None:
    [c] = _floats([_require(cfg, "c")], "c must be a positive number", positive=True)
    box = _box(cfg.get("search"), d)
    try:
        loss = LossSpec(c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    res = bayes_estimate(d, loss, box)
    _write_json(_outdir(args) / "bayes.json",
                {"c": c, "radius": loss.radius, "search": box,
                 "result": res.to_json()})


def _parse_ladder(node) -> list[float]:
    if isinstance(node, dict) and set(node) == {"nu_max"}:
        return scale_ladder(_count(node["nu_max"], '"nu_max"'))
    # `or None`: an empty list is no ladder
    return _floats(node or None, 'ladder must be a list of scales or {"nu_max": N}')


@_config_command
def _cmd_sweep(cfg, d, args) -> None:
    ladder = _parse_ladder(_require(cfg, "ladder"))
    box = _box(cfg.get("search"), d)
    try:
        trace = sweep(d, ladder, box)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _outdir(args)
    _write_lines(out / "sweep.csv", trace.csv_lines())
    _write_json(out / "verdict.json", trace.to_json())


@_config_command
def _cmd_check(cfg, d, args) -> None:
    alpha_grid = cfg.get("alpha_grid")
    if alpha_grid is not None:  # passed on as written: witness_alpha echoes an int
        _floats(alpha_grid, "alpha_grid must be a list of numbers")
    report = check_conditions(d, alpha_grid)
    _write_json(_outdir(args) / "conditions.json", report.to_json())


def _parse_intervals(node, key: str) -> list[tuple[float, float]]:
    what = f"{key} must be a list of [lo, hi] pairs"
    if not isinstance(node, list) and node is not None:
        raise ConfigError(what)
    return [tuple(_floats(iv, what, 2)) for iv in node or []]


@_config_command
def _cmd_hypo(cfg, d, args) -> None:
    # `or None`: an empty list is refused too
    nus = _floats(_require(cfg, "nus") or None,
                  "nus must be a non-empty list of positive numbers", positive=True)
    closed = _parse_intervals(cfg.get("closed_intervals"), "closed_intervals")
    opened = _parse_intervals(cfg.get("open_intervals"), "open_intervals")
    try:
        report = hypo_diagnostic(d, nus, closed, opened)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_json(_outdir(args) / "hypo.json", report.to_json())


_DOMINATION_HEADER = ("nu,c,origin_value,plateau_mass_bound,center_value,"
                      "bayes_sup,bayes_canonical")


def _samples_csv(samples: np.ndarray) -> str:
    """The text of ``density_samples.csv``: the header, then one row
    ``theta,value`` per (t, value) sample, both in fmt17's ``"%.17g"``.

    The values come in runs (0 between the bumps, one height along each
    plateau), so each run's value is formatted once, into a row template
    repeated over the run, and the thetas fill the templates in one ``%``.
    A run ends where the value's bit pattern changes, so 0.0 and -0.0, and
    NaNs of different payloads, stay apart.  Takes at least one sample.
    """
    values = samples[:, 1]
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    counts = np.diff(np.r_[starts, len(bits)])
    template = "".join([("%.17g," + fmt17(v) + "\n") * n
                        for v, n in zip(values[starts].tolist(), counts.tolist())])
    return "theta,value\n" + template % tuple(samples[:, 0].tolist())


def _cmd_counterexample(args) -> None:
    if args.nu_max < 2:
        raise ConfigError(f"--nu-max must be at least 2, got {args.nu_max}: "
                          "a one-rung ladder cannot give a verdict")
    if args.max_bump is not None and args.max_bump < 2 * args.nu_max:
        raise ConfigError(f"--max-bump {args.max_bump} is below bump {2 * args.nu_max}, which "
                          f"--nu-max {args.nu_max} needs: rung nu reads bump 2 nu")
    flag, top = (("--nu-max", 2 * args.nu_max) if args.max_bump is None
                 else ("--max-bump", args.max_bump))
    if top > _MAX_BUMP:
        raise ConfigError(f"{flag} asks for bump {top}, past bump {_MAX_BUMP}, the last the "
                          "construction can materialize: from bump 48 on, n + 2^-n rounds to n")
    report = verify_nonconvergence(args.nu_max, args.max_bump)
    out = _outdir(args)
    d = report.density
    _write_json(out / "density.json", d.to_json())
    (out / "density_samples.csv").write_text(
        _samples_csv(sample_curve(d, -1.0, 2 * args.nu_max + 1.0)), encoding="utf-8")
    dom_lines = [_DOMINATION_HEADER]
    for row in report.rows:
        dom_lines.append(",".join(
            [str(row.nu)] + [fmt17(v) for v in (
                row.c, row.origin_value, row.plateau_mass_bound,
                row.center_value, row.bayes_sup, row.bayes_canonical)]))
    _write_lines(out / "domination.csv", dom_lines)
    _write_json(out / "verdict.json", {
        "ok": report.ok,
        "failures": list(report.failures),
        "verdict": report.trace.verdict,
        "map_sup": report.map_sup,
        "map_canonical": report.map_canonical,
        "max_bump": report.max_bump,
        "nu_max": args.nu_max,
        "limit_points": list(report.trace.limit_points),
    })
    _write_lines(out / "sweep.csv", report.trace.csv_lines())
    if not report.ok:
        raise MapBayesError("nonconvergence verification failed: "
                            + ", ".join(report.failures))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapbayes",
        description="Mode vs small-ball Bayes reports for piecewise densities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str, *, config: bool = True):
        p = sub.add_parser(name, help=help_)
        if config:
            p.add_argument("--config", required=True,
                           help="path to the JSON config")
        p.add_argument("--out", default=".",
                       help="output directory (created if missing)")
        p.set_defaults(func=func)
        return p

    add("map", _cmd_map, "locate the density's maximizer set")
    add("bayes", _cmd_bayes, "maximize the ball-mass objective at one scale")
    add("sweep", _cmd_sweep, "run the estimator along a scale ladder")
    add("check", _cmd_check, "level-set and shape condition report")
    add("hypo", _cmd_hypo, "finite-scale sup diagnostics for ball averages")
    ce = add("counterexample", _cmd_counterexample,
             "build and verify the escaping construction", config=False)
    ce.add_argument("--nu-max", type=int, default=6,
                    help="number of ladder rungs to verify")
    ce.add_argument("--max-bump", type=int, default=None,
                    help="bumps to materialize (default: enough for the ladder)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MapBayesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
