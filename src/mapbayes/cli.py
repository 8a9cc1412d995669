"""Command-line front end.

Every subcommand reads a small JSON config (except ``counterexample``,
which is driven by flags), runs one analysis, and writes deterministic
artifacts into ``--out``: JSON with sorted keys, CSV with 17-significant-
digit floats, no timestamps.  Running a command twice produces
byte-identical files.

Exit codes: 0 success, 2 bad config or usage, 3 domain error (zero
evidence, empty search box, ...), 4 unexpected internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import gallery
from .counterexample import (DEFAULT_MAX_BUMP, build, sample_curve, scale_ladder,
                             verify_nonconvergence)
from .density import density_from_json
from .diagnostics import (
    SWEEP_CSV_HEADER,
    check_conditions,
    fmt17,
    hypo_diagnostic,
    sweep,
)
from .errors import ConfigError, MapBayesError
from .estimators import LossSpec, bayes_estimate, map_estimate

_BUILTINS = {
    "uniform": gallery.uniform,
    "triangle": gallery.triangle,
    "asymmetric_triangle": gallery.asymmetric_triangle,
    "step": gallery.step,
    "ramp": gallery.ramp,
    "staircase": gallery.staircase,
    "two_bumps": gallery.two_bumps,
    "counterexample": lambda max_bump=DEFAULT_MAX_BUMP: build(int(max_bump)),
}


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
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _density(node):
    """Build a density from a config node: builtin, inline JSON, or file path."""
    if isinstance(node, str):
        payload = _load_config(node)
        node = payload
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
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad parameters for builtin {name!r}: {exc}") from exc
    try:
        return density_from_json(node)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad density description: {exc}") from exc


def _box(node):
    if node is None:
        return None
    try:
        if (isinstance(node, (list, tuple)) and len(node) == 2
                and all(isinstance(v, (int, float)) for v in node)):
            return (float(node[0]), float(node[1]))
        if (isinstance(node, (list, tuple)) and len(node) == 2
                and all(isinstance(v, (list, tuple)) and len(v) == 2 for v in node)):
            return tuple((float(v[0]), float(v[1])) for v in node)
    except (TypeError, ValueError):
        pass
    raise ConfigError("search must be [lo, hi] or [[x0, x1], [y0, y1]]")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_map(args) -> None:
    cfg = _load_config(args.config)
    d = _density(_require(cfg, "density"))
    box = _box(cfg.get("search"))
    res = map_estimate(d, box)
    _write_json(_outdir(args) / "map.json",
                {"search": box, "result": res.to_json()})


def _cmd_bayes(args) -> None:
    cfg = _load_config(args.config)
    d = _density(_require(cfg, "density"))
    c = _require(cfg, "c")
    if not isinstance(c, (int, float)) or not c > 0:
        raise ConfigError("c must be a positive number")
    box = _box(cfg.get("search"))
    loss = LossSpec(float(c))
    res = bayes_estimate(d, loss, box)
    _write_json(_outdir(args) / "bayes.json",
                {"c": float(c), "radius": loss.radius, "search": box,
                 "result": res.to_json()})


def _parse_ladder(node) -> list[float]:
    if isinstance(node, dict) and set(node) == {"nu_max"}:
        return scale_ladder(int(node["nu_max"]))
    if isinstance(node, (list, tuple)) and node and all(
            isinstance(v, (int, float)) for v in node):
        return [float(v) for v in node]
    raise ConfigError('ladder must be a list of scales or {"nu_max": N}')


def _cmd_sweep(args) -> None:
    cfg = _load_config(args.config)
    d = _density(_require(cfg, "density"))
    ladder = _parse_ladder(_require(cfg, "ladder"))
    box = _box(cfg.get("search"))
    try:
        trace = sweep(d, ladder, box)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _outdir(args)
    _write_lines(out / "sweep.csv", trace.csv_lines())
    _write_json(out / "verdict.json", trace.to_json())


def _cmd_check(args) -> None:
    cfg = _load_config(args.config)
    d = _density(_require(cfg, "density"))
    alpha_grid = cfg.get("alpha_grid")
    if alpha_grid is not None and not (
            isinstance(alpha_grid, list)
            and all(isinstance(v, (int, float)) for v in alpha_grid)):
        raise ConfigError("alpha_grid must be a list of numbers")
    report = check_conditions(d, alpha_grid)
    _write_json(_outdir(args) / "conditions.json", report.to_json())


def _parse_intervals(node, key: str) -> list[tuple[float, float]]:
    if node is None:
        return []
    ok = (isinstance(node, list) and all(
        isinstance(iv, (list, tuple)) and len(iv) == 2
        and all(isinstance(v, (int, float)) for v in iv) for iv in node))
    if not ok:
        raise ConfigError(f"{key} must be a list of [lo, hi] pairs")
    return [(float(a), float(b)) for a, b in node]


def _cmd_hypo(args) -> None:
    cfg = _load_config(args.config)
    d = _density(_require(cfg, "density"))
    nus = _require(cfg, "nus")
    if not (isinstance(nus, list) and nus
            and all(isinstance(v, (int, float)) and v > 0 for v in nus)):
        raise ConfigError("nus must be a non-empty list of positive numbers")
    closed = _parse_intervals(cfg.get("closed_intervals"), "closed_intervals")
    opened = _parse_intervals(cfg.get("open_intervals"), "open_intervals")
    try:
        report = hypo_diagnostic(d, [float(v) for v in nus], closed, opened)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_json(_outdir(args) / "hypo.json", report.to_json())


_DOMINATION_HEADER = ("nu,c,origin_value,plateau_mass_bound,center_value,"
                      "bayes_sup,bayes_canonical")


def _cmd_counterexample(args) -> None:
    if args.nu_max < 2:
        raise ConfigError(f"--nu-max must be at least 2, got {args.nu_max}: "
                          "a one-rung ladder cannot give a verdict")
    report = verify_nonconvergence(args.nu_max, args.max_bump)
    out = _outdir(args)
    d = build(report.max_bump)
    _write_json(out / "density.json", d.to_json())
    hi = 2 * args.nu_max + 1.0
    _write_lines(out / "density_samples.csv",
                 ["theta,value"] + [f"{fmt17(t)},{fmt17(v)}"
                                    for t, v in sample_curve(d, -1.0, hi)])
    dom_lines = [_DOMINATION_HEADER]
    for row in report.rows:
        dom_lines.append(",".join(
            [str(row.nu)] + [fmt17(v) for v in (
                row.c, row.origin_value, row.plateau_mass_bound,
                row.center_value, row.bayes_sup, row.bayes_canonical)]))
    _write_lines(out / "domination.csv", dom_lines)
    _write_json(out / "verdict.json", {
        "ok": report.ok,
        "verdict": report.trace.verdict,
        "map_sup": report.map_sup,
        "map_canonical": report.map_canonical,
        "max_bump": report.max_bump,
        "nu_max": args.nu_max,
        "limit_points": list(report.trace.limit_points),
    })
    _write_lines(out / "sweep.csv", report.trace.csv_lines())
    if not report.ok:
        raise RuntimeError("nonconvergence verification failed; see verdict.json")


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
