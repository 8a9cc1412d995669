import csv
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mapbayes as mb
import mapbayes.argmax
from mapbayes.cli import _samples_csv, main

from conftest import grid_1d
from oracles import escape_window_mass, grid_mode_scan, grid_window_scan


def _write_config(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_map_command(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {"density": {"builtin": "triangle"}})
    assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "map.json").read_text())
    assert out["result"]["canonical"] == 0.0
    assert out["result"]["sup_value"] == 1.0


def test_bayes_command_with_builtin_kwargs(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {
        "density": {"builtin": "asymmetric_triangle", "lo": -1.0, "apex": 0.5, "hi": 1.0},
        "c": 8.0})
    assert main(["bayes", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "bayes.json").read_text())
    assert out["radius"] == 0.125
    assert out["result"]["canonical"] == pytest.approx(0.4375, abs=1e-9)


def test_sweep_command_csv_and_verdict(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {
        "density": {"builtin": "triangle"}, "ladder": [8.0, 32.0, 128.0]})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "c,canonical,sup_value,dist_to_map,argmax_lo,argmax_hi"
    assert len(lines) == 4
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["verdict"] == "converges_to_MAP"


def test_sweep_command_nu_ladder(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {
        "density": {"builtin": "counterexample", "max_bump": 12},
        "ladder": {"nu_max": 4}, "search": [-1.0, 10.0]})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["verdict"] == "diverges_from_MAP"
    assert verdict["ladder"] == [8.0, 32.0, 128.0, 512.0]


def test_check_command(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {"density": {"builtin": "two_bumps"}})
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "conditions.json").read_text())
    assert rep["level_set_ok"] is True
    assert rep["quasiconcave"] is False
    assert rep["quasiconcave_witness"] is not None


def test_hypo_command(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {
        "density": {"builtin": "triangle"}, "nus": [4.0, 10.0],
        "closed_intervals": [[-0.5, 0.5]], "open_intervals": [[-0.5, 0.5]]})
    assert main(["hypo", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "hypo.json").read_text())
    assert rep["ok"] is True
    assert len(rep["rows"]) == 4


def test_hypo_json_is_strict_json(tmp_path):
    # open rows across the staircase's jumps each have a finite reference,
    # so hypo.json holds no NaN or Infinity
    cfg = _write_config(tmp_path / "c.json", {
        "density": {"builtin": "staircase"}, "nus": [4.0, 16.0],
        "open_intervals": [[0.2, 1.4], [-0.5, 2.0]]})
    assert main(["hypo", "--config", cfg, "--out", str(tmp_path)]) == 0

    def refuse(name):
        raise ValueError(f"hypo.json holds {name}")

    rep = json.loads((tmp_path / "hypo.json").read_text(), parse_constant=refuse)
    assert rep["ok"] is True
    assert [sorted(row) for row in rep["rows"]] == [sorted(
        ["kind", "lo", "hi", "nu", "sup_smoothed", "sup_reference", "slack", "ok"])] * 4


def test_counterexample_command(tmp_path):
    assert main(["counterexample", "--nu-max", "3", "--out", str(tmp_path)]) == 0
    for name in ("density.json", "density_samples.csv", "domination.csv",
                 "sweep.csv", "verdict.json"):
        assert (tmp_path / name).exists(), name
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["ok"] is True
    assert verdict["verdict"] == "diverges_from_MAP"
    dom = (tmp_path / "domination.csv").read_text().splitlines()
    assert dom[0].startswith("nu,c,origin_value")
    assert len(dom) == 4


def test_map_and_bayes_commands_on_inline_grid_1d(tmp_path):
    g = grid_1d("zero_cells")
    (lo, hi), = g.support
    density = g.to_json()
    assert density["dim"] == 1
    cfg = _write_config(tmp_path / "c.json", {"density": density, "c": 10.0})
    assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["bayes", "--config", cfg, "--out", str(tmp_path)]) == 0
    out_map = json.loads((tmp_path / "map.json").read_text())
    out_bayes = json.loads((tmp_path / "bayes.json").read_text())

    tol = out_map["result"]["tol_value"]
    sup, maxi, canonical = grid_mode_scan(g, (lo, hi), tol)
    assert out_map == {"search": None, "result": {
        "dim": 1, "sup_value": sup, "maximizers": [list(m) for m in maxi],
        "canonical": canonical, "tol_value": 4.0 * math.ulp(sup), "sup_infinite": False}}
    result = out_bayes.pop("result")
    tol = result.pop("tol_value")
    sup, maxi, canonical = grid_window_scan(g, 0.1, (lo - 0.1, hi + 0.1), tol)
    assert out_bayes == {"c": 10.0, "radius": 0.1, "search": None}
    assert result.pop("sup_value") == pytest.approx(sup, abs=1e-15)
    assert 0.0 < tol < 1e-14
    assert result == {"dim": 1, "maximizers": [list(m) for m in maxi],
                      "canonical": canonical, "sup_infinite": False}


def test_density_from_file_path(tmp_path):
    d = mb.triangle()
    dens_path = tmp_path / "density.json"
    dens_path.write_text(json.dumps(d.to_json()))
    cfg = _write_config(tmp_path / "c.json", {"density": str(dens_path)})
    assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "map.json").read_text())
    assert out["result"]["canonical"] == 0.0


def test_outputs_are_deterministic(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {
        "density": {"builtin": "staircase"}, "ladder": [8.0, 32.0]})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    assert (a / "verdict.json").read_bytes() == (b / "verdict.json").read_bytes()
    c, d = tmp_path / "c", tmp_path / "d"
    assert main(["counterexample", "--nu-max", "3", "--out", str(c)]) == 0
    assert main(["counterexample", "--nu-max", "3", "--out", str(d)]) == 0
    names = ["density.json", "density_samples.csv", "domination.csv", "sweep.csv",
             "verdict.json"]
    assert sorted(f.name for f in c.iterdir()) == names
    for name in names:
        assert (c / name).read_bytes() == (d / name).read_bytes()


def test_counterexample_samples_are_the_pointwise_values(tmp_path):
    # one line per t = -1 + k/1000 up to 2 nu_max + 1, both floats written
    # with 17 significant digits; the bumps past 7 do not reach the samples
    assert main(["counterexample", "--nu-max", "3", "--out", str(tmp_path)]) == 0
    d = mb.build(12)
    lines = ["theta,value"]
    for k in range(8001):
        t = -1.0 + k * 1e-3
        lines.append(format(t, ".17g") + "," + format(d.evaluate(t), ".17g"))
    assert (tmp_path / "density_samples.csv").read_text() == "\n".join(lines) + "\n"


def test_exit_code_2_on_config_problems(tmp_path, capsys):
    assert main(["map", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["map", "--config", str(bad), "--out", str(tmp_path)]) == 2
    cfg = _write_config(tmp_path / "c1.json", {"density": {"builtin": "nope"}})
    assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = _write_config(tmp_path / "c2.json", {"density": {"builtin": "triangle"}})
    assert main(["bayes", "--config", cfg, "--out", str(tmp_path)]) == 2  # no c
    cfg = _write_config(tmp_path / "c3.json", {
        "density": {"builtin": "triangle"}, "c": -1.0})
    assert main(["bayes", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = _write_config(tmp_path / "c4.json", {
        "density": {"builtin": "triangle"}, "ladder": [8.0, 8.0]})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    grid_2d = {"dim": 2, "origin": [0.0, 0.0], "spacing": [0.25, 0.25],
               "values": [[1.0] * 4] * 4}
    cfg = _write_config(tmp_path / "c5.json", {"density": grid_2d, "ladder": [8.0, 16.0]})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = _write_config(tmp_path / "c6.json", {
        "density": grid_2d, "nus": [4.0], "closed_intervals": [[0.0, 1.0]]})
    assert main(["hypo", "--config", cfg, "--out", str(tmp_path)]) == 2
    for nu_max in ("1", "0"):  # a one-rung ladder is inconclusive by design
        assert main(["counterexample", "--nu-max", nu_max, "--out", str(tmp_path)]) == 2
    for nu_max in ("abc", 0, 2.5):  # a ladder of N rungs needs an integer N >= 1
        cfg = _write_config(tmp_path / "c7.json", {
            "density": {"builtin": "triangle"}, "ladder": {"nu_max": nu_max}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    # JSON true and false are no numbers, though Python's bool subclasses int
    triangle = {"builtin": "triangle"}
    for command, extra in [("bayes", {"c": True}), ("sweep", {"ladder": [True, 2]}),
                           ("bayes", {"c": 2.0, "search": [False, 1.0]}),
                           ("bayes", {"c": 2.0, "search": [[0.0, True], [0.0, 1.0]]}),
                           ("check", {"alpha_grid": [0.5, True]}),
                           ("hypo", {"nus": [True]}),
                           ("hypo", {"nus": [4.0], "open_intervals": [[0.0, True]]})]:
        cfg = _write_config(tmp_path / "c8.json", {"density": triangle, **extra})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2, extra
    for density in ({"pieces": [{"lo": 0.0, "hi": 1.0, "kind": "constant",
                                 "params": {"k": True}}]},
                    {"pieces": [{"lo": 0.0, "hi": 1.0, "kind": "sqrt",
                                 "params": {"a": 0.0, "b": 1.5, "s": True, "t0": 0.0}}]},
                    {"dim": 1, "origin": False, "spacing": 0.5, "values": [1.0, 1.0]},
                    # dim is the integer 1 or 2
                    {"dim": 1.5, "origin": 0.0, "spacing": 0.5, "values": [1.0, 1.0]},
                    {"dim": "1", "origin": 0.0, "spacing": 0.5, "values": [1.0, 1.0]},
                    # 1e17 + 1.0 rounds to 1e17, so the cell edges collapse
                    {"dim": 1, "origin": 1e17, "spacing": 1.0, "values": [1.0]},
                    {"dim": 2, "origin": [1e17, 0.0], "spacing": [1.0, 1.0], "values": [[1.0]]},
                    {"builtin": "counterexample", "max_bump": True},
                    # a piece inside the 1e-15 overlap of the piece before it
                    {"pieces": [{"lo": 0.0, "hi": 1000.0, "kind": "constant",
                                 "params": {"k": 0.0009}},
                                {"lo": 999.9999999999997, "hi": 999.9999999999999,
                                 "kind": "constant", "params": {"k": 0.0001}},
                                {"lo": 1000.0, "hi": 1001.0, "kind": "constant",
                                 "params": {"k": 0.1}}]}):
        cfg = _write_config(tmp_path / "c9.json", {"density": density})
        assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == 2, density
    # json.load reads NaN, Infinity and 1e400 as nan or inf, and an integer
    # past 1.8e308 fits no float: refused anywhere, and stderr names the place
    capsys.readouterr()
    line = {"dim": 1, "origin": 0.0, "spacing": 0.5, "values": [1.0, 1.0]}
    piece = {"lo": 0.0, "hi": 1.0, "kind": "sqrt",
             "params": {"a": 0.0, "b": "@", "s": 1, "t0": 0.0}}
    (tmp_path / "density.json").write_text(json.dumps(
        {"pieces": [piece]}).replace('"@"', "NaN"), encoding="utf-8")
    cases = [("bayes", {"c": "@"}, "c"),
             ("bayes", {"c": 2.0, "search": ["@", 1.0]}, "search[0]"),
             ("bayes", {"c": 2.0, "search": [[0.0, 1.0], [0.0, "@"]]}, "search[1][1]"),
             ("sweep", {"ladder": [2.0, "@"]}, "ladder[1]"),
             ("check", {"alpha_grid": ["@"]}, "alpha_grid[0]"),
             ("hypo", {"nus": ["@"]}, "nus[0]"),
             ("hypo", {"nus": [4.0], "closed_intervals": [["@", 1.0]]}, "closed_intervals[0][0]"),
             ("hypo", {"nus": [4.0], "open_intervals": [[0.0, "@"]]}, "open_intervals[0][1]"),
             ("map", {"density": {"pieces": [piece]}}, "density.pieces[0].params.b"),
             ("map", {"density": {**line, "origin": "@"}}, "density.origin"),
             ("map", {"density": {**line, "spacing": "@"}}, "density.spacing"),
             ("map", {"density": {**line, "values": [1.0, "@"]}}, "density.values[1]"),
             ("map", {"density": {"builtin": "uniform", "hi": "@"}}, "density.hi"),
             ("map", {"density": {"builtin": "counterexample", "max_bump": "@"}},
              "density.max_bump")]
    for number in ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 309):
        for command, extra, where in cases:
            cfg = tmp_path / "c10.json"
            cfg.write_text(json.dumps({"density": triangle, **extra}).replace('"@"', number),
                           encoding="utf-8")
            code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
            assert code == 2, (number, extra)
            assert f": {where} is not a finite number" in capsys.readouterr().err, (number, extra)
    cfg = _write_config(tmp_path / "c11.json", {"density": str(tmp_path / "density.json")})
    assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "density.json: pieces[0].params.b is not a finite number" in capsys.readouterr().err
    # a string is no number, in the 2D search box too; max_bump is an integer
    for command, extra, where in [
            ("bayes", {"density": grid_2d, "c": 4.0, "search": [["0", "0.5"], [0, 1]]}, "search"),
            ("map", {"density": {"builtin": "counterexample", "max_bump": 3.9}}, "max_bump"),
            ("map", {"density": {"builtin": "counterexample", "max_bump": "3"}}, "max_bump")]:
        cfg = _write_config(tmp_path / "c12.json", {"density": triangle, **extra})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2, extra
        assert f"error: {where} must be" in capsys.readouterr().err, extra
    # uniform divides by hi - lo
    cfg = _write_config(tmp_path / "c13.json",
                        {"density": {"builtin": "uniform", "lo": 1, "hi": 1}})
    assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == 2


_GRID_2D = {"dim": 2, "origin": [0.0, 0.0], "spacing": [0.25, 0.25], "values": [[1.0] * 4] * 4}


@pytest.mark.parametrize("command", ["map", "bayes", "sweep"])
@pytest.mark.parametrize("density, search, form", [
    ({"builtin": "triangle"}, [[0.0, 1.0], [0.0, 1.0]], "[lo, hi] for a 1D density"),
    (_GRID_2D, [0.0, 1.0], "[[x0, x1], [y0, y1]] for a 2D density"),
], ids=["2d_box_on_1d", "1d_box_on_2d"])
def test_a_search_box_of_the_wrong_dimension_exits_2(tmp_path, capsys, command, density,
                                                      search, form):
    cfg = _write_config(tmp_path / "c.json", {"density": density, "search": search,
                                              "c": 4.0, "ladder": [8.0, 16.0]})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"error: search must be {form}" in capsys.readouterr().err


def test_counterexample_past_bump_47_exits_2(tmp_path, capsys):
    # from bump 48 on, n + 2^-n rounds to n, so bump n has no width: both
    # flags are checked before any work, --nu-max K through its default
    # max_bump of 2K, and the builtin density refuses it as a bad parameter
    for flags, flag in ((["--nu-max", "4", "--max-bump", "48"], "--max-bump"),
                        (["--nu-max", "24"], "--nu-max")):
        assert main(["counterexample", *flags, "--out", str(tmp_path / "no")]) == 2
        assert f"error: {flag} asks for bump 48, past bump 47" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()
    with pytest.raises(ValueError, match="between 1 and 47, got 48"):
        mb.build(48)
    cfg = _write_config(tmp_path / "c.json",
                        {"density": {"builtin": "counterexample", "max_bump": 48}})
    assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "max_bump must be between 1 and 47, got 48" in capsys.readouterr().err
    assert main(["counterexample", "--nu-max", "4", "--max-bump", "47",
                 "--out", str(tmp_path / "ok")]) == 0
    # rung nu reads bump 2 nu, so a --max-bump below 2K is a bad usage too,
    # refused before any work; the library keeps raising CutoffTooSmall
    for bump in ("0", "7", "-3"):
        assert main(["counterexample", "--nu-max", "4", "--max-bump", bump,
                     "--out", str(tmp_path / "low")]) == 2
        assert f"error: --max-bump {bump} is below bump 8" in capsys.readouterr().err
    assert not (tmp_path / "low").exists()
    with pytest.raises(mb.CutoffTooSmall, match="need bump 8 materialized, but max_bump is 7"):
        mb.verify_nonconvergence(4, 7)


@pytest.mark.parametrize("s, code", [(1.9, 2), (1.0, 0)])
def test_sqrt_orientation_is_plus_or_minus_one(tmp_path, s, code):
    # 1.5*sqrt(t) on [0, 1] has unit mass; an orientation of 1.9 is no orientation
    params = {"a": 0.0, "b": 1.5, "s": s, "t0": 0.0}
    if code:
        with pytest.raises(ValueError, match="orientation"):
            mb.Piece(0.0, 1.0, "sqrt", params)
    cfg = _write_config(tmp_path / "c.json", {"density": {"pieces": [
        {"lo": 0.0, "hi": 1.0, "kind": "sqrt", "params": params}]}})
    assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == code


def test_seed_flag_is_gone(tmp_path):
    # the sampled checks run from a fixed seed; argparse rejects the flag
    cfg = _write_config(tmp_path / "c.json", {"density": {"builtin": "triangle"}})
    with pytest.raises(SystemExit) as exc:
        main(["check", "--seed", "1", "--config", cfg, "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_a_scale_whose_radius_overflows_exits_2(tmp_path, capsys):
    # 1/1e-320 and 2/1e-308 are inf: each command names the scale, and no search runs
    triangle = {"builtin": "triangle"}
    for command, extra, name in [
            ("bayes", {"c": 1e-320}, "2/c finite, got 1e-320"),
            ("bayes", {"c": 1e-308}, "2/c finite, got 1e-308"),
            ("sweep", {"ladder": [1e-320, 1.0]}, "2/c finite, got 1e-320"),
            ("hypo", {"nus": [4.0, 1e-320], "open_intervals": [[-0.5, 0.5]]},
             "2/nu finite, got 1e-320")]:
        capsys.readouterr()
        cfg = _write_config(tmp_path / f"{command}.json", {"density": triangle, **extra})
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert name in err and "integrate" not in err and "Warning" not in err, err


def test_exit_code_3_on_domain_errors(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {
        "density": {"builtin": "triangle"}, "search": [5.0, 2.0]})
    assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_exit_code_3_when_the_2d_search_is_left_open(tmp_path, monkeypatch, capsys):
    # a 2D ball search that hits its refinement cap names the open gap
    cfg = _write_config(tmp_path / "c.json", {
        "density": {"dim": 2, "origin": [0.0, 0.0], "spacing": [0.25, 0.25],
                    "values": [[1.0, 2.0, 1.5], [0.5, 3.0, 1.0], [2.0, 1.0, 4.0]]},
        "c": 4.0})
    assert main(["bayes", "--config", cfg, "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(mapbayes.argmax, "_MAX_LEVELS_2D", 0)
    capsys.readouterr()
    assert main(["bayes", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "boxes open" in capsys.readouterr().err


def _off_bump(nu: int, canonical: float, sup: float) -> bool:
    """Whether a rung's report misses bump 2 nu: by its place, by its sup
    against the exact plateau bound (1 - 4^-nu)(4^-nu - 64^-nu) and 2r, or
    by the exact ball mass at it, integrated from the construction's
    definition."""
    n, r, c = 2 * nu, Fraction(1, 2 * 4 ** nu), Fraction(canonical)
    bound = (1 - Fraction(1, 4 ** nu)) * (Fraction(1, 4 ** nu) - Fraction(1, 64 ** nu))
    mass = escape_window_mass(c - r, c + r, range(n - 1, n + 2))
    return not (n - 8.0 ** -n <= canonical <= n + 2.0 ** -n
                and bound <= Fraction(sup) <= Fraction(1, 4 ** nu) and mass >= bound)


@pytest.mark.parametrize("nu_max", [9, 10, 11, 12, 13])
def test_counterexample_top_rungs_sit_on_bump_2nu_or_exit_3(tmp_path, capsys, nu_max):
    # bump 2 nu beats bump 2 nu - 1 by about 4^-nu of its mass; through rung
    # 11 that is more than the float error of the masses compared, and a
    # rung the search cannot resolve is a named failure, never a silent one
    code = main(["counterexample", "--nu-max", str(nu_max), "--out", str(tmp_path)])
    with open(tmp_path / "domination.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["nu"]) for row in rows] == list(range(1, nu_max + 1))
    off = [f"rung {row['nu']} plateau bound" for row in rows
           if _off_bump(int(row["nu"]), float(row["bayes_canonical"]), float(row["bayes_sup"]))]
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["failures"] == off
    assert verdict["ok"] is (not off)
    if nu_max <= 11:
        assert code == 0 and off == []
    else:
        assert code == 3 and f"rung {nu_max} plateau bound" in off
        assert f"verification failed: {', '.join(off)}" in capsys.readouterr().err


#: sha256 of the five counterexample artifacts for --nu-max 2, 6 and 11: a
#: faster search may change how the answers are found, never what is written
_ARTIFACT_SHA256 = {
    2: {"density.json": "a01eeec2d6309637621dd3ad64a4b39c7814d94373bbd38626aecc443c6aefa0",
        "density_samples.csv": "fd543569a51e780e07428322e58ef2005ee10e09bf4607796e5b25b0d4c4d0fa",
        "domination.csv": "d114e55ea97273deac0df8fd8d9ed210558d5d0325b8e1b3c59a4d4c6f69a2ff",
        "sweep.csv": "553b8a60d4d69999def444dde86188e5fda49c54a48e1034e5314537a625f541",
        "verdict.json": "f8f4528fa8c91a5240230a72e571693dcb22a945c582de7777277a9a04b76daa"},
    6: {"density.json": "a01eeec2d6309637621dd3ad64a4b39c7814d94373bbd38626aecc443c6aefa0",
        "density_samples.csv": "9f168a7d87a6f8411588e97b831f7763f8d78c060c574483d40e6d20a8fea513",
        "domination.csv": "8506367d264ea2eb35fde9a4015071b414e505e9ac0099db2dfab164df4fdd33",
        "sweep.csv": "73a992c77b2fc27df8a00dbf918a747600cfac089e556806cfcb50c60e21b994",
        "verdict.json": "82b828faa32d5882c130091cfd8f38109baf7ed3e957e064aa254766fc42cde5"},
    11: {"density.json": "b123c495e8cf63d9437890de4d8989cc6e75c979afd317376fd5834ce5435a86",
         "density_samples.csv": "245f81ec2bacdc438745e60fed92e3d7ce2b1afa67196a389cbef61ff94a2f6d",
         "domination.csv": "f7080c580d1dbd75f629e74a62457a22c8c4a617c5d05244ac89dda38b3763e6",
         "sweep.csv": "5aa44b1e6d3dca99d8615099090b72a2f18168a293b7a2f7ac55e058da63b057",
         "verdict.json": "0e7723d820c485250b450a727c58f3b05812d4f3ada087b5b3a41a097159db5e"},
}


@pytest.mark.parametrize("nu_max", sorted(_ARTIFACT_SHA256))
def test_counterexample_artifacts_are_pinned(tmp_path, nu_max):
    assert main(["counterexample", "--nu-max", str(nu_max), "--out", str(tmp_path)]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in _ARTIFACT_SHA256[nu_max]} == _ARTIFACT_SHA256[nu_max]


_CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072009e-308,
                     1.7976931348623157e308]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.builds(math.copysign, st.floats(1e-300, 1e300), st.sampled_from([1.0, -1.0])),
    st.floats(-30.0, 30.0))


@st.composite
def _sample_columns(draw):
    """(theta, value) rows whose values come in runs, long ones among them,
    and whose thetas cycle through a drawn pool."""
    runs = draw(st.lists(st.tuples(_CSV_FLOATS, st.integers(1, 60)), min_size=1, max_size=25))
    values = [v for v, n in runs for _ in range(n)]
    pool = draw(st.lists(_CSV_FLOATS, min_size=1, max_size=40))
    return np.column_stack(([pool[i % len(pool)] for i in range(len(values))], values))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(samples=_sample_columns())
@example(samples=np.array([[0.0, 0.0], [1.0, -0.0], [2.0, -0.0], [3.0, 0.0], [-0.0, math.nan],
                           [math.inf, -math.inf], [5e-324, 5e-324], [0.1, 0.0]]))
def test_samples_csv_is_every_float_in_percent_17g(samples):
    # the row templates are cut where the value's bits change, so 0.0 and
    # -0.0 keep their signs, and NaN stays NaN
    want = "theta,value\n" + "%.17g,%.17g\n" * len(samples) % tuple(samples.ravel().tolist())
    assert _samples_csv(samples) == want


def test_string_numbers_in_density_json_exit_2(tmp_path, capsys):
    # float("1.0") would take a string, so the density readers refuse it
    piece = {"lo": 0.0, "hi": 1.0, "kind": "constant", "params": {"k": 1.0}}
    grid = {"dim": 2, "origin": [0.0, 0.0], "spacing": [0.5, 0.5],
            "values": [[1.0, 1.0], [1.0, 1.0]]}
    capsys.readouterr()
    for density, where in [({"pieces": [{**piece, "params": {"k": "1.0"}}]}, "piece k"),
                           ({"pieces": [{**piece, "lo": "0"}]}, "piece lo"),
                           ({**grid, "origin": ["0", 0]}, "grid origin"),
                           ({**grid, "values": [[1.0, "1"], [1.0, 1.0]]}, "grid values")]:
        cfg = _write_config(tmp_path / "c.json", {"density": density})
        assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == 2, density
        assert f"{where} must be a number" in capsys.readouterr().err, density
    with pytest.raises(TypeError, match="piece hi must be a number"):
        mb.Piece.from_json({**piece, "hi": True})
    cfg = _write_config(tmp_path / "c.json", {"density": {"pieces": [piece]}})
    assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == 0
