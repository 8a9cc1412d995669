import json

import pytest

import mapbayes as mb
import mapbayes.argmax
from mapbayes.cli import main

from conftest import grid_1d
from oracles import grid_mode_scan, grid_window_scan


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
    density = mb.density_to_json(g)
    assert density["dim"] == 1
    cfg = _write_config(tmp_path / "c.json", {"density": density, "c": 10.0})
    assert main(["map", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["bayes", "--config", cfg, "--out", str(tmp_path)]) == 0
    out_map = json.loads((tmp_path / "map.json").read_text())
    out_bayes = json.loads((tmp_path / "bayes.json").read_text())

    sup, maxi, canonical = grid_mode_scan(g, (lo, hi), 1e-6)
    assert out_map == {"search": None, "result": {
        "dim": 1, "sup_value": sup, "maximizers": [list(m) for m in maxi],
        "canonical": canonical, "tol_value": 1e-6, "sup_infinite": False}}
    sup, maxi, canonical = grid_window_scan(g, 0.1, (lo - 0.1, hi + 0.1), 1e-6)
    result = out_bayes.pop("result")
    assert out_bayes == {"c": 10.0, "radius": 0.1, "search": None}
    assert result.pop("sup_value") == pytest.approx(sup, abs=1e-15)
    assert result == {"dim": 1, "maximizers": [list(m) for m in maxi],
                      "canonical": canonical, "tol_value": 1e-6, "sup_infinite": False}


def test_density_from_file_path(tmp_path):
    d = mb.triangle()
    dens_path = tmp_path / "density.json"
    dens_path.write_text(json.dumps(mb.density_to_json(d)))
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


def test_exit_code_2_on_config_problems(tmp_path):
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


def test_seed_flag_is_gone(tmp_path):
    # the sampled checks run from a fixed seed; argparse rejects the flag
    cfg = _write_config(tmp_path / "c.json", {"density": {"builtin": "triangle"}})
    with pytest.raises(SystemExit) as exc:
        main(["check", "--seed", "1", "--config", cfg, "--out", str(tmp_path)])
    assert exc.value.code == 2


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
