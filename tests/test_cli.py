import argparse
import ast
import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from condflow import cli
from condflow.cli import main
from condflow.conditioning import StoppedValueAt, condition, condition_downward
from condflow.model import Const, bm, named_family
from condflow.simulate import SimConfig, simulate_ensemble

ROOT = Path(__file__).parent.parent


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BM_UNIT = """
[spec]
family = custom
b = "0"
a = "1"
l = 0
r = 1

[scenario]
x0 = 0.5
up = 0.75
down = 0.25

[sim]
dt = 1e-3
horizon = 5
n_paths = 2000
seed = 3
"""


def test_scale_writes_csv_and_classifies(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", BM_UNIT)
    out = tmp_path / "scale.csv"
    assert main(["scale", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "y,s,s_prime"
    y, s, ds = map(float, lines[1].split(","))
    assert ds == pytest.approx(1.0)
    assert s == pytest.approx(y, abs=1e-10)
    assert "HITS_BOTH" in capsys.readouterr().err


def test_scale_named_family(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", "[spec]\nfamily = bessel3\n")
    assert main(["scale", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    assert "HITS_R_ONLY" in capsys.readouterr().err


def test_scale_picks_its_side_in_one_quadrature_pass(tmp_path, capsys, monkeypatch):
    # bessel3 has s(0) = -inf: without a direction the table is R-normalized,
    # from the same single quadrature pass an explicit downward makes
    points = []

    def counting_family(name):
        spec = named_family(name)

        def drift(y):
            points.append(np.size(y))
            return spec.drift(y)
        return replace(spec, drift=drift)

    monkeypatch.setattr(cli, "named_family", counting_family)
    runs = {}
    for name, scenario in (("auto", ""), ("down", "[scenario]\ndirection = downward\n")):
        cfg = _write(tmp_path, f"{name}.ini", "[spec]\nfamily = bessel3\n" + scenario)
        out = tmp_path / f"{name}.csv"
        points.clear()
        assert main(["scale", "--config", cfg, "--out", str(out)]) == 0
        runs[name] = (sum(points), out.read_bytes(), capsys.readouterr().err)
    assert runs["auto"] == runs["down"]
    assert runs["auto"][0] > 0 and "HITS_R_ONLY" in runs["auto"][2]


def test_hitting_json_schema(tmp_path):
    cfg = _write(tmp_path, "c.ini", BM_UNIT)
    out = tmp_path / "hit.json"
    assert main(["hitting", "--config", cfg, "--n", "3000", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert set(payload) >= {"estimate", "stderr", "n", "resolved", "unresolved", "ties"}
    assert abs(payload["estimate"] - 0.5) < 0.05


def test_simulate_deterministic_across_threads(tmp_path):
    cfg = _write(tmp_path, "c.ini", BM_UNIT)
    one = tmp_path / "one.json"
    four = tmp_path / "four.json"
    assert main(["simulate", "--config", cfg, "--seed", "5", "--n", "4000",
                 "--threads", "1", "--out", str(one)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "5", "--n", "4000",
                 "--threads", "4", "--out", str(four)]) == 0
    assert one.read_bytes() == four.read_bytes()


def test_simulate_path_dump(tmp_path):
    text = BM_UNIT + f"\n[output]\ndump_paths = 2\ndownsample = 50\npaths_csv = {tmp_path}/p.csv\n"
    cfg = _write(tmp_path, "c.ini", text)
    assert main(["simulate", "--config", cfg, "--n", "10",
                 "--out", str(tmp_path / "s.json")]) == 0
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[0] == "path,t,x"
    assert any(line.startswith("1,") for line in lines[1:])


def test_unwritable_path_dump_is_config_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "p.csv"
    text = BM_UNIT + f"\n[output]\ndump_paths = 1\npaths_csv = {missing}\n"
    cfg = _write(tmp_path, "c.ini", text)
    out = tmp_path / "s.json"
    assert main(["simulate", "--config", cfg, "--n", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {missing}: ")
    # the dump opens before the run, so no report is written
    assert not out.exists()


def test_simulate_refuses_a_start_at_the_cap(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", BM_UNIT + "cap = 0.5\n")
    out = tmp_path / "s.json"
    assert main(["simulate", "--config", cfg, "--n", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: x0=0.5 at or above the cap 0.5\n"
    assert not out.exists()


def test_simulate_counts_paths_stopped_at_the_cap(tmp_path):
    # a drift of 1e308 sends every path past the cap on its first step
    text = '[spec]\nfamily = custom\nb = "1e308"\na = "1"\n\n[sim]\ndt = 10\nhorizon = 20\nn_paths = 5\n'
    cfg = _write(tmp_path, "c.ini", text)
    out = tmp_path / "s.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["absorbed"], payload["capped"], payload["truncated"]) == (0, 5, 0)


def test_condition_json_report(tmp_path):
    out = tmp_path / "cond.json"
    assert main(["condition", "--seed", "2", "--n", "3000", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 3
    modes = {report["mode"] for report in payload["reports"]}
    assert modes == {"REJECTION", "WEIGHTED", "DIRECT"}
    # the KS is stated once, at top level
    assert set(payload["ks"]) == {"stat", "critical_1pct", "pass"}
    assert not any("ks" in report for report in payload["reports"])
    # weighted against an independent direct sample: not 0 by construction
    assert payload["ks"]["stat"] > 0.0
    assert abs(payload["acceptance"] - 0.5) < 0.05


DRIFTED_DOWN = """
[spec]
family = custom
b = "1/y + 0.3"
a = "1"

[scenario]
direction = downward
level = 0.5
y_max = 12

[sim]
dt = 1e-2
horizon = 60
cap = 10
n_paths = 4000
seed = 1
"""


def test_condition_weighs_a_drifted_diffusion_by_its_scale(tmp_path):
    # 1/y + 0.3 is not driftless in the scale of its coordinate: x0/X weights
    # average about 0.66, while s(X)/s(x0) is a martingale weight
    cfg = _write(tmp_path, "c.ini", DRIFTED_DOWN)
    conf = cli._load_config(cfg)
    spec = cli._build_spec(conf)
    s = cli._scale(conf, spec, 1.0)
    sim = cli._build_sim(conf, argparse.Namespace(seed=None, n=None))
    functional = StoppedValueAt(0.25)

    def mean_and_stderr(w):
        return float(np.mean(w)), float(np.std(w, ddof=1) / math.sqrt(w.size))

    rejection, weighted = condition(spec, s, 1.0, 0.5, functional, sim)
    mean, stderr = mean_and_stderr(weighted.weights)
    assert abs(mean - 1.0) <= 4 * stderr
    acc, target = rejection.acceptance, float(s(1.0) / s(0.5))
    assert abs(acc.value - target) <= 4 * acc.stderr
    # the coordinate weight x0/X, on the same run, is not a martingale weight
    _, coordinate = condition_downward(spec, 1.0, 0.5, functional, sim)
    mean, stderr = mean_and_stderr(coordinate.weights)
    assert abs(mean - 1.0) > 4 * stderr

    out = tmp_path / "cond.json"
    assert main(["condition", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["acceptance"] == acc.value


@pytest.mark.parametrize("family, scenario, name", [
    # the defaults: cap 1e8 against y_max = 10 x0
    ("bessel3", "direction = downward\n", "[sim] cap = 1e+08"),
    ("bm", "direction = upward\nlevel = 20\n", "[scenario] level = 20"),
])
def test_condition_refuses_a_stop_beyond_the_scale_grid(tmp_path, capsys, monkeypatch,
                                                        family, scenario, name):
    # past y_max the scale's end cubics are extrapolated (bessel3's s(100)
    # would read -113.7, not -0.01); the refusal comes before any simulation
    _forbid_simulation(monkeypatch)
    cfg = _write(tmp_path, "c.ini", f"[spec]\nfamily = {family}\n[scenario]\n{scenario}")
    assert main(["condition", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} lies beyond [scenario] y_max = 10")
    assert "[sim] cap" in err


def test_condition_refuses_a_downward_level_below_the_scale_grid(tmp_path, capsys, monkeypatch):
    # below y_min the end cubic is extrapolated too: on bessel3's default
    # grid (y_min = 0.01) s(0.005) would read -156.8, not -200, and weigh
    # every accepted path
    _forbid_simulation(monkeypatch)
    cfg = _write(tmp_path, "c.ini", "[spec]\nfamily = bessel3\n"
                                    "[scenario]\ndirection = downward\nlevel = 0.005\n"
                                    "[sim]\ncap = 5\n")
    assert main(["condition", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: [scenario] level = 0.005 lies below [scenario] y_min = 0.01")


def _forbid_simulation(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before refusing")

    for routine in ("condition", "direct_sample"):
        monkeypatch.setattr(cli, routine, no_simulation)


def test_condition_downward_with_the_cap_inside_the_grid(tmp_path):
    cfg = _write(tmp_path, "c.ini", "[spec]\nfamily = bessel3\n"
                                    "[scenario]\ndirection = downward\ny_max = 5\n"
                                    "[sim]\ndt = 1e-2\nhorizon = 60\ncap = 5\nn_paths = 1000\n")
    out = tmp_path / "cond.json"
    assert main(["condition", "--config", cfg, "--out", str(out)]) == 0
    # BES(3) from 1 reaches 0.5 before 5 with probability (1 - 1/5)/(2 - 1/5)
    assert abs(json.loads(out.read_text())["acceptance"] - 0.8 / 1.8) < 0.07


def test_verify_roundtrip_passes(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "roundtrip", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1 and payload["pass"]
    assert {check["name"] for check in payload["checks"]} == {
        "generator-identity-max-error", "fd-error-ratio", "up-down-drift-roundtrip"}
    # roundtrip draws nothing: --seed and --n change no byte
    seeded = tmp_path / "seeded.json"
    argv = ["verify", "roundtrip", "--seed", "5", "--n", "10", "--threads", "1", "--out", str(seeded)]
    assert main(argv) == 0
    assert seeded.read_bytes() == out.read_bytes()


def test_verify_reads_seed_and_n_from_the_config(tmp_path):
    # the file's [sim] seed and n_paths stand in for absent flags, a flag
    # overrides the file, and a key the file leaves out keeps the bundle's
    # default
    def verify(name, *argv):
        out = tmp_path / f"{name}.json"
        assert main(["verify", "jumpwalk", *argv, "--out", str(out)]) == 0
        return out.read_bytes()

    both = _write(tmp_path, "both.ini", "[sim]\nseed = 7\nn_paths = 300\n")
    seed_only = _write(tmp_path, "seed.ini", "[sim]\nseed = 7\n")
    assert verify("file", "--config", both) == verify("flags", "--seed", "7", "--n", "300")
    assert verify("file", "--config", both) != verify("default", "--n", "300")
    assert (verify("override", "--config", both, "--seed", "8")
            == verify("flags", "--seed", "8", "--n", "300"))
    assert verify("seed", "--config", seed_only) == verify("flags", "--seed", "7")


def test_unwritable_output_is_config_error(tmp_path, capsys):
    # exit 1 means a check failed; a report that cannot be written is exit 2
    out = tmp_path / "missing" / "verify.json"
    assert main(["verify", "roundtrip", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"config error: cannot write {out}: ")


def test_verify_jumpwalk_refuses_no_paths(tmp_path, capsys):
    assert main(["verify", "jumpwalk", "--n", "0", "--out", str(tmp_path / "v.json")]) == 2
    assert capsys.readouterr().err == "config error: n_paths must be positive, got 0\n"


@pytest.mark.filterwarnings("error")
def test_verify_gbm_with_one_path_fails_without_warnings(tmp_path, capsys):
    # one path has no sample variance: its stderr is 0, with no numpy
    # warning, and the KS refusal is the only line
    assert main(["verify", "gbm", "--n", "1", "--out", str(tmp_path / "v.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numeric failure: KS needs >= 50 (effective) samples per side, got 1, 1"]


def test_verify_counterexample_with_one_path_names_the_empty_half(tmp_path, capsys):
    # the horizon resolves the one path; the rejection half holds none
    assert main(["verify", "counterexample", "--n", "1", "--out", str(tmp_path / "v.json")]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: compare_conditionings: the rejection half (n = 0) has no path "
        "that hit a = 2\n")


def test_verify_stopped_bm_with_one_path_names_the_empty_side(tmp_path, capsys):
    # the one base path does not stop at r = 2, so no path is accepted
    argv = ["verify", "stopped-bm", "--n", "1", "--seed", "3", "--out", str(tmp_path / "v.json")]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "numeric failure: verify_identity_of_measures: the base run (n = 1) has no path "
        "stopped at r = 2\n")


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_a_seed_outside_64_bits_is_refused(tmp_path, capsys, seed):
    # a seed is one 64-bit word: any other integer would wrap to one
    out = str(tmp_path / "s.json")
    cfg = _write(tmp_path, "c.ini", BM_UNIT)
    assert main(["simulate", "--config", cfg, "--seed", seed, "--n", "10", "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: seed must lie in [0, 2**64), got {seed}\n"
    cfg = _write(tmp_path, "d.ini", BM_UNIT.replace("seed = 3", f"seed = {seed}"))
    assert main(["simulate", "--config", cfg, "--n", "10", "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"config error: [sim] seed = '{seed}': seed must lie in [0, 2**64), got {seed}\n")
    top = str(2**64 - 1)
    assert main(["simulate", "--config", cfg, "--seed", top, "--n", "10", "--out", out]) == 0


def test_an_unknown_verify_scenario_exits_2(capsys):
    # the parser refuses it, naming the scenarios it knows
    with pytest.raises(SystemExit) as refused:
        main(["verify", "nosuch"])
    assert refused.value.code == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err


def test_verify_reports_are_identical_across_thread_counts(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "gbm", "--n", "2000", "--threads", "1", "--out", str(a)]) == 0
    assert main(["verify", "gbm", "--n", "2000", "--threads", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_config_is_config_error():
    assert main(["scale", "--config", "/nonexistent/condflow.ini"]) == 2


def test_bad_expression_is_config_error(tmp_path):
    cfg = _write(tmp_path, "c.ini", '[spec]\nfamily = custom\nb = "1 +"\na = "1"\n')
    assert main(["scale", "--config", cfg]) == 2


def test_deeply_nested_expression_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", f'[spec]\nfamily = custom\nb = "{"-" * 3000}y"\na = "1"\n')
    assert main(["scale", "--config", cfg]) == 2
    assert capsys.readouterr().err == ("config error: bad coefficient expression: "
                                       "expression nests too deeply (at offset 0)\n")


def test_long_sum_is_config_error(tmp_path, capsys):
    # 990 terms parse in Python but their evaluator overflowed the stack
    # inside compute_scale; the tree's depth is bounded at parse
    b = " + ".join(["0*y"] * 990)
    cfg = _write(tmp_path, "c.ini", f'[spec]\nfamily = custom\nb = "{b}"\na = "1"\n')
    assert main(["scale", "--config", cfg]) == 2
    assert capsys.readouterr().err == ("config error: bad coefficient expression: "
                                       "expression nests too deeply (at offset 0)\n")


def test_unknown_family_is_config_error(tmp_path):
    cfg = _write(tmp_path, "c.ini", "[spec]\nfamily = ornstein\n")
    assert main(["scale", "--config", cfg]) == 2


def test_unknown_section_is_config_error(tmp_path):
    cfg = _write(tmp_path, "c.ini", "[nonsense]\nkey = 1\n")
    assert main(["scale", "--config", cfg]) == 2


def test_nonpositive_custom_diffusion_rejected(tmp_path):
    cfg = _write(tmp_path, "c.ini", '[spec]\nfamily = custom\nb = "0"\na = "0-1"\n')
    assert main(["scale", "--config", cfg]) == 2


@pytest.mark.parametrize("command, b, a", [
    ("simulate", "0", "y - 20"),          # a <= 0 at 15, outside (20, 30)
    ("scale", "log(y - 20)", "1"),        # log of a negative number at 15
])
def test_coefficients_are_probed_inside_the_interval(tmp_path, command, b, a):
    cfg = _write(tmp_path, "c.ini", f'[spec]\nfamily = custom\nb = "{b}"\na = "{a}"\n'
                                    "l = 20\nr = 30\n\n[scenario]\nx0 = 25\n"
                                    "\n[sim]\nn_paths = 50\ndt = 0.01\nhorizon = 1\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("l, r, probe", [
    (0.0, math.inf, 5.0), (-math.inf, math.inf, 0.0), (-1.0, 1.0, 0.0),  # as before
    (20.0, 30.0, 25.0), (20.0, math.inf, 21.0), (-math.inf, -20.0, -21.0),
])
def test_probe_point(l, r, probe):
    assert cli._probe_point(l, r) == probe


@pytest.mark.parametrize("name, text, key, family", [
    ("c.ini", '[spec]\nb = "1/y"\na = "1"\nr = 2\n', "b", "bm"),
    ("c.json", '{"spec": {"b": "1/y", "a": "1", "r": 2}}', "b", "bm"),
    ("c.ini", "[spec]\nfamily = gbm\nl = 1\n", "l", "gbm"),
])
def test_named_family_refuses_custom_keys(tmp_path, capsys, name, text, key, family):
    # a named family (bm when none is given) has its own coefficients and
    # interval, so [spec] b, a, l and r would be silently ignored
    cfg = _write(tmp_path, name, text)
    assert main(["simulate", "--config", cfg, "--n", "20"]) == 2
    assert capsys.readouterr().err == (f"config error: [spec] {key} is read only by "
                                       f"family = custom, not by family = {family}\n")


def test_numeric_failure_exit_code(tmp_path):
    # horizon far too short for the conditioning event: exit 3
    text = """
[scenario]
direction = upward
level = 6.0
t = 0.005

[sim]
dt = 1e-3
horizon = 0.01
n_paths = 300
"""
    cfg = _write(tmp_path, "c.ini", text)
    assert main(["condition", "--config", cfg]) == 3


def test_json_config_accepted(tmp_path):
    payload = {"spec": {"family": "bm"}, "scenario": {"x0": 1.0, "up": 2.0, "down": 0.0},
               "sim": {"dt": 1e-3, "horizon": 10.0, "n_paths": 1500, "seed": 4}}
    cfg = _write(tmp_path, "c.json", json.dumps(payload))
    out = tmp_path / "hit.json"
    assert main(["hitting", "--config", cfg, "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["estimate"] - 0.5) < 0.06


@pytest.mark.parametrize("command, name, text, allowed", [
    ("transform", "c.ini", "[scenario]\ndirection = sideways\n", "UPWARD, DOWNWARD"),
    # removed and misspelt keys alike exit 2: none runs on its default
    ("scale", "c.ini", "[scenario]\nnormalization = X\n", "'normalization'"),
    ("scale", "c.json", '{"spec": [1, 2]}', "JSON object"),
    ("scale", "c.ini", "[scenario]\ny0 = 0.5\n", "unknown config key [scenario] 'y0'"),
    ("condition", "c.json", '{"scenario": {"a_level": 3}}', "unknown config key [scenario] 'a_level'"),
    ("simulate", "c.ini", "[sim]\nhorizn = 0.5\n", "unknown config key [sim] 'horizn'"),
    ("simulate", "c.json", '{"sim": {"horizn": 0.5}}', "unknown config key [sim] 'horizn'"),
    ("simulate", "c.ini", "[sim]\nbridge = flase\n", "[sim] bridge = 'flase': must be one of"),
    ("simulate", "c.ini", "[sim]\nwatch_levels = 1, x\n", "[sim] watch_levels = '1, x': could not"),
])
def test_bad_config_values_are_config_errors(tmp_path, capsys, command, name, text, allowed):
    cfg = _write(tmp_path, name, text)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and allowed in err


@pytest.mark.parametrize("line, message", [
    ("horizon = inf", "horizon must be finite"),
    ("dt = nan", "dt must be finite"),
    ("cap = nan", "cap must not be NaN"),
])
def test_non_finite_sim_values_are_config_errors(tmp_path, capsys, line, message):
    cfg = _write(tmp_path, "c.ini", f"[spec]\nfamily = bm\n\n[sim]\n{line}\nn_paths = 5\n")
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("word, value", [
    ("1", True), ("Yes", True), ("TRUE", True), ("on", True),
    ("0", False), ("no", False), ("False", False), ("OFF", False),
])
def test_boolean_words_in_any_case(word, value):
    assert cli._get({"sim": {"bridge": word}}, "sim", "bridge", None, bool) is value


def test_transform_without_direction_takes_the_finite_side(tmp_path):
    # bessel3 has s(0) = -inf, so with no direction it is conditioned downward
    tables = []
    for scenario in ("", "[scenario]\ndirection = downward\n"):
        cfg = _write(tmp_path, "c.ini", "[spec]\nfamily = bessel3\n" + scenario)
        out = tmp_path / f"t{len(tables)}.csv"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_constant_expressions_are_const_coefficients(tmp_path):
    cfg = _write(tmp_path, "c.ini", '[spec]\nfamily = custom\nb = "0"\na = "1"\n')
    spec = cli._build_spec(cli._load_config(cfg))
    assert spec.drift == Const(0.0) and spec.diffusion == Const(1.0)
    sim = SimConfig(dt=1e-2, horizon=40.0, watch_levels=(2.0,), stop_levels=(4.0,),
                    snapshot_times=(1.0,), seed=2, n_paths=2000)
    custom, base = simulate_ensemble(spec, 1.0, sim), simulate_ensemble(bm(), 1.0, sim)
    for field in fields(custom):
        got, want = getattr(custom, field.name), getattr(base, field.name)
        if isinstance(got, dict):
            assert list(got) == list(want)
            got, want = list(got.values()), list(want.values())
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name
    # an expression that reads y stays an expression
    cfg = _write(tmp_path, "c.ini", '[spec]\nfamily = custom\nb = "0*y"\na = "exp(0)"\n')
    spec = cli._build_spec(cli._load_config(cfg))
    assert not isinstance(spec.drift, Const) and spec.diffusion == Const(1.0)


def _read_keys(tree: ast.Module) -> list[tuple[str, str]]:
    """(section, key) of every `_get(conf, "<section>", "<key>", ...)` call."""
    return [(node.args[1].value, node.args[2].value) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_get" and len(node.args) >= 3
            and all(isinstance(arg, ast.Constant) for arg in node.args[1:3])]


def test_detects_read_keys():
    tree = ast.parse('_get(conf, "sim", "dt", 1e-3, float)\n_get(conf, section, "x")\n')
    assert _read_keys(tree) == [("sim", "dt")]


def test_every_declared_key_is_read_and_documented():
    tree = ast.parse((ROOT / "src" / "condflow" / "cli.py").read_text(encoding="utf-8"))
    read = set(_read_keys(tree))
    declared = {(section, key) for section, keys in cli._SECTIONS.items() for key in keys}
    assert read == declared
    # README's config block lists every key once, section by section
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config files", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
    listed, section = {}, None
    for line in block.splitlines():
        if match := re.fullmatch(r"\[(\w+)\]", line.strip()):
            section = match[1]
            listed[section] = []
        elif "=" in line:
            listed[section].append(line.split("=", 1)[0].strip())
    assert listed == {section: list(keys) for section, keys in cli._SECTIONS.items()}
