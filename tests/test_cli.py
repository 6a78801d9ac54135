"""The CLI's flags, and what every study subcommand does with bad input:
invalid values and unknown config keys exit 1 without a traceback, and an
estimated cost above the budget exits 2 before any sample is drawn."""

import argparse
import json

import numpy as np
import pytest
from oracles import polyline_rho

from covrad.cli import TABLE, build_parser
from covrad.cli import main as cli_main
from covrad.sampler import SeedSpec, sample
from covrad.spaces import Polyline

COMMON = {"--config": "config", "--seed": "master_seed", "--trials": "trials",
          "--out": "out", "--force": "force"}

# per subcommand: option string -> config key it sets
OPTIONS = {
    "study": {"--domain": "domain", "--n-grid": "n_grid", "--p": "p", "--eta": "probe_eta",
              **COMMON},
    "tail": {"--domain": "domain", "--n": "n", "--thresholds": "thresholds",
             "--eta": "probe_eta", **COMMON},
    "zn": {"--d": "d", "--n-grid": "n_grid", "--eta": "probe_eta", **COMMON},
    "arcsine": {"--a": "a_exponent", "--side": "side", "--n-grid": "n_grid", **COMMON},
    "epsnet": {"--domain": "domain", "--n-grid": "n_grid", "--c-mult": "c_mult", **COMMON},
    "fgrid": {"--N": "n_values", "--n": "n_cell_measures", "--m": "m_values",
              "--config": "config", "--out": "out"},
    "versus": {"--d": "d", "--n-grid": "n_grid", "--eta": "probe_eta", **COMMON},
    "constants": {},
}


def _subparsers() -> dict:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_options_are_pinned(command):
    parser = _subparsers()[command]
    got = {opt: a.dest for a in parser._actions for opt in a.option_strings
           if a.dest != "help"}
    assert got == OPTIONS[command]
    if command in TABLE:
        assert set(got.values()) - {"config"} <= set(TABLE[command][1])


def test_every_subcommand_is_pinned():
    assert set(_subparsers()) == set(OPTIONS)


# per study subcommand: a valid small run, and the flag that sets its N
STUDIES = {
    "study": (["study", "--domain", "interval", "--n-grid", "50", "100"], "--n-grid"),
    "tail": (["tail", "--domain", "interval", "--n", "50"], "--n"),
    "zn": (["zn", "--d", "1", "--n-grid", "50", "100"], "--n-grid"),
    "arcsine": (["arcsine", "--a", "2", "--n-grid", "50", "100"], "--n-grid"),
    "epsnet": (["epsnet", "--domain", "circle", "--n-grid", "50", "100"], "--n-grid"),
    "versus": (["versus", "--d", "1", "--n-grid", "50", "100"], "--n-grid"),
}

# per study subcommand: a configuration estimated above the budget
OVER_BUDGET = {
    "study": ["study", "--domain", "sphere2", "--n-grid", "10000000"],
    "tail": ["tail", "--domain", "sphere2", "--n", "10000000"],
    "zn": ["zn", "--d", "2", "--n-grid", "10000000"],
    "arcsine": ["arcsine", "--a", "2", "--n-grid", "100000000"],
    "epsnet": ["epsnet", "--domain", "sphere2", "--n-grid", "10000000"],
    "versus": ["versus", "--d", "2", "--n-grid", "10000000"],
}


def _exit_1(argv, capsys):
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "Traceback" not in err


@pytest.mark.parametrize("command", sorted(STUDIES))
def test_valid_run(command, capsys):
    argv, _ = STUDIES[command]
    assert cli_main([*argv, "--trials", "2"]) == 0


@pytest.mark.parametrize("command", sorted(STUDIES))
def test_rejects_one_point(command, capsys):
    argv, n_flag = STUDIES[command]
    _exit_1([*argv, "--trials", "3", n_flag, "1"], capsys)


@pytest.mark.parametrize("command", sorted(set(STUDIES) - {"tail"}))
def test_rejects_decreasing_grid(command, capsys):
    argv, _ = STUDIES[command]
    _exit_1([*argv, "--trials", "3", "--n-grid", "100", "50"], capsys)


@pytest.mark.parametrize("command", sorted(STUDIES))
def test_rejects_one_trial(command, capsys):
    argv, _ = STUDIES[command]
    _exit_1([*argv, "--trials", "1"], capsys)


# per study subcommand with an eta: the flag that sets it (epsnet: eta = c_mult / 20)
ETA_FLAG = {"study": "--eta", "tail": "--eta", "zn": "--eta", "epsnet": "--c-mult",
            "versus": "--eta"}


@pytest.mark.parametrize("command", sorted(ETA_FLAG))
def test_rejects_infinite_eta(command, capsys):
    argv, _ = STUDIES[command]
    _exit_1([*argv, "--trials", "3", ETA_FLAG[command], "inf"], capsys)


@pytest.mark.parametrize("command", sorted(STUDIES))
def test_rejects_unknown_config_key(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "n_gird": [50]}))
    argv, _ = STUDIES[command]
    _exit_1([*argv, "--config", str(cfg)], capsys)


@pytest.mark.parametrize("command", sorted(OVER_BUDGET))
def test_refuses_over_budget(command, monkeypatch, capsys):
    def no_sample(*args):
        raise AssertionError("an over-budget study drew a sample")

    monkeypatch.setattr("covrad.experiments.sample", no_sample)
    assert cli_main([*OVER_BUDGET[command], "--trials", "1000"]) == 2
    err = capsys.readouterr().err
    assert "refused" in err and "Traceback" not in err


# per study subcommand with an eta: a net study at N = 1e3 whose eta of 1e-9
# would give its probe net axes of billions of coordinates
TINY_ETA = {
    "study": ["study", "--domain", "sphere2", "--n-grid", "1000", "--eta", "1e-9"],
    "tail": ["tail", "--domain", "sphere2", "--n", "1000", "--eta", "1e-9"],
    "zn": ["zn", "--d", "2", "--n-grid", "1000", "--eta", "1e-9"],
    "epsnet": ["epsnet", "--domain", "sphere2", "--n-grid", "1000", "--c-mult", "2e-8"],
    "versus": ["versus", "--d", "2", "--n-grid", "1000", "--eta", "1e-9"],
}


@pytest.mark.parametrize("command", sorted(TINY_ETA))
def test_refuses_a_tiny_eta_before_any_net_or_sample(command, monkeypatch, capsys):
    for name in ("sample", "build_probe_net"):
        monkeypatch.setattr(f"covrad.experiments.{name}", lambda *a: pytest.fail(
            "a refused study built a net or drew a sample"))
    assert cli_main([*TINY_ETA[command], "--trials", "2"]) == 2
    err = capsys.readouterr().err
    assert "refused" in err and "Traceback" not in err


@pytest.mark.parametrize("force", ["false", "true", 0, None])
def test_rejects_a_force_that_is_not_a_bool(force, tmp_path, monkeypatch, capsys):
    # the string "false" passed the budget gate as true, and an interval study
    # estimated at 2.7e11 started allocating
    for name in ("sample", "build_probe_net"):
        monkeypatch.setattr(f"covrad.experiments.{name}", lambda *a: pytest.fail(
            "a study with a non-bool force built a net or drew a sample"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"force": force, "n_grid": [100000000], "trials": 100}))
    _exit_1(["study", "--domain", "interval", "--config", str(cfg)], capsys)


@pytest.mark.parametrize("domain", [0, 1, True], ids=["stdin", "stdout", "bool"])
def test_rejects_a_domain_that_is_not_a_name_path_or_document(domain, tmp_path, monkeypatch,
                                                              capsys):
    # open() took an int as a file descriptor: 0 read a domain document from
    # stdin and ran its study, and 1 closed stdout
    real_open = open

    def no_descriptor(file, *args, **kwargs):
        if not isinstance(file, str):
            pytest.fail(f"the domain {file!r} reached open()")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("covrad.cli.open", no_descriptor, raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": domain, "n_grid": [50], "trials": 2}))
    out = tmp_path / "s.csv"
    _exit_1(["study", "--config", str(cfg), "--out", str(out)], capsys)
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", sorted(TINY_ETA))
def test_rejects_an_eta_whose_mesh_rounds_to_zero(command, capsys):
    # eta * rho_scale (c_mult / 20 for epsnet) of 0.0 ended in a ZeroDivisionError traceback
    _exit_1([*TINY_ETA[command][:-1], "5e-324", "--trials", "2"], capsys)


def test_fgrid_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3}))
    _exit_1(["fgrid", "--config", str(cfg)], capsys)


@pytest.mark.parametrize("cfg", [{"m_values": [2.5]}, {"m_values": [True]},
                                 {"n_values": [100.5]}], ids=["m-float", "m-bool", "N-float"])
def test_fgrid_rejects_non_integer_n_and_m(cfg, tmp_path, capsys):
    # m = 2.5 ended in an IndexError traceback; the others failed inside f_dp
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "f.csv"
    _exit_1(["fgrid", "--config", str(path), "--out", str(out)], capsys)
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("cfg", [
    {"m_values": [2, 2.5], "n_cell_measures": [2.0], "n_values": [100]},
    {"m_values": [2], "n_cell_measures": [2.0], "n_values": [100, 0]},
    {"n_cell_measures": [10.0, float("nan")]},
    {"n_cell_measures": [10.0, -5.0]},
    {"n_cell_measures": [True]},
], ids=["m-outside-filter", "N-zero", "n-nan", "n-negative", "n-bool"])
def test_fgrid_checks_every_value_before_the_first_row(cfg, tmp_path, capsys):
    # m = 2.5 fails m <= n, so it was once skipped and the m = 2 row written
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "f.csv"
    _exit_1(["fgrid", "--config", str(path), "--out", str(out)], capsys)
    assert list(tmp_path.iterdir()) == [path]


def test_rejects_bool_seed(tmp_path, capsys):
    # true would run stream (1, t) and be echoed to the sidecar as true
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"master_seed": True, "n_grid": [50], "trials": 2}))
    out = tmp_path / "s.csv"
    _exit_1(["study", "--domain", "interval", "--config", str(cfg), "--out", str(out)], capsys)
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("params", [{"kind": "Sphere", "params": {"d": 1.9}},
                                    {"kind": "Cube", "params": {"d": True}},
                                    {"kind": "Cantor", "params": {"depth": 12.9}}])
def test_rejects_non_integer_domain_parameter(params, tmp_path, capsys):
    dom = tmp_path / "domain.json"
    dom.write_text(json.dumps(params))
    out = tmp_path / "s.csv"
    _exit_1(["study", "--domain", str(dom), "--n-grid", "50", "--trials", "2",
             "--out", str(out)], capsys)
    assert list(tmp_path.iterdir()) == [dom]


@pytest.mark.parametrize("params", [3, [3], "3"], ids=["int", "list", "string"])
def test_rejects_domain_params_that_are_not_an_object(params, tmp_path, capsys):
    # params.get on an int, list or string ended in an AttributeError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": {"kind": "Sphere", "params": params},
                               "n_grid": [50], "trials": 2}))
    out = tmp_path / "s.csv"
    _exit_1(["study", "--config", str(cfg), "--out", str(out)], capsys)
    assert list(tmp_path.iterdir()) == [cfg]


def test_rejects_unknown_keys_in_a_domain_document(tmp_path, capsys):
    # the top-level key was dropped and a Cube(2) study ran to exit 0
    dom = tmp_path / "domain.json"
    dom.write_text(json.dumps({"kind": "Cube", "params": {"d": 2}, "junk": 1}))
    out = tmp_path / "s.csv"
    _exit_1(["study", "--domain", str(dom), "--n-grid", "50", "--trials", "2",
             "--out", str(out)], capsys)
    assert list(tmp_path.iterdir()) == [dom]


def test_rejects_a_config_that_is_not_an_object(tmp_path, monkeypatch, capsys):
    # dict.update took a JSON array of pairs as the config it spells out
    monkeypatch.setattr("covrad.experiments.sample", lambda *a: pytest.fail(
        "a study with an array config drew a sample"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([["trials", 3], ["n_grid", [20, 40]]]))
    _exit_1(["study", "--config", str(cfg)], capsys)


def test_rejects_an_empty_out_path(monkeypatch, capsys):
    # a shell's --out "$UNSET": the rows printed, no CSV was written, and the
    # study exited 0
    monkeypatch.setattr("covrad.experiments.sample", lambda *a: pytest.fail(
        "a study with an empty output path drew a sample"))
    _exit_1(["study", "--domain", "sphere2", "--n-grid", "20", "--trials", "2", "--out", ""],
            capsys)


def test_rejects_an_out_path_that_is_a_directory(tmp_path, monkeypatch, capsys):
    # the study ran every trial, then close() failed with "Is a directory"
    monkeypatch.setattr("covrad.experiments.sample", lambda *a: pytest.fail(
        "a study with a directory as its output path drew a sample"))
    _exit_1(["study", "--domain", "interval", "--n-grid", "20", "--trials", "2",
             "--out", str(tmp_path)], capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("doc", [[1, 2], {"params": {"d": 2}}], ids=["list", "no-kind"])
def test_rejects_a_domain_document_with_no_kind(doc, tmp_path, capsys):
    # "list indices must be integers or slices, not str" and "'kind'" named nothing
    dom = tmp_path / "domain.json"
    dom.write_text(json.dumps(doc))
    assert cli_main(["study", "--domain", str(dom), "--n-grid", "50", "--trials", "2"]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "an object with a kind" in err


@pytest.mark.parametrize("command", ["zn", "versus"])
@pytest.mark.parametrize("d", [True, 1.0])
def test_rejects_non_integer_d(command, d, tmp_path, capsys):
    # True and 1.0 would pass as d = 1 and be echoed to the sidecar as given
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": d, "n_grid": [50], "trials": 3}))
    out = tmp_path / "s.csv"
    _exit_1([command, "--config", str(cfg), "--out", str(out)], capsys)
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command,cfg", [
    ("study", {"p": True}), ("study", {"probe_eta": True}), ("tail", {"probe_eta": True}),
    ("tail", {"thresholds": [True]}), ("zn", {"probe_eta": True}),
    ("versus", {"probe_eta": True}), ("arcsine", {"a_exponent": True}),
    ("epsnet", {"c_mult": True}), ("epsnet", {"c_mult": 10**400}),
], ids=["study-p", "study-eta", "tail-eta", "tail-threshold", "zn-eta", "versus-eta",
        "arcsine-a", "epsnet-c_mult", "epsnet-huge-c_mult"])
def test_rejects_bool_or_huge_real(command, cfg, tmp_path, capsys):
    # true would run as 1.0 and be echoed to the sidecar as 1.0; an integer beyond the
    # float range ended in an OverflowError traceback
    path = tmp_path / "cfg.json"
    size = {"n": 50} if command == "tail" else {"n_grid": [50]}
    path.write_text(json.dumps({**size, "trials": 2, **cfg}))
    out = tmp_path / "s.csv"
    _exit_1([command, "--config", str(path), "--out", str(out)], capsys)
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("argv", [
    ["study", "--domain", "interval", "--n-grid", "50", "--p", "nan"],
    ["study", "--domain", "interval", "--n-grid", "50", "--p", "inf"],
    ["tail", "--domain", "interval", "--n", "50", "--thresholds", "0.1", "nan"],
    ["tail", "--domain", "interval", "--n", "50", "--thresholds", "0.1", "inf"],
], ids=["p-nan", "p-inf", "threshold-nan", "threshold-inf"])
def test_rejects_non_finite_p_and_thresholds(argv, tmp_path, capsys):
    out = tmp_path / "s.csv"
    _exit_1([*argv, "--trials", "3", "--out", str(out)], capsys)
    assert not out.exists()


@pytest.mark.parametrize("cfg,flags,message", [
    ({"trials": "5"}, [], "at least two trials"),
    ({"trials": None}, [], "at least two trials"),
    ({}, ["--trials", "3", "--p", "nan"], "moment order p"),
], ids=["string-trials", "null-trials", "p-nan"])
def test_study_warns_only_after_the_config_is_accepted(cfg, flags, message, tmp_path, capsys):
    # the study's own message, with no comparison of trials with 30 before it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_grid": [50], **cfg}))
    assert cli_main(["study", "--domain", "interval", "--config", str(path), *flags]) == 1
    err = capsys.readouterr().err
    assert message in err and "warning" not in err and "Traceback" not in err


def test_study_warns_below_30_trials(capsys):
    assert cli_main(["study", "--domain", "interval", "--n-grid", "50", "--trials", "3"]) == 0
    assert "warning: fewer than 30 trials" in capsys.readouterr().err


TETRAHEDRON = {"vertices": [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
               "tetrahedra": [[0, 1, 2, 3]],
               "faces": [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]}


@pytest.mark.parametrize("params", [
    {**TETRAHEDRON, "tetrahedra": [[0, 1, 2, -1]]},
    {**TETRAHEDRON, "faces": [[0, 2, 1], [0, 1, 9], [0, 9, 2], [1, 2, 9]]},
    {**TETRAHEDRON, "vertices": TETRAHEDRON["vertices"] + [[0, 0, 0], [0.1, 0, 0]],
     "faces": TETRAHEDRON["faces"] + [[4, 5]]},
], ids=["negative-index", "index-past-the-end", "two-vertex-face"])
def test_rejects_bad_polyhedron_indices(params, tmp_path, capsys):
    # a negative index wrapped to the last vertex and one past the end raised
    # IndexError; a two-vertex face passes the edge check, so it is refused
    # on its own
    dom = tmp_path / "domain.json"
    dom.write_text(json.dumps({"kind": "Polyhedron3", "params": params}))
    out = tmp_path / "s.csv"
    _exit_1(["study", "--domain", str(dom), "--n-grid", "50", "--trials", "2",
             "--out", str(out)], capsys)
    assert list(tmp_path.iterdir()) == [dom]


def test_polyline_study_from_an_inline_document(tmp_path, capsys):
    # the config carries the domain document itself, not a name or a path
    vertices = [[0, 0], [1, 0], [1, 2]]
    out = tmp_path / "s.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": {"kind": "Polyline", "params": {"vertices": vertices}},
                               "n_grid": [100], "trials": 5, "probe_eta": 0.2,
                               "out": str(out)}))
    assert cli_main(["study", "--config", str(cfg)]) == 0
    row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
    domain = Polyline(vertices)
    exact = np.mean([polyline_rho(domain, sample(domain, 100, SeedSpec(0, t)).points)
                     for t in range(5)])
    assert float(row["mean_rho_p_lower"]) <= exact <= float(row["mean_rho_p_upper"])
