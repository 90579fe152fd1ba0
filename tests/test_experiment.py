import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import grane
from grane import (
    StrongMonotonicityUnavailableError,
    bundled_config,
    constants_report,
    make_augmented_config,
    run_experiment,
    validate_config,
)
from grane.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_NO_STRONG_MONO,
    EXIT_OK,
    main,
)
from grane.experiment import (
    ConfigError,
    build_game,
    build_graph,
    build_mixing,
    load_config,
    load_experiment,
)
from grane.solvers import centralized_gradient_play, reference_step


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def g2_config_dict():
    return load_config(bundled_config("g2.json"))


# ---------------------------------------------------------------------------
# config building and validation


def test_bundled_configs_exist():
    for name in ("g2.json", "g2r.json", "accel.json", "paper_sec5.json"):
        assert bundled_config(name).exists()
    with pytest.raises(FileNotFoundError):
        bundled_config("nope.json")


def test_validate_bundled_g2():
    report = validate_config(bundled_config("g2.json"))
    assert report.ok
    assert not report.warnings


def test_validate_missing_seed(tmp_path):
    config = g2_config_dict()
    config["game"] = {"type": "quadratic", "n": 4}
    report = validate_config(write_config(tmp_path, config))
    assert not report.ok
    assert any("game.seed" in issue for issue in report.issues)


def test_validate_unknown_graph_type(tmp_path):
    config = g2_config_dict()
    config["graph"]["type"] = "torus"
    report = validate_config(write_config(tmp_path, config))
    assert any("graph.type" in issue for issue in report.issues)


def test_validate_warns_lemma2_unavailable(tmp_path):
    config = load_config(bundled_config("g2r.json"))
    config["solvers"] = [{"name": "bad", "algorithm": "grane", "alpha": 1.0,
                          "path": "lemma2", "max_iters": 10}]
    report = validate_config(write_config(tmp_path, config))
    assert report.ok  # schema is fine, applicability is a warning
    assert any("mu_Fa undefined" in w and "lemma3" in w for w in report.warnings)


def test_build_game_inline_and_quadratic():
    game = build_game(g2_config_dict()["game"])
    assert game.n == 2
    game2 = build_game({"type": "quadratic", "n": 6, "seed": 1})
    assert game2.n == 6
    with pytest.raises(ConfigError):
        build_game({"type": "cubic"})
    # whole floats are counts; fractions and booleans are not truncated
    assert build_game({"type": "quadratic", "n": 6.0, "seed": 1e0}).dumps() == game2.dumps()
    for fieldname, section in (("game.n", {"n": 2.5, "seed": 1}), ("game.n", {"n": True, "seed": 1}),
                               ("game.seed", {"n": 3, "seed": 1.5}),
                               ("game.seed", {"n": 3, "seed": False}),
                               ("game.seed", {"n": 3, "seed": -1})):
        with pytest.raises(ConfigError) as info:
            build_game({"type": "quadratic", **section})
        assert info.value.field == fieldname


def test_build_graph_variants():
    assert len(build_graph({"type": "path"}, 5).edges) == 4
    assert len(build_graph({"type": "complete"}, 5).edges) == 10
    assert len(build_graph({"type": "tree", "seed": 0}, 5).edges) == 4
    inline = build_graph({"type": "inline", "edges": [[0, 1], [1, 2]]}, 3)
    assert inline.is_connected()
    with pytest.raises(ConfigError):
        build_graph({"type": "inline", "edges": [[0, 1]]}, 3)  # disconnected
    with pytest.raises(ConfigError):
        build_graph({"type": "tree"}, 5)  # missing seed
    assert build_graph({"type": "tree", "seed": 7.0}, 5).edges == build_graph(
        {"type": "tree", "seed": 7}, 5).edges
    for seed in (7.9, True, -1):
        with pytest.raises(ConfigError) as info:
            build_graph({"type": "tree", "seed": seed}, 5)
        assert info.value.field == "graph.seed"


def test_build_mixing_variants():
    # heterogeneous degrees, so the two weight rules actually differ
    graph = build_graph({"type": "inline", "edges": [[0, 1], [1, 2], [2, 3], [2, 4]]}, 5)
    lazy = build_mixing({"mixing": "lazy-laplacian"}, graph)
    metro = build_mixing({"mixing": "metropolis"}, graph)
    assert not np.array_equal(lazy.W, metro.W)
    with pytest.raises(ConfigError):
        build_mixing({"mixing": "gossip"}, graph)
    with pytest.raises(ConfigError):
        build_mixing({"mixing": "metropolis", "t": 0.1}, graph)
    with pytest.raises(ConfigError):
        build_mixing({"mixing": "lazy-laplacian", "t": 9.0}, graph)


def test_solver_entry_validation(tmp_path):
    config = g2_config_dict()
    config["solvers"] = []
    report = validate_config(write_config(tmp_path, config))
    assert any("solvers" in issue for issue in report.issues)

    config["solvers"] = [{"algorithm": "centralized"}]
    report = validate_config(write_config(tmp_path, config))
    assert any("algorithm" in issue for issue in report.issues)

    config["solvers"] = [{"algorithm": "grane", "name": "a"},
                         {"algorithm": "grane", "name": "a"}]
    report = validate_config(write_config(tmp_path, config))
    assert any("duplicate" in issue for issue in report.issues)


def _solver0(**fields):
    return lambda config: config["solvers"][0].update(fields)


def _output(**fields):
    return lambda config: config["output"].update(fields)


def _reference(**fields):
    return lambda config: config["reference"].update(fields)


def _game_data(**fields):
    return lambda config: config["game"]["data"].update(fields)


def _quadratic(**fields):
    return lambda config: config.update(game={"type": "quadratic", **fields})


NAN, INF = float("nan"), float("inf")


# (field the error must name, edit of g2.json): validate, run and constants
# must each reject the edited config, naming that field
MALFORMED = [
    ("solvers[0].alpha", _solver0(alpha="remark4")),
    ("solvers[0].alpha", _solver0(alpha=100, path="lemma3")),
    ("solvers[0].alpha", _solver0(alpha=[1.0, 1.0, 1.0])),
    ("solvers[0].beta", _solver0(alpha="remark4", path="lemma3", beta="x")),
    ("solvers[0].beta", _solver0(beta="x")),
    ("solvers[1].path", lambda config: config["solvers"][1].update(path="lemma3")),
    ("reference.step", lambda config: config["reference"].update(step="fast")),
    ("solvers[0].max_iter", _solver0(max_iter=10)),
    ("solvers[0].trace_strid", _solver0(trace_strid=10)),
    ("reference.tolerance", lambda config: config["reference"].update(tolerance=1e-3)),
    ("graph.mixng", lambda config: config["graph"].update(mixng="metropolis")),
    ("game.a_rnge", lambda config: config.update(
        game={"type": "quadratic", "n": 3, "seed": 1, "a_rnge": [1, 2]})),
    ("output.sumary", lambda config: config["output"].update(sumary="s.json")),
    ("<root>.refernce", lambda config: config.update(refernce={})),
    ("solvers[0].alpha", _solver0(alpha=-1.0)),
    ("solvers[0].alpha", _solver0(alpha=-1.0, path="lemma3")),
    ("output.trace", lambda config: config["output"].update(trace="t_{nme}.csv")),
    ("output.trace", lambda config: config["output"].update(trace="t_{0}.csv")),
    ("output.trace", lambda config: config["output"].update(trace="trace.csv")),
    ("output.trace", lambda config: config["output"].update(trace="summary.json")),
    ("output.plot_data", lambda config: config["output"].update(plot_data="summary.json")),
    ("output.summary", lambda config: config["output"].update(summary=5)),
    # output names that would leave the output directory
    pytest.param("output.trace", _output(trace="sub/{name}.csv"), id="output.trace-subdir"),
    pytest.param("solvers[0].name", _solver0(name="a/b"), id="solvers[0].name-slash"),
    pytest.param("solvers[0].name", lambda config: (_output(trace="{name}")(config),
                                                    _solver0(name="..")(config)),
                 id="solvers[0].name-parent"),
    pytest.param("output.summary", _output(summary="../escape.json"), id="output.summary-escape"),
    pytest.param("output.summary", _output(summary="/summary.json"), id="output.summary-absolute"),
    pytest.param("output.summary", _output(summary=".."), id="output.summary-parent"),
    pytest.param("output.plot_data", _output(plot_data=""), id="output.plot_data-empty"),
    pytest.param("output.plot_data", _output(plot_data="."), id="output.plot_data-dot"),
    # solver names that would break the rows of residuals.csv
    pytest.param("solvers[0].name", _solver0(name="a,b"), id="solvers[0].name-comma"),
    pytest.param("solvers[0].name", _solver0(name='a"b'), id="solvers[0].name-quote"),
    pytest.param("solvers[0].name", _solver0(name="a\nb"), id="solvers[0].name-newline"),
    pytest.param("solvers[0].name", _solver0(name="a\rb"), id="solvers[0].name-return"),
    # numbers that are not finite, not whole or out of range
    pytest.param("game.data.b", _game_data(b=[NAN, 0.0]), id="game.data.b-nan"),
    pytest.param("game.data.a", _game_data(a=[2.0, NAN]), id="game.data.a-nan"),
    pytest.param("game.data.C", _game_data(C=[[0.0, INF], [-1.0, 0.0]]), id="game.data.C-inf"),
    pytest.param("game.c_range", lambda config: config.update(
        game={"type": "quadratic", "n": 3, "seed": 1, "c_range": [NAN, NAN]}), id="game.c_range-nan"),
    pytest.param("game.a_range", lambda config: config.update(
        game={"type": "quadratic", "n": 3, "seed": 1, "a_range": [1, INF]}), id="game.a_range-inf"),
    pytest.param("graph.edges", lambda config: config.update(
        graph={"type": "inline", "edges": [[0, 1.7]]}), id="graph.edges-fraction"),
    pytest.param("graph.edges", lambda config: config.update(
        graph={"type": "inline", "edges": [["0", "1"]]}), id="graph.edges-string"),
    pytest.param("solvers[0].beta", _solver0(alpha="remark4", path="lemma3", beta=NAN),
                 id="solvers[0].beta-nan"),
    pytest.param("solvers[0].stop_tol", _solver0(stop_tol=NAN), id="solvers[0].stop_tol-nan"),
    pytest.param("solvers[0].max_iters", _solver0(max_iters=10.5), id="solvers[0].max_iters-fraction"),
    pytest.param("solvers[0].trace_stride", _solver0(trace_stride=3.7),
                 id="solvers[0].trace_stride-fraction"),
    pytest.param("reference.step", _reference(step=NAN), id="reference.step-nan"),
    pytest.param("reference.tol", _reference(tol=NAN), id="reference.tol-nan"),
    pytest.param("reference.tol", _reference(tol=-1), id="reference.tol-negative"),
    pytest.param("reference.max_iters", _reference(max_iters=-5), id="reference.max_iters-negative"),
    # counts and seeds that are fractions or booleans, and steps that are booleans
    pytest.param("game.n", _quadratic(n=3.7, seed=1), id="game.n-fraction"),
    pytest.param("game.n", _quadratic(n=True, seed=1), id="game.n-bool"),
    pytest.param("game.seed", _quadratic(n=3, seed=1.5), id="game.seed-fraction"),
    pytest.param("game.data.n", _game_data(n=2.5), id="game.data.n-fraction"),
    pytest.param("graph.seed", lambda config: config.update(graph={"type": "tree", "seed": 7.9}),
                 id="graph.seed-fraction"),
    pytest.param("solvers[0].max_iters", _solver0(max_iters=True), id="solvers[0].max_iters-bool"),
    pytest.param("solvers[0].step", _solver0(step=True), id="solvers[0].step-bool"),
    pytest.param("reference.step", _reference(step=True), id="reference.step-bool"),
    # a beta on the lemma2 path, which has none
    pytest.param("solvers[0].beta", _solver0(beta=NAN), id="solvers[0].beta-lemma2-nan"),
    pytest.param("solvers[0].beta", _solver0(beta=-3), id="solvers[0].beta-lemma2-negative"),
    # numbers written as text, which float() would parse
    pytest.param("solvers[0].max_iters", _solver0(max_iters="10"), id="solvers[0].max_iters-text"),
    pytest.param("solvers[0].trace_stride", _solver0(trace_stride="10"),
                 id="solvers[0].trace_stride-text"),
    pytest.param("solvers[0].stop_tol", _solver0(stop_tol="0.1"), id="solvers[0].stop_tol-text"),
    pytest.param("solvers[0].beta", _solver0(alpha="remark4", path="lemma3", beta="0.1"),
                 id="solvers[0].beta-text"),
    pytest.param("reference.tol", _reference(tol="1e-3"), id="reference.tol-text"),
    pytest.param("reference.max_iters", _reference(max_iters="100"), id="reference.max_iters-text"),
    pytest.param("game.n", _quadratic(n="20", seed=1), id="game.n-text"),
    pytest.param("game.seed", _quadratic(n=3, seed="7"), id="game.seed-text"),
    pytest.param("game.data.n", _game_data(n="2"), id="game.data.n-text"),
    pytest.param("graph.seed", lambda config: config.update(graph={"type": "tree", "seed": "7"}),
                 id="graph.seed-text"),
    # steps and tolerances that are booleans or infinite
    pytest.param("reference.tol", _reference(tol=True), id="reference.tol-bool"),
    pytest.param("reference.tol", _reference(tol=INF), id="reference.tol-inf"),
    pytest.param("solvers[0].stop_tol", _solver0(stop_tol=True), id="solvers[0].stop_tol-bool"),
    pytest.param("solvers[0].stop_tol", _solver0(stop_tol=INF), id="solvers[0].stop_tol-inf"),
    pytest.param("solvers[0].step", _solver0(step=INF), id="solvers[0].step-inf"),
    pytest.param("reference.step", _reference(step=INF), id="reference.step-inf"),
    # game data, scalings and flags that are text, booleans or infinite
    pytest.param("game.data.a", _game_data(a=["2", "2"]), id="game.data.a-text"),
    pytest.param("game.data.a", _game_data(a=[True, True]), id="game.data.a-bool"),
    pytest.param("game.data.a", _game_data(a=[2.0, True]), id="game.data.a-number-and-bool"),
    pytest.param("game.data.C", _game_data(C=[[0.0, True], [-1.0, 0.0]]),
                 id="game.data.C-number-and-bool"),
    pytest.param("game.data.boxes", _game_data(boxes=[["-10", "10"], ["-10", "10"]]),
                 id="game.data.boxes-text"),
    pytest.param("game.data.boxes", _game_data(boxes=[[False, True], [False, True]]),
                 id="game.data.boxes-bool"),
    pytest.param("solvers[0].alpha", _solver0(alpha=["1", "1"]), id="solvers[0].alpha-text"),
    pytest.param("solvers[0].alpha", _solver0(alpha=True), id="solvers[0].alpha-bool"),
    pytest.param("solvers[0].alpha", _solver0(alpha=INF), id="solvers[0].alpha-inf"),
    pytest.param("game.antisymmetric", _quadratic(n=3, seed=1, antisymmetric="no"),
                 id="game.antisymmetric-text"),
    # coefficient ranges and the lazy-Laplacian t that are text or booleans
    pytest.param("game.box_range", _quadratic(n=3, seed=1, box_range=[True, 2]),
                 id="game.box_range-bool"),
    pytest.param("game.c_range", _quadratic(n=3, seed=1, c_range=[0, True]), id="game.c_range-bool"),
    pytest.param("game.a_range", _quadratic(n=3, seed=1, a_range=["1", "2"]), id="game.a_range-text"),
    pytest.param("graph.t", lambda config: config["graph"].update(t="0.5"), id="graph.t-text"),
    pytest.param("graph.t", lambda config: config["graph"].update(t=True), id="graph.t-bool"),
    # inline game data that is well formed but not a game
    pytest.param("game.data.a", _game_data(a=[2, -1]), id="game.data.a-negative"),
    pytest.param("game.data.C", _game_data(C=[[1.0, 1.0], [-1.0, 0.0]]), id="game.data.C-diagonal"),
    pytest.param("game.data.a", _game_data(a=[[2.0, 2.0]]), id="game.data.a-nested"),
    pytest.param("game.data.b", _game_data(b=[-2.0]), id="game.data.b-short"),
    pytest.param("game.data.C", _game_data(C=[[0.0, 1.0]]), id="game.data.C-shape"),
    pytest.param("game.data.boxes", _game_data(boxes=[[1, -1], [-10, 10]]), id="game.data.boxes-reversed"),
    pytest.param("game.data.boxes", _game_data(boxes=[[-10, 10]]), id="game.data.boxes-count"),
    pytest.param("game.data.n", _game_data(n=3), id="game.data.n-mismatch"),
]


@pytest.mark.parametrize("fieldname, edit", MALFORMED,
                         ids=[getattr(case, "id", None) or case[0] for case in MALFORMED])
def test_malformed_config_rejected_everywhere(tmp_path, capsys, fieldname, edit):
    config = g2_config_dict()
    edit(config)
    path = write_config(tmp_path, config)
    report = validate_config(path)
    assert [issue.split(": ")[0] for issue in report.issues] == [fieldname]
    out_dir = tmp_path / "out"
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert main(["run", str(path), "--output-dir", str(out_dir)]) == EXIT_CONFIG
    assert main(["constants", str(path)]) == EXIT_CONFIG
    assert f"invalid config: {fieldname}:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_comment_allowed_only_at_root(tmp_path):
    config = g2_config_dict()
    config["comment"] = "a note"
    assert validate_config(write_config(tmp_path, config)).ok
    config["graph"]["comment"] = "a note"
    report = validate_config(write_config(tmp_path, config))
    assert report.issues == ["graph.comment: unknown field"]


def test_load_experiment_pairs_and_defaults(tmp_path):
    config = load_config(bundled_config("g2r.json"))
    config["solvers"] = [{"algorithm": "grane", "path": "lemma2", "max_iters": 1e3},
                         {"algorithm": "grane", "alpha": "remark4", "path": "lemma3"}]
    del config["reference"], config["output"]
    exp = load_experiment(write_config(tmp_path, config))
    (sc0, err), (sc1, cfg) = exp.solvers
    assert isinstance(err, StrongMonotonicityUnavailableError)
    assert (sc0.name, sc0.max_iters, sc0.trace_stride) == ("grane-0", 1000, 1)
    assert cfg.path == "lemma3" and cfg.mu_r_Fa > 0
    assert sc1.name == "grane-1" and sc1.max_iters == 1000
    # the reference takes centralized_gradient_play's defaults, the step resolved
    assert exp.reference == {"step": reference_step(exp.game, "auto")}
    assert exp.output == {"trace": "trace_{name}.csv", "summary": "summary.json",
                          "plot_data": "residuals.csv"}


def test_cli_exit_4_stops_before_any_solve(tmp_path):
    config = load_config(bundled_config("g2r.json"))
    config["solvers"][0]["max_iters"] = 10
    config["solvers"].append({"name": "bad", "algorithm": "grane", "alpha": 1.0,
                              "path": "lemma2", "max_iters": 10})
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == EXIT_NO_STRONG_MONO
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# running experiments


def test_run_g2_writes_artifacts(tmp_path):
    summary = run_experiment(bundled_config("g2.json"), output_dir=tmp_path)
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "trace_grane.csv").exists()
    assert (tmp_path / "trace_acc-grane.csv").exists()
    assert (tmp_path / "residuals.csv").exists()

    grane_entry = summary["solvers"]["grane"]
    assert_allclose(grane_entry["constants"]["gamma"], 6.4721, atol=1e-4)
    assert_allclose(grane_entry["step"], 0.047746, atol=1e-6)
    assert_allclose(summary["reference"]["nash_equilibrium"], [0.8, 0.4], atol=1e-10)
    assert grane_entry["final"]["fro_residual"] <= 1e-10

    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["solvers"]["grane"]["constants"] == grane_entry["constants"]


def test_summary_constants_single_source_of_truth(tmp_path):
    summary = run_experiment(bundled_config("g2.json"), output_dir=tmp_path)
    game = build_game(g2_config_dict()["game"])
    graph = build_graph(g2_config_dict()["graph"], game.n)
    mixing = build_mixing(g2_config_dict()["graph"], graph)
    cfg = make_augmented_config(game, mixing, alpha=1.0, path="lemma2")
    entry = summary["solvers"]["grane"]["constants"]
    assert entry["L_Fa"] == cfg.L_Fa
    assert entry["mu_Fa"] == cfg.mu_Fa
    assert entry["gamma"] == cfg.gamma


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(bundled_config("g2.json"), output_dir=a)
    run_experiment(bundled_config("g2.json"), output_dir=b)
    for name in ("summary.json", "trace_grane.csv", "trace_acc-grane.csv",
                 "residuals.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("GRANE_OUTPUT_DIR", str(target))
    run_experiment(bundled_config("g2.json"))
    assert (target / "summary.json").exists()


def test_plot_data_format(tmp_path):
    run_experiment(bundled_config("g2.json"), output_dir=tmp_path)
    lines = (tmp_path / "residuals.csv").read_text().splitlines()
    assert lines[0] == "solver,k,normalized_residual"
    name, k, value = lines[1].split(",")
    assert name == "grane"
    assert k == "0"
    assert float(value) == 1.0


def test_constants_report_g2():
    report = constants_report(bundled_config("g2.json"))
    entry = report["solvers"]["grane"]
    assert_allclose(entry["gamma"], 6.4721, atol=1e-4)
    assert_allclose(entry["L_Fa"], np.sqrt(5) + 1, rtol=1e-12)
    assert entry["mu_Fa"] == 0.5
    assert_allclose(entry["C"], 8.0, rtol=1e-12)
    assert_allclose(entry["alpha_recommended"], 8.0 / 9.0, rtol=1e-12)


def test_constants_report_restricted():
    report = constants_report(bundled_config("g2r.json"))
    entry = report["solvers"]["grane-restricted"]
    assert entry["mu_Fa"] is None
    assert entry["mu_r_Fa"] > 0
    assert entry["path"] == "lemma3"


def test_constants_report_names_an_unavailable_path(tmp_path):
    config = load_config(bundled_config("g2r.json"))
    config["solvers"].append({"name": "strong", "algorithm": "grane", "path": "lemma2"})
    report = constants_report(write_config(tmp_path, config))
    assert set(report["solvers"]) == {"grane-restricted", "strong"}
    assert report["solvers"]["grane-restricted"]["mu_r_Fa"] > 0
    error = report["solvers"]["strong"]
    assert list(error) == ["error"] and "lemma3" in error["error"]


# ---------------------------------------------------------------------------
# command line


def test_cli_run_ok(tmp_path, capsys):
    code = main(["run", str(bundled_config("g2.json")), "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "grane:" in out and "fro_residual" in out


def test_cli_validate_ok(capsys):
    assert main(["validate", str(bundled_config("g2.json"))]) == EXIT_OK
    assert "valid" in capsys.readouterr().out


def test_cli_validate_warning_exits_0(tmp_path, capsys):
    config = load_config(bundled_config("g2r.json"))
    config["solvers"].append({"name": "strong", "algorithm": "grane", "path": "lemma2"})
    assert main(["validate", str(write_config(tmp_path, config))]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("warning: solver 'strong': mu_Fa undefined: ")


def test_cli_constants(capsys):
    assert main(["constants", str(bundled_config("g2.json"))]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert "grane" in data["solvers"]


def test_cli_invalid_config_exit_2(tmp_path, capsys):
    bad = write_config(tmp_path, {"game": {"type": "quadratic", "n": 4}})
    assert main(["run", str(bad)]) == EXIT_CONFIG
    assert main(["validate", str(bad)]) == EXIT_CONFIG
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG


def test_cli_divergence_exit_3(tmp_path):
    config = g2_config_dict()
    config["solvers"] = [{"name": "wild", "algorithm": "grane", "alpha": 1.0,
                          "path": "lemma2", "step": 5.0, "max_iters": 5000}]
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == EXIT_DIVERGENCE


@pytest.mark.filterwarnings("error")
def test_cli_nonfinite_iterate_exit_3(tmp_path, capsys):
    config = g2_config_dict()
    config["solvers"][0]["step"] = 1e6
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == EXIT_DIVERGENCE
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["g2.json", "g2r.json", "accel.json", "paper_sec5.json"])
def test_bundled_references_converge(name):
    exp = load_experiment(bundled_config(name))
    centralized_gradient_play(exp.game, **exp.reference)


def test_cli_reports_unconverged_reference(tmp_path):
    config = g2_config_dict()
    config["reference"]["max_iters"] = 5
    path = write_config(tmp_path, config)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(grane.__file__))}
    result = subprocess.run(
        [sys.executable, "-m", "grane", "run", str(path), "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert result.returncode == EXIT_OK
    assert "RuntimeWarning: reference not converged: 5 iterations" in result.stderr
    # the summary holds the same bytes as that of the same 5 steps run silently
    config["reference"]["tol"] = 0.0
    silent = write_config(tmp_path, config, name="silent.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(silent), "--output-dir", str(tmp_path / "silent")]) == EXIT_OK
    summary = "summary.json"
    assert (tmp_path / "out" / summary).read_bytes() == (tmp_path / "silent" / summary).read_bytes()


def test_acc_grane_rejects_numeric_step(tmp_path):
    config = g2_config_dict()
    config["solvers"][1]["step"] = 0.1
    path = write_config(tmp_path, config)
    report = validate_config(path)
    assert any(issue.startswith("solvers[1].step:") for issue in report.issues)
    with pytest.raises(ConfigError) as err:
        run_experiment(path, output_dir=tmp_path)
    assert err.value.field == "solvers[1].step"


def test_cli_lemma2_unavailable_exit_4(tmp_path, capsys):
    config = load_config(bundled_config("g2r.json"))
    config["solvers"] = [{"name": "bad", "algorithm": "grane", "alpha": 1.0,
                          "path": "lemma2", "max_iters": 10}]
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == EXIT_NO_STRONG_MONO
    assert "lemma3" in capsys.readouterr().err
