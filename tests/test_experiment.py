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
