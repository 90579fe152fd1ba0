"""Experiment harness: JSON configs in, traces and summaries out.

A config file wires one game, one communication graph and any number of
solver runs against a shared centralized reference. ``run_experiment``
writes one trace CSV per solver, a summary JSON with every computed
constant and the iterations-to-threshold table, and a long-format CSV of
normalized residuals for plotting. The outputs are a pure function of the
config bytes: rerunning a config reproduces them byte for byte.

Config layout (see the bundled files under ``grane/configs``)::

    {
      "game":   {"type": "quadratic", "n": ..., "seed": ..., ...}
                or {"type": "inline", "data": {n, a, b, C, boxes}},
      "graph":  {"type": "tree"|"path"|"complete"|"inline", "seed": ...,
                 "mixing": "lazy-laplacian"|"metropolis", "t": optional},
      "solvers": [{"name": ..., "algorithm": "grane"|"acc-grane",
                   "alpha": number|list|"remark4", "path": "lemma2"|"lemma3",
                   "step": "auto"|number (grane only), "max_iters": ..., ...},
                  ...],
      "reference": {"step": "auto"|number, "max_iters": ..., "tol": ...},
      "output": {"trace": "trace_{name}.csv", "summary": "summary.json",
                 "plot_data": "residuals.csv"}
    }
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augmented import (
    StrongMonotonicityUnavailableError,
    condition_report,
    consensual_matrix,
    make_augmented_config,
    strong_monotonicity_constant,
)
from .games import QuadraticGame, clamp, make_quadratic_game
from .network import (
    Graph,
    complete_graph,
    mixing_from_laplacian,
    mixing_metropolis,
    path_graph,
    random_tree,
    validate_mixing,
)
from .solvers import (
    SolverConfig,
    acc_grane_run,
    centralized_gradient_play,
    grane_run,
)

__all__ = [
    "ConfigError",
    "ValidationReport",
    "build_game",
    "build_graph",
    "build_mixing",
    "bundled_config",
    "constants_report",
    "load_config",
    "run_experiment",
    "validate_config",
]

OUTPUT_DIR_ENV = "GRANE_OUTPUT_DIR"

_MIXINGS = ("lazy-laplacian", "metropolis")
_THRESHOLDS = (1e-2, 1e-4, 1e-6)


class ConfigError(ValueError):
    """A config file violates the schema; ``field`` names the offender."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.field = fieldname


def bundled_config(name: str) -> Path:
    """Path of a reference config shipped with the package."""
    path = Path(__file__).parent / "configs" / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled config named {name!r}")
    return path


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"not valid JSON: {exc}") from exc


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key}", "required field is missing")
    return section[key]


def build_game(section: dict) -> QuadraticGame:
    kind = _require(section, "type", "game")
    if kind == "inline":
        data = _require(section, "data", "game")
        try:
            return QuadraticGame.from_json(data)
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError("game.data", str(exc)) from exc
    if kind == "quadratic":
        n = int(_require(section, "n", "game"))
        seed = _require(section, "seed", "game")
        try:
            return make_quadratic_game(
                n,
                int(seed),
                a_range=tuple(section.get("a_range", (1.0, 2.0))),
                b_range=tuple(section.get("b_range", (-1.0, 1.0))),
                c_range=tuple(section.get("c_range", (-0.01, 0.01))),
                box_range=tuple(section.get("box_range", (5.0, 10.0))),
                antisymmetric=bool(section.get("antisymmetric", True)),
            )
        except ValueError as exc:
            raise ConfigError("game", str(exc)) from exc
    raise ConfigError("game.type", f"unknown game type {kind!r}")


def build_graph(section: dict, n: int) -> Graph:
    kind = _require(section, "type", "graph")
    if kind == "tree":
        seed = _require(section, "seed", "graph")
        return random_tree(n, int(seed))
    if kind == "path":
        return path_graph(n)
    if kind == "complete":
        return complete_graph(n)
    if kind == "inline":
        edges = _require(section, "edges", "graph")
        graph = Graph(n, edges)
        if not graph.is_connected():
            raise ConfigError("graph.edges", "inline graph is not connected")
        return graph
    raise ConfigError("graph.type", f"unknown graph type {kind!r}")


def build_mixing(section: dict, graph: Graph):
    mixing = section.get("mixing", "lazy-laplacian")
    if mixing not in _MIXINGS:
        raise ConfigError("graph.mixing", f"expected one of {_MIXINGS}, got {mixing!r}")
    if mixing == "metropolis":
        if "t" in section:
            raise ConfigError("graph.t", "only meaningful for lazy-laplacian mixing")
        return mixing_metropolis(graph)
    t = section.get("t")
    try:
        return mixing_from_laplacian(graph, t=None if t is None else float(t))
    except ValueError as exc:
        raise ConfigError("graph.t", str(exc)) from exc


def _solver_configs(config: dict) -> list[SolverConfig]:
    entries = _require(config, "solvers", "<root>")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("solvers", "expected a nonempty list")
    out = []
    names = set()
    for idx, entry in enumerate(entries):
        where = f"solvers[{idx}]"
        algorithm = _require(entry, "algorithm", where)
        alpha = entry.get("alpha", 1.0)
        if algorithm == "acc-grane" and entry.get("step", "auto") != "auto":
            raise ConfigError(
                f"{where}.step", "acc-grane takes its steps 1/mu and 1/L from the constants"
            )
        try:
            sc = SolverConfig(
                algorithm=algorithm,
                step=entry.get("step", "auto"),
                max_iters=int(entry.get("max_iters", 1000)),
                stop_tol=float(entry.get("stop_tol", 0.0)),
                alpha=alpha,
                path=entry.get("path", "lemma2"),
                beta=entry.get("beta"),
                trace_stride=int(entry.get("trace_stride", 1)),
                name=entry.get("name", f"{algorithm}-{idx}"),
            )
        except ValueError as exc:
            raise ConfigError(where, str(exc)) from exc
        if sc.name in names:
            raise ConfigError(f"{where}.name", f"duplicate solver name {sc.name!r}")
        names.add(sc.name)
        out.append(sc)
    return out


@dataclass
class ValidationReport:
    """Schema issues (fatal) and semantic warnings for a config."""

    issues: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_config(path) -> ValidationReport:
    """Schema-check a config and precompute solver-path applicability.

    Fatal problems (missing fields, unknown enum values, unbuildable game or
    graph) land in ``issues``; semantic findings, such as a requested
    strong-monotonicity path whose constant does not exist or a mixing
    matrix failing its structural checks, land in ``warnings``.
    """
    report = ValidationReport()
    try:
        config = load_config(path)
        game = build_game(_require(config, "game", "<root>"))
        graph = build_graph(_require(config, "graph", "<root>"), game.n)
        mixing = build_mixing(config["graph"], graph)
        solvers = _solver_configs(config)
    except ConfigError as exc:
        report.issues.append(str(exc))
        return report

    mix_check = validate_mixing(mixing)
    if not mix_check.passed:
        report.warnings.append(f"mixing matrix failed checks: {mix_check.failures}")

    for sc in solvers:
        if sc.path == "lemma2":
            alpha = 1.0 if isinstance(sc.alpha, str) else sc.alpha
            mu = strong_monotonicity_constant(game.constants, mixing, alpha)
            if mu is None:
                report.warnings.append(
                    f"solver {sc.name!r}: mu_Fa undefined for this game and alpha; "
                    "use the lemma3 path"
                )
    return report


def _augmented_for(game, mixing, sc: SolverConfig):
    return make_augmented_config(game, mixing, alpha=sc.alpha, path=sc.path, beta=sc.beta)


def _reference_equilibrium(game, section: dict):
    x_star = centralized_gradient_play(
        game,
        step=section.get("step", "auto"),
        max_iters=int(section.get("max_iters", 20000)),
        tol=float(section.get("tol", 1e-12)),
    )
    return x_star, consensual_matrix(x_star)


def constants_report(path) -> dict:
    """Computed constants and condition-number report, without solving."""
    config = load_config(path)
    game = build_game(_require(config, "game", "<root>"))
    graph = build_graph(_require(config, "graph", "<root>"), game.n)
    mixing = build_mixing(config["graph"], graph)
    out = {"game": {"n": game.n, "antisymmetric": game.antisymmetric}, "solvers": {}}
    for sc in _solver_configs(config):
        try:
            cfg = _augmented_for(game, mixing, sc)
        except (StrongMonotonicityUnavailableError, ValueError) as exc:
            out["solvers"][sc.name] = {"error": str(exc)}
            continue
        entry = cfg.to_json()
        if game.constants.mu_F > 0:
            cond = condition_report(cfg, game.constants, mixing)
            entry["C"] = cond.C
            entry["alpha_recommended"] = cond.alpha_recommended
            entry["bound"] = cond.bound
            entry["bound_holds"] = cond.bound_holds
        out["solvers"][sc.name] = entry
    return out


def run_experiment(path, output_dir=None) -> dict:
    """Run every solver in the config and write traces, summary and plot data.

    ``output_dir`` defaults to the ``GRANE_OUTPUT_DIR`` environment variable
    and then to the current directory. Returns the summary dict (also
    written as JSON).
    """
    config = load_config(path)
    game = build_game(_require(config, "game", "<root>"))
    graph = build_graph(_require(config, "graph", "<root>"), game.n)
    mixing = build_mixing(config["graph"], graph)
    solvers = _solver_configs(config)
    reference_section = config.get("reference", {})
    output_section = config.get("output", {})

    out_dir = Path(output_dir or os.environ.get(OUTPUT_DIR_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_pattern = output_section.get("trace", "trace_{name}.csv")
    summary_name = output_section.get("summary", "summary.json")
    plot_name = output_section.get("plot_data", "residuals.csv")

    x_star, X_star = _reference_equilibrium(game, reference_section)
    fp_residual = float(
        np.linalg.norm(x_star - clamp(x_star - game.mapping(x_star), game.lo, game.hi))
    )

    summary = {
        "game": {
            "n": game.n,
            "antisymmetric": game.antisymmetric,
            "mu_F": game.constants.mu_F,
            "mu_r": game.constants.mu_r,
        },
        "network": {
            "edges": len(graph.edges),
            "sigma_max_IW": mixing.sigma_max_IW,
            "lambda_min_nz_IW": mixing.lambda_min_nz_IW,
        },
        "reference": {
            "nash_equilibrium": [float(v) for v in x_star],
            "fixed_point_residual": fp_residual,
        },
        "solvers": {},
    }

    plot_rows = []
    for sc, entry in zip(solvers, config["solvers"]):
        cfg = _augmented_for(game, mixing, sc)
        if sc.algorithm == "grane":
            _, trace = grane_run(game, mixing, cfg, sc, reference=X_star)
        else:
            _, trace = acc_grane_run(game, mixing, cfg, sc, reference=X_star)
        trace.metadata["config_snapshot"] = {
            "game": config["game"],
            "graph": config["graph"],
            "solver": entry,
        }
        trace.to_csv(out_dir / trace_pattern.format(name=sc.name))

        norm = trace.normalized_residuals()
        for rec in trace.records:
            plot_rows.append((sc.name, rec["k"], float(norm[rec["k"]])))

        entry = {
            "algorithm": sc.algorithm,
            "path": cfg.path,
            "alpha": cfg.alpha.tolist(),
            "beta": cfg.beta,
            "step": trace.metadata.get("step", sc.step),
            "constants": {
                "L_Fa": cfg.L_Fa,
                "mu_Fa": cfg.mu_Fa,
                "mu_r_Fa": cfg.mu_r_Fa,
                "gamma": cfg.gamma,
            },
            "iterations_run": trace.metadata["iterations"],
            "final": trace.final_record(),
            "final_normalized_residual": float(norm[-1]),
            "iterations_to": {
                f"{thr:.0e}": trace.iterations_to(thr) for thr in _THRESHOLDS
            },
        }
        summary["solvers"][sc.name] = entry

    with open(out_dir / plot_name, "w") as fh:
        fh.write("solver,k,normalized_residual\n")
        for name, k, value in plot_rows:
            fh.write("%s,%d,%.17g\n" % (name, k, value))

    with open(out_dir / summary_name, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
