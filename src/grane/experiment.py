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

import inspect
import json
import os
import re
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .augmented import (
    StrongMonotonicityUnavailableError,
    condition_report,
    consensual_matrix,
    make_augmented_config,
)
from .games import QuadraticGame, _tolerance, _whole, clamp, make_quadratic_game
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
    reference_step,
)

__all__ = [
    "ConfigError",
    "Experiment",
    "ValidationReport",
    "build_game",
    "build_graph",
    "build_mixing",
    "bundled_config",
    "constants_report",
    "load_config",
    "load_experiment",
    "run_experiment",
    "validate_config",
]

OUTPUT_DIR_ENV = "GRANE_OUTPUT_DIR"

_MIXINGS = ("lazy-laplacian", "metropolis")
_THRESHOLDS = (1e-2, 1e-4, 1e-6)

# the fields each config section accepts; the output fields map to their defaults
_ROOT_FIELDS = ("comment", "game", "graph", "solvers", "reference", "output")
_GRAPH_FIELDS = ("type", "seed", "edges", "mixing", "t")
_QUADRATIC_FIELDS = ("type", *inspect.signature(make_quadratic_game).parameters)
_SOLVER_FIELDS = tuple(f.name for f in fields(SolverConfig))
_OUTPUTS = {"trace": "trace_{name}.csv", "summary": "summary.json", "plot_data": "residuals.csv"}


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


def _known(section, keys, where: str) -> dict:
    """``section``, after checking that it is an object without unknown fields."""
    if not isinstance(section, dict):
        raise ConfigError(where, "expected an object")
    for key in section:
        if key not in keys:
            raise ConfigError(f"{where}.{key}", "unknown field")
    return section


@contextmanager
def _fields(where: str, keys=()):
    """Re-raise a KeyError, ValueError, TypeError or OverflowError as a ConfigError at
    ``where.key`` when its message starts with one of ``keys``, else at ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        key = re.match(r"\w*", str(exc)).group()
        raise ConfigError(f"{where}.{key}" if key in keys else where, str(exc)) from exc


def build_game(section: dict) -> QuadraticGame:
    kind = _require(section, "type", "game")
    if kind == "inline":
        data = _require(_known(section, ("type", "data"), "game"), "data", "game")
        with _fields("game.data", ("n", "a", "b", "C", "boxes")):
            return QuadraticGame.from_json(data)
    if kind == "quadratic":
        params = {k: v for k, v in _known(section, _QUADRATIC_FIELDS, "game").items() if k != "type"}
        with _fields("game", _QUADRATIC_FIELDS):
            params["n"] = _whole("n", _require(section, "n", "game"))
            params["seed"] = _whole("seed", _require(section, "seed", "game"), low=0)
            return make_quadratic_game(**params)
    raise ConfigError("game.type", f"unknown game type {kind!r}")


def build_graph(section: dict, n: int) -> Graph:
    kind = _require(_known(section, _GRAPH_FIELDS, "graph"), "type", "graph")
    with _fields("graph", ("seed",)):
        if kind == "tree":
            return random_tree(n, _whole("seed", _require(section, "seed", "graph"), low=0))
        if kind == "path":
            return path_graph(n)
        if kind == "complete":
            return complete_graph(n)
        if kind == "inline":
            edges = _require(section, "edges", "graph")
            with _fields("graph.edges"):
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
    with _fields("graph.t"):
        return mixing_from_laplacian(graph, t=section.get("t"))


def _bare(name: str) -> bool:
    """Whether ``name`` is a file name without a directory part, so that the
    file lands directly in the output directory."""
    return name not in ("", ".", "..") and os.path.basename(name) == name


Experiment = namedtuple("Experiment", "game graph mixing reference solvers output")


def load_experiment(path) -> Experiment:
    """Parse a config file and build everything a run needs, without solving.

    Anything a run would reject, an unknown field included (the root may
    carry a ``comment``), raises a :class:`ConfigError` naming its field; so
    does an output trace pattern that fails to format with a solver name or
    sends two outputs to one file, an output that is not a bare file name, and
    a solver name holding a comma, a double quote or a line break, which would
    break the rows of ``residuals.csv``.
    ``reference`` holds the keyword arguments of ``centralized_gradient_play``
    with the step resolved; ``solvers`` pairs each entry's ``SolverConfig``
    with its ``AugmentedConfig``, or with the
    ``StrongMonotonicityUnavailableError`` when its path has no constant.
    """
    config = _known(load_config(path), _ROOT_FIELDS, "<root>")
    game = build_game(_require(config, "game", "<root>"))
    graph = build_graph(_require(config, "graph", "<root>"), game.n)
    mixing = build_mixing(config["graph"], graph)

    resolve = {"step": partial(reference_step, game),
               "max_iters": partial(_whole, "max_iters"), "tol": partial(_tolerance, "tol")}
    section = _known(config.get("reference", {}), resolve, "reference")
    with _fields("reference", resolve):
        reference = {key: resolve[key](value) for key, value in {"step": "auto", **section}.items()}

    entries = _require(config, "solvers", "<root>")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("solvers", "expected a nonempty list")
    solvers = []
    for idx, entry in enumerate(entries):
        where = f"solvers[{idx}]"
        algorithm = _require(_known(entry, _SOLVER_FIELDS, where), "algorithm", where)
        with _fields(where, _SOLVER_FIELDS):
            sc = SolverConfig(**{"name": f"{algorithm}-{idx}", **entry})
            try:
                cfg = make_augmented_config(game, mixing, sc.alpha, sc.path, sc.beta)
            except StrongMonotonicityUnavailableError as exc:
                cfg = exc
        if any(ch in str(sc.name) for ch in ',"\n\r'):
            raise ConfigError(f"{where}.name", f"{sc.name!r} would break the CSV outputs")
        if any(sc.name == other.name for other, _ in solvers):
            raise ConfigError(f"{where}.name", f"duplicate solver name {sc.name!r}")
        solvers.append((sc, cfg))

    output = {**_OUTPUTS, **_known(config.get("output", {}), _OUTPUTS, "output")}
    for key, value in output.items():
        if not isinstance(value, str):
            raise ConfigError(f"output.{key}", f"expected a file name, got {value!r}")
        if key != "trace" and not _bare(value):
            raise ConfigError(f"output.{key}", f"{value!r} is not a bare file name")
    pattern = output["trace"]
    try:
        traces = [pattern.format(name=sc.name) for sc, _ in solvers]
    except (AttributeError, IndexError, KeyError, ValueError) as exc:
        raise ConfigError("output.trace", f"bad pattern {pattern!r}: {exc!r}") from exc
    for idx, ((sc, _), trace) in enumerate(zip(solvers, traces)):
        if not _bare(trace):
            where = "output.trace" if _bare(str(sc.name)) else f"solvers[{idx}].name"
            raise ConfigError(where, f"trace file {trace!r} is not a bare file name")
    files = {output["summary"]}
    for key, file in [("plot_data", output["plot_data"]), *(("trace", t) for t in traces)]:
        if file in files:
            raise ConfigError(f"output.{key}", f"two outputs would be written to {file!r}")
        files.add(file)
    return Experiment(game, graph, mixing, reference, solvers, output)


@dataclass
class ValidationReport:
    """Schema issues (fatal) and semantic warnings for a config."""

    issues: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_config(path) -> ValidationReport:
    """Run every check ``run`` makes, without solving.

    Fatal problems (any :class:`ConfigError` of :func:`load_experiment`)
    land in ``issues``; semantic findings, such as a requested
    strong-monotonicity path whose constant does not exist or a mixing
    matrix failing its structural checks, land in ``warnings``.
    """
    report = ValidationReport()
    try:
        exp = load_experiment(path)
    except ConfigError as exc:
        report.issues.append(str(exc))
        return report

    mix_check = validate_mixing(exp.mixing)
    if not mix_check.passed:
        report.warnings.append(f"mixing matrix failed checks: {mix_check.failures}")

    for sc, cfg in exp.solvers:
        if isinstance(cfg, StrongMonotonicityUnavailableError):
            report.warnings.append(f"solver {sc.name!r}: mu_Fa undefined: {cfg}")
    return report


def constants_report(path) -> dict:
    """Computed constants and condition-number report, without solving."""
    exp = load_experiment(path)
    game = exp.game
    out = {"game": {"n": game.n, "antisymmetric": game.antisymmetric}, "solvers": {}}
    for sc, cfg in exp.solvers:
        if isinstance(cfg, StrongMonotonicityUnavailableError):
            out["solvers"][sc.name] = {"error": str(cfg)}
            continue
        entry = cfg.to_json()
        if game.constants.mu_F > 0:
            cond = condition_report(cfg, game.constants, exp.mixing)
            keys = ("C", "alpha_recommended", "bound", "bound_holds")
            entry.update((key, getattr(cond, key)) for key in keys)
        out["solvers"][sc.name] = entry
    return out


def run_experiment(path, output_dir=None) -> dict:
    """Run every solver in the config and write traces, summary and plot data.

    ``output_dir`` defaults to the ``GRANE_OUTPUT_DIR`` environment variable
    and then to the current directory. A solver entry without the constant
    of its path stops the run before any solve. Returns the summary dict
    (also written as JSON).
    """
    exp = load_experiment(path)
    game, mixing = exp.game, exp.mixing
    for _, cfg in exp.solvers:
        if isinstance(cfg, StrongMonotonicityUnavailableError):
            raise cfg

    out_dir = Path(output_dir or os.environ.get(OUTPUT_DIR_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    x_star = centralized_gradient_play(game, **exp.reference)
    X_star = consensual_matrix(x_star)
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
            "edges": len(exp.graph.edges),
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
    for sc, cfg in exp.solvers:
        run = grane_run if sc.algorithm == "grane" else acc_grane_run
        _, trace = run(game, mixing, cfg, sc, reference=X_star)
        trace.to_csv(out_dir / exp.output["trace"].format(name=sc.name))

        norm = trace.normalized_residuals()
        for rec in trace.records:
            plot_rows.append((sc.name, rec["k"], float(norm[rec["k"]])))

        constants = cfg.to_json()
        summary["solvers"][sc.name] = {
            "algorithm": sc.algorithm,
            **{key: constants.pop(key) for key in ("path", "alpha", "beta")},
            "step": trace.metadata["step"],
            "constants": constants,
            "iterations_run": trace.metadata["iterations"],
            "stop_reason": trace.metadata["stop_reason"],
            "final": trace.final_record(),
            "final_normalized_residual": float(norm[-1]),
            "iterations_to": {
                f"{thr:.0e}": trace.iterations_to(thr) for thr in _THRESHOLDS
            },
        }

    with open(out_dir / exp.output["plot_data"], "w") as fh:
        fh.write("solver,k,normalized_residual\n")
        for name, k, value in plot_rows:
            fh.write("%s,%d,%.17g\n" % (name, k, value))

    with open(out_dir / exp.output["summary"], "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
