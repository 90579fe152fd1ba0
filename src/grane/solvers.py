"""Distributed gradient play, its Nesterov acceleration, and the
centralized reference solver.

All three solvers are projected gradient iterations for a variational
inequality. The distributed ones act on ``n x n`` estimate matrices with the
augmented mapping ``F_a``:

* :func:`grane_run` iterates ``X <- P(X - step * F_a(X))`` and, with the
  step ``mu / L**2`` of the selected monotonicity path, contracts the
  squared distance to the equilibrium matrix by ``(1 - 1/gamma**2)`` per
  iteration, ``gamma = L/mu``.
* :func:`acc_grane_run` maintains the weighted averages of an estimate
  sequence (weights ``lam_0 = 1``, ``lam_{k+1} = S_k / gamma``) and reaches
  accuracy on a ``gamma`` rather than ``gamma**2`` iteration scale; it needs
  the full strong-monotonicity constant.
* :func:`centralized_gradient_play` solves the underlying ``n``-dimensional
  game directly and provides the reference equilibrium for traces.

Each solver only supplies its step; one driver, :func:`_iterate`, counts the
iterations, measures the iterate movement, guards against divergence,
applies the stopping tolerance and hands every iterate to the trace. Every
run is deterministic given its inputs; traces record per-iteration residuals
and export to CSV.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .augmented import (
    AugmentedConfig,
    StrongMonotonicityUnavailableError,
    augmented_mapping,
    clamp_diagonal,
    consensus_gap,
    is_feasible_estimate,
)
from .games import Game, clamp
from .network import MixingMatrix

__all__ = [
    "ConvergenceTrace",
    "DivergenceError",
    "SolverConfig",
    "acc_grane_run",
    "centralized_gradient_play",
    "grane_run",
    "reference_step",
    "residual_metrics",
]

# a 10x step-norm growth over this many iterations aborts the run
_GUARD_WINDOW = 100
_GUARD_FACTOR = 10.0

TRACE_COLUMNS = ("k", "fro_residual", "relative_error", "consensus_gap", "vi_residual")


class DivergenceError(RuntimeError):
    """The iteration is growing instead of contracting, or left the finite
    numbers (step size too large)."""


@dataclass
class SolverConfig:
    """Settings of one solver run.

    ``step='auto'`` resolves to ``mu / L**2`` with the constants of the
    selected path; ``acc-grane`` takes its two steps from the constants and
    needs ``step='auto'`` and ``path='lemma2'``. ``alpha`` is a uniform
    value, an explicit per-player list, or ``'remark4'`` for the automatic
    restricted-path scaling; ``beta`` optionally overrides its balance parameter.
    ``stop_tol`` stops the run early once the iterate movement falls below
    it (0 disables). Full residual records are kept every ``trace_stride``
    iterations; the cheap distance-to-reference history is always dense.
    """

    algorithm: str = "grane"
    step: float | str = "auto"
    max_iters: int = 1000
    stop_tol: float = 0.0
    alpha: float | str | list = 1.0
    path: str = "lemma2"
    beta: float | None = None
    trace_stride: int = 1
    name: str | None = None

    def __post_init__(self):
        for name, cast in (("max_iters", int), ("stop_tol", float),
                           ("trace_stride", int), ("beta", float)):
            value = getattr(self, name)
            try:
                setattr(self, name, None if value is None else cast(value))
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a number, got {value!r}") from None
        if self.algorithm not in ("grane", "acc-grane"):
            raise ValueError(f"algorithm must be 'grane' or 'acc-grane', got {self.algorithm!r}")
        if self.path not in ("lemma2", "lemma3"):
            raise ValueError(f"path must be 'lemma2' or 'lemma3', got {self.path!r}")
        if self.algorithm == "acc-grane" and self.step != "auto":
            raise ValueError("step must be 'auto' for acc-grane, which steps by 1/mu and 1/L")
        if self.algorithm == "acc-grane" and self.path != "lemma2":
            raise ValueError("path must be 'lemma2' for acc-grane, which needs mu_Fa")
        if self.step != "auto" and (isinstance(self.step, str) or not self.step > 0):
            raise ValueError(f"step must be positive or 'auto', got {self.step!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be nonnegative")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be positive")

    def resolve_step(self, cfg: AugmentedConfig) -> float:
        if self.step == "auto":
            return cfg.mu / cfg.L_Fa**2
        return float(self.step)


class ConvergenceTrace:
    """Residual history of a solver run.

    ``records`` holds one full metrics row per recorded iteration (strided);
    ``dense_fro`` holds the per-iteration distance to the reference matrix,
    from iteration 0 onward.
    """

    def __init__(self, stride: int = 1, metadata: dict | None = None):
        self.stride = stride
        self.metadata = dict(metadata or {})
        self.records: list[dict] = []
        self.dense_fro: list[float] = []

    # -- recording -----------------------------------------------------

    def push_record(self, k: int, metrics: dict):
        if self.records and k <= self.records[-1]["k"]:
            raise ValueError("iteration indices must be strictly increasing")
        self.records.append({"k": k, **metrics})

    # -- queries ---------------------------------------------------------

    def normalized_residuals(self) -> np.ndarray:
        """Dense ``|X_k - X*| / |X_0 - X*|`` history."""
        dense = np.asarray(self.dense_fro, dtype=float)
        if dense.size == 0 or dense[0] == 0.0:
            return dense
        return dense / dense[0]

    def iterations_to(self, threshold: float):
        """First iteration whose normalized residual is at or below ``threshold``."""
        norm = self.normalized_residuals()
        hits = np.nonzero(norm <= threshold)[0]
        return int(hits[0]) if hits.size else None

    def final_record(self) -> dict:
        return dict(self.records[-1])

    # -- export ----------------------------------------------------------

    def to_csv(self, path):
        """Write the recorded rows, one line per record, 17 significant digits."""
        with open(path, "w") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for rec in self.records:
                fh.write("%d,%.17g,%.17g,%.17g,%.17g\n" % tuple(rec[c] for c in TRACE_COLUMNS))


def residual_metrics(X, X_ref, X0, game: Game, mixing: MixingMatrix, alpha) -> dict:
    """The four residuals recorded per iteration.

    ``fro_residual`` is the Frobenius distance to the reference,
    ``relative_error`` the squared ratio against the distance to the start
    (``inf`` when the start coincides with the iterate but not the
    reference), ``consensus_gap`` the largest row disagreement, and
    ``vi_residual`` the fixed-point residual ``|X - P(X - F_a(X))|``.
    """
    X = np.asarray(X, dtype=float)
    num = float(np.linalg.norm(X - X_ref)) if X_ref is not None else float("nan")
    den = float(np.linalg.norm(X - X0)) if X0 is not None else float("nan")
    if X_ref is None or X0 is None:
        rel = float("nan")
    elif den == 0.0:
        rel = 0.0 if num == 0.0 else float("inf")
    else:
        rel = num**2 / den**2
    step_point = clamp_diagonal(X - augmented_mapping(game, mixing, alpha, X), game.lo, game.hi)
    return {
        "fro_residual": num,
        "relative_error": rel,
        "consensus_gap": consensus_gap(X),
        "vi_residual": float(np.linalg.norm(X - step_point)),
    }


def _norm(d: np.ndarray) -> float:
    """``np.linalg.norm(d)`` of a float array, without its argument handling."""
    d = d.ravel(order="K")
    return math.sqrt(d.dot(d))


@np.errstate(over="ignore", invalid="ignore")
def _iterate(step, x, max_iters: int, stop_tol: float, observe):
    """Iterate ``x <- step(x)``; returns the last iterate, the step count and
    the last step's movement (infinite when no step was taken).

    ``observe(k, x, last)`` sees iterate ``k`` for ``k = 0, 1, ...``, with
    ``last`` true on the final one. The run stops after ``max_iters`` steps
    or after a step that moves the iterate by at most ``stop_tol`` (0
    disables). It raises :class:`DivergenceError` when a move is not finite,
    or when a move exceeds both ``_GUARD_FACTOR`` times the move
    ``_GUARD_WINDOW`` steps earlier and 1e-8 times the first nonzero move.
    Overflow is reported by that error alone: numpy's warnings about it are
    silenced for the whole run.
    """
    observe(0, x, max_iters == 0)
    window = [0.0] * _GUARD_WINDOW  # the last moves, by k % _GUARD_WINDOW
    floor = 0.0
    k, move = 0, math.inf
    while k < max_iters:
        x_new = step(x)
        move = _norm(x_new - x)
        k += 1
        if not math.isfinite(move):
            raise DivergenceError(
                f"non-finite iterate movement at iteration {k}; reduce the step size"
            )
        old = window[k % _GUARD_WINDOW]
        if old > 0.0 and move > _GUARD_FACTOR * old and move > floor:
            raise DivergenceError(
                f"step norm grew from {old:.3g} to {move:.3g} within "
                f"{_GUARD_WINDOW} iterations; reduce the step size"
            )
        window[k % _GUARD_WINDOW] = move
        if floor == 0.0 and move > 0.0:
            floor = 1e-8 * move
        x = x_new
        stop = stop_tol > 0.0 and move <= stop_tol
        observe(k, x, stop or k == max_iters)
        if stop:
            break
    return x, k, move


def _start_matrix(game: Game, X0, name: str) -> np.ndarray:
    """``X0`` as a C-ordered float array, or the zero matrix with a clamped
    diagonal; every matrix the solvers derive from it is C-ordered too."""
    if X0 is None:
        return clamp_diagonal(np.zeros((game.n, game.n)), game.lo, game.hi)
    X = np.array(X0, dtype=float, order="C")
    if not is_feasible_estimate(game.boxes, X):
        raise ValueError(f"{name} has an infeasible diagonal")
    return X


def _observer(trace: ConvergenceTrace, game, mixing, alpha, reference, X_start):
    """The driver's callback for a distributed run: the distance to
    ``reference`` at every iterate, a full record every ``trace.stride`` and
    at the last."""
    X_ref = None if reference is None else np.asarray(reference, dtype=float)
    dense, stride = trace.dense_fro.append, trace.stride

    def observe(k, X, last):
        dense(_norm(X - X_ref) if X_ref is not None else math.nan)
        if k % stride == 0 or last:
            trace.push_record(k, residual_metrics(X, X_ref, X_start, game, mixing, alpha))

    return observe


def grane_run(
    game: Game,
    mixing: MixingMatrix,
    cfg: AugmentedConfig,
    sc: SolverConfig,
    X0=None,
    reference=None,
):
    """Run distributed gradient play on the estimate matrix.

    Each iteration is ``X <- P(X - step * F_a(X))``. ``X0`` defaults to the
    zero matrix with a clamped diagonal and must have a feasible diagonal if
    supplied. ``reference`` is the equilibrium matrix used for residuals
    (rows all equal to the reference Nash equilibrium). Returns the final
    matrix and the trace.
    """
    X = _start_matrix(game, X0, "X0")
    lam = sc.resolve_step(cfg)
    lo, hi, alpha = game.lo, game.hi, cfg.alpha

    def step(X):
        return clamp_diagonal(X - lam * augmented_mapping(game, mixing, alpha, X), lo, hi)

    trace = ConvergenceTrace(stride=sc.trace_stride, metadata={"step": lam})
    observe = _observer(trace, game, mixing, alpha, reference, X)
    X, k, _ = _iterate(step, X, sc.max_iters, sc.stop_tol, observe)
    trace.metadata["iterations"] = k
    return X, trace


def acc_grane_run(
    game: Game,
    mixing: MixingMatrix,
    cfg: AugmentedConfig,
    sc: SolverConfig,
    Y0=None,
    reference=None,
):
    """Run the accelerated gradient play; returns the averaged output.

    Iteration ``k`` forms ``X_k`` by projecting the weighted average of
    ``Y_t - F_a(Y_t)/mu`` over ``t <= k`` and takes ``Y_{k+1}`` as a
    ``1/L`` gradient step from ``X_k``; the reported output is the weighted
    average of the ``Y_t`` themselves. The running sums make each iteration
    O(n^2) instead of re-averaging the whole history; they are jointly
    rescaled when the geometrically growing weights approach overflow,
    which leaves every iterate unchanged. Requires the strong-monotonicity
    constant (``cfg.mu_Fa``). Records run over ``k = 0 .. max_iters - 1``,
    and the iteration ``k = 0`` counts as one of the ``max_iters``.
    """
    if cfg.mu_Fa is None:
        raise StrongMonotonicityUnavailableError(
            "acceleration needs the strong-monotonicity constant; it is "
            "undefined for this configuration"
        )
    mu, L = cfg.mu_Fa, cfg.L_Fa
    gamma = L / mu
    Y = _start_matrix(game, Y0, "Y0")
    lo, hi, alpha = game.lo, game.hi, cfg.alpha

    trace = ConvergenceTrace(
        stride=sc.trace_stride,
        metadata={"step": {"averaging": 1.0 / mu, "gradient": 1.0 / L}},
    )
    A = np.zeros_like(Y)  # sum of lam_t * Y_t
    B = np.zeros_like(Y)  # sum of lam_t * (Y_t - F_a(Y_t)/mu)
    S = 0.0
    lam_t = 1.0

    def step(_):
        """Fold ``Y_k`` into the sums, step to ``Y_{k+1}``; returns the average."""
        nonlocal Y, A, B, S, lam_t
        A += lam_t * Y
        B += lam_t * (Y - augmented_mapping(game, mixing, alpha, Y) / mu)
        S += lam_t
        X_k = clamp_diagonal(B / S, lo, hi)
        Y = clamp_diagonal(X_k - augmented_mapping(game, mixing, alpha, X_k) / L, lo, hi)
        y_tilde = A / S
        lam_t = S / gamma
        if S > 1e100:  # rescale the running sums; ratios are unaffected
            A /= S
            B /= S
            lam_t /= S
            S = 1.0
        return y_tilde

    observe = _observer(trace, game, mixing, alpha, reference, Y)
    y_tilde = step(None)  # iteration 0; its average is the start itself
    y_tilde, k, _ = _iterate(step, y_tilde, sc.max_iters - 1, sc.stop_tol, observe)
    trace.metadata["iterations"] = k + 1
    return y_tilde, trace


def reference_step(game: Game, step) -> float:
    """The step of :func:`centralized_gradient_play`: ``step`` itself when
    positive, or for ``'auto'`` ``mu_F / (sqrt(n) * max_i L_(i))**2``, a
    conservative bound on the mapping's Lipschitz constant; needs ``mu_F > 0``."""
    if step == "auto":
        constants = game.constants
        if constants.mu_F <= 0:
            raise ValueError("step 'auto' needs mu_F > 0; supply an explicit step")
        L = np.sqrt(game.n) * constants.mapping_lipschitz
        return constants.mu_F / L**2
    if not isinstance(step, (int, float)) or step <= 0:
        raise ValueError(f"step must be positive or 'auto', got {step!r}")
    return step


def centralized_gradient_play(
    game: Game,
    step: float | str = "auto",
    max_iters: int = 20000,
    tol: float = 1e-12,
    x0=None,
):
    """Projected gradient play ``x <- P(x - step * F(x))`` on the joint
    action space.

    Serves as the ground-truth oracle for the distributed runs; ``step`` is
    resolved by :func:`reference_step`. Stops when the iterate moves by at
    most ``tol`` (0 runs all ``max_iters``). Stopping at ``max_iters`` with
    ``tol > 0`` unmet emits a ``RuntimeWarning`` giving the iteration count
    and the last move, and still returns the last iterate.
    """
    step = reference_step(game, step)
    lo, hi = game.lo, game.hi
    x = clamp(np.zeros(game.n) if x0 is None else np.array(x0, dtype=float), lo, hi)
    x, k, move = _iterate(
        lambda x: clamp(x - step * game.mapping(x), lo, hi),
        x,
        max_iters,
        tol,
        lambda k, x, last: None,
    )
    if tol > 0.0 and move > tol:
        warnings.warn(
            f"reference not converged: {k} iterations, last move {move:.3g} > tol {tol:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return x
