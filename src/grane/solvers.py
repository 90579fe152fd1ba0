"""Distributed gradient play, its Nesterov acceleration, and the
centralized reference solver.

All three solvers are projected gradient iterations for a variational
inequality. The distributed ones act on ``n x n`` estimate matrices with the
augmented mapping ``F_a``:

* :func:`grane_run` iterates ``X <- P(X - step * F_a(X))`` and, with the
  step ``mu / L**2`` of the selected monotonicity path, contracts the
  squared distance to the equilibrium matrix by ``(1 - 1/gamma**2)`` per
  iteration, ``gamma = L/mu``.
* :func:`acc_grane_run` averages an estimate sequence with the weights
  ``lam_0 = 1``, ``lam_{k+1} = S_k / gamma``, each term after the first
  taking the share ``1/(1 + gamma)``, and reaches accuracy on a ``gamma``
  rather than ``gamma**2`` iteration scale; it needs the full
  strong-monotonicity constant.
* :func:`centralized_gradient_play` solves the underlying ``n``-dimensional
  game directly and provides the reference equilibrium for traces.

Both distributed solvers form every gradient step ``X - s * F_a(X)``
through :func:`~grane.augmented.gradient_map`, which describes its forms.
They step the flat ``n**2`` rows of the estimate matrices, and every
projected step ``P(X - s * F_a(X))`` is one call: the step projects onto the
diagonal boxes itself. Acc-GRANE's averaging step stays unprojected, and it
forms ``X_k`` as one clip of the average against bounds that are infinite
off the diagonal. Matrices are formed from the rows only for the records and
the returned iterate. Residual records always evaluate ``F_a`` itself, so
the ``vi_residual`` checks the step independently. A chunk's recorded
iterates go to :func:`residual_metrics` as one stack ``(B, n, n)``: the
distances as one stacked dot product each, ``F_a`` through its stacked
form, and the consensus gap of all of them from one gather of row pairs up
to ``n = 40`` (:func:`~grane.augmented.consensus_gap`). Every field keeps
the bits it has for that matrix alone, so a record's ``fro_residual`` equals
the distance its chunk forms for the dense history.

Each solver only supplies its step, ``step(x, out)``, which writes the next
iterate into ``out``; one driver, :func:`_iterate`, counts the iterations,
measures the iterate movement, guards against divergence, applies the
stopping tolerance, hands every iterate to the trace and reports why the run
stopped. It steps a chunk of iterates into a preallocated ring, then does
that bookkeeping once for the whole chunk, in the order of a step-by-step
loop. A chunk holds at most 256 iterates and 256 KB, and at least one
iterate, so from 129 players on every chunk is one step. With a stopping
tolerance the chunk that starts at iteration ``k`` holds at most
``k // 8 + 2`` iterates, so a stop at iteration ``k`` runs at most
``ceil(k / 8)`` steps past it, and their iterates reach no output; the
chunk also ends where the last contraction rate of the moves puts the stop.
Every run is deterministic given its inputs and keeps the bits of the
step-by-step loop; traces record per-iteration residuals and export to CSV.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .augmented import (
    AugmentedConfig,
    StrongMonotonicityUnavailableError,
    _estimate_bounds,
    augmented_mapping,
    consensus_gap,
    gradient_map,
    is_feasible_estimate,
    project_estimates,
)
from .games import Game, _clip, _number, _step, _tolerance, _vecdot, _whole, clamp
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
# the driver's ring of iterates holds at most this many bytes and iterates
_RING_BYTES = 1 << 18
_RING_ITERATES = 256

TRACE_COLUMNS = ("k", "fro_residual", "relative_error", "consensus_gap", "vi_residual")


class DivergenceError(RuntimeError):
    """The iteration is growing instead of contracting, or left the finite
    numbers (step size too large)."""


_ACC_STEP = "step must be 'auto' for acc-grane, which steps by 1/mu and 1/L"


@dataclass
class SolverConfig:
    """Settings of one solver run.

    ``step='auto'`` resolves to ``mu / L**2`` with the constants of the
    selected path; ``acc-grane`` takes its two steps from the constants and
    needs ``step='auto'`` and ``path='lemma2'``. ``alpha`` is a uniform
    value, an explicit per-player list, or ``'remark4'`` for the automatic
    restricted-path scaling; ``beta`` optionally overrides its balance
    parameter (lemma3 only).
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
        self.step = _step("step", self.step)
        self.max_iters = _whole("max_iters", self.max_iters)
        self.stop_tol = _tolerance("stop_tol", self.stop_tol)
        self.trace_stride = _whole("trace_stride", self.trace_stride)
        if self.beta is not None:
            self.beta = _number("beta", self.beta)
        if self.algorithm not in ("grane", "acc-grane"):
            raise ValueError(f"algorithm must be 'grane' or 'acc-grane', got {self.algorithm!r}")
        if self.path not in ("lemma2", "lemma3"):
            raise ValueError(f"path must be 'lemma2' or 'lemma3', got {self.path!r}")
        if self.algorithm == "acc-grane" and self.step != "auto":
            raise ValueError(_ACC_STEP)
        if self.algorithm == "acc-grane" and self.path != "lemma2":
            raise ValueError("path must be 'lemma2' for acc-grane, which needs mu_Fa")

    def resolve_step(self, cfg: AugmentedConfig) -> float:
        if self.step == "auto":
            return cfg.mu / cfg.L_Fa**2
        return self.step


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


def residual_metrics(X, X_ref, X0, game: Game, mixing: MixingMatrix, alpha):
    """The four residuals recorded per iteration, as a dict; for a stack
    ``(B, n, n)`` of matrices, a list of one dict each, each with the bits
    of its matrix alone.

    ``fro_residual`` is the Frobenius distance to the reference,
    ``relative_error`` the squared ratio against the distance to the start
    (``inf`` when the start coincides with the iterate but not the
    reference), ``consensus_gap`` the largest row disagreement, and
    ``vi_residual`` the fixed-point residual ``|X - P(X - F_a(X))|``.
    ``X_ref`` or ``X0`` may be None, which makes the residuals that need it
    NaN. A stack is evaluated in one pass: the distances as one stacked dot
    product each, ``F_a`` and the consensus gap through their stacked forms.
    The solvers pass a chunk's records as one stack.
    """
    X = np.asarray(X, dtype=float)
    Xs = X.reshape((-1,) + X.shape[-2:])
    B, n = len(Xs), game.n
    rows = Xs.reshape(B, -1)
    work = np.empty(rows.shape)

    def distances(to):
        """The distances of the matrices to ``to``, NaN without one."""
        if to is None:
            return [math.nan] * B
        return _norms(rows, np.asarray(to, dtype=float).reshape(-1), work).tolist()

    fro = distances(X_ref)
    den = distances(X0)
    step_point = Xs - augmented_mapping(game, mixing, alpha, Xs)
    clamp(step_point.reshape(B, -1)[:, :: n + 1], game.lo, game.hi)  # P onto Omega_a
    vi = _norms(rows, step_point.reshape(B, -1), work).tolist()
    gaps = consensus_gap(Xs).tolist()
    records = []
    for num, d, gap, v in zip(fro, den, gaps, vi):
        if X_ref is None or X0 is None:
            rel = math.nan
        elif d == 0.0:
            rel = 0.0 if num == 0.0 else math.inf
        else:
            rel = num**2 / d**2
        records.append(
            {"fro_residual": num, "relative_error": rel, "consensus_gap": gap, "vi_residual": v}
        )
    return records[0] if X.ndim == 2 else records


def _norms(block, minus, scratch) -> np.ndarray:
    """The Euclidean norms of the rows of ``block - minus``, formed in
    ``scratch``; each has the bits of ``math.sqrt(d.dot(d))`` of its row."""
    d = np.subtract(block, minus, out=scratch[: len(block)])
    return np.sqrt(_vecdot(d, d))


@np.errstate(over="ignore", invalid="ignore")
def _iterate(step, x, max_iters: int, stop_tol: float, trace=None, reference=None, record=None):
    """Iterate ``step(x_k, out)``, which writes ``x_{k+1}`` into ``out``, from
    the flat 1-D ``x``; both are C-ordered rows of the ring. The distributed
    solvers pass the flat ``n**2`` row of their start matrix, so their
    projected steps write straight into ring rows.

    Returns a copy of the last iterate, the step count, the last step's
    movement (infinite when no step was taken) and why the run stopped:
    ``"max_iters"`` after ``max_iters`` steps, or ``"stop_tol"`` after a
    step that moves the iterate by at most ``stop_tol`` (0 disables), the
    last step included. It raises :class:`DivergenceError` when a move is not
    finite, or when a move exceeds both ``_GUARD_FACTOR`` times the move
    ``_GUARD_WINDOW`` steps earlier and 1e-8 times the first nonzero move.
    Overflow is reported by that error alone: numpy's warnings about it are
    silenced for the whole run. With a ``trace``, every iterate's distance
    to ``reference`` (NaN without one) goes to ``trace.dense_fro``, and the
    iterates at ``k = 0``, every ``trace.stride`` iterations and at the last
    are recorded: ``record(xs)`` takes a chunk's recorded iterates as the
    rows of one array and returns one metrics dict for each.

    The iterates live in a ring of ``cap + 1`` slots, ``cap`` the chunk
    bound of the module docstring. Each chunk runs from the slot of the last
    kept iterate toward the end of the ring with room for it, so the ring
    is walked back and forth and no iterate is copied; at ``cap = 1`` two
    slots take turns. After a chunk its moves, the divergence checks, the
    stopping test and the trace's distances are taken at once over its
    slots, and the first event in iteration order decides, an error before
    a stop on the same step. A step that raises is looked at only after the
    steps before it: a divergence or a stop among them takes precedence, as
    the step would not have been taken.
    """
    x = np.asarray(x, dtype=float)
    cap = max(1, min(_RING_ITERATES, _RING_BYTES // max(x.nbytes, 1), max_iters))
    ring = np.empty((cap + 1, x.size))
    ring[0] = x
    slots = list(ring)
    # differences are formed in scratch; with one-step chunks (cap = 1) in
    # the slot of the previous iterate, which no later bookkeeping reads
    scratch = np.empty((cap, x.size)) if cap > 1 else ring[::-1]
    observe = None
    if trace is not None:

        def observe(block, k, final, work):
            """Hand iterates ``k, k + 1, ...``, the rows of ``block``, to the
            trace, the ones it records together; their distances are formed
            in ``work``."""
            if reference is None:
                fro = [math.nan] * len(block)
            else:
                fro = _norms(block, reference, work).tolist()
            trace.dense_fro.extend(fro)
            stride, end = trace.stride, k + len(block) - 1
            picked = list(range(-(-k // stride) * stride - k, len(block), stride))
            if final and end % stride:
                picked.append(len(block) - 1)
            if picked:
                for i, metrics in zip(picked, record(block[picked])):
                    trace.push_record(k + i, metrics)

        observe(ring[:1], 0, max_iters == 0, scratch)
    window = np.zeros(_GUARD_WINDOW)  # the last moves, oldest first
    floor = 0.0
    k, move, before, reason, last, at = 0, math.inf, math.inf, "max_iters", slots[0], 0
    while k < max_iters:
        size = min(cap, max_iters - k, max(at, cap - at))
        if stop_tol > 0.0:
            size = min(size, k // 8 + 2, _pace(before, move, stop_tol))
        if at + size <= cap:  # the chunk's slots, from the last kept iterate on
            block, rows = ring[at : at + size + 1], slots[at : at + size + 1]
            at += size
        else:
            block, rows = ring[at - size : at + 1][::-1], slots[at - size : at + 1][::-1]
            at -= size
        done, failure = size, None
        try:
            for j in range(size):
                step(rows[j], rows[j + 1])
        except Exception as exc:  # re-raised below unless an earlier step decides
            done, failure = j, exc
            if not done:
                raise
        work = scratch if cap > 1 else block
        moves = _norms(block[1 : done + 1], block[:done], work)
        kept = done
        if stop_tol > 0.0:
            hits = moves <= stop_tol
            first = int(hits.argmax())
            if hits[first]:  # the chunk ends at the first stop
                kept, reason = first + 1, "stop_tol"
                moves = moves[:kept]
        history = np.concatenate((window, moves))
        if floor == 0.0:
            # set here, it holds for the whole chunk: the moves before the
            # first positive one are 0, and that one exceeds its 1e-8 multiple,
            # which is positive (a positive move is at least 2.2e-162)
            positive = moves > 0.0
            first = int(positive.argmax())
            if positive[first]:
                floor = float(1e-8 * moves[first])
        olds = history[:kept]
        # screens first (argmax, argmin: the cheapest reductions); every move
        # a window back is 0 until the window has passed
        finite = np.isfinite(moves)
        suspect = not finite[finite.argmin()]
        if not suspect and k + kept > _GUARD_WINDOW:
            grown = moves > _GUARD_FACTOR * olds
            suspect = grown[grown.argmax()]
        if suspect:
            _check(moves, olds, floor, k)
        if failure is not None and reason != "stop_tol":
            raise failure
        if observe is not None:
            final = reason == "stop_tol" or k + kept == max_iters
            observe(block[1 : kept + 1], k + 1, final, work)
        before = float(moves[kept - 2]) if kept > 1 else move
        k, move, last = k + kept, float(moves[kept - 1]), rows[kept]
        window = history[kept:]
        if reason == "stop_tol":
            break
    return last.copy(), k, move, reason


def _pace(before: float, move: float, stop_tol: float) -> int:
    """The steps that moves contracting at the rate ``move / before`` take
    from ``move`` down to ``stop_tol``, at least 1: the chunk that most
    likely ends at the stop. ``_RING_ITERATES`` when they do not contract."""
    rate, reach = move / before, stop_tol / move
    if not (0.0 < rate < 1.0 and reach > 0.0):
        return _RING_ITERATES
    return max(1, math.ceil(min(math.log(reach) / math.log(rate), _RING_ITERATES)))


def _check(moves, olds, floor: float, k: int):
    """Raise :class:`DivergenceError` at the first of the ``moves`` of steps
    ``k + 1, k + 2, ...`` that is not finite, or that exceeds both
    ``_GUARD_FACTOR`` times its move a window back (``olds``) and ``floor``,
    when that old move is positive."""
    tripped = ~np.isfinite(moves) | (
        (olds > 0.0) & (moves > _GUARD_FACTOR * olds) & (moves > floor)
    )
    if tripped.any():
        i = int(tripped.argmax())
        if not math.isfinite(moves[i]):
            raise DivergenceError(
                f"non-finite iterate movement at iteration {k + i + 1}; reduce the step size"
            )
        raise DivergenceError(
            f"step norm grew from {float(olds[i]):.3g} to {float(moves[i]):.3g} within "
            f"{_GUARD_WINDOW} iterations; reduce the step size"
        )


def _start_point(name: str, value, shape) -> np.ndarray:
    """``value`` as a C-ordered float array; a ValueError naming ``name`` and
    its shape unless it has ``shape`` and finite entries."""
    x = np.array(value, dtype=float, order="C")
    if x.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} of shape {x.shape} has non-finite entries")
    return x


def _start_matrix(game: Game, X0, name: str) -> np.ndarray:
    """``X0`` as a C-ordered ``n x n`` float array with finite entries and a
    feasible diagonal, or the zero matrix with a clamped diagonal; every
    matrix the solvers derive from it is C-ordered too."""
    if X0 is None:
        return project_estimates(game.boxes, np.zeros((game.n, game.n)))
    X = _start_point(name, X0, (game.n, game.n))
    if not is_feasible_estimate(game.boxes, X):
        raise ValueError(f"{name} has an infeasible diagonal")
    return X


def _traced(step, X, sc: SolverConfig, max_iters, game, mixing, alpha, reference, steps):
    """Run a distributed solver's ``step`` from ``X`` through :func:`_iterate`
    on the flat ``n**2`` rows of the estimate matrices, with its trace: the
    distance to ``reference`` at every iterate and the
    :func:`residual_metrics` against it and ``X`` every ``sc.trace_stride``
    iterations and at the last. Returns the last iterate as a matrix, the
    trace and the step count; ``trace.metadata`` holds ``steps`` and the stop
    reason."""
    trace = ConvergenceTrace(stride=sc.trace_stride, metadata={"step": steps})
    ref = None if reference is None else np.asarray(reference, dtype=float).reshape(-1)

    def record(xs):
        return residual_metrics(xs.reshape((-1,) + X.shape), ref, X, game, mixing, alpha)

    x_last, k, _, reason = _iterate(step, X.reshape(-1), max_iters, sc.stop_tol, trace, ref, record)
    trace.metadata["stop_reason"] = reason
    return x_last.reshape(X.shape), trace, k


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
    zero matrix with a clamped diagonal; if supplied, it must be ``n x n``
    with finite entries and a feasible diagonal (else a ValueError).
    ``reference`` is the equilibrium matrix used for residuals
    (rows all equal to the reference Nash equilibrium). Returns the final
    matrix and the trace.
    """
    X = _start_matrix(game, X0, "X0")
    lam = sc.resolve_step(cfg)
    step = gradient_map(game, mixing, cfg.alpha, lam, _project=True)
    X, trace, k = _traced(step, X, sc, sc.max_iters, game, mixing, cfg.alpha, reference, lam)
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
    ``Y_t - (1/mu) F_a(Y_t)`` over ``t <= k`` and takes ``Y_{k+1}`` as a
    ``1/L`` gradient step from ``X_k``; the reported output is the weighted
    average of the ``Y_t`` themselves. The weights ``lam_0 = 1``,
    ``lam_{k+1} = S_k / gamma`` (``S_k`` their sum to ``k``) give
    ``S_{k+1} = S_k (1 + 1/gamma)``: each new term takes the constant share
    ``theta = 1/(1 + gamma)`` of both averages, so no weight or sum is kept.
    Requires the strong-monotonicity constant (``cfg.mu_Fa``) and
    ``sc.step == 'auto'``: a numeric step would be ignored. ``Y0`` is
    checked and defaulted as ``X0`` of :func:`grane_run`. Records run over
    ``k = 0 .. max_iters - 1``, and the iteration ``k = 0`` counts as one
    of the ``max_iters``.
    """
    if sc.step != "auto":
        raise ValueError(_ACC_STEP)
    if cfg.mu_Fa is None:
        raise StrongMonotonicityUnavailableError(
            "acceleration needs the strong-monotonicity constant; it is "
            "undefined for this configuration"
        )
    mu, L = cfg.mu_Fa, cfg.L_Fa
    theta = 1.0 / (1.0 + L / mu)
    Y = _start_matrix(game, Y0, "Y0")
    lo, hi = _estimate_bounds(game)
    steps = {"averaging": 1.0 / mu, "gradient": 1.0 / L}
    averaging_step = gradient_map(game, mixing, cfg.alpha, steps["averaging"])
    gradient_step = gradient_map(game, mixing, cfg.alpha, steps["gradient"], _project=True)
    B = averaging_step(Y.reshape(-1), np.empty(Y.size))  # average of Y_t - (1/mu) F_a(Y_t)
    work = np.empty_like(B)  # X_k, then the averaging step of Y_{k+1}

    def step(A, out):
        """Step to ``Y_{k+1}`` in ``out``; fold it into ``B``, then fold ``A``
        into it."""
        gradient_step(_clip(B, lo, hi, out=work), out)
        np.subtract(averaging_step(out, work), B, out=work)
        np.add(B, np.multiply(work, theta, out=work), out=B)
        np.subtract(out, A, out=out)
        out *= theta
        out += A

    y_tilde, trace, k = _traced(
        step, Y, sc, sc.max_iters - 1, game, mixing, cfg.alpha, reference, steps
    )
    trace.metadata["iterations"] = k + 1
    return y_tilde, trace


def reference_step(game: Game, step) -> float:
    """The step of :func:`centralized_gradient_play`: ``step`` as a float
    when positive and finite, or for ``'auto'`` ``mu_F / L**2`` with ``L``
    the game's ``joint_lipschitz``, an upper bound on the mapping's Lipschitz
    constant (for a quadratic game ``min(|M|_F, sqrt(|M|_1 |M|_inf))``, ``M`` its
    Jacobian). Each step then shrinks the distance to the equilibrium by a
    factor of at most ``sqrt(1 - mu_F**2 / L**2)``; needs ``mu_F > 0``."""
    step = _step("step", step)
    if step == "auto":
        constants = game.constants
        if constants.mu_F <= 0:
            raise ValueError("step 'auto' needs mu_F > 0; supply an explicit step")
        return constants.mu_F / constants.joint_lipschitz**2
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
    resolved by :func:`reference_step`, whose ``'auto'`` is
    ``mu_F / joint_lipschitz**2``. Stops when the iterate moves by at
    most ``tol`` (0 runs all ``max_iters``). Stopping at ``max_iters`` with
    ``tol > 0`` unmet emits a ``RuntimeWarning`` giving the iteration count
    and the last move, and still returns the last iterate. ``max_iters``
    must be a positive whole number, ``tol`` nonnegative and ``x0``, if
    given, of shape ``(n,)`` with finite entries; it is clamped into the
    boxes.
    """
    step = reference_step(game, step)
    max_iters, tol = _whole("max_iters", max_iters), _tolerance("tol", tol)
    lo, hi = game.lo, game.hi
    x = clamp(np.zeros(game.n) if x0 is None else _start_point("x0", x0, (game.n,)), lo, hi)
    x, k, move, _ = _iterate(
        lambda x, out: clamp(np.subtract(x, step * game.mapping(x), out=out), lo, hi),
        x,
        max_iters,
        tol,
    )
    if tol > 0.0 and move > tol:
        warnings.warn(
            f"reference not converged: {k} iterations, last move {move:.3g} > tol {tol:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return x
