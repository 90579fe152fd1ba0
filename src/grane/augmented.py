"""The augmented mapping over estimate matrices, and its constants.

A joint action is learned distributedly through an ``n x n`` *estimate
matrix* ``X``: row ``i`` is player ``i``'s running estimate of everyone's
action and the diagonal holds the actions themselves. Feasibility only
constrains the diagonal (each ``X_ii`` must lie in player ``i``'s box); the
feasible set is denoted ``Omega_a`` below. A matrix with equal rows is
called *consensual*.

The augmented mapping couples the disagreement penalty with scaled local
gradients,

    F_a(X) = (I - W) X + Diag(alpha_i * dJ_i/dx_i(row_i)),

and an estimate matrix solves the variational inequality of ``F_a`` on
``Omega_a`` exactly when it is consensual with a Nash equilibrium on its
diagonal. This module evaluates ``F_a``, computes its Lipschitz,
strong-monotonicity and restricted-monotonicity constants from the game and
network constants, bounds the resulting condition number, and provides a
sampling-based equilibrium certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import Game, box_bounds, clamp
from .network import MixingMatrix

__all__ = [
    "AugmentedConfig",
    "ConditionReport",
    "EquilibriumCertificate",
    "RestrictedConstants",
    "StrongMonotonicityUnavailableError",
    "augmented_mapping",
    "clamp_diagonal",
    "condition_report",
    "consensual_matrix",
    "consensus_gap",
    "is_feasible_estimate",
    "lipschitz_constant",
    "make_augmented_config",
    "ne_certificate",
    "project_estimates",
    "restricted_constants_at",
    "restricted_monotonicity",
    "strong_monotonicity_constant",
]


class StrongMonotonicityUnavailableError(RuntimeError):
    """Raised when a solver path needs the strong-monotonicity constant but
    the game/network pair does not admit one; the restricted (``lemma3``)
    path remains available."""


# ---------------------------------------------------------------------------
# estimate matrices


def consensual_matrix(x) -> np.ndarray:
    """The consensual matrix whose every row equals ``x``."""
    x = np.asarray(x, dtype=float)
    return np.tile(x, (x.size, 1))


# consensus_gap's row-difference buffer holds about this many floats
_GAP_BLOCK = 1 << 16


def consensus_gap(X) -> float:
    """Largest Euclidean distance between any two rows of ``X``.

    A block of rows is compared only with the rows from the block's first
    row on, a slab of them at a time, so each unordered pair is formed once.
    The differences are squared in one buffer of about ``_GAP_BLOCK`` floats,
    allocated once per call. Each pair's squared distance is summed along
    its row, and the one square root is taken of the largest: ``sqrt`` is
    monotone and correctly rounded, so that is the largest root bit for bit.
    A NaN entry gives NaN.
    """
    X = np.asarray(X, dtype=float)
    n, m = X.shape
    rows = min(n, max(1, _GAP_BLOCK // X.size))
    slab = min(n, max(1, _GAP_BLOCK // (rows * m)))
    buf = np.empty(rows * slab * m)
    gap = 0.0
    for i in range(0, n, rows):
        block = X[i : i + rows, None, :]
        for j in range(i, n, slab):
            other = X[None, j : j + slab, :]
            b, c = block.shape[0], other.shape[1]
            diff = buf[: b * c * m].reshape(b, c, m)
            np.subtract(block, other, out=diff)
            np.square(diff, out=diff)
            gap = np.maximum(gap, diff.sum(axis=2).max())
    return float(np.sqrt(gap))


def clamp_diagonal(X: np.ndarray, lo, hi) -> np.ndarray:
    """Clamp the diagonal of the C-contiguous square array ``X`` into
    ``[lo, hi]`` in place and return ``X``."""
    if not X.flags.c_contiguous:
        raise ValueError("clamp_diagonal needs a C-contiguous array")
    clamp(X.reshape(-1)[:: X.shape[0] + 1], lo, hi)
    return X


def project_estimates(boxes, X) -> np.ndarray:
    """Project onto ``Omega_a``: clamp the diagonal, leave the rest alone."""
    return clamp_diagonal(np.array(X, dtype=float, order="C"), *box_bounds(boxes))


def is_feasible_estimate(boxes, X, tol: float = 0.0) -> bool:
    """Whether every diagonal entry ``X_ii`` lies in box ``i``, widened by ``tol``."""
    lo, hi = box_bounds(boxes)
    d = np.asarray(X, dtype=float).diagonal()
    return bool(np.all((lo - tol <= d) & (d <= hi + tol)))


def augmented_mapping(game: Game, mixing: MixingMatrix, alpha, X) -> np.ndarray:
    """Evaluate ``F_a(X) = (I - W) X + Diag(alpha * local gradients)``."""
    X = np.asarray(X, dtype=float)
    n = game.n
    if X.shape != (n, n):
        raise ValueError(f"expected {n}x{n} estimate matrix, got {X.shape}")
    out = X - mixing.W @ X
    out.reshape(-1)[:: n + 1] += np.asarray(alpha, dtype=float) * game.local_gradients(X)
    return out


# ---------------------------------------------------------------------------
# constants of the augmented mapping


def _alpha_vector(alpha, n: int) -> np.ndarray:
    if np.ndim(alpha) > 1 or np.size(alpha) not in (1, n):
        raise ValueError(f"alpha must be a number or a list of {n} numbers, got {alpha!r}")
    vec = np.broadcast_to(np.asarray(alpha, dtype=float), (n,)).copy()
    if not np.all(vec > 0):
        raise ValueError(f"alpha entries must be strictly positive, got {alpha!r}")
    return vec


def lipschitz_constant(constants, mixing: MixingMatrix, alpha) -> float:
    """Lipschitz constant of the augmented mapping on ``Omega_a``.

    ``max_i alpha_i*sqrt(L_own_i**2 + L_other_i**2) + sigma_max(I - W)``.
    """
    alpha = np.asarray(alpha, dtype=float)
    return float(np.max(alpha * constants.per_player_lipschitz) + mixing.sigma_max_IW)


def strong_monotonicity_constant(constants, mixing: MixingMatrix, alpha):
    """Strong-monotonicity constant of the augmented mapping, if positive.

    Returns ``min(a1, a2)`` where

        a1 = lambda_min_nz(I - W)
             - 0.5 * max_i alpha_i * (sqrt(mu_F**2 + L_other_i**2) - mu_F)
        a2 = min_i (alpha_i / n) * (mu_F - L_other_i * sqrt(n - 1))

    and ``None`` when either term fails to be positive (or ``mu_F`` is not),
    in which case the restricted path must be used instead.
    """
    mu_F = constants.mu_F
    if mu_F <= 0:
        return None
    n = constants.L_other.size
    alpha = _alpha_vector(alpha, n)
    a1 = mixing.lambda_min_nz_IW - 0.5 * float(
        np.max(alpha * (np.sqrt(mu_F**2 + constants.L_other**2) - mu_F))
    )
    a2 = float(np.min(alpha / n * (mu_F - constants.L_other * np.sqrt(n - 1))))
    if a1 <= 0 or a2 <= 0:
        return None
    return min(a1, a2)


@dataclass(frozen=True)
class RestrictedConstants:
    """Uniform scaling and restricted-monotonicity constant of ``F_a``."""

    alpha: float
    mu_r_Fa: float
    beta: float


def restricted_constants_at(constants, mixing: MixingMatrix, alpha: float, beta: float):
    """Restricted-monotonicity constant for a given uniform ``alpha`` and ``beta``.

    ``min(b1, b2)`` with

        b1 = min(alpha*(mu_r/n - L_F*(beta**2 + 2*beta)), lambda_min_nz(I-W))
        b2 = lambda_min_nz(I-W) / (1 + 1/beta**2) - alpha*L_F

    where ``L_F = max_i sqrt(L_own_i**2 + L_other_i**2)``. The value may be
    nonpositive for a poor ``(alpha, beta)`` pair.
    """
    n = constants.L_other.size
    L_F = constants.mapping_lipschitz
    lam = mixing.lambda_min_nz_IW
    b1 = min(alpha * (constants.mu_r / n - L_F * (beta**2 + 2 * beta)), lam)
    b2 = lam / (1.0 + 1.0 / beta**2) - alpha * L_F
    return min(b1, b2)


def _balanced_beta(constants) -> float:
    """The positive root of ``beta**2 + 2*beta = mu_r / (2*n*L_F)``."""
    n = constants.L_other.size
    return -1.0 + np.sqrt(1.0 + constants.mu_r / (2 * n * constants.mapping_lipschitz))


def restricted_monotonicity(
    constants, mixing: MixingMatrix, beta: float | None = None, alpha: float | None = None
) -> RestrictedConstants:
    """Pick a uniform scaling that makes ``F_a`` restricted strongly monotone.

    By default ``beta`` is the positive root of
    ``beta**2 + 2*beta = mu_r / (2*n*L_F)``, for which the first branch of
    the constant collapses to ``alpha*mu_r/(2n)``, and

        alpha = lambda_min_nz(I - W) / (2 * L_F * (1 + 1/beta**2))

    makes the second branch equal ``alpha*L_F > 0``, so the resulting
    constant is always strictly positive. A custom ``beta > 0`` or a custom
    uniform ``alpha`` may be supplied instead; the constant is recomputed
    accordingly (and validated to be positive).
    """
    if constants.mu_r <= 0:
        raise ValueError("restricted path needs a positive restricted constant mu_r")
    L_F = constants.mapping_lipschitz
    if L_F <= 0:
        raise ValueError("degenerate game: zero Lipschitz constant")
    if beta is None:
        beta = _balanced_beta(constants)
    elif beta <= 0:
        raise ValueError("beta must be positive")
    culprit = f"beta={beta}" if alpha is None else f"alpha={alpha}"
    if alpha is None:
        alpha = mixing.lambda_min_nz_IW / (2 * L_F * (1.0 + 1.0 / beta**2))
    mu_r_Fa = restricted_constants_at(constants, mixing, alpha, beta)
    if mu_r_Fa <= 0:
        raise ValueError(f"{culprit} makes the restricted constant nonpositive")
    return RestrictedConstants(alpha=float(alpha), mu_r_Fa=float(mu_r_Fa), beta=float(beta))


@dataclass
class AugmentedConfig:
    """Per-player scalings and derived constants of the augmented mapping.

    ``mu_Fa`` is ``None`` when the strong-monotonicity conditions fail at
    this scaling, and ``mu_r_Fa`` is ``None`` on the purely strongly
    monotone path. ``gamma`` is the condition number of the path this
    configuration was built for.
    """

    alpha: np.ndarray
    L_Fa: float
    mu_Fa: float | None
    mu_r_Fa: float | None
    gamma: float
    path: str
    beta: float | None = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if np.any(self.alpha <= 0):
            raise ValueError("alpha entries must be strictly positive")
        if self.gamma < 1.0 - 1e-12:
            raise ValueError("condition number below one")

    @property
    def mu(self) -> float:
        """The monotonicity constant of the selected path."""
        value = self.mu_Fa if self.path == "lemma2" else self.mu_r_Fa
        if value is None:
            raise StrongMonotonicityUnavailableError(
                "no monotonicity constant available for the selected path"
            )
        return value

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.tolist(),
            "L_Fa": self.L_Fa,
            "mu_Fa": self.mu_Fa,
            "mu_r_Fa": self.mu_r_Fa,
            "gamma": self.gamma,
            "path": self.path,
            "beta": self.beta,
        }


def make_augmented_config(
    game: Game,
    mixing: MixingMatrix,
    alpha=1.0,
    path: str = "lemma2",
    beta: float | None = None,
) -> AugmentedConfig:
    """Assemble the constants of ``F_a`` for a solver run.

    ``path='lemma2'`` uses the strong-monotonicity constant (required by the
    accelerated solver); ``alpha`` must then be a positive scalar or list.
    ``path='lemma3'`` uses the restricted constant of
    :func:`restricted_monotonicity`; ``alpha='remark4'`` selects its
    automatic scaling while a numeric ``alpha`` (uniform only) is validated
    against the same formulas.
    """
    if path not in ("lemma2", "lemma3"):
        raise ValueError(f"path must be 'lemma2' or 'lemma3', got {path!r}")
    if isinstance(alpha, str) and (alpha != "remark4" or path != "lemma3"):
        raise ValueError(f"alpha must be numeric, or 'remark4' on the lemma3 path, got {alpha!r}")
    constants, n = game.constants, game.n
    rc = None
    if path == "lemma3":
        given = None if isinstance(alpha, str) else _alpha_vector(alpha, n)
        if given is not None and np.any(given != given[0]):
            raise ValueError("alpha must be uniform on the restricted path")
        rc = restricted_monotonicity(constants, mixing, beta, None if given is None else given[0])
        alpha = rc.alpha
    alpha_vec = _alpha_vector(alpha, n)
    L_Fa = lipschitz_constant(constants, mixing, alpha_vec)
    mu_Fa = strong_monotonicity_constant(constants, mixing, alpha_vec)
    if rc is None and mu_Fa is None:
        raise StrongMonotonicityUnavailableError(
            "the augmented mapping is not strongly monotone for this game and "
            "scaling; switch to the lemma3 path"
        )
    return AugmentedConfig(
        alpha=alpha_vec,
        L_Fa=L_Fa,
        mu_Fa=mu_Fa,
        mu_r_Fa=None if rc is None else rc.mu_r_Fa,
        gamma=L_Fa / (mu_Fa if rc is None else rc.mu_r_Fa),
        path=path,
        beta=None if rc is None else rc.beta,
    )


# ---------------------------------------------------------------------------
# condition numbers


@dataclass
class ConditionReport:
    """Condition number of a configuration and the closed-form bound on it.

    ``C = 16*(n-1)*lambda_min_nz(I-W)/mu_F`` scales the recommended uniform
    ``alpha = C/9``. The bound
    ``2*n*L_F/mu_F + (9/8)*lambda_max(I-W)/lambda_min_nz(I-W)`` applies when
    the hypotheses hold: ``max_i L_other_i <= 0.5*mu_F/sqrt(n-1)`` and the
    scaling actually equals ``C/9``; ``bound_holds`` is ``None`` otherwise.
    """

    gamma: float
    C: float
    alpha_recommended: float
    H: float
    hypotheses_hold: bool
    bound: float
    bound_holds: bool | None


def condition_report(cfg: AugmentedConfig, constants, mixing: MixingMatrix) -> ConditionReport:
    """Report the condition number ``gamma`` of ``cfg`` against its bound."""
    mu_F = constants.mu_F
    if mu_F <= 0:
        raise ValueError("condition-number bound needs mu_F > 0")
    gamma = cfg.gamma
    n = constants.L_other.size
    lam_min = mixing.lambda_min_nz_IW
    lam_max = float(np.max(mixing.eigvals_IW))
    C = 16.0 * (n - 1) * lam_min / mu_F
    alpha_rec = C / 9.0
    H = float(constants.L_other.max())
    alpha_is_rec = bool(
        np.all(np.abs(cfg.alpha - alpha_rec) <= 1e-12 * max(1.0, alpha_rec))
    )
    hypotheses = bool(H <= 0.5 * mu_F / np.sqrt(n - 1) and alpha_is_rec)
    bound = 2.0 * n * constants.mapping_lipschitz / mu_F + 9.0 / 8.0 * lam_max / lam_min
    return ConditionReport(
        gamma=gamma,
        C=C,
        alpha_recommended=alpha_rec,
        H=H,
        hypotheses_hold=hypotheses,
        bound=bound,
        bound_holds=bool(gamma <= bound) if hypotheses else None,
    )


# ---------------------------------------------------------------------------
# equilibrium certificate


@dataclass
class EquilibriumCertificate:
    """Outcome of the three equilibrium checks on a candidate matrix."""

    consensus_ok: bool
    vi_ok: bool
    stationarity_ok: bool
    consensus_gap: float
    worst_vi_value: float
    worst_stationarity_value: float

    @property
    def passed(self) -> bool:
        return self.consensus_ok and self.vi_ok and self.stationarity_ok


def ne_certificate(
    game: Game,
    mixing: MixingMatrix,
    alpha,
    X_star,
    samples: int = 1000,
    tol: float = 1e-8,
    seed: int = 0,
    cube: float = 10.0,
) -> EquilibriumCertificate:
    """Certify that ``X_star`` is a Nash-equilibrium matrix.

    Three checks, each within ``tol``: (a) all rows of ``X_star`` agree;
    (b) ``<F_a(X_star), X - X_star> >= 0`` for ``samples`` random feasible
    ``X`` drawn from ``[-cube, cube]^(n x n)`` with clamped diagonals;
    (c) per-player stationarity ``dJ_i(x*) * (x_i - x_i*) >= 0`` at the box
    endpoints, which suffices because the expression is linear in ``x_i``
    (unbounded directions are checked through the gradient sign).
    """
    X_star = np.asarray(X_star, dtype=float)
    if not is_feasible_estimate(game.boxes, X_star, tol=0.0):
        raise ValueError("candidate matrix has an infeasible diagonal")

    gap = consensus_gap(X_star)
    consensus_ok = gap <= tol

    Fa_star = augmented_mapping(game, mixing, alpha, X_star)
    rng = np.random.default_rng(seed)
    worst_vi = np.inf
    for _ in range(samples):
        X = clamp_diagonal(rng.uniform(-cube, cube, size=(game.n, game.n)), game.lo, game.hi)
        worst_vi = min(worst_vi, float(np.sum(Fa_star * (X - X_star))))
    vi_ok = worst_vi >= -tol

    x = np.diag(X_star)
    grad = game.mapping(x)
    lo, hi = game.lo, game.hi
    worst_st = np.inf
    for i in range(game.n):
        for endpoint in (lo[i], hi[i]):
            if np.isfinite(endpoint):
                worst_st = min(worst_st, grad[i] * (endpoint - x[i]))
            else:
                # unbounded side: require the gradient not to push that way
                sign = 1.0 if endpoint > 0 else -1.0
                worst_st = min(worst_st, 0.0 if sign * grad[i] >= -tol else -np.inf)
    stationarity_ok = worst_st >= -tol

    return EquilibriumCertificate(
        consensus_ok=bool(consensus_ok),
        vi_ok=bool(vi_ok),
        stationarity_ok=bool(stationarity_ok),
        consensus_gap=gap,
        worst_vi_value=worst_vi,
        worst_stationarity_value=float(worst_st),
    )
