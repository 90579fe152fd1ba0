"""Convex games on box action sets, and the quadratic benchmark family.

In a game with ``n`` players, player ``i`` (indices run ``0..n-1``)
minimizes a cost ``J_i(x_i, x_-i)`` over a closed interval. The solvers only
ever need the partial gradients ``dJ_i/dx_i``, and always all ``n`` at once:
stacked at one joint point ``x`` in ``R^n`` they form the *game mapping*
``F(x)``, and taken at the rows of an estimate matrix they are the *local
gradients*.

The quadratic family implemented here has costs

    J_i(x) = 0.5*a_i*x_i**2 + b_i*x_i + (sum_j c_ij*x_j)*x_i,   c_ii = 0,

whose mapping ``F(x) = (Diag(a) + C) x + b`` is affine, so every regularity
constant the solvers need (Lipschitz moduli, monotonicity) is exactly
computable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoxSet",
    "Game",
    "GameConstants",
    "QuadraticGame",
    "box_bounds",
    "clamp",
    "make_quadratic_game",
    "project_box",
    "quadratic_constants",
]


@dataclass(frozen=True)
class BoxSet:
    """Closed interval ``[lo, hi]`` of admissible actions for one player."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"invalid box [{self.lo}, {self.hi}]")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, v: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= v <= self.hi + tol


def box_bounds(boxes) -> tuple[np.ndarray, np.ndarray]:
    """Stack a list of :class:`BoxSet` into ``(lo, hi)`` arrays."""
    lo = np.array([b.lo for b in boxes], dtype=float)
    hi = np.array([b.hi for b in boxes], dtype=float)
    return lo, hi


def clamp(v: np.ndarray, lo, hi) -> np.ndarray:
    """Clamp the float array ``v`` into ``[lo, hi]`` in place and return it."""
    return v.clip(lo, hi, out=v)


def project_box(boxes, v) -> np.ndarray:
    """Componentwise projection of ``v`` onto the product of the boxes."""
    return clamp(np.array(v, dtype=float), *box_bounds(boxes))


@dataclass(frozen=True)
class GameConstants:
    """Known regularity constants of a game mapping.

    Attributes
    ----------
    mu_F : float
        Strong-monotonicity constant of the mapping on ``R^n`` (0 when the
        mapping is merely monotone or the constant is unknown).
    L_own : ndarray
        Per-player Lipschitz constant of ``dJ_i/dx_i`` in the own variable.
    L_other : ndarray
        Per-player Lipschitz constant of ``dJ_i/dx_i`` in the rivals'
        variables (Euclidean norm on ``R^(n-1)``).
    mu_r : float
        Restricted strong-monotonicity constant with respect to the
        equilibrium (0 when unknown).
    """

    mu_F: float
    L_own: np.ndarray
    L_other: np.ndarray
    mu_r: float

    def __post_init__(self):
        object.__setattr__(self, "L_own", np.asarray(self.L_own, dtype=float))
        object.__setattr__(self, "L_other", np.asarray(self.L_other, dtype=float))
        if self.mu_F < 0 or self.mu_r < 0:
            raise ValueError("monotonicity constants must be nonnegative")
        if np.any(self.L_own < 0) or np.any(self.L_other < 0):
            raise ValueError("Lipschitz constants must be nonnegative")

    @property
    def per_player_lipschitz(self) -> np.ndarray:
        """``sqrt(L_own_i**2 + L_other_i**2)`` for each player."""
        return np.sqrt(self.L_own**2 + self.L_other**2)

    @property
    def mapping_lipschitz(self) -> float:
        """Lipschitz constant of the stacked local-gradient map (max over players)."""
        return float(np.max(self.per_player_lipschitz))


class Game:
    """The vectorized protocol the solvers consume.

    A game has ``n`` players, one action interval per player in ``boxes``
    (stacked once into the arrays ``lo`` and ``hi``) and the regularity
    ``constants`` used for step sizes and certificates. Subclasses define
    ``mapping(x)``, the game mapping at a joint point, and
    ``local_gradients(X)``, whose component ``i`` is ``dJ_i/dx_i`` evaluated
    at row ``i`` of an ``n x n`` estimate matrix.
    """

    def __init__(self, n, boxes, constants):
        if n < 1:
            raise ValueError("need at least one player")
        if len(boxes) != n:
            raise ValueError(f"expected {n} boxes, got {len(boxes)}")
        self.n = int(n)
        self.boxes = list(boxes)
        self.lo, self.hi = box_bounds(self.boxes)
        self.constants = constants


class QuadraticGame(Game):
    """Quadratic game with linear-in-rivals coupling.

    ``a`` holds the (positive) quadratic coefficients, ``b`` the linear ones
    and ``coupling`` the zero-diagonal matrix of pairwise terms ``c_ij``.
    The game mapping is the affine map ``x -> (Diag(a) + C) x + b``; its
    matrix is built once.
    """

    def __init__(self, a, b, coupling, boxes):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        C = np.asarray(coupling, dtype=float)
        n = a.size
        if b.shape != (n,) or C.shape != (n, n):
            raise ValueError("inconsistent coefficient shapes")
        if np.any(a <= 0):
            raise ValueError("quadratic coefficients must be strictly positive")
        if np.any(np.diag(C) != 0):
            raise ValueError("coupling matrix must have a zero diagonal")
        self.a = a
        self.b = b
        self.coupling = C
        self._M = np.diag(a) + C
        super().__init__(n, boxes, quadratic_constants(self))

    @property
    def antisymmetric(self) -> bool:
        """True when the coupling satisfies ``c_ij == -c_ji`` exactly."""
        return bool(np.array_equal(self.coupling, -self.coupling.T))

    def jacobian(self) -> np.ndarray:
        """Jacobian ``Diag(a) + C`` of the (affine) game mapping."""
        return self._M.copy()

    def cost(self, i: int, x) -> float:
        """Cost ``J_i`` at the joint point ``x`` (used by finite-difference checks)."""
        x = np.asarray(x, dtype=float)
        return float(
            0.5 * self.a[i] * x[i] ** 2 + self.b[i] * x[i] + (self.coupling[i] @ x) * x[i]
        )

    def mapping(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError("non-finite joint point")
        return self._M @ x + self.b

    def local_gradients(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        # row i contributes a_i*X_ii + b_i + sum_j c_ij*X_ij (c_ii = 0)
        return self.a * X.diagonal() + self.b + (self.coupling * X).sum(axis=1)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "C": self.coupling.tolist(),
            "boxes": [[bx.lo, bx.hi] for bx in self.boxes],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuadraticGame":
        boxes = [BoxSet(float(lo), float(hi)) for lo, hi in data["boxes"]]
        game = cls(data["a"], data["b"], data["C"], boxes)
        if game.n != int(data["n"]):
            raise ValueError("declared player count does not match coefficients")
        return game

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "QuadraticGame":
        return cls.from_json(json.loads(text))


def quadratic_constants(game: QuadraticGame) -> GameConstants:
    """Exact regularity constants of a quadratic game.

    ``L_own_i = a_i`` and ``L_other_i`` is the Euclidean norm of row ``i`` of
    the coupling matrix. The monotonicity constant is the smallest eigenvalue
    of the symmetric part of the Jacobian (exact for affine mappings),
    clamped at 0 when negative. With antisymmetric coupling that symmetric
    part is ``Diag(a)``, so the restricted constant is ``min_i a_i`` exactly;
    otherwise the restricted constant coincides with the global one.
    """
    L_own = game.a.copy()
    L_other = np.linalg.norm(game.coupling, axis=1)
    M = game.jacobian()
    sym = 0.5 * (M + M.T)
    mu_F = max(0.0, float(np.linalg.eigvalsh(sym).min()))
    mu_r = float(game.a.min()) if game.antisymmetric else mu_F
    return GameConstants(mu_F=mu_F, L_own=L_own, L_other=L_other, mu_r=mu_r)


def make_quadratic_game(
    n: int,
    seed: int,
    a_range=(1.0, 2.0),
    b_range=(-1.0, 1.0),
    c_range=(-0.01, 0.01),
    box_range=(5.0, 10.0),
    antisymmetric: bool = True,
) -> QuadraticGame:
    """Draw a random quadratic game, reproducibly for a fixed seed.

    All coefficients are sampled uniformly from the given ranges with a
    single ``numpy`` generator seeded by ``seed`` (draw order: a, b, C,
    boxes). Boxes are ``[-u_i, v_i]`` with ``u_i, v_i`` drawn from
    ``box_range``. With ``antisymmetric=True`` the upper triangle of the
    coupling is drawn and mirrored with opposite sign, so ``C == -C.T``
    holds exactly.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    for name, rng_ in (("a_range", a_range), ("b_range", b_range),
                       ("c_range", c_range), ("box_range", box_range)):
        if len(rng_) != 2 or rng_[0] > rng_[1]:
            raise ValueError(f"{name} must be a pair (lo, hi) with lo <= hi, got {rng_}")
    if a_range[0] <= 0:
        raise ValueError("a_range must be strictly positive")
    if box_range[0] < 0:
        raise ValueError("box_range must be nonnegative")

    rng = np.random.default_rng(seed)
    a = rng.uniform(*a_range, size=n)
    b = rng.uniform(*b_range, size=n)
    C = rng.uniform(*c_range, size=(n, n))
    np.fill_diagonal(C, 0.0)
    if antisymmetric:
        upper = np.triu(C, k=1)
        C = upper - upper.T
    lo = -rng.uniform(*box_range, size=n)
    hi = rng.uniform(*box_range, size=n)
    boxes = [BoxSet(float(l), float(h)) for l, h in zip(lo, hi)]
    return QuadraticGame(a, b, C, boxes)
