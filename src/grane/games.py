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
import operator
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
    "quadratic_constants",
]


@dataclass(frozen=True)
class BoxSet:
    """Closed interval ``[lo, hi]`` of admissible actions for one player."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"boxes need lo <= hi, got [{self.lo}, {self.hi}]")


def box_bounds(boxes) -> tuple[np.ndarray, np.ndarray]:
    """Stack a list of :class:`BoxSet` into ``(lo, hi)`` arrays."""
    lo = np.array([b.lo for b in boxes], dtype=float)
    hi = np.array([b.hi for b in boxes], dtype=float)
    return lo, hi


def _number(name: str, value) -> float:
    """``value`` as a float; a ValueError naming ``name`` if it is none.
    Text and bools are none, even though ``float()`` would take them."""
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _numbers(name: str, values) -> np.ndarray:
    """``values``, a number or a nested list of them, as a float array of
    the same shape; an entry that :func:`_number` rejects is a ValueError."""
    array = np.asarray(values)
    if array.dtype.kind in "iuf":
        # numbers, or numbers and bools, which became 0 and 1: only entries
        # equal to 0 or 1 can be bools
        suspects = np.argwhere((array == 0) | (array == 1)).tolist()
    else:  # text, bools alone or other objects
        suspects = np.ndindex(array.shape)
    for index in suspects:
        entry = values
        for k in index:
            entry = entry[k]
        _number(name, entry)
    return array.astype(float)


def _step(name: str, value):
    """``value`` as a positive finite float, or ``'auto'`` as it is."""
    if isinstance(value, str) and value == "auto":
        return value
    try:
        step = _number(name, value)
    except ValueError:
        step = math.nan
    if not 0.0 < step < math.inf:
        raise ValueError(f"{name} must be a positive finite number or 'auto', got {value!r}")
    return step


def _tolerance(name: str, value) -> float:
    """``value`` as a nonnegative finite float."""
    tol = _number(name, value)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")
    return tol


def _whole(name: str, value, low: int = 1) -> int:
    """``value`` as an int of at least ``low`` (1 or 0): an integer, or a
    whole float such as ``1e6``. A bool or a fraction is a ValueError naming
    ``name``, never truncated."""
    if isinstance(value, (bool, np.bool_)):
        whole = None
    else:
        try:
            whole = operator.index(value)  # exact at any size
        except TypeError:
            number = _number(name, value)
            whole = int(number) if number.is_integer() else None  # NaN and infinities are not
    if whole is None or whole < low:
        kind = "positive" if low == 1 else "nonnegative"
        raise ValueError(f"{name} must be a {kind} whole number, got {value!r}")
    return whole


# the clip ufunc itself: ndarray.clip reaches it through a Python wrapper
try:
    _clip = np._core.umath.clip
except AttributeError:  # numpy 1.x
    _clip = np.core.umath.clip


def clamp(v: np.ndarray, lo, hi) -> np.ndarray:
    """Clamp the float array ``v`` into ``[lo, hi]`` in place and return it,
    the same bits as ``v.clip(lo, hi, out=v)``."""
    return _clip(v, lo, hi, out=v)


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
    joint_lipschitz : float
        Lipschitz constant of the whole mapping ``F`` on ``R^n`` in the
        Euclidean norm, or an upper bound on it; unlike
        :attr:`mapping_lipschitz` it is not a per-player maximum.
    """

    mu_F: float
    L_own: np.ndarray
    L_other: np.ndarray
    mu_r: float
    joint_lipschitz: float

    def __post_init__(self):
        object.__setattr__(self, "L_own", np.asarray(self.L_own, dtype=float))
        object.__setattr__(self, "L_other", np.asarray(self.L_other, dtype=float))
        if self.mu_F < 0 or self.mu_r < 0:
            raise ValueError("monotonicity constants must be nonnegative")
        if np.any(self.L_own < 0) or np.any(self.L_other < 0) or self.joint_lipschitz < 0:
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
            raise ValueError(f"boxes hold {len(boxes)} intervals for {n} players")
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
        if a.shape != (n,):
            raise ValueError(f"a has shape {a.shape}, expected a flat list")
        if b.shape != (n,):
            raise ValueError(f"b has shape {b.shape}, expected ({n},) like a")
        if C.shape != (n, n):
            raise ValueError(f"C has shape {C.shape}, expected ({n}, {n}) like a")
        for name, value in (("a", a), ("b", b), ("C", C)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} entries must be finite numbers")
        if np.any(a <= 0):
            raise ValueError("a entries must be strictly positive")
        if np.any(np.diag(C) != 0):
            raise ValueError("C must have a zero diagonal")
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
        """Cost ``J_i`` at the joint point ``x``: the reference that the
        finite-difference and best-response checks compare the mapping against."""
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
        n = _whole("n", data["n"])
        boxes = [BoxSet(float(lo), float(hi)) for lo, hi in _numbers("boxes", data["boxes"])]
        game = cls(*(_numbers(key, data[key]) for key in ("a", "b", "C")), boxes)
        if game.n != n:
            raise ValueError(f"n is {n}, but the coefficients describe {game.n} players")
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
    part is exactly ``Diag(a)``, so both it and the restricted constant are
    ``min_i a_i``, read without an eigensolve; otherwise the restricted
    constant coincides with the global one.
    ``joint_lipschitz`` bounds the spectral norm of the Jacobian ``M`` by
    ``min(|M|_F, sqrt(|M|_1 |M|_inf))`` (Golub & Van Loan, *Matrix
    Computations*, section 2.3), two O(n^2) upper bounds on ``|M|_2``; the
    Frobenius one is at most ``sqrt(n) * mapping_lipschitz``.
    """
    L_own = game.a.copy()
    L_other = np.linalg.norm(game.coupling, axis=1)
    M = game.jacobian()
    if game.antisymmetric:
        mu_F = mu_r = float(game.a.min())  # a > 0, so no clamp at 0
    else:
        mu_F = mu_r = max(0.0, float(np.linalg.eigvalsh(0.5 * (M + M.T)).min()))
    joint = min(np.linalg.norm(M), math.sqrt(np.linalg.norm(M, 1) * np.linalg.norm(M, np.inf)))
    return GameConstants(
        mu_F=mu_F, L_own=L_own, L_other=L_other, mu_r=mu_r, joint_lipschitz=float(joint)
    )


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
    if not isinstance(antisymmetric, (bool, np.bool_)):
        raise ValueError(f"antisymmetric must be true or false, got {antisymmetric!r}")
    pairs = {"a_range": a_range, "b_range": b_range, "c_range": c_range, "box_range": box_range}
    for name, given in pairs.items():
        pair = pairs[name] = _numbers(name, given)
        if pair.shape != (2,) or not -math.inf < pair[0] <= pair[1] < math.inf:
            raise ValueError(f"{name} must be a finite pair (lo, hi) with lo <= hi, got {given}")
    a_range, b_range, c_range, box_range = pairs.values()
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
