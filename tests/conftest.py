import numpy as np
import pytest

from grane import (
    BoxSet,
    QuadraticGame,
    make_quadratic_game,
    mixing_from_laplacian,
    path_graph,
    random_tree,
)


def two_player_game(c: float) -> QuadraticGame:
    """The 2-player benchmark: a=(2,2), b=(-2,0), antisymmetric coupling c."""
    boxes = [BoxSet(-10.0, 10.0), BoxSet(-10.0, 10.0)]
    return QuadraticGame([2.0, 2.0], [-2.0, 0.0], [[0.0, c], [-c, 0.0]], boxes)


def linear_solve_equilibrium(game: QuadraticGame) -> np.ndarray:
    """Independent oracle for interior equilibria of quadratic games."""
    return np.linalg.solve(game.jacobian(), -game.b)


def grane_player_step(game: QuadraticGame, mixing, alpha, lam: float, X) -> np.ndarray:
    """Row-wise oracle for one GRANE iteration, written as each player's update.

    Player ``i`` first mixes every coordinate of its estimate with those of
    its neighbours, the ``j != i`` with ``w_ij != 0``,

        X_il <- (1 - lam + lam*w_ii) * X_il + lam * sum_j w_ij * X_jl,

    then its own coordinate also takes the gradient step and is clamped to
    its action interval:

        X_ii <- clamp(mixed X_ii - lam * alpha_i * dJ_i/dx_i(row_i)),

    with ``dJ_i/dx_i(x) = a_i*x_i + b_i + sum_j c_ij*x_j`` summed by hand.
    This is the row-wise form of ``P(X - lam * F_a(X))``.
    """
    X = np.asarray(X, dtype=float)
    n = game.n
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (n,))
    W = mixing.W
    out = np.empty_like(X)
    for i in range(n):
        row = X[i]
        coupling = sum(game.coupling[i, j] * row[j] for j in range(n))
        grad_i = game.a[i] * row[i] + game.b[i] + coupling
        neighbours = [j for j in range(n) if j != i and W[i, j] != 0.0]
        for l in range(n):
            mixed = sum(W[i, j] * X[j, l] for j in neighbours)
            out[i, l] = (1.0 - lam + lam * W[i, i]) * X[i, l] + lam * mixed
            if l == i:
                box = game.boxes[i]
                out[i, l] = min(max(out[i, l] - lam * alpha[i] * grad_i, box.lo), box.hi)
    return out


@pytest.fixture
def g2():
    return two_player_game(1.0)


@pytest.fixture
def g2r():
    return two_player_game(3.0)


@pytest.fixture
def w2():
    return mixing_from_laplacian(path_graph(2))


@pytest.fixture(scope="session")
def benchmark20():
    """The 20-player antisymmetric benchmark game with its tree mixing."""
    game = make_quadratic_game(
        20, 42, a_range=(1, 2), b_range=(-1, 1), c_range=(-0.01, 0.01),
        box_range=(5, 10), antisymmetric=True,
    )
    mixing = mixing_from_laplacian(random_tree(20, 7))
    return game, mixing
