import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from grane import (
    AugmentedConfig,
    BoxSet,
    DivergenceError,
    QuadraticGame,
    SolverConfig,
    StrongMonotonicityUnavailableError,
    acc_grane_run,
    augmented_mapping,
    centralized_gradient_play,
    complete_graph,
    consensual_matrix,
    grane_run,
    make_augmented_config,
    make_quadratic_game,
    mixing_from_laplacian,
    path_graph,
    project_estimates,
    random_tree,
    residual_metrics,
)
from grane.augmented import N_AFFINE, clamp_diagonal, gradient_map
from grane.experiment import bundled_config, load_experiment
from grane.games import clamp
from grane.solvers import reference_step

from conftest import QuarticGame, grane_player_step, linear_solve_equilibrium


@pytest.fixture
def g2_setup(g2, w2):
    cfg = make_augmented_config(g2, w2, alpha=1.0, path="lemma2")
    X_star = consensual_matrix(linear_solve_equilibrium(g2))
    return g2, w2, cfg, X_star


# ---------------------------------------------------------------------------
# plain gradient play


def test_grane_first_step_value(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    sc = SolverConfig(max_iters=1)
    X1, _ = grane_run(game, mixing, cfg, sc)
    lam = sc.resolve_step(cfg)
    assert_allclose(lam, 0.047746, atol=1e-6)
    assert_allclose(X1, [[2 * lam, 0.0], [0.0, 0.0]], atol=1e-15)
    assert_allclose(X1[0, 0], 0.095492, atol=1e-6)


def test_grane_equilibrium_is_fixed_point(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    X, _ = grane_run(game, mixing, cfg, SolverConfig(max_iters=50), X0=X_star)
    assert np.linalg.norm(X - X_star) <= 1e-12


def test_grane_converges(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    X, trace = grane_run(game, mixing, cfg, SolverConfig(max_iters=2000),
                         reference=X_star)
    assert np.linalg.norm(X - X_star) <= 1e-6 * trace.dense_fro[0]
    assert_allclose(np.diag(X), [0.8, 0.4], atol=1e-10)


def test_grane_per_step_contraction(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    _, trace = grane_run(game, mixing, cfg, SolverConfig(max_iters=800),
                         reference=X_star)
    r2 = np.asarray(trace.dense_fro) ** 2
    factor = 1.0 - 1.0 / cfg.gamma**2
    assert np.all(r2[1:] <= factor * r2[:-1] + 1e-9)


def test_grane_normalized_residual_monotone(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    _, trace = grane_run(game, mixing, cfg, SolverConfig(max_iters=500),
                         reference=X_star)
    norm = trace.normalized_residuals()
    assert np.all(np.diff(norm) <= 1e-12)


def test_rowwise_update_matches_matrix_form(g2_setup, benchmark20):
    cases = [(g2_setup[0], g2_setup[1], 1.0, 0.05),
             (benchmark20[0], benchmark20[1], 0.05, 0.001)]
    rng = np.random.default_rng(7)
    for game, mixing, alpha, lam in cases:
        for _ in range(5):
            X = rng.uniform(-12, 12, size=(game.n, game.n))
            X = project_estimates(game.boxes, X)
            by_matrix = project_estimates(
                game.boxes, X - lam * augmented_mapping(game, mixing, alpha, X)
            )
            by_player = grane_player_step(game, mixing, alpha, lam, X)
            assert_allclose(by_player, by_matrix, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, N_AFFINE),
    m=st.integers(N_AFFINE + 1, 30),
    seed=st.integers(0, 2**32 - 1),
    topology=st.sampled_from(["path", "tree", "complete"]),
    antisymmetric=st.booleans(),
)
def test_grane_step_matches_rowwise_oracle(n, m, seed, topology, antisymmetric):
    # every example meets the oracle once with the dense step (n players)
    # and once with the structured step (m players)
    for size in (n, m):
        game = make_quadratic_game(size, seed, c_range=(-1.0, 1.0), antisymmetric=antisymmetric)
        graph = {"path": path_graph, "complete": complete_graph,
                 "tree": lambda k: random_tree(k, seed)}[topology](size)
        mixing = mixing_from_laplacian(graph)
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(0.01, 1.0, size=size)
        lam = float(rng.uniform(0.01, 0.5))
        X0 = project_estimates(game.boxes, rng.uniform(-12, 12, size=(size, size)))
        oracle = grane_player_step(game, mixing, alpha, lam, X0)
        # the step is explicit, so the constants only label the run
        cfg = AugmentedConfig(alpha=alpha, L_Fa=1.0, mu_Fa=1.0, mu_r_Fa=None, path="lemma2")
        X1, trace = grane_run(game, mixing, cfg, SolverConfig(step=lam, max_iters=1), X0=X0)
        assert trace.metadata["iterations"] == 1
        assert_allclose(X1, oracle, rtol=0, atol=1e-12)
        # a step given as a reciprocal, as Acc-GRANE's 1/mu and 1/L are
        step = gradient_map(game, mixing, alpha, 1.0 / (1.0 / lam))
        stepped = step(X0.ravel(), np.empty(size * size)).reshape(size, size)
        assert_allclose(clamp_diagonal(stepped, game.lo, game.hi), oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, N_AFFINE + 3])
def test_non_quadratic_steps_follow_the_mapping(n):
    game = QuarticGame(make_quadratic_game(n, 3, b_range=(-3, 3), box_range=(1.0, 2.0)), 0.5)
    mixing = mixing_from_laplacian(path_graph(n))
    cfg = make_augmented_config(game, mixing, alpha=0.3)
    lo, hi = game.lo, game.hi

    def F(X):
        return augmented_mapping(game, mixing, cfg.alpha, X)

    def close(actual, expected):
        assert_allclose(actual, expected, rtol=0, atol=1e-13 * np.abs(expected).max())

    # GRANE: X <- P(X - lam F_a(X))
    sc = SolverConfig(step=0.2, max_iters=30, trace_stride=30)
    X = clamp_diagonal(np.zeros((n, n)), lo, hi)
    for _ in range(sc.max_iters):
        X = clamp_diagonal(X - 0.2 * F(X), lo, hi)
    close(grane_run(game, mixing, cfg, sc)[0], X)

    # Acc-GRANE: the averages of Y_t - (1/mu) F_a(Y_t) and of Y_t, each new
    # term with the share theta, and Y_{k+1} = P(X_k - (1/L) F_a(X_k))
    mu, L = cfg.mu_Fa, cfg.L_Fa
    theta = 1.0 / (1.0 + L / mu)
    Y = clamp_diagonal(np.zeros((n, n)), lo, hi)
    A, B = Y, Y - (1.0 / mu) * F(Y)
    sc = SolverConfig(algorithm="acc-grane", max_iters=30, trace_stride=30)
    for _ in range(sc.max_iters - 1):
        X_k = clamp_diagonal(B.copy(), lo, hi)
        Y = clamp_diagonal(X_k - (1.0 / L) * F(X_k), lo, hi)
        B = B + theta * (Y - (1.0 / mu) * F(Y) - B)
        A = A + theta * (Y - A)
    y_tilde, trace = acc_grane_run(game, mixing, cfg, sc)
    close(y_tilde, A)
    assert trace.metadata["step"] == {"averaging": 1.0 / mu, "gradient": 1.0 / L}


def test_non_quadratic_grane_reaches_the_centralized_point():
    n = 3
    game = QuarticGame(make_quadratic_game(n, 3, b_range=(-3, 3), box_range=(1.0, 2.0)), 0.5)
    mixing = mixing_from_laplacian(path_graph(n))
    cfg = make_augmented_config(game, mixing, alpha=0.3)
    x_star = centralized_gradient_play(game)
    X, trace = grane_run(game, mixing, cfg, SolverConfig(step=0.2, max_iters=10_000, stop_tol=1e-14))
    assert trace.metadata["iterations"] < 10_000
    assert_allclose(X, consensual_matrix(x_star), rtol=0, atol=1e-9)


def test_affine_step_drift_on_g2r():
    # g2r takes the dense step; over 1e5 steps its distances to the
    # equilibrium stay within 1e-11 of the start residual of those of the
    # structured step, written out here
    exp = load_experiment(bundled_config("g2r.json"))
    game, mixing = exp.game, exp.mixing
    sc, cfg = exp.solvers[0]
    assert game.n <= N_AFFINE
    X_star = consensual_matrix(centralized_gradient_play(game, **exp.reference))
    steps = 100_000
    sc = dataclasses.replace(sc, max_iters=steps, trace_stride=steps)
    _, trace = grane_run(game, mixing, cfg, sc, reference=X_star)
    lam = sc.resolve_step(cfg)
    X = clamp_diagonal(np.zeros((game.n, game.n)), game.lo, game.hi)
    structured = [np.linalg.norm(X - X_star)]
    for _ in range(steps):
        X = clamp_diagonal(X - lam * augmented_mapping(game, mixing, cfg.alpha, X), game.lo, game.hi)
        structured.append(np.linalg.norm(X - X_star))
    dense, structured = np.asarray(trace.dense_fro), np.asarray(structured)
    assert np.max(np.abs(dense - structured)) <= 1e-11 * structured[0]
    # criterion 4 checks r2[k+1] <= factor * r2[k] + 1e-12; the drift moves
    # each side of that check by a hundredth of the slack at most
    factor = 1.0 - (cfg.mu_r_Fa / cfg.L_Fa) ** 2
    margin = dense[1:] ** 2 - factor * dense[:-1] ** 2
    margin_structured = structured[1:] ** 2 - factor * structured[:-1] ** 2
    assert np.max(np.abs(margin - margin_structured)) <= 1e-14


def test_structured_step_drift_on_paper_sec5():
    # paper_sec5 (n = 20) takes the structured step; over each solver entry's
    # run its distances to the equilibrium stay within 1e-11 of the start
    # residual of those of the step as written, spelled out here
    exp = load_experiment(bundled_config("paper_sec5.json"))
    game, mixing = exp.game, exp.mixing
    assert game.n > N_AFFINE
    X_star = consensual_matrix(centralized_gradient_play(game, **exp.reference))
    lo, hi = game.lo, game.hi
    assert [sc.algorithm for sc, _ in exp.solvers] == ["grane", "acc-grane", "grane"]
    for sc, cfg in exp.solvers:
        sc = dataclasses.replace(sc, trace_stride=sc.max_iters)
        X = clamp_diagonal(np.zeros((game.n, game.n)), lo, hi)
        written = [np.linalg.norm(X - X_star)]

        def F(X):
            return augmented_mapping(game, mixing, cfg.alpha, X)

        if sc.algorithm == "acc-grane":
            _, trace = acc_grane_run(game, mixing, cfg, sc, reference=X_star)
            mu, L = cfg.mu_Fa, cfg.L_Fa
            theta = 1.0 / (1.0 + L / mu)
            A, B = X, X - F(X) / mu
            for _ in range(sc.max_iters - 1):
                X = clamp_diagonal(B.copy(), lo, hi)
                Y = clamp_diagonal(X - F(X) / L, lo, hi)
                B += theta * (Y - F(Y) / mu - B)
                A = A + theta * (Y - A)
                written.append(np.linalg.norm(A - X_star))
        else:
            _, trace = grane_run(game, mixing, cfg, sc, reference=X_star)
            lam = sc.resolve_step(cfg)
            for _ in range(sc.max_iters):
                X = clamp_diagonal(X - lam * F(X), lo, hi)
                written.append(np.linalg.norm(X - X_star))
        dense, written = np.asarray(trace.dense_fro), np.asarray(written)
        assert dense.shape == written.shape
        assert np.max(np.abs(dense - written)) <= 1e-11 * written[0]
        # criterion 4's check r2[k+1] <= factor * r2[k] + 1e-12, on the
        # normalized residuals that criterion 8 reads at this start residual
        # (7.3): the drift moves each side by a hundredth of the slack at most
        factor = 1.0 - 1.0 / cfg.gamma**2
        r2, w2 = (dense / dense[0]) ** 2, (written / written[0]) ** 2
        assert np.max(np.abs(r2 - w2)) <= 1e-14
        assert np.max(np.abs(factor * (r2 - w2))) <= 1e-14


def test_jagged_step_drift_on_a_300_player_tree():
    # a 300-player tree mixes by jagged diagonals; over 200 GRANE and 200
    # Acc-GRANE steps its distances to the equilibrium stay within 1e-11 of
    # the start residual of those of the dense structured step, written out
    # here as one product with P = I - s (I - W) plus a diagonal correction
    n, steps = 300, 200
    game = make_quadratic_game(n, 5, c_range=(-0.001, 0.001))
    mixing = mixing_from_laplacian(random_tree(n, 6))
    assert mixing.form == "jagged"
    X_star = consensual_matrix(linear_solve_equilibrium(game))
    lo, hi, own = game.lo, game.hi, np.arange(n)
    cfg = make_augmented_config(game, mixing, alpha=0.1)
    start = clamp_diagonal(np.zeros((n, n)), lo, hi)

    def dense_step(s):
        P = np.eye(n) - s * (np.eye(n) - mixing.W)
        K, c = s * cfg.alpha[:, None] * game.jacobian(), s * cfg.alpha * game.b

        def step(X):
            out = P @ X
            out[own, own] -= (K * X).sum(axis=1) + c
            return out

        return step

    def drift(trace, written):
        dense, written = np.asarray(trace.dense_fro), np.asarray(written)
        assert dense.shape == written.shape == (steps + 1,)
        assert np.max(np.abs(dense - written)) <= 1e-11 * written[0]

    sc = SolverConfig(step=0.5, max_iters=steps, trace_stride=steps)
    _, trace = grane_run(game, mixing, cfg, sc, reference=X_star)
    step, X = dense_step(0.5), start
    written = [np.linalg.norm(X - X_star)]
    for _ in range(steps):
        X = clamp_diagonal(step(X), lo, hi)
        written.append(np.linalg.norm(X - X_star))
    drift(trace, written)

    sc = SolverConfig(algorithm="acc-grane", max_iters=steps + 1, trace_stride=steps)
    _, trace = acc_grane_run(game, mixing, cfg, sc, reference=X_star)
    mu, L = cfg.mu_Fa, cfg.L_Fa
    theta = 1.0 / (1.0 + L / mu)
    averaging, gradient = dense_step(1.0 / mu), dense_step(1.0 / L)
    A, B = start, averaging(start)
    written = [np.linalg.norm(A - X_star)]
    for _ in range(steps):
        X = clamp_diagonal(B.copy(), lo, hi)
        Y = clamp_diagonal(gradient(X), lo, hi)
        B += theta * (averaging(Y) - B)
        A = A + theta * (Y - A)
        written.append(np.linalg.norm(A - X_star))
    drift(trace, written)
    # the records evaluate F_a through the same kernel
    expected = X - mixing.W @ X
    expected[own, own] += cfg.alpha * game.local_gradients(X)
    assert_allclose(augmented_mapping(game, mixing, cfg.alpha, X), expected,
                    rtol=0, atol=1e-13 * np.abs(X).max())


def test_grane_rejects_infeasible_start(g2_setup):
    game, mixing, cfg, _ = g2_setup
    X0 = np.zeros((2, 2))
    X0[0, 0] = 99.0
    with pytest.raises(ValueError):
        grane_run(game, mixing, cfg, SolverConfig(max_iters=5), X0=X0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 1), (1, 1)])
@pytest.mark.parametrize("run, name", [(grane_run, "X0"), (acc_grane_run, "Y0")])
def test_distributed_solvers_reject_non_finite_starts(g2_setup, run, name, where, value):
    # refused before any step, so an entry off the diagonal is not reported
    # as a divergence blamed on the step size, and no numpy warning escapes
    game, mixing, cfg, _ = g2_setup
    start = np.zeros((2, 2))
    start[where] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} of shape \(2, 2\) has non-finite entries"):
            run(game, mixing, cfg, SolverConfig(max_iters=5), start)


@pytest.mark.parametrize("shape", [(3, 3), (4,), (1, 2, 2), (2, 3)])
@pytest.mark.parametrize("run, name", [(grane_run, "X0"), (acc_grane_run, "Y0")])
def test_distributed_solvers_reject_misshapen_starts(g2_setup, run, name, shape):
    game, mixing, cfg, _ = g2_setup
    message = rf"^{name} must have shape \(2, 2\), got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        run(game, mixing, cfg, SolverConfig(max_iters=5), np.zeros(shape))


@pytest.mark.parametrize("x0, message", [
    ([0.0, np.nan], r"^x0 of shape \(2,\) has non-finite entries$"),
    ([-np.inf, 0.0], r"^x0 of shape \(2,\) has non-finite entries$"),
    ([0.0, 0.0, 0.0], r"^x0 must have shape \(2,\), got shape \(3,\)$"),
    ([[0.0], [0.0]], r"^x0 must have shape \(2,\), got shape \(2, 1\)$"),
])
def test_reference_rejects_bad_start_points(g2, x0, message):
    with pytest.raises(ValueError, match=message):
        centralized_gradient_play(g2, max_iters=5, x0=x0)


def test_grane_stop_tol(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    for run, algorithm in ((grane_run, "grane"), (acc_grane_run, "acc-grane")):
        X, trace = run(game, mixing, cfg,
                       SolverConfig(algorithm=algorithm, max_iters=5000, stop_tol=1e-10),
                       reference=X_star)
        assert trace.metadata["iterations"] < 5000
        # the move is measured against the previous iterate, so the stop is a converged one
        assert np.linalg.norm(X - X_star) <= 1e-6 * trace.dense_fro[0]


def test_acc_grane_refuses_a_step_it_would_ignore(g2_setup):
    game, mixing, cfg, _ = g2_setup
    with pytest.raises(ValueError, match="^step must be 'auto' for acc-grane"):
        acc_grane_run(game, mixing, cfg, SolverConfig(step=0.1, max_iters=5))


def test_grane_divergence_guard(g2_setup):
    game, mixing, cfg, _ = g2_setup
    with pytest.raises(DivergenceError):
        grane_run(game, mixing, cfg, SolverConfig(step=5.0, max_iters=5000))


@pytest.mark.filterwarnings("error")
def test_grane_nonfinite_iterate_raises(g2_setup):
    # the iterates overflow well inside the 100-iteration growth window
    game, mixing, cfg, _ = g2_setup
    with pytest.raises(DivergenceError, match="non-finite"):
        grane_run(game, mixing, cfg, SolverConfig(step=1e6, max_iters=50))


def test_start_matrix_memory_layout_is_irrelevant(w2):
    # the equilibrium (10, -5) sits on player 0's bound, so the clamps act
    game = QuadraticGame([1.0, 1.0], [-20.0, 5.0], np.zeros((2, 2)),
                         [BoxSet(-10, 10), BoxSet(-10, 10)])
    cfg = make_augmented_config(game, w2, alpha=1.0, path="lemma2")
    start = np.array([[9.0, 3.0], [-2.0, 1.0]])
    for run, algorithm in ((grane_run, "grane"), (acc_grane_run, "acc-grane")):
        sc = SolverConfig(algorithm=algorithm, max_iters=200)
        by_rows, _ = run(game, w2, cfg, sc, start)
        by_columns, _ = run(game, w2, cfg, sc, np.asfortranarray(start))
        assert np.array_equal(by_rows, by_columns)
        assert by_rows[0, 0] <= 10.0


def test_runs_are_reproducible(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    sc = SolverConfig(max_iters=200)
    X1, t1 = grane_run(game, mixing, cfg, sc, reference=X_star)
    X2, t2 = grane_run(game, mixing, cfg, sc, reference=X_star)
    assert np.array_equal(X1, X2)
    assert t1.dense_fro == t2.dense_fro
    assert t1.records == t2.records


# ---------------------------------------------------------------------------
# accelerated gradient play


# sizes on both sides of N_AFFINE, so that the dense and the structured step meet the oracles
SIZES = st.integers(2, N_AFFINE + 2)


def paper_weights(gamma, count):
    """The first ``count`` averaging weights ``lam_0 = 1``, ``lam_{k+1} = S_k / gamma``,
    ``S_k`` the sum of ``lam_0 .. lam_k``."""
    weights = [1.0]
    while len(weights) < count:
        weights.append(sum(weights) / gamma)
    return weights


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(1.0, 200.0),
    iters=st.integers(1, 40),
    n=SIZES,
    seed=st.integers(0, 2**32 - 1),
)
@example(gamma=2.0, iters=4, n=2, seed=0)
def test_acceleration_weight_schedule(gamma, iters, n, seed):
    # the output after iteration k - 1 is the average of Y_0 .. Y_{k-1} under
    # the paper's weights, the running sums formed as written
    assert paper_weights(2.0, 4) == [1.0, 0.5, 0.75, 1.125]
    game = make_quadratic_game(n, seed)
    mixing = mixing_from_laplacian(random_tree(n, seed))
    cfg = make_augmented_config(game, mixing, alpha=1.0, path="lemma2")
    cfg = dataclasses.replace(cfg, mu_Fa=cfg.L_Fa / gamma)
    mu, L = cfg.mu_Fa, cfg.L_Fa
    rng = np.random.default_rng(seed)
    Y0 = project_estimates(game.boxes, rng.uniform(-5, 5, size=(n, n)))
    y, trace = acc_grane_run(game, mixing, cfg,
                             SolverConfig(algorithm="acc-grane", max_iters=iters), Y0=Y0)
    assert trace.metadata["iterations"] == iters

    def F(X):
        return augmented_mapping(game, mixing, 1.0, X)

    weights = paper_weights(gamma, iters)
    Y = [Y0]
    B = np.zeros((n, n))
    for t, lam in enumerate(weights[:-1]):
        B += lam * (Y[t] - F(Y[t]) / mu)
        X = project_estimates(game.boxes, B / sum(weights[: t + 1]))
        Y.append(project_estimates(game.boxes, X - F(X) / L))
    expected = sum(lam * Y_t for lam, Y_t in zip(weights, Y)) / sum(weights)
    assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)


def test_acc_equilibrium_is_fixed_point(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    y, trace = acc_grane_run(game, mixing, cfg, SolverConfig(algorithm="acc-grane", max_iters=40),
                             Y0=X_star, reference=X_star)
    assert np.linalg.norm(y - X_star) <= 1e-11


def test_acc_faster_than_grane(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    _, tg = grane_run(game, mixing, cfg, SolverConfig(max_iters=2000), reference=X_star)
    _, ta = acc_grane_run(game, mixing, cfg,
                          SolverConfig(algorithm="acc-grane", max_iters=2000),
                          reference=X_star)
    k_g = tg.iterations_to(1e-6)
    k_a = ta.iterations_to(1e-6)
    assert k_g is not None and k_a is not None
    assert k_a < k_g


def test_acc_two_step_unroll_with_unit_gamma(g2_setup):
    # with gamma = 1 (mu = L) both stages are plain 1/L gradient steps and the
    # second output is the average of the first two estimate matrices
    game, mixing, cfg, _ = g2_setup
    L = cfg.L_Fa
    unit = make_augmented_config(game, mixing, alpha=1.0, path="lemma2")
    unit.mu_Fa = L
    Y0 = project_estimates(game.boxes, np.zeros((2, 2)))
    y1, _ = acc_grane_run(game, mixing, unit,
                          SolverConfig(algorithm="acc-grane", max_iters=2), Y0=Y0)
    X0 = project_estimates(game.boxes, Y0 - augmented_mapping(game, mixing, 1.0, Y0) / L)
    Y1 = project_estimates(game.boxes, X0 - augmented_mapping(game, mixing, 1.0, X0) / L)
    assert_allclose(y1, 0.5 * (Y0 + Y1), atol=1e-14)


def test_acc_requires_strong_monotonicity(g2r, w2):
    cfg = make_augmented_config(g2r, w2, alpha="remark4", path="lemma3")
    assert cfg.mu_Fa is None
    with pytest.raises(StrongMonotonicityUnavailableError):
        acc_grane_run(g2r, w2, cfg, SolverConfig(algorithm="acc-grane", max_iters=5))


def test_acc_weight_rescaling_keeps_iterates(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    y, _ = acc_grane_run(game, mixing, cfg,
                         SolverConfig(algorithm="acc-grane", max_iters=3000),
                         reference=X_star)
    assert np.all(np.isfinite(y))
    assert np.linalg.norm(y - X_star) <= 1e-9


# ---------------------------------------------------------------------------
# centralized reference


def test_centralized_g2(g2):
    x = centralized_gradient_play(g2, max_iters=20000, tol=1e-14)
    assert_allclose(x, [0.8, 0.4], atol=1e-10)


def test_centralized_clamps_decoupled():
    game = QuadraticGame([1.0, 1.0], [-20.0, 5.0], np.zeros((2, 2)),
                         [BoxSet(-10, 10), BoxSet(-10, 10)])
    x = centralized_gradient_play(game, tol=1e-13)
    assert_allclose(x, [10.0, -5.0], atol=1e-10)


def test_centralized_fixed_point(g2):
    x_star = linear_solve_equilibrium(g2)
    x = centralized_gradient_play(g2, max_iters=10, x0=x_star)
    assert_allclose(x, x_star, atol=1e-13)


def test_centralized_warns_when_unconverged(g2):
    with pytest.warns(RuntimeWarning, match=r"not converged: 5 iterations, last move \S+ > tol 1e-12"):
        x = centralized_gradient_play(g2, max_iters=5)
    assert np.all(np.isfinite(x))
    # a converged run, and one without a tolerance, stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        centralized_gradient_play(g2, max_iters=5, tol=0.0)
        centralized_gradient_play(g2)


def test_centralized_rejects_bad_limits(g2):
    for kwargs, message in (({"max_iters": -5}, "^max_iters must be a positive whole number"),
                            ({"max_iters": 10.5}, "^max_iters must be a positive whole number"),
                            ({"max_iters": True}, "^max_iters must be a positive whole number"),
                            ({"step": True}, "^step must be a positive finite number or 'auto', got True"),
                            ({"tol": -1.0}, "^tol must be nonnegative"),
                            ({"tol": float("nan")}, "^tol must be nonnegative")):
        with pytest.raises(ValueError, match=message):
            centralized_gradient_play(g2, **kwargs)


def test_centralized_divergence(g2):
    # unbounded boxes, so the oversized step genuinely blows up
    free = QuadraticGame(g2.a, g2.b, g2.coupling,
                         [BoxSet(-np.inf, np.inf)] * 2)
    with pytest.raises(DivergenceError):
        centralized_gradient_play(free, step=2.0, max_iters=10000)


def test_centralized_auto_step_needs_mu():
    game = QuadraticGame([1.0, 1.0], [0, 0], [[0.0, 4.0], [0.0, 0.0]],
                         [BoxSet(-1, 1)] * 2)
    with pytest.raises(ValueError):
        centralized_gradient_play(game)
    x = centralized_gradient_play(game, step=0.1)
    assert np.all(np.isfinite(x))


def _fixed_point_residual(game, x):
    return float(np.linalg.norm(x - clamp(x - game.mapping(x), game.lo, game.hi)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    kind=st.sampled_from(["antisymmetric", "general", "heavy column"]),
    scale=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_auto_reference_step_bound(n, kind, scale, seed):
    rng = np.random.default_rng(seed)
    C = scale * rng.uniform(-1.0, 1.0, size=(n, n)) / np.sqrt(n)
    if kind == "antisymmetric":
        C = np.triu(C, 1) - np.triu(C, 1).T
    elif kind == "heavy column":
        # one column far heavier than every row: |M|_1 >> |M|_inf
        C = np.zeros((n, n))
        C[:, rng.integers(n)] = scale * rng.uniform(-1.0, 1.0, size=n)
    np.fill_diagonal(C, 0.0)
    boxes = [BoxSet(-u, v) for u, v in rng.uniform(0.5, 5.0, size=(n, 2))]
    game = QuadraticGame(rng.uniform(1.0, 2.0, n), rng.uniform(-3.0, 3.0, n), C, boxes)
    c = game.constants
    M = game.jacobian()
    norm2 = float(np.linalg.norm(M, 2))
    # L is at least the spectral norm and at most the old per-player bound
    assert norm2 <= c.joint_lipschitz * (1 + 1e-12)
    assert c.joint_lipschitz <= np.sqrt(n) * c.mapping_lipschitz * (1 + 1e-12)
    if c.mu_F <= 0 or c.joint_lipschitz > 20 * c.mu_F:
        return  # no auto step, or too slow a contraction for a property test
    s = reference_step(game, "auto")
    assert s == c.mu_F / c.joint_lipschitz**2
    tol = 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = centralized_gradient_play(game, tol=tol)
    # the stopping rule's bound: a move of at most tol bounds the unit-step
    # residual of the previous iterate by tol * max(1, 1/s), and that residual
    # is (2 + |M|_2)-Lipschitz; plus rounding in forming it
    scale_x = 1 + np.abs(x).max() + np.abs(game.mapping(x)).max()
    rounding = 100 * np.finfo(float).eps * np.sqrt(n) * scale_x
    bound = tol * (max(1.0, 1.0 / s) + 2.0 + norm2) + rounding
    assert _fixed_point_residual(game, x) <= bound


def test_reference_on_the_n300_workload_game():
    # make_quadratic_game(300, 1) draws the game of the records-n300 benchmark
    # workload; the auto step solves it in a few hundred iterations
    game = make_quadratic_game(300, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = centralized_gradient_play(game, max_iters=1000, tol=1e-12)
    assert _fixed_point_residual(game, x) <= 1e-10


# ---------------------------------------------------------------------------
# metrics and traces


def test_residual_metrics_guards(g2, w2):
    X_star = consensual_matrix(linear_solve_equilibrium(g2))
    X0 = np.zeros((2, 2))
    at_ref = residual_metrics(X_star, X_star, X0, g2, w2, 1.0)
    assert at_ref["fro_residual"] == 0.0
    assert at_ref["vi_residual"] <= 1e-13
    at_start = residual_metrics(X0, X_star, X0, g2, w2, 1.0)
    assert at_start["relative_error"] == np.inf
    same = residual_metrics(X0, X0, X0, g2, w2, 1.0)
    assert same["relative_error"] == 0.0
    consensual = residual_metrics(consensual_matrix([1.0, 2.0]), X_star, X0, g2, w2, 1.0)
    assert consensual["consensus_gap"] == 0.0


def test_trace_csv_format(tmp_path, g2_setup):
    game, mixing, cfg, X_star = g2_setup
    _, trace = grane_run(game, mixing, cfg, SolverConfig(max_iters=20), reference=X_star)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,fro_residual,relative_error,consensus_gap,vi_residual"
    assert len(lines) == 22  # header + iterations 0..20
    first = lines[1].split(",")
    assert first[0] == "0"
    # 17 significant digits round-trip exactly
    assert float(first[1]) == trace.records[0]["fro_residual"]
    assert lines[2].split(",")[2] != "nan"
    # rewriting is byte-identical
    path2 = tmp_path / "again.csv"
    trace.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_trace_stride(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    _, trace = grane_run(game, mixing, cfg,
                         SolverConfig(max_iters=100, trace_stride=10),
                         reference=X_star)
    ks = [rec["k"] for rec in trace.records]
    assert ks == list(range(0, 101, 10))
    assert len(trace.dense_fro) == 101  # dense history is unaffected


def test_trace_iterations_to(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    _, trace = grane_run(game, mixing, cfg, SolverConfig(max_iters=800), reference=X_star)
    k = trace.iterations_to(1e-2)
    norm = trace.normalized_residuals()
    assert norm[k] <= 1e-2 < norm[k - 1]
    assert trace.iterations_to(1e-30) is None


def test_acc_grane_config_takes_steps_from_constants():
    with pytest.raises(ValueError, match="^step"):
        SolverConfig(algorithm="acc-grane", step=0.1)
    with pytest.raises(ValueError, match="^path"):
        SolverConfig(algorithm="acc-grane", path="lemma3")
    assert SolverConfig(algorithm="grane", step=0.1).step == 0.1


def test_solver_config_coerces_numbers():
    sc = SolverConfig(max_iters=1e6, stop_tol=0, trace_stride=10.0, beta=1)
    assert (sc.max_iters, sc.stop_tol, sc.trace_stride, sc.beta) == (1000000, 0.0, 10, 1.0)
    assert type(sc.max_iters) is int and type(sc.stop_tol) is float
    # text is no number, even text that float() would parse
    for name in ("max_iters", "stop_tol", "trace_stride", "beta"):
        for text in ("x", "10", b"10"):
            with pytest.raises(ValueError, match=f"^{name} must be a number"):
                SolverConfig(**{name: text})
    # counts are never truncated, and NaN is no tolerance
    for name, value in (("max_iters", 10.5), ("trace_stride", 3.7), ("max_iters", float("inf")),
                        ("max_iters", True), ("trace_stride", False), ("max_iters", np.True_)):
        with pytest.raises(ValueError, match=f"^{name} must be a positive whole number"):
            SolverConfig(**{name: value})
    with pytest.raises(ValueError, match="^stop_tol must be nonnegative"):
        SolverConfig(stop_tol=float("nan"))
    assert SolverConfig(max_iters=np.int64(7), trace_stride=2**70).trace_stride == 2**70
    with pytest.raises(ValueError, match="^step must be a positive finite number or 'auto', got True"):
        SolverConfig(step=True)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(algorithm="sgd")
    with pytest.raises(ValueError):
        SolverConfig(algorithm="centralized")
    with pytest.raises(ValueError):
        SolverConfig(step=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(step="fast")
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(path="lemma5")
    with pytest.raises(ValueError):
        SolverConfig(trace_stride=0)
