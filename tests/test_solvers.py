import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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

from conftest import grane_player_step, linear_solve_equilibrium


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
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    topology=st.sampled_from(["path", "tree", "complete"]),
    antisymmetric=st.booleans(),
)
def test_grane_step_matches_rowwise_oracle(n, seed, topology, antisymmetric):
    game = make_quadratic_game(n, seed, c_range=(-1.0, 1.0), antisymmetric=antisymmetric)
    graph = {"path": path_graph(n), "tree": random_tree(n, seed), "complete": complete_graph(n)}
    mixing = mixing_from_laplacian(graph[topology])
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.01, 1.0, size=n)
    lam = float(rng.uniform(0.01, 0.5))
    X0 = project_estimates(game.boxes, rng.uniform(-12, 12, size=(n, n)))
    # the step is explicit, so the constants only label the run
    cfg = AugmentedConfig(alpha=alpha, L_Fa=1.0, mu_Fa=1.0, mu_r_Fa=None, gamma=1.0,
                          path="lemma2")
    X1, trace = grane_run(game, mixing, cfg, SolverConfig(step=lam, max_iters=1), X0=X0)
    assert trace.metadata["iterations"] == 1
    assert_allclose(X1, grane_player_step(game, mixing, alpha, lam, X0), rtol=0, atol=1e-12)


def test_grane_rejects_infeasible_start(g2_setup):
    game, mixing, cfg, _ = g2_setup
    X0 = np.zeros((2, 2))
    X0[0, 0] = 99.0
    with pytest.raises(ValueError):
        grane_run(game, mixing, cfg, SolverConfig(max_iters=5), X0=X0)


def test_grane_stop_tol(g2_setup):
    game, mixing, cfg, X_star = g2_setup
    _, trace = grane_run(game, mixing, cfg,
                         SolverConfig(max_iters=5000, stop_tol=1e-10),
                         reference=X_star)
    assert trace.metadata["iterations"] < 5000


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


def test_acceleration_weight_schedule(g2_setup):
    # with gamma = 2 the weights lam_0 = 1, lam_{k+1} = S_k / gamma are
    # (1, 0.5, 0.75, 1.125); the fourth output is the average of Y_0..Y_3
    # under them
    game, mixing, cfg, _ = g2_setup
    L = cfg.L_Fa
    cfg.mu_Fa = L / 2
    Y0 = project_estimates(game.boxes, np.zeros((2, 2)))
    y3, _ = acc_grane_run(game, mixing, cfg,
                          SolverConfig(algorithm="acc-grane", max_iters=4), Y0=Y0)

    def F(X):
        return augmented_mapping(game, mixing, 1.0, X)

    weights = [1.0, 0.5, 0.75, 1.125]
    Y = [Y0]
    B = np.zeros((2, 2))
    for t, lam in enumerate(weights):
        B += lam * (Y[t] - 2 * F(Y[t]) / L)
        X = project_estimates(game.boxes, B / sum(weights[: t + 1]))
        Y.append(project_estimates(game.boxes, X - F(X) / L))
    expected = sum(lam * Y_t for lam, Y_t in zip(weights, Y)) / sum(weights)
    assert_allclose(y3, expected, atol=1e-14)


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
    unit.gamma = 1.0
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
    # force the rescale branch with a tiny gamma and a long run
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
    for name in ("max_iters", "stop_tol", "trace_stride", "beta"):
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            SolverConfig(**{name: "x"})


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
