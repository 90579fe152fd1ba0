import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from grane import (
    AugmentedConfig,
    BoxSet,
    QuadraticGame,
    StrongMonotonicityUnavailableError,
    augmented_mapping,
    condition_report,
    consensual_matrix,
    consensus_gap,
    lipschitz_constant,
    make_augmented_config,
    ne_certificate,
    project_estimates,
    strong_monotonicity_constant,
)
from grane import augmented
from grane.augmented import (
    N_AFFINE,
    affine_form,
    clamp_diagonal,
    gradient_map,
    is_feasible_estimate,
    restricted_constants_at,
)
from grane.games import make_quadratic_game
from grane.network import (
    complete_graph,
    mixing_from_laplacian,
    mixing_metropolis,
    path_graph,
    random_tree,
)

from conftest import QuarticGame, linear_solve_equilibrium


def ne_matrix(game):
    return consensual_matrix(linear_solve_equilibrium(game))


# ---------------------------------------------------------------------------
# evaluation


def test_local_gradients_identity_matrix(g2):
    assert_allclose(g2.local_gradients(np.eye(2)), [0.0, 2.0])


def test_local_gradients_vanish_at_equilibrium(g2):
    assert_allclose(g2.local_gradients(ne_matrix(g2)), [0.0, 0.0], atol=1e-14)


def test_local_gradients_decoupled_depend_on_diagonal_only():
    game = QuadraticGame([1.0, 2.0], [0.5, -0.5], np.zeros((2, 2)),
                         [BoxSet(-5, 5)] * 2)
    X = np.array([[1.0, 99.0], [-99.0, 2.0]])
    assert_allclose(game.local_gradients(X), [1.5, 3.5])


def test_augmented_mapping_value(g2, w2):
    Fa = augmented_mapping(g2, w2, [1.0, 1.0], np.eye(2))
    assert_allclose(Fa, [[0.5, -0.5], [-0.5, 2.5]], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, N_AFFINE),
    m=st.integers(N_AFFINE + 1, 30),
    seed=st.integers(0, 2**32 - 1),
    topology=st.sampled_from(["path", "tree", "complete"]),
    antisymmetric=st.booleans(),
)
def test_affine_form_matches_augmented_mapping(n, m, seed, topology, antisymmetric):
    # every example checks a game with the dense step (n players) and one
    # with the structured step (m players)
    for size in (n, m):
        game = make_quadratic_game(size, seed, c_range=(-1.0, 1.0), antisymmetric=antisymmetric)
        graph = {"path": path_graph, "complete": complete_graph,
                 "tree": lambda k: random_tree(k, seed)}[topology](size)
        mixing = mixing_from_laplacian(graph)
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(0.01, 2.0, size=size)
        X = rng.uniform(-12, 12, size=(size, size))
        J, f0 = affine_form(game, mixing, alpha)
        F = augmented_mapping(game, mixing, alpha, X)
        # relative to the sum of the magnitudes of the terms, the scale of rounding
        scale = np.linalg.norm(np.abs(J) @ np.abs(X.ravel()) + np.abs(f0))
        assert np.linalg.norm(J @ X.ravel() + f0 - F.ravel()) <= 1e-13 * scale
        s = float(rng.uniform(0.01, 2.0))
        for step, expected in ((gradient_map(game, mixing, alpha, s), X - s * F),
                               (gradient_map(game, mixing, alpha, 1 / s), X - F / s)):
            Y = step(X.ravel(), np.empty(size * size)).reshape(size, size)
            assert np.linalg.norm(Y - expected) <= 1e-13 * (np.linalg.norm(X) + scale * max(s, 1 / s))


@pytest.mark.parametrize("form", ["affine", "structured dense", "structured jagged", "generic"])
def test_row_step_of_every_form(form):
    # the step writes out, returns it and leaves x alone; projected, it has
    # the bits of the plain step followed by clamp_diagonal
    n = {"affine": N_AFFINE, "structured dense": 30, "structured jagged": 127, "generic": 9}[form]
    game = make_quadratic_game(n, 1)
    mixing = mixing_from_laplacian(random_tree(n, 2))
    assert mixing.form == ("jagged" if form == "structured jagged" else "dense")
    if form == "generic":
        game = QuarticGame(game, 0.5)
    rng = np.random.default_rng(n)
    alpha = rng.uniform(0.01, 1.0, size=n)
    x = rng.uniform(-20.0, 20.0, size=n * n)
    before = x.tobytes()
    steps = []
    for project in (False, True):
        out = np.empty(n * n)
        assert gradient_map(game, mixing, alpha, 0.3, _project=project)(x, out) is out
        assert x.tobytes() == before
        steps.append(out)
    plain, projected = steps
    expected = clamp_diagonal(plain.reshape(n, n).copy(), game.lo, game.hi).ravel()
    assert projected.tobytes() == expected.tobytes()
    assert (projected != plain).any()  # some diagonal entry was clamped


@pytest.mark.parametrize("project", [False, True], ids=["plain", "projected"])
@pytest.mark.parametrize("n", [30, 127], ids=["dense", "jagged"])
def test_structured_step_is_its_formula_bit_for_bit(n, project):
    # the consensus step minus Diag(rowsum(K * X) + c), K and c as the
    # docstring of gradient_map forms them, then the clamp: a row dot of
    # other bits (np.vecdot, a stacked matmul) fails it
    game = make_quadratic_game(n, 1)
    mixing = mixing_from_laplacian(random_tree(n, 2))
    assert n > N_AFFINE and mixing.form == ("jagged" if n == 127 else "dense")
    rng = np.random.default_rng(n)
    alpha, s = rng.uniform(0.01, 1.0, size=n), 0.3
    X = rng.uniform(-20.0, 20.0, size=(n, n))
    K, c = (s * alpha)[:, None] * game.jacobian(), s * alpha * game.b
    expected = mixing.consensus_step(s)(X, np.empty((n, n)))
    expected.reshape(-1)[:: n + 1] -= np.einsum("ij,ij->i", K, X) + c
    if project:
        clamp_diagonal(expected, game.lo, game.hi)
    step = gradient_map(game, mixing, alpha, s, _project=project)
    assert step(X.ravel(), np.empty(n * n)).tobytes() == expected.tobytes()


def test_augmented_mapping_zero_at_equilibrium(g2, w2):
    Fa = augmented_mapping(g2, w2, 1.0, ne_matrix(g2))
    assert_allclose(Fa, np.zeros((2, 2)), atol=1e-14)


def test_augmented_mapping_zero_alpha_on_consensual(g2, w2):
    X = consensual_matrix([0.3, -0.7])
    assert_allclose(augmented_mapping(g2, w2, 0.0, X), np.zeros((2, 2)), atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 45),
    stack=st.integers(1, 9),
    metropolis=st.booleans(),
    quartic=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(n=127, stack=2, metropolis=False, quartic=False, seed=1)
@example(n=128, stack=3, metropolis=True, quartic=True, seed=2)
def test_stacks_keep_the_bits_of_each_matrix(n, stack, metropolis, quartic, seed):
    # F_a, (I - W) X and the consensus gap of a stack (B, n, n), against one
    # matrix at a time: dense and jagged mixing, a game that takes stacks and
    # one that does not
    game = make_quadratic_game(n, seed)
    game = QuarticGame(game, 0.5) if quartic else game
    graph = random_tree(n, seed)
    mixing = mixing_metropolis(graph) if metropolis else mixing_from_laplacian(graph)
    assert mixing.form == ("jagged" if n >= 127 else "dense")
    rng = np.random.default_rng(seed)
    Xs = rng.uniform(-5.0, 5.0, size=(stack, n, n))
    alpha = rng.uniform(0.01, 1.0, size=n)
    for stacked, one in (
        (augmented_mapping(game, mixing, alpha, Xs), lambda X: augmented_mapping(game, mixing, alpha, X)),
        (mixing.disagreement(Xs), mixing.disagreement),
    ):
        assert stacked.shape == Xs.shape
        assert stacked.tobytes() == np.stack([one(X) for X in Xs]).tobytes()
    gaps = consensus_gap(Xs)
    assert gaps.tolist() == [consensus_gap(X) for X in Xs]
    assert gaps[0] == _gap_by_pairs(Xs[0])


def test_consensual_annihilation(g2, w2):
    rng = np.random.default_rng(0)
    for _ in range(20):
        X = consensual_matrix(rng.uniform(-10, 10, size=2))
        assert np.linalg.norm(X - w2.W @ X) <= 1e-12


def test_project_estimates():
    boxes = [BoxSet(-10, 10), BoxSet(-10, 10)]
    X = np.array([[12.0, 7.0], [-4.0, -3.0]])
    P = project_estimates(boxes, X)
    assert_allclose(P, [[10.0, 7.0], [-4.0, -3.0]])
    assert_allclose(project_estimates(boxes, P), P)
    zeroed = project_estimates([BoxSet(0, 0)] * 2, X)
    assert_allclose(np.diag(zeroed), [0.0, 0.0])
    assert zeroed[0, 1] == 7.0
    assert is_feasible_estimate(boxes, P)
    assert not is_feasible_estimate(boxes, X)


def test_decomposition_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        X = rng.uniform(-10, 10, size=(5, 5))
        X_star = consensual_matrix(rng.uniform(-10, 10, size=5))
        C = consensual_matrix(X.mean(axis=0))
        N = X - C
        assert abs(np.sum((C - X_star) * N)) <= 1e-10
        lhs = np.linalg.norm(X - X_star) ** 2
        rhs = np.linalg.norm(C - X_star) ** 2 + np.linalg.norm(N) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


# ---------------------------------------------------------------------------
# constants


def test_lipschitz_constant_g2(g2, w2):
    L = lipschitz_constant(g2.constants, w2, np.ones(2))
    assert_allclose(L, np.sqrt(5.0) + 1.0, rtol=1e-12)
    # vanishing scalings leave only the network term
    assert_allclose(lipschitz_constant(g2.constants, w2, np.zeros(2)), 1.0)


def test_lipschitz_constant_decoupled(w2):
    game = QuadraticGame([1.5, 3.0], [0, 0], np.zeros((2, 2)), [BoxSet(-1, 1)] * 2)
    L = lipschitz_constant(game.constants, w2, np.ones(2))
    assert_allclose(L, 3.0 + 1.0)


def test_strong_monotonicity_g2(g2, w2):
    mu = strong_monotonicity_constant(g2.constants, w2, 1.0)
    a1 = 1.0 - 0.5 * (np.sqrt(5.0) - 2.0)
    assert_allclose(mu, min(a1, 0.5), rtol=1e-12)
    assert mu == 0.5


def test_strong_monotonicity_absent_for_strong_coupling(g2r, w2):
    # a2 = (alpha/2)(2 - 3) < 0
    assert strong_monotonicity_constant(g2r.constants, w2, 1.0) is None


def test_strong_monotonicity_absent_for_a_game_that_is_not_strongly_monotone(w2):
    # sym(Diag(a) + C) = [[1, 2], [2, 1]] has eigenvalues -1 and 3, so mu_F = 0
    game = QuadraticGame([1.0, 1.0], [0.0, 0.0], [[0.0, 2.0], [2.0, 0.0]],
                         [BoxSet(-1.0, 1.0), BoxSet(-1.0, 1.0)])
    assert game.constants.mu_F == 0.0
    assert strong_monotonicity_constant(game.constants, w2, 1.0) is None


def test_strong_monotonicity_closed_form_20(benchmark20):
    game, mixing = benchmark20
    alpha = 0.05
    mu = strong_monotonicity_constant(game.constants, mixing, alpha)
    closed = alpha / 20 * (
        game.a.min() - np.sqrt(19 * np.max((game.coupling**2).sum(axis=1)))
    )
    assert_allclose(mu, closed, rtol=1e-12)


def test_lipschitz_certificate_sampling(g2, w2):
    L = lipschitz_constant(g2.constants, w2, np.ones(2))
    rng = np.random.default_rng(2)
    for _ in range(1000):
        X = project_estimates(g2.boxes, rng.uniform(-10, 10, (2, 2)))
        Y = project_estimates(g2.boxes, rng.uniform(-10, 10, (2, 2)))
        lhs = np.linalg.norm(
            augmented_mapping(g2, w2, 1.0, X) - augmented_mapping(g2, w2, 1.0, Y)
        )
        assert lhs <= L * np.linalg.norm(X - Y) + 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="the two-branch strong-monotonicity constant is not valid on mixed "
    "consensual/orthogonal directions: for this game and scaling it claims 0.5 "
    "while the true modulus (smallest eigenvalue of the symmetrized linearized "
    "map) is 0.2753, so sampling finds violating pairs",
)
def test_strong_monotonicity_certificate_sampling(g2, w2):
    mu = strong_monotonicity_constant(g2.constants, w2, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        X = project_estimates(g2.boxes, rng.uniform(-10, 10, (2, 2)))
        Y = project_estimates(g2.boxes, rng.uniform(-10, 10, (2, 2)))
        lhs = np.sum(
            (augmented_mapping(g2, w2, 1.0, X) - augmented_mapping(g2, w2, 1.0, Y))
            * (X - Y)
        )
        assert lhs >= mu * np.linalg.norm(X - Y) ** 2 - 1e-9


def monotonicity_modulus(game, mixing, alpha):
    """Independent oracle: smallest eigenvalue of the symmetrized linear map
    behind the augmented mapping (exact for affine game mappings), obtained by
    probing the mapping on basis matrices."""
    n = game.n
    base = augmented_mapping(game, mixing, alpha, np.zeros((n, n)))
    A = np.zeros((n * n, n * n))
    for j in range(n * n):
        E = np.zeros(n * n)
        E[j] = 1.0
        A[:, j] = (
            augmented_mapping(game, mixing, alpha, E.reshape(n, n)) - base
        ).ravel()
    return float(np.linalg.eigvalsh(0.5 * (A + A.T)).min())


def test_strong_monotonicity_holds_with_true_modulus(g2, w2):
    mu_claimed = strong_monotonicity_constant(g2.constants, w2, 1.0)
    mu_true = monotonicity_modulus(g2, w2, 1.0)
    assert mu_true < mu_claimed  # the two-branch value overshoots on this game
    rng = np.random.default_rng(3)
    for _ in range(1000):
        X = project_estimates(g2.boxes, rng.uniform(-10, 10, (2, 2)))
        Y = project_estimates(g2.boxes, rng.uniform(-10, 10, (2, 2)))
        lhs = np.sum(
            (augmented_mapping(g2, w2, 1.0, X) - augmented_mapping(g2, w2, 1.0, Y))
            * (X - Y)
        )
        assert lhs >= mu_true * np.linalg.norm(X - Y) ** 2 - 1e-9


# ---------------------------------------------------------------------------
# restricted path


def restricted(game, mixing, alpha="remark4", beta=None):
    return make_augmented_config(game, mixing, alpha=alpha, path="lemma3", beta=beta)


def test_restricted_beta_balances_first_branch(g2r, w2):
    rc = restricted(g2r, w2)
    alpha = rc.alpha[0]
    c = g2r.constants
    n = 2
    L_F = c.mapping_lipschitz
    # the default beta solves beta^2 + 2 beta = mu_r / (2 n L_F) ...
    assert_allclose(rc.beta**2 + 2 * rc.beta, c.mu_r / (2 * n * L_F), rtol=1e-12)
    # ... which collapses the first branch to alpha*mu_r/(2n)
    b1_direct = alpha * (c.mu_r / n - L_F * (rc.beta**2 + 2 * rc.beta))
    assert_allclose(b1_direct, alpha * c.mu_r / (2 * n), rtol=1e-12)


def test_restricted_values_g2r(g2r, w2):
    rc = restricted(g2r, w2)
    L_F = np.sqrt(13.0)
    beta = -1.0 + np.sqrt(1.0 + 2.0 / (4.0 * L_F))
    assert_allclose(rc.beta, beta, rtol=1e-12)
    assert_allclose(rc.beta, 0.06709, atol=5e-6)
    alpha = 1.0 / (2 * L_F * (1 + 1 / beta**2))
    assert_allclose(rc.alpha, [alpha, alpha], rtol=1e-12)
    assert_allclose(rc.alpha, 6.213e-4, atol=1e-6)
    assert_allclose(rc.mu_r_Fa, 3.11e-4, atol=1e-6)
    # second branch equals alpha * L_F under the automatic alpha
    b2 = w2.lambda_min_nz_IW / (1 + 1 / rc.beta**2) - rc.alpha[0] * L_F
    assert_allclose(b2, rc.alpha[0] * L_F, rtol=1e-10)
    assert rc.mu_r_Fa == pytest.approx(min(rc.alpha[0] * 2 / 4, b2), rel=1e-12)


def test_restricted_certificate_sampling(g2r, w2):
    rc = restricted(g2r, w2)
    alpha = rc.alpha[0]
    # the restricted constant is conservative: below the true modulus
    assert rc.mu_r_Fa <= monotonicity_modulus(g2r, w2, alpha)
    X_star = ne_matrix(g2r)
    rng = np.random.default_rng(4)
    Fa_star = augmented_mapping(g2r, w2, alpha, X_star)
    for _ in range(1000):
        X = project_estimates(g2r.boxes, rng.uniform(-10, 10, (2, 2)))
        lhs = np.sum((augmented_mapping(g2r, w2, alpha, X) - Fa_star) * (X - X_star))
        assert lhs >= rc.mu_r_Fa * np.linalg.norm(X - X_star) ** 2 - 1e-9


def test_restricted_explicit_alpha_matches_formula(g2r, w2):
    auto = restricted(g2r, w2)
    same = restricted(g2r, w2, alpha=auto.alpha[0])
    assert same.to_json() == auto.to_json()
    half = restricted(g2r, w2, alpha=auto.alpha[0] / 2)
    direct = restricted_constants_at(g2r.constants, w2, auto.alpha[0] / 2, auto.beta)
    assert (half.alpha[0], half.mu_r_Fa, half.beta) == (auto.alpha[0] / 2, direct, auto.beta)
    with pytest.raises(ValueError, match="^alpha=10"):
        restricted(g2r, w2, alpha=10.0)


def test_restricted_rejects_nonpositive_inputs(w2):
    game = QuadraticGame([1.0, 1.0], [0, 0], [[0.0, 4.0], [0.0, 0.0]],
                         [BoxSet(-1, 1)] * 2)  # mu_r = 0
    with pytest.raises(ValueError):
        restricted(game, w2)


def test_restricted_beta_override(g2r, w2):
    rc_default = restricted(g2r, w2)
    rc_larger = restricted(g2r, w2, beta=0.1)
    assert rc_larger.beta == 0.1
    assert rc_larger.alpha[0] > rc_default.alpha[0]
    assert rc_larger.mu_r_Fa > 0
    direct = restricted_constants_at(g2r.constants, w2, rc_larger.alpha[0], 0.1)
    assert_allclose(rc_larger.mu_r_Fa, direct, rtol=1e-12)
    # a beta far past the balance point kills the first branch
    with pytest.raises(ValueError):
        restricted(g2r, w2, beta=0.5)
    # so does a beta that is not a positive number, named as such
    for beta in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="^beta must be positive"):
            restricted(g2r, w2, beta=beta)


# ---------------------------------------------------------------------------
# configs and condition numbers


def test_make_config_lemma2_g2(g2, w2):
    cfg = make_augmented_config(g2, w2, alpha=1.0, path="lemma2")
    assert_allclose(cfg.gamma, (np.sqrt(5.0) + 1.0) / 0.5, rtol=1e-12)
    assert_allclose(cfg.gamma, 6.4721, atol=1e-4)
    assert cfg.mu == cfg.mu_Fa


def test_make_config_lemma2_unavailable(g2r, w2):
    with pytest.raises(StrongMonotonicityUnavailableError):
        make_augmented_config(g2r, w2, alpha=1.0, path="lemma2")


def test_make_config_lemma3(g2, g2r, w2):
    # on g2 both constants exist; the restricted path's gamma uses its own
    for game in (g2r, g2):
        cfg = make_augmented_config(game, w2, alpha="remark4", path="lemma3")
        assert cfg.mu_r_Fa > 0
        assert cfg.mu_Fa is None or cfg.mu_Fa > 0
        assert cfg.gamma == cfg.L_Fa / cfg.mu_r_Fa
        assert cfg.mu == cfg.mu_r_Fa
    assert cfg.mu_Fa is not None and cfg.mu_Fa != cfg.mu_r_Fa


def test_make_config_rejects_bad_combinations(g2, g2r, w2):
    with pytest.raises(ValueError):
        make_augmented_config(g2, w2, alpha="remark4", path="lemma2")
    with pytest.raises(ValueError):
        make_augmented_config(g2r, w2, alpha=[1.0, 2.0], path="lemma3")
    with pytest.raises(ValueError):
        make_augmented_config(g2, w2, alpha=1.0, path="lemma1")
    # beta belongs to the restricted constant: on lemma2 even a valid one is refused
    for beta in (0.1, -3.0, float("nan")):
        with pytest.raises(ValueError, match="^beta only applies to the lemma3 path"):
            make_augmented_config(g2, w2, alpha=1.0, path="lemma2", beta=beta)
    with pytest.raises(ValueError, match="^alpha must be a number or a list of 2"):
        make_augmented_config(g2, w2, alpha=[1.0, 1.0, 1.0], path="lemma2")
    # an explicit alpha far too large for the restricted formulas
    with pytest.raises(ValueError):
        make_augmented_config(g2r, w2, alpha=10.0, path="lemma3")
    # a nonpositive entry is rejected as such on both paths, not as a missing constant
    for alpha in (-1.0, 0.0, [1.0, -1.0], float("nan")):
        for game, path in ((g2, "lemma2"), (g2r, "lemma3")):
            with pytest.raises(ValueError, match="^alpha entries must be strictly positive"):
                make_augmented_config(game, w2, alpha=alpha, path=path)


def test_make_config_defaults_to_unit_alpha_on_lemma2(g2, w2):
    cfg = make_augmented_config(g2, w2)
    assert cfg.to_json() == make_augmented_config(g2, w2, alpha=1.0, path="lemma2").to_json()


def test_make_config_lemma3_explicit_alpha(g2r, w2):
    auto = make_augmented_config(g2r, w2, alpha="remark4", path="lemma3")
    cfg = make_augmented_config(g2r, w2, alpha=auto.alpha[0], path="lemma3")
    assert_allclose(cfg.mu_r_Fa, auto.mu_r_Fa, rtol=1e-12)


def test_condition_report_g2(g2, w2):
    cfg = make_augmented_config(g2, w2, alpha=1.0, path="lemma2")
    rep = condition_report(cfg, g2.constants, w2)
    assert_allclose(rep.gamma, 6.4721, atol=1e-4)
    assert_allclose(rep.C, 8.0, rtol=1e-12)
    assert_allclose(rep.alpha_recommended, 8.0 / 9.0, rtol=1e-12)
    # alpha=1 is not the recommended scaling, so the bound is not applicable
    assert not rep.hypotheses_hold
    assert rep.bound_holds is None
    assert rep.gamma >= 1.0


def test_condition_report_hypotheses_checked(benchmark20):
    game, mixing = benchmark20
    cfg = make_augmented_config(game, mixing, alpha=0.05, path="lemma2")
    rep = condition_report(cfg, game.constants, mixing)
    assert rep.H == game.constants.L_other.max()
    assert not rep.hypotheses_hold  # alpha differs from C/9
    assert rep.gamma >= 1.0
    assert np.isfinite(rep.bound)


def test_gamma_at_least_one(g2, w2, benchmark20):
    for game, mixing, alpha in [(g2, w2, 1.0), (g2, w2, 0.01), (benchmark20[0], benchmark20[1], 0.05)]:
        cfg = make_augmented_config(game, mixing, alpha=alpha, path="lemma2")
        assert cfg.gamma >= 1.0


def test_condition_report_needs_mu_F(w2):
    # indefinite symmetric part, so mu_F clamps to zero and the bound is undefined
    game = QuadraticGame([1.0, 1.0], [0, 0], [[0.0, 4.0], [0.0, 0.0]],
                         [BoxSet(-1, 1)] * 2)
    assert game.constants.mu_F == 0.0
    dummy = AugmentedConfig(alpha=np.ones(2), L_Fa=5.0, mu_Fa=None, mu_r_Fa=1.0, path="lemma3")
    assert dummy.gamma == 5.0
    with pytest.raises(ValueError):
        condition_report(dummy, game.constants, w2)


def test_make_config_lemma2_per_player_alpha(g2, w2):
    cfg = make_augmented_config(g2, w2, alpha=[1.0, 0.5], path="lemma2")
    assert_allclose(cfg.alpha, [1.0, 0.5])
    # the max over players drives the Lipschitz constant
    assert_allclose(cfg.L_Fa, 1.0 * np.sqrt(5.0) + 1.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# equilibrium certificate


def test_certificate_passes_at_equilibrium(g2, w2):
    cert = ne_certificate(g2, w2, 1.0, ne_matrix(g2), samples=1000, tol=1e-8, seed=5)
    assert cert.passed
    assert cert.consensus_gap <= 1e-12


def test_certificate_fails_nonconsensual(g2, w2):
    X = ne_matrix(g2)
    X[0, 1] += 0.05
    cert = ne_certificate(g2, w2, 1.0, X, samples=200, tol=1e-8, seed=5)
    assert not cert.consensus_ok
    assert not cert.passed


def test_certificate_fails_at_origin(g2, w2):
    cert = ne_certificate(g2, w2, 1.0, np.zeros((2, 2)), samples=200, tol=1e-8, seed=5)
    # interior point with a nonzero gradient cannot be stationary
    assert not cert.stationarity_ok
    assert not cert.passed


def test_certificate_rejects_infeasible(g2, w2):
    X = ne_matrix(g2)
    X[0, 0] = 11.0
    with pytest.raises(ValueError):
        ne_certificate(g2, w2, 1.0, X)


def test_certificate_unbounded_boxes(w2):
    game = QuadraticGame([2.0, 2.0], [-2.0, 0.0], [[0.0, 1.0], [-1.0, 0.0]],
                         [BoxSet(-np.inf, np.inf)] * 2)
    cert = ne_certificate(game, w2, 1.0, ne_matrix(game), samples=200, tol=1e-8, seed=6)
    assert cert.passed


def test_consensus_gap_values():
    assert consensus_gap(consensual_matrix([1.0, 2.0, 3.0])) == 0.0
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert_allclose(consensus_gap(X), 5.0)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 3, 3), ()])
def test_consensus_gap_refuses_other_dimensions(shape):
    # a vector has no rows to pair, and a 4-D array is not a stack of matrices
    with pytest.raises(ValueError, match=rf"got shape {re.escape(str(shape))}$"):
        consensus_gap(np.zeros(shape))


def test_consensus_gap_matches_pairwise_loop(monkeypatch):
    rng = np.random.default_rng(11)
    for n in (2, 7, 40):
        X = rng.standard_normal((n, n))
        loop = max(
            float(np.sqrt(np.sum((X[i] - X[j]) ** 2))) for i in range(n) for j in range(n)
        )
        whole = consensus_gap(X)
        assert_allclose(whole, loop, rtol=1e-14)
        # row blocks of any size give the same value bit for bit
        for block in (1, 3 * n * n, n**3):
            monkeypatch.setattr(augmented, "_GAP_BLOCK", block)
            assert consensus_gap(X) == whole
        monkeypatch.undo()


def _gap_by_pairs(X):
    """The largest row distance, one unordered pair of rows at a time."""
    n = X.shape[0]
    return max(
        float(np.sqrt(np.sum((X[i] - X[j]) ** 2))) for i in range(n) for j in range(i + 1, n)
    )


@pytest.mark.parametrize("n", [2, 3, 20, 100, 300])
def test_consensus_gap_equals_pairwise_loop_bit_for_bit(monkeypatch, n):
    rng = np.random.default_rng(n)
    sign = rng.choice([-1.0, 1.0], size=(n, n))
    inputs = {
        "random": rng.standard_normal((n, n)),
        "nearly consensual": consensual_matrix(rng.standard_normal(n))
        + 1e-12 * rng.standard_normal((n, n)),
        # squares of most entries are subnormal or underflow to zero
        "subnormal-laden": sign * 10.0 ** rng.uniform(-280, -23, size=(n, n)),
    }
    for kind, X in inputs.items():
        loop = _gap_by_pairs(X)
        assert consensus_gap(X) == loop, kind
        # one pair at a time, slabs of 7 rows, blocks of 7 rows: uneven splits
        for block in (1, 7 * n, 7 * n * n):
            monkeypatch.setattr(augmented, "_GAP_BLOCK", block)
            assert consensus_gap(X) == loop, (kind, block)
        monkeypatch.undo()


def test_consensus_gap_propagates_nan(monkeypatch):
    X = np.random.default_rng(5).standard_normal((30, 30))
    for block in (augmented._GAP_BLOCK, 1, 7 * 30):
        monkeypatch.setattr(augmented, "_GAP_BLOCK", block)
        for i, j in ((0, 0), (13, 4), (29, 29)):
            Y = X.copy()
            Y[i, j] = np.nan
            assert np.isnan(consensus_gap(Y)), (block, i, j)


@pytest.mark.parametrize("n", [300, 1000])
def test_consensus_gap_memory_is_bounded(n):
    X = np.random.default_rng(n).standard_normal((n, n))
    Y = X.copy()
    Y[n // 2, 3] = np.inf  # refused by the screen: every pair is formed
    for Z in (X, Y):
        tracemalloc.start()
        try:
            consensus_gap(Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the n x n input is allocated before tracing starts
        assert peak < 1 << 20


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 120),
    m=st.one_of(st.none(), st.integers(1, 130)),
    exponent=st.integers(-300, 150),
    offset=st.sampled_from([0.0, 1e8]),
    kind=st.sampled_from(
        ["random", "nearly consensual", "duplicated rows", "near ties", "consensual"]
    ),
    tile_rows=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_screened_consensus_gap_is_bit_for_bit(n, m, exponent, offset, kind, tile_rows, seed):
    m = n if m is None else m
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    if kind == "random":
        X = scale * rng.standard_normal((n, m))
    elif kind == "nearly consensual":
        X = scale * (rng.standard_normal(m) + 1e-12 * rng.standard_normal((n, m)))
    elif kind == "duplicated rows":
        # two copies of some rows tie the largest distance
        X = scale * rng.standard_normal((n, m))[rng.integers(0, max(1, n // 2), size=n)]
    elif kind == "near ties":
        X = scale * rng.standard_normal((2, m))[rng.integers(0, 2, size=n)]
        X *= 1.0 + 2.0**-52 * rng.standard_normal((n, m))
    else:
        X = np.tile(scale * rng.standard_normal(m), (n, 1))
    X = X + offset
    with pytest.MonkeyPatch.context() as mp:
        # screen every input, in tiles of about tile_rows rows
        mp.setattr(augmented, "_GAP_BLOCK", min(4 * m * tile_rows, n * n * m - 1))
        assert consensus_gap(X) == _gap_by_pairs(X)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_consensus_gap_non_finite_matches_all_pairs(value):
    X = np.random.default_rng(3).standard_normal((300, 300))
    X[17, 230] = value
    with np.errstate(invalid="ignore"):
        gap = consensus_gap(X)
        # Python's max drops NaN, so the oracle only holds for infinities
        if np.isnan(value):
            assert np.isnan(gap)
        else:
            assert gap == _gap_by_pairs(X) == np.inf


@pytest.mark.parametrize("kind", ["random", "subnormal-laden"])
def test_consensus_gap_screen_forms_few_pairs(monkeypatch, kind):
    n = 300
    rng = np.random.default_rng(7)
    if kind == "random":
        X = rng.standard_normal((n, n))
    else:
        X = rng.choice([-1.0, 1.0], size=(n, n)) * 10.0 ** rng.uniform(-280, -23, size=(n, n))
    gap, _, formed = augmented._screened_max(X)
    assert 1 <= formed <= n
    assert np.sqrt(gap) == _gap_by_pairs(X)

    # consensus_gap itself takes the screen, not the gather of every pair
    screened_max, screens = augmented._screened_max, []

    def spy(X):
        screens.append(screened_max(X))
        return screens[-1]

    monkeypatch.setattr(augmented, "_screened_max", spy)
    assert consensus_gap(X) == np.sqrt(gap)
    assert len(screens) == 1 and screens[0][0] == gap


def test_screened_consensus_gap_resolves_near_ties(monkeypatch):
    # copies of two rows, each entry moved by about one ulp: many pairs lie
    # within a few ulps of the largest distance, closer than the estimates'
    # rounding, so only the margin keeps the true largest pair
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 60), rng.integers(1, 60)
        X = rng.standard_normal((2, m))[rng.integers(0, 2, size=n)]
        X *= 1.0 + 2.0**-52 * rng.standard_normal((n, m))
        monkeypatch.setattr(augmented, "_GAP_BLOCK", min(4 * m * rng.integers(1, 20), n * n * m - 1))
        assert consensus_gap(X) == _gap_by_pairs(X), seed


@pytest.mark.parametrize("n", [64, 300])
@pytest.mark.parametrize("kind", ["identity", "shifted simplex"])
def test_screened_consensus_gap_on_exact_ties(n, kind):
    # every pair of rows lies at the same distance, so every pair is a
    # candidate and the screen must still give the all-pairs value bit for bit
    X = np.eye(n) if kind == "identity" else 2.5 * np.eye(n) - 0.75
    expected = _gap_by_pairs(X)
    gap, kept, formed = augmented._screened_max(X)
    assert kept == n and formed == n * (n - 1) // 2
    assert np.sqrt(gap) == expected
    assert consensus_gap(X) == expected


# the prefilter runs where the screen takes more than one tile: past 128 rows
# of 128 columns, past 54 rows of 300


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_prefilter_keeps_the_rows_that_reach_a_far_outlier(scale):
    # rows spread about a 3-dimensional subspace and one row far out along it:
    # the rows too close to the mean to reach it from the far side go, and the
    # screen runs on the others
    rng = np.random.default_rng(1)
    V = np.linalg.qr(rng.standard_normal((100, 3)))[0].T
    X = rng.standard_normal((200, 3)) @ V + 0.3 * rng.standard_normal((200, 100))
    X[123] = 50.0 * V[0]
    X *= scale
    gap, kept, formed = augmented._screened_max(X)
    assert 4 < kept < 200 and formed >= 1
    assert consensus_gap(X) == np.sqrt(gap) == _gap_by_pairs(X)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_prefilter_leaves_only_the_far_rows(scale):
    # five far rows among tiny ones: only they stay for the screen
    rng = np.random.default_rng(2)
    X = 1e-6 * rng.standard_normal((200, 100))
    X[[3, 50, 77, 120, 199], [0, 1, 2, 3, 4]] = 10.0
    X *= scale
    gap, kept, _ = augmented._screened_max(X)
    assert kept == 5
    assert consensus_gap(X) == np.sqrt(gap) == _gap_by_pairs(X)


def test_prefilter_bound_at_ulp_resolution():
    # the farthest pair 2 apart on axis 0, and rows swept an ulp at a time
    # across the radius where (r_i + r_max)**2 meets best (1 - rel): each with
    # its negated twin on an axis of its own, so the column mean is exactly 0
    # and the radii, best and the bound are exact multiples of the prefilter's
    # own (powers of two scale them)
    m, sweep = 128, np.arange(-40, 41)
    rel = (8 * m + 40) * 2.0**-53  # the documented margin of _screened_max
    critical = np.sqrt(4.0 * (1.0 - rel)) - 1.0
    radii = critical + sweep * 2.0**-53  # one ulp apart just below 1
    X = np.zeros((2 + 2 * sweep.size, m))
    X[0, 0], X[1, 0] = 1.0, -1.0
    for k, r in enumerate(radii):
        X[2 + 2 * k, 1 + k], X[3 + 2 * k, 1 + k] = r, -r
    assert not X.mean(axis=0).any()
    rows = np.sqrt(augmented._vecdot(X, X))
    stay = np.square(rows + rows.max()) >= 4.0 * (1.0 - rel)
    assert 2 < stay[2::2].sum() < sweep.size  # the bound falls inside the sweep
    gap, kept, formed = augmented._screened_max(X)
    assert kept == stay.sum()
    assert np.sqrt(gap) == consensus_gap(X) == _gap_by_pairs(X) == 2.0


def test_prefilter_keeps_every_row_of_a_regular_simplex():
    # the rotated, scaled and shifted vertices of a regular simplex: every row
    # at the same radius up to rounding, every pair at the same distance
    n = 150
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))[0]
    X = 3.0 * Q + 7.0
    gap, kept, _ = augmented._screened_max(X)
    assert kept == n
    assert consensus_gap(X) == np.sqrt(gap) == _gap_by_pairs(X)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_skip_the_prefilter(value):
    X = np.random.default_rng(4).standard_normal((60, 300))
    X[17, 230] = value
    assert augmented._screened_max(X) is None
    with np.errstate(invalid="ignore"):
        gap = consensus_gap(X)
    if np.isnan(value):
        assert np.isnan(gap)
    else:
        assert gap == _gap_by_pairs(X) == np.inf
