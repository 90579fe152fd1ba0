import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from grane import (
    BoxSet,
    GameConstants,
    QuadraticGame,
    make_quadratic_game,
    quadratic_constants,
)
from grane.experiment import bundled_config, load_experiment
from grane.games import _clip, box_bounds, clamp

from conftest import linear_solve_equilibrium


# ---------------------------------------------------------------------------
# partial gradients and the game mapping


def test_partial_gradient_examples(g2):
    assert g2.mapping([0.0, 0.0])[0] == -2.0
    # (0.8, 0.4) solves the 2x2 linear equilibrium system
    assert_allclose(linear_solve_equilibrium(g2), [0.8, 0.4], atol=1e-14)
    assert abs(g2.mapping([0.8, 0.4])[1]) < 1e-14
    # the local gradient of player i is taken at row i alone
    X = np.array([[0.0, 0.0], [0.8, 0.4]])
    assert g2.local_gradients(X)[0] == -2.0
    assert abs(g2.local_gradients(X)[1]) < 1e-14


def test_partial_gradient_decoupled_zero():
    game = QuadraticGame([1.0, 1.0], [0.0, 0.0], np.zeros((2, 2)),
                         [BoxSet(-1, 1), BoxSet(-1, 1)])
    assert game.mapping([0.0, 5.0])[0] == 0.0
    assert game.local_gradients([[0.0, 5.0], [0.0, 0.0]])[0] == 0.0


def test_mapping_examples(g2):
    assert_allclose(g2.mapping([0.8, 0.4]), [0.0, 0.0], atol=1e-14)
    assert_allclose(g2.mapping([0.0, 0.0]), [-2.0, 0.0])


def test_single_player_quadratic():
    game = QuadraticGame([1.0], [0.0], [[0.0]], [BoxSet(-10, 10)])
    assert_allclose(game.mapping([3.0]), [3.0])


def test_gradient_input_validation(g2):
    with pytest.raises(ValueError):
        g2.mapping([np.nan, 0.0])
    with pytest.raises(ValueError):
        g2.mapping([np.inf, 0.0])


def test_gradient_matches_finite_differences(g2):
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(50):
        x = rng.uniform(-5, 5, size=2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (g2.cost(i, x + e) - g2.cost(i, x - e)) / (2 * h)
            grad = g2.mapping(x)[i]
            assert abs(fd - grad) <= 1e-6 * max(1.0, abs(grad))


# ---------------------------------------------------------------------------
# box projection


def project_box(boxes, v):
    """The box projection the solvers apply: ``clamp`` into ``box_bounds``."""
    return clamp(np.array(v, dtype=float), *box_bounds(boxes))


def test_project_box_examples():
    boxes = [BoxSet(-10, 10), BoxSet(-10, 10)]
    assert_allclose(project_box(boxes, [12.0, -3.0]), [10.0, -3.0])
    assert_allclose(project_box(boxes, [1.0, 2.0]), [1.0, 2.0])
    assert_allclose(project_box([BoxSet(0, 0)], [5.0]), [0.0])


def test_project_box_idempotent_and_nonexpansive():
    rng = np.random.default_rng(1)
    boxes = [BoxSet(-1, 2), BoxSet(0, 0), BoxSet(-5, -1)]
    for _ in range(200):
        u = rng.uniform(-10, 10, size=3)
        v = rng.uniform(-10, 10, size=3)
        pu, pv = project_box(boxes, u), project_box(boxes, v)
        assert_allclose(project_box(boxes, pu), pu)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


def test_box_validation():
    with pytest.raises(ValueError):
        BoxSet(1.0, 0.0)
    with pytest.raises(ValueError):
        BoxSet(np.nan, 0.0)


# ---------------------------------------------------------------------------
# constants


def test_constants_g2(g2):
    c = g2.constants
    # symmetric part of [[2,1],[-1,2]] is 2*I
    assert c.mu_F == 2.0
    assert_allclose(c.L_own, [2.0, 2.0])
    assert_allclose(c.L_other, [1.0, 1.0])
    assert c.mu_r == 2.0


def test_constants_g2r(g2r):
    c = g2r.constants
    assert c.mu_F == 2.0
    assert_allclose(c.L_other, [3.0, 3.0])
    assert c.mu_r == 2.0


def test_constants_decoupled():
    game = QuadraticGame([1.5, 3.0], [0.0, 0.0], np.zeros((2, 2)),
                         [BoxSet(-1, 1)] * 2)
    c = game.constants
    assert c.mu_F == 1.5
    assert c.mu_r == 1.5
    assert_allclose(c.L_other, [0.0, 0.0])


@pytest.mark.parametrize("source", ["g2", "g2r", "accel", "paper_sec5", 300])
def test_antisymmetric_constants_have_the_bits_of_the_eigensolve(source):
    # sym(Diag(a) + C) is exactly Diag(a), so min a_i is its smallest eigenvalue
    if source == 300:
        game = make_quadratic_game(300, 11)
    else:
        game = load_experiment(bundled_config(f"{source}.json")).game
    assert game.antisymmetric
    M = game.jacobian()
    eigensolve = max(0.0, float(np.linalg.eigvalsh(0.5 * (M + M.T)).min()))
    c = game.constants
    for value in (c.mu_F, c.mu_r):
        assert type(value) is float
        assert np.float64(value).tobytes() == np.float64(eigensolve).tobytes()


def test_constants_clamped_when_indefinite():
    # strong one-directional coupling makes the symmetric part indefinite
    game = QuadraticGame([1.0, 1.0], [0.0, 0.0], [[0.0, 4.0], [0.0, 0.0]],
                         [BoxSet(-1, 1)] * 2)
    assert game.constants.mu_F == 0.0
    assert game.constants.mu_r == 0.0


def test_constants_reject_negative():
    with pytest.raises(ValueError):
        GameConstants(mu_F=-1.0, L_own=[1.0], L_other=[0.0], mu_r=0.0, joint_lipschitz=1.0)
    with pytest.raises(ValueError):
        GameConstants(mu_F=1.0, L_own=[1.0], L_other=[0.0], mu_r=0.0, joint_lipschitz=-1.0)


def test_monotonicity_sampling():
    game = make_quadratic_game(8, 5, c_range=(-0.5, 0.5), antisymmetric=True)
    mu_r = game.constants.mu_r
    rng = np.random.default_rng(2)
    for _ in range(1000):
        x = rng.uniform(-10, 10, size=8)
        y = rng.uniform(-10, 10, size=8)
        lhs = np.dot(game.mapping(x) - game.mapping(y), x - y)
        assert lhs >= mu_r * np.linalg.norm(x - y) ** 2 - 1e-9


def test_lipschitz_sampling():
    game = make_quadratic_game(6, 9, c_range=(-0.4, 0.4), antisymmetric=False)
    c = game.constants
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = rng.uniform(-10, 10, size=6)
        i = int(rng.integers(0, 6))
        # own-variable perturbation
        y = x.copy()
        y[i] = rng.uniform(-10, 10)
        own = abs(game.mapping(x)[i] - game.mapping(y)[i])
        assert own <= c.L_own[i] * abs(x[i] - y[i]) + 1e-9
        # rivals' perturbation
        z = rng.uniform(-10, 10, size=6)
        z[i] = x[i]
        other = abs(game.mapping(x)[i] - game.mapping(z)[i])
        mask = np.arange(6) != i
        assert other <= c.L_other[i] * np.linalg.norm(x[mask] - z[mask]) + 1e-9


# ---------------------------------------------------------------------------
# random generation and serialization


def test_make_quadratic_game_antisymmetric():
    game = make_quadratic_game(20, 123, antisymmetric=True)
    assert np.array_equal(game.coupling, -game.coupling.T)
    assert game.antisymmetric


def test_make_quadratic_game_deterministic():
    g1 = make_quadratic_game(7, 99)
    g2_ = make_quadratic_game(7, 99)
    assert g1.dumps() == g2_.dumps()
    g3 = make_quadratic_game(7, 100)
    assert g1.dumps() != g3.dumps()


def test_decoupled_equilibrium_closed_form():
    game = make_quadratic_game(4, 17, b_range=(-30, 30), c_range=(0.0, 0.0),
                               box_range=(1.0, 3.0))
    x_star = clamp(-game.b / game.a, game.lo, game.hi)
    # enumeration oracle: no grid point in the box improves any player's cost
    for i, box in enumerate(game.boxes):
        best = game.cost(i, x_star)
        for xi in np.linspace(box.lo, box.hi, 501):
            trial = x_star.copy()
            trial[i] = xi
            assert game.cost(i, trial) >= best - 1e-12


def test_invalid_ranges():
    with pytest.raises(ValueError):
        make_quadratic_game(1, 0)
    with pytest.raises(ValueError):
        make_quadratic_game(3, 0, a_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        make_quadratic_game(3, 0, b_range=(2.0, 1.0))
    for name in ("a_range", "b_range", "c_range", "box_range"):
        for bad in ((np.nan, np.nan), (1.0, np.inf), (-np.inf, 1.0)):
            with pytest.raises(ValueError, match=f"^{name} must be a finite pair"):
                make_quadratic_game(3, 0, **{name: bad})


def test_quadratic_validation():
    with pytest.raises(ValueError):
        QuadraticGame([1.0, -1.0], [0, 0], np.zeros((2, 2)), [BoxSet(0, 1)] * 2)
    with pytest.raises(ValueError):
        QuadraticGame([1.0, 1.0], [0, 0], [[1.0, 0], [0, 1.0]], [BoxSet(0, 1)] * 2)
    # every coefficient must be finite, each named in its message
    for name, a, b, C in (("a", [1.0, np.nan], [0, 0], np.zeros((2, 2))),
                          ("a", [1.0, np.inf], [0, 0], np.zeros((2, 2))),
                          ("b", [1.0, 1.0], [np.nan, 0], np.zeros((2, 2))),
                          ("C", [1.0, 1.0], [0, 0], [[0.0, -np.inf], [0.0, 0.0]])):
        with pytest.raises(ValueError, match=f"^{name} entries must be finite"):
            QuadraticGame(a, b, C, [BoxSet(0, 1)] * 2)


def test_json_roundtrip(g2r):
    clone = QuadraticGame.loads(g2r.dumps())
    assert clone.dumps() == g2r.dumps()
    assert_allclose(clone.coupling, g2r.coupling)
    assert clone.boxes == g2r.boxes
    # the declared count is a whole number, never truncated
    assert QuadraticGame.from_json({**g2r.to_json(), "n": 2.0}).dumps() == g2r.dumps()
    for n in (2.5, True, 0):
        with pytest.raises(ValueError, match="^n must be a positive whole number"):
            QuadraticGame.from_json({**g2r.to_json(), "n": n})


def test_quadratic_constants_function_matches_attribute(g2):
    c = quadratic_constants(g2)
    assert c.mu_F == g2.constants.mu_F
    assert_allclose(c.L_other, g2.constants.L_other)


def test_local_gradients_match_per_player(benchmark20):
    game, _ = benchmark20
    rng = np.random.default_rng(4)
    X = rng.uniform(-5, 5, size=(game.n, game.n))
    vec = game.local_gradients(X)
    by_hand = [game.mapping(X[i])[i] for i in range(game.n)]
    assert_allclose(vec, by_hand, atol=1e-12)


# box bounds: signed zeros and infinities among them; entries: NaN too
BOUNDS = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf]), st.floats(-10.0, 10.0))
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
                    st.floats(-20.0, 20.0))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_clamp_is_ndarray_clip_bit_for_bit(n, data):
    lo, hi = [], []
    for _ in range(n):
        first = data.draw(BOUNDS)
        second = data.draw(st.one_of(st.just(first), BOUNDS))  # lo == hi among them
        lo.append(min(first, second))
        hi.append(max(first, second))
    lo, hi = np.array(lo), np.array(hi)
    A = np.array(data.draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    views = (lambda X: X[0], lambda X: X.reshape(-1)[:: n + 1])  # contiguous, strided diagonal
    for view in views:
        for bounds in ((lo, hi), (lo[0], hi[0])):
            got, expected = A.copy(), A.copy()
            v = view(got)
            assert clamp(v, *bounds) is v
            view(expected).clip(*bounds, out=view(expected))
            assert got.tobytes() == expected.tobytes()


def test_clip_against_infinite_bounds_keeps_every_bit():
    # the projected step clips whole rows against bounds that are infinite off
    # the diagonal; the entries there keep their bits, NaN (payload and sign
    # too) and infinities included, so the driver's non-finite guard sees them
    payload = np.frombuffer(np.uint64(0x7FF8_0000_0000_1234).tobytes(), dtype=float)[0]
    special = [np.nan, -np.nan, payload, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.2e-308 / 3, 1.5, -7.25, 1e308, -1e308]
    row = np.array(special * 5)  # long enough for numpy's vector loops
    for lo, hi in ((np.full(row.size, -np.inf), np.full(row.size, np.inf)), (-np.inf, np.inf)):
        got = row.copy()
        assert _clip(got, lo, hi, out=got) is got
        assert got.tobytes() == row.tobytes()
    # finite bounds on one entry in each run of 15 (a diagonal) change only those
    lo, hi = np.full(row.size, -np.inf), np.full(row.size, np.inf)
    lo[::15], hi[::15] = -1.0, 1.0
    got = row.copy()
    _clip(got, lo, hi, out=got)
    expected = row.copy()
    expected[::15] = row[::15].clip(-1.0, 1.0)
    assert got.tobytes() == expected.tobytes()


def test_clip_is_the_ufunc_under_its_numpy_1_name():
    # numpy 1.x reaches the same ufunc as np.core.umath.clip, the fallback spelling
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        legacy = np.core.umath.clip
    assert isinstance(_clip, np.ufunc)
    assert legacy is _clip

