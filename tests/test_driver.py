"""The chunked iteration driver against the step-by-step loop it batches.

``stepwise`` below is that loop, written out: one step, one move and one
round of checks at a time. The solvers run through the driver must match it
bit for bit: the dense distance history, every record, the final iterate,
the metadata, and the message and iteration of every divergence.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grane import (
    ConvergenceTrace,
    DivergenceError,
    SolverConfig,
    acc_grane_run,
    centralized_gradient_play,
    consensual_matrix,
    grane_run,
    make_augmented_config,
    make_quadratic_game,
    mixing_from_laplacian,
    mixing_metropolis,
    path_graph,
    project_estimates,
    random_tree,
    residual_metrics,
    run_experiment,
)
from grane.augmented import N_AFFINE, clamp_diagonal, gradient_map
from grane.experiment import bundled_config, load_experiment
from grane.games import _stacked_dot
from grane.solvers import _RING_BYTES, _RING_ITERATES, _iterate, _norms

from conftest import QuarticGame, linear_solve_equilibrium


def _norm(d):
    d = d.ravel()
    return math.sqrt(d.dot(d))


@np.errstate(over="ignore", invalid="ignore")
def stepwise(step, x, max_iters, stop_tol, observe, moves=None):
    """``x <- step(x)`` with the driver's rules applied after every step."""
    observe(0, x, max_iters == 0)
    window = [0.0] * 100
    floor = 0.0
    k, move, reason = 0, math.inf, "max_iters"
    while k < max_iters:
        x_new = step(x)
        move = _norm(x_new - x)
        k += 1
        if moves is not None:
            moves.append(move)
        if not math.isfinite(move):
            raise DivergenceError(
                f"non-finite iterate movement at iteration {k}; reduce the step size"
            )
        old = window[k % 100]
        if old > 0.0 and move > 10.0 * old and move > floor:
            raise DivergenceError(
                f"step norm grew from {old:.3g} to {move:.3g} within 100 iterations; "
                "reduce the step size"
            )
        window[k % 100] = move
        if floor == 0.0 and move > 0.0:
            floor = 1e-8 * move
        x = x_new
        stop = stop_tol > 0.0 and move <= stop_tol
        observe(k, x, stop or k == max_iters)
        if stop:
            reason = "stop_tol"
            break
    return x, k, move, reason


def _traced_stepwise(step, X, max_iters, sc, game, mixing, alpha, X_ref, steps, moves=None,
                     recorded=None):
    trace = ConvergenceTrace(stride=sc.trace_stride, metadata={"step": steps})

    def observe(k, X_k, last):
        trace.dense_fro.append(math.nan if X_ref is None else _norm(X_k - X_ref))
        if k % trace.stride == 0 or last:
            trace.push_record(k, residual_metrics(X_k, X_ref, X, game, mixing, alpha))
            if recorded is not None:
                recorded.append(X_k)

    X_last, k, _, reason = stepwise(step, X, max_iters, sc.stop_tol, observe, moves)
    trace.metadata["stop_reason"] = reason
    return X_last, trace, k


def matrix_step(game, mixing, alpha, s):
    """The unprojected row step of ``gradient_map`` on ``n x n`` matrices,
    each into a new one."""
    step = gradient_map(game, mixing, alpha, s)

    def on_matrix(X):
        return step(X.reshape(-1), np.empty(X.size)).reshape(X.shape)

    return on_matrix


def grane_stepwise(game, mixing, cfg, sc, X0, reference, moves=None, recorded=None):
    lam = sc.resolve_step(cfg)
    gradient = matrix_step(game, mixing, cfg.alpha, lam)

    def step(X):
        return clamp_diagonal(gradient(X), game.lo, game.hi)

    X, trace, k = _traced_stepwise(step, X0, sc.max_iters, sc, game, mixing, cfg.alpha,
                                   reference, lam, moves, recorded)
    trace.metadata["iterations"] = k
    return X, trace


def acc_stepwise(game, mixing, cfg, sc, Y0, reference, moves=None, recorded=None):
    mu, L = cfg.mu_Fa, cfg.L_Fa
    theta = 1.0 / (1.0 + L / mu)
    steps = {"averaging": 1.0 / mu, "gradient": 1.0 / L}
    averaging = matrix_step(game, mixing, cfg.alpha, steps["averaging"])
    gradient = matrix_step(game, mixing, cfg.alpha, steps["gradient"])
    B = averaging(Y0)

    def step(A):
        nonlocal B
        X_k = clamp_diagonal(B.copy(), game.lo, game.hi)
        Y = clamp_diagonal(gradient(X_k), game.lo, game.hi)
        B += theta * (averaging(Y) - B)
        return A + theta * (Y - A)

    y, trace, k = _traced_stepwise(step, Y0, sc.max_iters - 1, sc, game, mixing, cfg.alpha,
                                   reference, steps, moves, recorded)
    trace.metadata["iterations"] = k + 1
    return y, trace


def outcome(run, *args):
    """Everything a run hands back, or the divergence it raised."""
    try:
        X, trace = run(*args)
    except DivergenceError as exc:
        return "raised", str(exc)
    return X.shape, X.tobytes(), trace.dense_fro, trace.records, trace.metadata


def cap(n):
    """The driver's chunk bound for an ``n x n`` iterate."""
    return max(1, min(_RING_ITERATES, _RING_BYTES // (8 * n * n)))


def setup(n, seed, gamma):
    game = make_quadratic_game(n, seed)
    mixing = mixing_from_laplacian(random_tree(n, seed))
    # a smaller alpha keeps the strongly monotone path open on large games
    cfg = make_augmented_config(game, mixing, alpha=1.0 if n <= 30 else 0.05, path="lemma2")
    if gamma is not None:
        cfg = dataclasses.replace(cfg, mu_Fa=cfg.L_Fa / gamma)
    rng = np.random.default_rng(seed)
    X0 = project_estimates(game.boxes, rng.uniform(-5.0, 5.0, size=(n, n)))
    X_ref = consensual_matrix(linear_solve_equilibrium(game))
    return game, mixing, cfg, X0, X_ref


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(2, N_AFFINE), st.integers(N_AFFINE + 1, 30)),
    seed=st.integers(0, 2**16),
    algorithm=st.sampled_from(["grane", "acc-grane"]),
    step=st.sampled_from(["auto", "auto", 0.3, 1.5, 1e6]),
    gamma=st.one_of(st.none(), st.floats(1.0, 50.0)),
    data=st.data(),
)
@example(n=127, seed=3, algorithm="grane", step="auto", gamma=None, data=None)
@example(n=130, seed=4, algorithm="acc-grane", step="auto", gamma=None, data=None)
def test_solvers_match_the_stepwise_loop(n, seed, algorithm, step, gamma, data):
    game, mixing, cfg, X0, X_ref = setup(n, seed, gamma)
    chunk = cap(n)
    if data is None:  # the jagged examples: short runs, over a chunk boundary
        assert mixing.form == "jagged"
        max_iters, stride, stop_at = 2 * chunk + 1, 2, 3
    else:
        max_iters = data.draw(st.sampled_from(
            [1, 2, 7, chunk - 1, chunk, chunk + 1, 2 * chunk + 3, 3 * chunk - 1]
        ).filter(lambda m: 1 <= m <= 2100), label="max_iters")
        stride = data.draw(st.integers(1, max_iters + 3), label="stride")
        stop_at = data.draw(st.one_of(st.none(), st.integers(1, max_iters)), label="stop_at")
    if algorithm == "acc-grane":
        step = "auto"
    run, reference = {"grane": (grane_run, grane_stepwise),
                      "acc-grane": (acc_grane_run, acc_stepwise)}[algorithm]
    sc = SolverConfig(algorithm=algorithm, step=step, max_iters=max_iters, trace_stride=stride)
    moves = []
    expected = outcome(reference, game, mixing, cfg, sc, X0, X_ref, moves)
    assert outcome(run, game, mixing, cfg, sc, X0, X_ref) == expected
    if stop_at is None or expected[0] == "raised" or stop_at > len(moves) or not moves[stop_at - 1]:
        return  # no stop to place (a zero move would disable the tolerance)
    # a tolerance met first at iteration stop_at, usually inside a chunk
    sc = dataclasses.replace(sc, stop_tol=moves[stop_at - 1])
    expected = outcome(reference, game, mixing, cfg, sc, X0, X_ref)
    assert outcome(run, game, mixing, cfg, sc, X0, X_ref) == expected
    assert expected[-1]["stop_reason"] == "stop_tol"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algorithm", ["grane", "acc-grane"])
@pytest.mark.parametrize("n", [2, 5, 20])
def test_divergence_matches_the_stepwise_loop(algorithm, n):
    game, mixing, cfg, X0, X_ref = setup(n, n, None)
    messages = set()
    for scale in (2.0, 5.0, 30.0, 1e3, 1e6):
        if algorithm == "grane":
            sc = SolverConfig(step=scale, max_iters=3000)
            args = (game, mixing, cfg, sc, X0, X_ref)
            got, expected = outcome(grane_run, *args), outcome(grane_stepwise, *args)
        else:
            # a gradient step of scale / L
            fast = dataclasses.replace(cfg, L_Fa=cfg.L_Fa / scale, mu_Fa=cfg.mu_Fa / scale)
            sc = SolverConfig(algorithm="acc-grane", max_iters=3000)
            args = (game, mixing, fast, sc, X0, X_ref)
            got, expected = outcome(acc_grane_run, *args), outcome(acc_stepwise, *args)
        assert got == expected
        if expected[0] == "raised":
            messages.add(expected[1].split()[0])
    # both kinds of divergence occur among the scales
    assert messages == {"non-finite", "step"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algorithm", ["grane", "acc-grane"])
@pytest.mark.parametrize("n", [3, N_AFFINE + 3])
def test_non_quadratic_steps_match_the_stepwise_loop(algorithm, n):
    # the step through augmented_mapping, with its projection, converging and diverging
    game = QuarticGame(make_quadratic_game(n, 3, b_range=(-3, 3), box_range=(1.0, 2.0)), 0.5)
    mixing = mixing_from_laplacian(path_graph(n))
    cfg = make_augmented_config(game, mixing, alpha=0.3)
    X0 = project_estimates(game.boxes, np.random.default_rng(n).uniform(-2, 2, size=(n, n)))
    X_ref = consensual_matrix(centralized_gradient_play(game))
    raised = []
    for scale in (1.0, 30.0, 1e4):
        if algorithm == "grane":
            sc = SolverConfig(step=0.2 * scale, max_iters=300, trace_stride=7)
            args = (game, mixing, cfg, sc, X0, X_ref)
            got, expected = outcome(grane_run, *args), outcome(grane_stepwise, *args)
        else:
            fast = dataclasses.replace(cfg, L_Fa=cfg.L_Fa / scale, mu_Fa=cfg.mu_Fa / scale)
            sc = SolverConfig(algorithm="acc-grane", max_iters=300, trace_stride=7)
            args = (game, mixing, fast, sc, X0, X_ref)
            got, expected = outcome(acc_grane_run, *args), outcome(acc_stepwise, *args)
        assert got == expected
        raised.append(expected[0] == "raised")
    assert raised[0] is False and raised[-1] is True


def written_out_metrics(X, X_ref, X0, game, mixing, alpha):
    """The four residuals of one matrix, written out: numpy's own norms,
    ``(I - W) X`` and the local gradients of that matrix alone, and the
    consensus gap one pair of rows at a time."""
    n = game.n
    num = math.nan if X_ref is None else float(np.linalg.norm(X - X_ref))
    den = float(np.linalg.norm(X - X0))
    if X_ref is None:
        rel = math.nan
    elif den == 0.0:
        rel = 0.0 if num == 0.0 else math.inf
    else:
        rel = num**2 / den**2
    F = mixing.disagreement(X)
    F.reshape(-1)[:: n + 1] += np.asarray(alpha) * game.local_gradients(X)
    projected = clamp_diagonal(X - F, game.lo, game.hi)
    gap = max(
        float(np.sqrt(np.sum((X[i] - X[j]) ** 2))) for i in range(n) for j in range(i + 1, n)
    )
    return {"fro_residual": num, "relative_error": rel, "consensus_gap": gap,
            "vi_residual": float(np.linalg.norm(X - projected))}


def _bits(records):
    """Every field of every record as its exact bit pattern, NaN and inf
    included."""
    return [{key: np.float64(value).tobytes() for key, value in rec.items()} for rec in records]


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 45),
    metropolis=st.booleans(),
    quartic=st.booleans(),
    algorithm=st.sampled_from(["grane", "acc-grane"]),
    per_chunk=st.sampled_from(["none", "one", "many"]),
    with_reference=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(n=127, metropolis=False, quartic=False, algorithm="grane", per_chunk="many",
         with_reference=True, seed=1)
@example(n=128, metropolis=True, quartic=False, algorithm="acc-grane", per_chunk="one",
         with_reference=False, seed=2)
def test_stacked_records_match_one_matrix_at_a_time(
    n, metropolis, quartic, algorithm, per_chunk, with_reference, seed
):
    # a run records each chunk's iterates as one stack; the step-by-step loop
    # records one matrix at a time through residual_metrics, whose fields
    # match the written-out formulas: all three by their exact bits
    game = make_quadratic_game(n, seed, box_range=(1.0, 2.0))
    game = QuarticGame(game, 0.5) if quartic else game
    graph = random_tree(n, seed)
    mixing = mixing_metropolis(graph) if metropolis else mixing_from_laplacian(graph)
    cfg = make_augmented_config(game, mixing, alpha=0.05)
    chunk = cap(n)
    # strides that put no record, one, or several into most chunks
    stride = {"none": 2 * chunk + 1, "one": chunk, "many": max(1, chunk // 4)}[per_chunk]
    sc = SolverConfig(algorithm=algorithm, max_iters=3 * chunk + 1, trace_stride=stride)
    X0 = project_estimates(game.boxes, np.random.default_rng(seed).uniform(-3, 3, size=(n, n)))
    X_ref = consensual_matrix(centralized_gradient_play(game)) if with_reference else None
    run, reference = {"grane": (grane_run, grane_stepwise),
                      "acc-grane": (acc_grane_run, acc_stepwise)}[algorithm]
    recorded = []
    _, expected = reference(game, mixing, cfg, sc, X0, X_ref, recorded=recorded)
    _, got = run(game, mixing, cfg, sc, X0, X_ref)
    assert _bits(got.records) == _bits(expected.records)
    written_out = [{"k": rec["k"], **written_out_metrics(X_k, X_ref, X0, game, mixing, cfg.alpha)}
                   for rec, X_k in zip(expected.records, recorded)]
    assert _bits(written_out) == _bits(expected.records)


@pytest.mark.parametrize("name", ["g2.json", "g2r.json", "accel.json", "paper_sec5.json"])
def test_records_take_fro_residual_from_the_dense_history(name):
    exp = load_experiment(bundled_config(name))
    X_star = consensual_matrix(centralized_gradient_play(exp.game, **exp.reference))
    algorithms = set()
    for sc, cfg in exp.solvers:
        # g2r's 1e6 steps capped at 1e5: it records every 1000 steps either way
        sc = dataclasses.replace(sc, max_iters=min(sc.max_iters, 100000))
        run = grane_run if sc.algorithm == "grane" else acc_grane_run
        _, trace = run(exp.game, exp.mixing, cfg, sc, reference=X_star)
        assert len(trace.records) > 1
        assert all(rec["fro_residual"] == trace.dense_fro[rec["k"]] for rec in trace.records)
        algorithms.add(sc.algorithm)
    assert algorithms == ({"grane"} if name == "g2r.json" else {"grane", "acc-grane"})


def contraction(calls=None, fail_at=None, rates=(0.9,)):
    """``x -> r x`` with ``r`` cycling through ``rates``, counting its calls and
    raising on call ``fail_at``."""
    count = [0]

    def step(x, out):
        count[0] += 1
        if calls is not None:
            calls.append(1)
            if len(calls) == fail_at:
                raise ValueError("the step failed")
        np.multiply(x, rates[count[0] % len(rates)], out=out)

    return step


@pytest.mark.parametrize("rates", [(0.9,), (0.7, 0.999, 0.9995, 0.99),
                                   (0.95,) * 97 + (1 - 1e-7,) * 3])
@pytest.mark.parametrize("stop_at", [1, 2, 7, 8, 9, 63, 64, 65, 200, 255, 256, 257, 1023, 1025,
                                     2999])
def test_speculative_steps_after_a_stop_are_bounded(stop_at, rates):
    # geometric moves, uneven ones, and a sudden drop the chunk sizing cannot foresee
    x = np.array([3.0, -4.0])
    moves = []
    stepwise(_allocating(contraction(rates=rates)), x, 3000, 0.0, lambda *args: None, moves)
    tol = moves[stop_at - 1]
    calls = []
    x_last, k, move, reason = _iterate(contraction(calls, rates=rates), x, 3000, tol)
    expected = stepwise(_allocating(contraction(rates=rates)), x, 3000, tol, lambda *args: None)
    assert (x_last.tobytes(), k, move, reason) == (expected[0].tobytes(), *expected[1:])
    assert reason == "stop_tol" and k <= stop_at
    assert len(calls) - k <= math.ceil(k / 8)


def _allocating(step):
    """``step(x, out)`` as the step-by-step loop's ``x -> step(x)``."""

    def allocating(x):
        out = np.empty_like(x)
        step(x, out)
        return out

    return allocating


def test_a_failing_step_counts_after_the_steps_before_it():
    x = np.array([3.0, -4.0])
    moves = []
    stepwise(_allocating(contraction()), x, 100, 0.0, lambda *args: None, moves)
    # a stop before the failing call wins: that call would not have been made
    stopped = _iterate(contraction([], fail_at=30), x, 100, moves[20])
    assert stopped[1:] == (21, moves[20], "stop_tol")
    # otherwise the step's own error surfaces
    with pytest.raises(ValueError, match="the step failed"):
        _iterate(contraction([], fail_at=30), x, 100, 0.0)
    # and a divergence before it is reported first, as the step-by-step loop would
    free = make_quadratic_game(3, 1, box_range=(1e300, 1e300))
    with pytest.raises(DivergenceError, match="non-finite iterate movement at iteration"):
        centralized_gradient_play(free, step=1e6, max_iters=5000)


def total(xs):
    return [{"s": float(x.sum())} for x in xs]


def test_zero_and_one_iterations():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    trace = ConvergenceTrace(stride=5)
    x_last, k, move, reason = _iterate(contraction(), x, 0, 0.0, trace, np.zeros(4), total)
    assert (x_last.tobytes(), k, move, reason) == (x.tobytes(), 0, math.inf, "max_iters")
    assert trace.dense_fro == [_norm(x)] and trace.records == [{"k": 0, "s": 10.0}]
    trace = ConvergenceTrace(stride=5)
    x_last, k, move, reason = _iterate(contraction(), x, 1, 0.0, trace, None, total)
    assert (k, reason) == (1, "max_iters") and x_last.shape == (4,)
    assert [r["k"] for r in trace.records] == [0, 1]
    assert all(math.isnan(d) for d in trace.dense_fro) and len(trace.dense_fro) == 2


@pytest.mark.parametrize("rates", [(0.9,), (0.5, 0.999)])
def test_one_step_chunks(rates):
    # past 256 KB an iterate fills the ring's chunk alone, and the slot of
    # the previous iterate holds the differences
    x = np.random.default_rng(1).standard_normal(40000)
    assert x.nbytes > _RING_BYTES
    ref = np.zeros_like(x)
    moves = []
    stepwise(_allocating(contraction(rates=rates)), x, 9, 0.0, lambda *args: None, moves)
    for stop_tol in (0.0, moves[4]):
        got = ConvergenceTrace(stride=3)
        step = contraction(rates=rates)
        x_last, k, move, reason = _iterate(step, x, 9, stop_tol, got, ref, total)
        expected = ConvergenceTrace(stride=3)

        def observe(k, X, last):
            expected.dense_fro.append(_norm(X - ref))
            if k % 3 == 0 or last:
                expected.push_record(k, *total([X]))

        x_ref, *rest = stepwise(_allocating(contraction(rates=rates)), x, 9, stop_tol, observe)
        assert (x_last.tobytes(), k, move, reason) == (x_ref.tobytes(), *rest)
        assert (got.dense_fro, got.records) == (expected.dense_fro, expected.records)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 16, 25, 100, 400, 1000, 4096, 90000])
def test_batched_norms_have_the_bits_of_dot(size):
    rng = np.random.default_rng(size)
    for rows in (1, 2, 5):
        ring = rng.standard_normal((rows + 1, size)) * rng.uniform(0.1, 1e3)
        scratch = np.empty((rows, size))
        for block in (ring, ring[::-1]):  # a chunk walks the ring either way
            expected = [_norm(block[j + 1] - block[j]) for j in range(rows)]
            assert _norms(block[1:], block[:-1], scratch).tolist() == expected
            d = block[1:] - block[:-1]
            assert np.sqrt(_stacked_dot(d, d)).tolist() == expected
            ref = rng.standard_normal(size)
            distances = _norms(block, ref, np.empty((rows + 1, size)))
            assert distances.tolist() == [_norm(r - ref) for r in block]


def test_stop_reason(tmp_path):
    summary = run_experiment(bundled_config("g2.json"), tmp_path / "max")
    assert {s["stop_reason"] for s in summary["solvers"].values()} == {"max_iters"}
    config = json.loads(bundled_config("g2.json").read_text())
    for solver in config["solvers"]:
        solver["stop_tol"] = 1e-9
    path = tmp_path / "stop.json"
    path.write_text(json.dumps(config))
    summary = run_experiment(path, tmp_path / "stop")
    assert {s["stop_reason"] for s in summary["solvers"].values()} == {"stop_tol"}
    written = json.loads((tmp_path / "stop" / "summary.json").read_text())
    assert {s["stop_reason"] for s in written["solvers"].values()} == {"stop_tol"}
