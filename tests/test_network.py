import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from grane import (
    Graph,
    MixingMatrix,
    complete_graph,
    mixing_from_laplacian,
    mixing_metropolis,
    path_graph,
    random_tree,
    validate_mixing,
)
from grane.experiment import bundled_config, load_experiment, validate_config
from grane.network import JAGGED_DENSITY


# ---------------------------------------------------------------------------
# graphs


def test_graph_canonicalization():
    g = Graph(3, [(1, 0), (0, 1), (2, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert list(g.degrees()) == [1, 2, 1]


def test_graph_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    # node ids are integers, never truncated floats or parsed strings
    for edges in ([("0", "1")], [(1, 2.9)], [(0, np.float64(1.0))]):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Graph(3, edges)
    assert Graph(3, [(np.int64(0), 1), (1, 2)]).edges == ((0, 1), (1, 2))


def test_graph_connectivity():
    assert path_graph(4).is_connected()
    assert not Graph(4, [(0, 1), (2, 3)]).is_connected()


def test_random_tree_two_nodes():
    g = random_tree(2, 0)
    assert g.edges == ((0, 1),)


def test_random_tree_structure():
    g = random_tree(20, 11)
    assert len(g.edges) == 19
    assert g.is_connected()


def test_random_tree_deterministic():
    assert random_tree(9, 3).edges == random_tree(9, 3).edges
    assert random_tree(9, 3).edges != random_tree(9, 4).edges


def test_random_tree_requires_two_nodes():
    with pytest.raises(ValueError):
        random_tree(1, 0)


# ---------------------------------------------------------------------------
# mixing constructions


def test_laplacian_two_nodes():
    m = mixing_from_laplacian(path_graph(2))
    assert_allclose(m.W, [[0.5, 0.5], [0.5, 0.5]])
    assert_allclose(m.sigma_max_IW, 1.0, atol=1e-12)
    assert_allclose(m.lambda_min_nz_IW, 1.0, atol=1e-12)


def test_laplacian_complete_three():
    m = mixing_from_laplacian(complete_graph(3), t=1.0 / 3.0)
    assert_allclose(m.W, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_laplacian_t_validation():
    g = path_graph(3)
    lam_max = np.linalg.eigvalsh(g.laplacian()).max()
    with pytest.raises(ValueError):
        mixing_from_laplacian(g, t=0.0)
    with pytest.raises(ValueError):
        mixing_from_laplacian(g, t=2.0 / lam_max)
    with pytest.raises(ValueError):
        mixing_from_laplacian(g, t=0.6)  # exceeds 1/max_degree
    # one node has no edge: W = I for every admissible t
    assert mixing_from_laplacian(Graph(1, []), t=0.5).W.tolist() == [[1.0]]


def test_laplacian_rejects_disconnected():
    with pytest.raises(ValueError):
        mixing_from_laplacian(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        mixing_metropolis(Graph(4, [(0, 1), (2, 3)]))


def test_metropolis_two_nodes():
    m = mixing_metropolis(path_graph(2))
    assert_allclose(m.W, [[0.5, 0.5], [0.5, 0.5]])


def test_metropolis_star():
    star = Graph(3, [(0, 1), (0, 2)])
    m = mixing_metropolis(star)
    assert_allclose(m.W[0, 1], 1.0 / 3.0)
    assert_allclose(m.W[0, 2], 1.0 / 3.0)
    assert_allclose(m.W[0, 0], 1.0 / 3.0)
    assert_allclose(m.W[1, 1], 2.0 / 3.0)
    assert_allclose(m.W[2, 2], 2.0 / 3.0)


def test_metropolis_path_row_sums():
    m = mixing_metropolis(path_graph(3))
    assert_allclose(m.W.sum(axis=1), np.ones(3), atol=1e-15)


# ---------------------------------------------------------------------------
# validation and spectral invariants


@pytest.mark.parametrize("construction", [mixing_from_laplacian, mixing_metropolis])
def test_generated_matrices_validate(construction):
    for seed in range(5):
        m = construction(random_tree(5 + seed, seed))
        report = validate_mixing(m)
        assert report.passed, report.failures


def test_identity_matrix_fails():
    m = MixingMatrix(np.eye(2), path_graph(2))
    report = validate_mixing(m)
    assert "sparsity_pattern" in report.failures
    assert "null_space_dimension" in report.failures


def test_weight_off_the_edge_set_fails():
    # weights on 0-1, 1-2 and 0-3, checked against the path 0-1-2-3
    m = mixing_from_laplacian(Graph(4, [(0, 1), (1, 2), (0, 3)]))
    report = validate_mixing(MixingMatrix(m.W, path_graph(4)))
    assert report.failures == ["sparsity_pattern"]
    assert report.details["sparsity_pattern"] == [
        (0, 3, "weight off the edge set"),
        (2, 3, "zero weight on edge"),
    ]


def test_asymmetric_perturbation_fails():
    m = mixing_from_laplacian(path_graph(3))
    W = m.W.copy()
    W[0, 1] += 1e-6
    report = validate_mixing(MixingMatrix(W, m.graph))
    assert "symmetry" in report.failures


def test_spectral_invariants():
    for seed in range(8):
        g = random_tree(4 + 3 * seed, seed)
        for m in (mixing_from_laplacian(g), mixing_metropolis(g)):
            W = m.W
            assert np.abs(W @ np.ones(m.n) - 1.0).max() <= 1e-12
            assert np.abs(W - W.T).max() <= 1e-12
            eigs = np.linalg.eigvalsh(np.eye(m.n) - W)
            assert eigs.min() >= -1e-10
            assert np.sort(eigs)[1] >= 1e-10
            # stored singular value against an eigenvalue oracle
            assert abs(m.sigma_max_IW - eigs.max()) <= 1e-10
            assert abs(m.lambda_min_nz_IW - np.sort(eigs)[1]) <= 1e-10


def test_connectivity_is_the_second_eigenvalue(tmp_path):
    # a tiny but positive gap is a connected graph, not a zero eigenvalue:
    # lambda_2 = 2e-12 keeps the restricted constants positive
    config = json.loads(bundled_config("g2r.json").read_text())
    config["graph"]["t"] = 1e-12
    path = tmp_path / "tiny_t.json"
    path.write_text(json.dumps(config))
    report = validate_config(path)
    assert report.issues == []
    assert report.warnings == ["mixing matrix failed checks: ['null_space_dimension', 'sparsity_pattern']"]
    for seed in range(12):
        graph = _sparse_graph(3 + 5 * seed, seed)
        for m in (mixing_from_laplacian(graph), mixing_metropolis(graph)):
            assert m.lambda_min_nz_IW == np.linalg.eigvalsh(np.eye(m.n) - m.W)[1]
    # a disconnected graph has no gap, though eigvalsh may put a rounding
    # error such as -6e-17 second
    left, right = mixing_from_laplacian(random_tree(5, 2)), mixing_metropolis(random_tree(4, 3))
    W = np.zeros((9, 9))
    W[:5, :5], W[5:, 5:] = left.W, right.W
    apart = Graph(9, [*left.graph.edges, *((i + 5, j + 5) for i, j in right.graph.edges)])
    assert MixingMatrix(W, apart).lambda_min_nz_IW == 0.0
    assert MixingMatrix(np.eye(1), Graph(1, [])).lambda_min_nz_IW == 0.0
    # lambda_max(I - W) = 2 on a 2-node path at t = 1
    with pytest.raises(ValueError, match="not below 2/lambda_max"):
        mixing_from_laplacian(path_graph(2), t=1)


def test_spectrum_computed_once_and_reused():
    m = mixing_from_laplacian(random_tree(9, 3))
    assert np.array_equal(m.eigvals_IW, np.linalg.eigvalsh(np.eye(m.n) - m.W))
    # validate_mixing reads the stored spectrum rather than recomputing it
    m.eigvals_IW = m.eigvals_IW + 5.0
    assert "spectrum_upper" in validate_mixing(m).failures


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    topology=st.sampled_from(["path", "tree", "complete"]),
    construction=st.sampled_from([mixing_from_laplacian, mixing_metropolis]),
    seed=st.integers(0, 2**16),
)
def test_sigma_max_equals_largest_singular_value(n, topology, construction, seed):
    graphs = {"path": path_graph(n), "tree": random_tree(n, seed), "complete": complete_graph(n)}
    m = construction(graphs[topology])
    oracle = np.linalg.svd(np.eye(n) - m.W, compute_uv=False).max()
    assert abs(m.sigma_max_IW - oracle) <= 1e-13 * oracle


# ---------------------------------------------------------------------------
# the (I - W) X kernel and its step form


def _sparse_graph(n, seed):
    """A random tree plus up to n random extra edges and a hub joined to a
    random share of the nodes: dense and sparse rows, long and short jagged
    diagonals."""
    rng = np.random.default_rng(seed)
    edges = list(random_tree(n, seed).edges)
    edges += [tuple(pair) for pair in rng.integers(0, n, size=(rng.integers(0, n + 1), 2))
              if pair[0] != pair[1]]
    hub = int(rng.integers(0, n))
    edges += [(hub, j) for j in np.flatnonzero(rng.random(n) < rng.random()) if j != hub]
    return Graph(n, edges)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 400),
    topology=st.sampled_from(["path", "tree", "complete", "inline"]),
    construction=st.sampled_from([mixing_from_laplacian, mixing_metropolis]),
    seed=st.integers(0, 2**16),
    width=st.sampled_from([1, 7, None]),
)
def test_disagreement_matches_the_dense_product(n, topology, construction, seed, width):
    graph = {"path": path_graph, "tree": lambda k: random_tree(k, seed), "complete": complete_graph,
             "inline": lambda k: _sparse_graph(k, seed)}[topology](n)
    m = construction(graph)
    sparse = JAGGED_DENSITY * len(graph.edges) <= n * n
    assert m.form == ("jagged" if sparse else "dense")
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, width or n)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    s = float(rng.uniform(0.01, 1.0))
    IW = np.eye(n) - m.W
    for _ in range(2):  # the second call runs on the buffers of the first
        got, stepped = m.disagreement(X), m.consensus_step(s)(X)
        if not sparse:
            assert got.tobytes() == (X - m.W @ X).tobytes()
            assert stepped.tobytes() == (np.eye(n) - s * IW).dot(X).tobytes()
            continue
        # each row within 1e-13 of the largest entry of the rows it mixes
        rows = np.abs(X).max(axis=1)
        scale = np.where(m.W != 0.0, rows, 0.0).max(axis=1)[:, None]
        assert np.all(np.abs(got - IW @ X) <= 1e-13 * scale)
        assert np.all(np.abs(stepped - (X - s * (IW @ X))) <= 1e-13 * np.maximum(scale, rows[:, None]))
    consensual = np.tile(X[0], (n, 1))
    if sparse:
        assert not np.any(m.disagreement(consensual))
        assert np.array_equal(m.consensus_step(s)(consensual), consensual)


def test_kernel_form_follows_the_rule():
    assert mixing_from_laplacian(random_tree(300, 1)).form == "jagged"
    # a connected graph has n - 1 edges or more: jagged from 127 nodes on
    assert mixing_metropolis(path_graph(127)).form == "jagged"
    assert mixing_from_laplacian(random_tree(127, 1)).form == "jagged"
    assert mixing_from_laplacian(random_tree(126, 1)).form == "dense"
    assert mixing_from_laplacian(complete_graph(300)).form == "dense"
    assert load_experiment(bundled_config("paper_sec5.json")).mixing.form == "dense"
