"""The benchmark's workloads and its own copy of their input data.

Each workload is one experiment config that ``grane.run_experiment``
consumes. Two come from the configs bundled with the package; the third is
generated here from the run's seed and handed to the program as inline
data. The generators below are the benchmark's own: the correctness checks
rebuild every game matrix and mixing matrix from them, never from the
program's objects.
"""

from __future__ import annotations

import json

import numpy as np

# restricted-n2 runs the bundled g2r solver entry for this many iterations
# instead of its 1e6; records stay every 1000 iterations as bundled
RESTRICTED_ITERS = 20000

# records-n300: problem size, GRANE iterations and record stride
RECORDS_N = 300
RECORDS_ITERS = 100
RECORDS_STRIDE = 10

# the same coefficient ranges as paper_sec5.json
RANGES = {
    "a_range": (1.0, 2.0),
    "b_range": (-1.0, 1.0),
    "c_range": (-0.01, 0.01),
    "box_range": (5.0, 10.0),
}


def draw_quadratic(n, seed, a_range, b_range, c_range, box_range, antisymmetric=True):
    """A seeded quadratic game as plain arrays ``(a, b, C, lo, hi)``.

    One ``numpy`` generator draws, in this order, ``a``, ``b``, the full
    coupling matrix and the box ends ``-u`` and ``v``; the zero diagonal and
    the antisymmetric mirror of the upper triangle are applied after the
    draw. This is the documented recipe of ``grane.make_quadratic_game``, so
    a ``"quadratic"`` game section yields the same numbers here as in the
    program.
    """
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
    return a, b, C, lo, hi


def tree_edges(n, seed):
    """Uniform-attachment random tree, the documented recipe of ``grane.random_tree``."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    return [(int(order[i]), int(order[rng.integers(0, i)])) for i in range(1, n)]


def lazy_laplacian(n, edges):
    """``W = I - L / (max_degree + 1)`` for an undirected edge list."""
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    deg = A.sum(axis=1)
    return np.eye(n) - (np.diag(deg) - A) / (deg.max() + 1.0)


class Problem:
    """The benchmark's own copy of a config's game and mixing matrix."""

    def __init__(self, config):
        game, graph = config["game"], config["graph"]
        if game["type"] == "inline":
            data = game["data"]
            self.a = np.asarray(data["a"], dtype=float)
            self.b = np.asarray(data["b"], dtype=float)
            self.C = np.asarray(data["C"], dtype=float)
            boxes = np.asarray(data["boxes"], dtype=float)
            self.lo, self.hi = boxes[:, 0], boxes[:, 1]
        elif game["type"] == "quadratic":
            ranges = {key: tuple(game[key]) for key in RANGES}
            self.a, self.b, self.C, self.lo, self.hi = draw_quadratic(
                int(game["n"]), int(game["seed"]), antisymmetric=bool(game["antisymmetric"]),
                **ranges,
            )
        else:
            raise ValueError(f"no own copy for game type {game['type']!r}")
        n = self.n = self.a.size
        if graph["type"] == "path":
            edges = [(i, i + 1) for i in range(n - 1)]
        elif graph["type"] == "tree":
            edges = tree_edges(n, int(graph["seed"]))
        elif graph["type"] == "inline":
            edges = graph["edges"]
        else:
            raise ValueError(f"no own copy for graph type {graph['type']!r}")
        if graph.get("mixing", "lazy-laplacian") != "lazy-laplacian" or "t" in graph:
            raise ValueError("only default lazy-Laplacian mixing has an own copy")
        self.W = lazy_laplacian(n, edges)
        self.M = np.diag(self.a) + self.C

    def mapping(self, x):
        return self.M @ x + self.b


def _bundled(grane, name):
    return json.loads(grane.bundled_config(name).read_text())


def restricted_n2(grane, seed):
    config = _bundled(grane, "g2r.json")
    config["solvers"][0]["max_iters"] = RESTRICTED_ITERS
    return config


def paper_sec5(grane, seed):
    return _bundled(grane, "paper_sec5.json")


def records_n300(grane, seed, n=RECORDS_N, iters=RECORDS_ITERS):
    a, b, C, lo, hi = draw_quadratic(n, seed, **RANGES)
    return {
        "game": {
            "type": "inline",
            "data": {
                "n": n,
                "a": a.tolist(),
                "b": b.tolist(),
                "C": C.tolist(),
                "boxes": np.column_stack([lo, hi]).tolist(),
            },
        },
        "graph": {"type": "inline", "edges": tree_edges(n, seed + 1), "mixing": "lazy-laplacian"},
        "solvers": [
            {
                "name": "grane-restricted",
                "algorithm": "grane",
                "alpha": "remark4",
                "path": "lemma3",
                "step": "auto",
                "max_iters": iters,
                "stop_tol": 0.0,
                "trace_stride": RECORDS_STRIDE,
            }
        ],
        "reference": {"step": "auto", "max_iters": 200000, "tol": 1e-12},
        "output": {
            "trace": "trace_{name}.csv",
            "summary": "summary.json",
            "plot_data": "residuals.csv",
        },
    }


WORKLOADS = {
    "restricted-n2": restricted_n2,
    "paper-sec5": paper_sec5,
    "records-n300": records_n300,
}

# the speed-kernel parts that do the same kind of work as each workload:
# n=2 and n=20 are interpreter overhead around small arrays; n=300 also
# streams large arrays, faults in fresh pages and runs the small-vector
# reference solve
NORMALIZE_BY = {
    "restricted-n2": ("small_numpy", "bytecode"),
    "paper-sec5": ("small_numpy", "bytecode"),
    "records-n300": ("small_numpy", "bytecode", "broadcast", "fresh_pages"),
}
