"""Communication graphs and doubly stochastic mixing matrices.

Solvers exchange estimates through a symmetric nonnegative weight matrix
``W`` whose support matches an undirected connected graph: rows and columns
sum to one, ``I - W`` is positive semidefinite, and its null space is the
consensus line ``span(1)``. Two standard constructions are provided (lazy
Laplacian weights and Metropolis weights) together with a validator for all
of these properties and the two spectral quantities every step-size formula
consumes: the largest absolute eigenvalue of the symmetric ``I - W`` and its
second-smallest eigenvalue, the algebraic connectivity, 0 exactly when the
graph is disconnected.

:class:`MixingMatrix` holds the one implementation of ``(I - W) X``
(:meth:`~MixingMatrix.disagreement`) and of the consensus step
``X - s (I - W) X`` (:meth:`~MixingMatrix.consensus_step`). Graphs with at
most ``n**2 / max(128, 18 n**(1/3))`` edges take the jagged-diagonal form,
``O(|E| n)`` per ``n x n`` product; all others, every bundled config among
them, the dense product, ``O(n**3)``. A connected graph has ``n - 1`` edges
or more, so it takes the jagged form from 127 nodes on. The rule reads only
``n`` and the edge count, in exact integers (``JAGGED_DENSITY * |E| <=
n**2`` and ``JAGGED_GROWTH * |E|**3 <= n**5``), so a run takes the same
form, and the same bits, every time. Its growth is fitted to the measured
break-even on random connected graphs of 400 to 2000 nodes, which falls
from about ``n**2 / 130`` at n = 400 to ``n**2 / 220`` at n = 2000: the
dense product keeps its speed per entry while the gathers of the jagged one
slow down as the rows leave the cache. The crossover, in us per
``(I - W) X`` on one BLAS thread (dense / jagged, lazy-Laplacian weights;
2-core x86-64 guest, numpy 2.4.6 with OpenBLAS 0.3.31):

    ==============================  =======  ========  ==========  =============
    graph                           n = 100  n = 150   n = 300     n = 1000
    ==============================  =======  ========  ==========  =============
    random tree                     48 / 71  131 / 76  952 / 376   30119 / 5835
    path                            35 / 30  131 / 55  954 / 388   29371 / 5648
    star                            34 / 36  129 / 66  947 / 918   29210 / 7638
    random, at the bound            34 / 47  142 / 92  1142 / 765  29169 / 26835
    ==============================  =======  ========  ==========  =============

The last row has 703 and 5555 edges at n = 300 and 1000, the rule's bound,
175 at n = 150, the bound of 128, and 99 at n = 100, a tree, as the bound (78)
admits no connected graph there. Metropolis weights, one per entry, cost the
jagged form up to a third more.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .games import _number

__all__ = [
    "Graph",
    "MixingMatrix",
    "MixingValidation",
    "complete_graph",
    "mixing_from_laplacian",
    "mixing_metropolis",
    "path_graph",
    "random_tree",
    "validate_mixing",
]

# (I - W) X runs over jagged diagonals on graphs with at most
# n**2 / max(JAGGED_DENSITY, cbrt(JAGGED_GROWTH * n)) edges, as one dense
# product on others (see the module docstring)
JAGGED_DENSITY = 128
JAGGED_GROWTH = 18**3
# jagged diagonals shorter than this after the 0th are summed together
_JAGGED_ROWS = 8


class Graph:
    """Undirected graph on nodes ``0..n-1`` with canonicalized edge set."""

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError("graph needs at least one node")
        canon = set()
        for i, j in edges:
            i, j = operator.index(i), operator.index(j)  # a TypeError unless integers
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            canon.add((min(i, j), max(i, j)))
        self.n = int(n)
        self.edges = tuple(sorted(canon))

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        for i, j in self.edges:
            A[i, j] = A[j, i] = 1.0
        return A

    def laplacian(self) -> np.ndarray:
        return np.diag(self.degrees().astype(float)) - self.adjacency()

    def is_connected(self) -> bool:
        seen = {0}
        frontier = [0]
        adj = {i: [] for i in range(self.n)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == self.n

    def __repr__(self):
        return f"Graph(n={self.n}, edges={len(self.edges)})"


def path_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("need at least two nodes")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("need at least two nodes")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_tree(n: int, seed: int) -> Graph:
    """Uniform-attachment random spanning tree on ``n`` nodes.

    Nodes are visited in a seeded random order and each new node is wired to
    a uniformly chosen earlier one, which yields a connected tree with
    ``n - 1`` edges, identical for identical ``(n, seed)``.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = []
    for idx in range(1, n):
        parent = order[rng.integers(0, idx)]
        edges.append((int(order[idx]), int(parent)))
    return Graph(n, edges)


class MixingMatrix:
    """A mixing matrix together with its graph and cached spectral data.

    ``W`` is assumed symmetric, as every construction here makes it: one
    symmetric eigendecomposition of ``I - W``, which reads only its lower
    triangle, gives both spectral quantities. :func:`validate_mixing` checks
    the symmetry.

    Attributes
    ----------
    W : ndarray
        The ``n x n`` weight matrix.
    graph : Graph
        The communication graph whose edges carry the off-diagonal support.
    sigma_max_IW : float
        Largest absolute eigenvalue of the symmetric ``I - W`` (its largest
        singular value).
    lambda_min_nz_IW : float
        Second-smallest eigenvalue of ``I - W``, clamped at 0 (0 for one
        node): the algebraic connectivity, the smallest nonzero eigenvalue
        on a connected graph and 0 on a disconnected one.
    eigvals_IW : ndarray
        All eigenvalues of ``I - W``, ascending.
    form : str
        How :meth:`disagreement` and :meth:`consensus_step` apply ``I - W``:
        ``"dense"`` or ``"jagged"``, fixed by ``n`` and the edge count alone.
    """

    def __init__(self, W, graph: Graph):
        W = np.array(W, dtype=float)
        if W.shape != (graph.n, graph.n):
            raise ValueError("weight matrix shape does not match graph")
        self.W = W
        self.graph = graph
        self.n = graph.n
        eigs = self.eigvals_IW = np.linalg.eigvalsh(np.eye(self.n) - W)
        self.sigma_max_IW = float(np.abs(eigs).max())
        self.lambda_min_nz_IW = max(0.0, float(eigs[1])) if self.n > 1 else 0.0
        sparse = _is_sparse(self.n, len(graph.edges))
        self.form = "jagged" if sparse else "dense"
        if sparse:
            self._order, self._inverse, self._columns, self._tail, self._weights = _jagged_diagonals(W)
            self._buffers = {}

    def disagreement(self, X) -> np.ndarray:
        """``(I - W) @ X`` for an ``n x m`` float array ``X``, or for each
        matrix of a stack ``(B, n, m)`` of them, as a new array; each matrix
        of a stack keeps the bits it has alone.

        The ``"dense"`` form is ``X - W @ X``, one ``O(n**2 m)`` product per
        matrix. The ``"jagged"`` form is the difference form
        ``sum_j w_ij (X_i - X_j)`` over the off-diagonal entries of ``W`` in
        ``O(|E| m)``, which equals ``(I - W) X`` for unit row sums up to
        rounding and gives exactly 0 on equal rows; it takes a stack one
        matrix at a time. It gathers rows into buffers kept on this object,
        so one ``MixingMatrix`` serves one thread at a time.
        """
        if self.form == "dense":
            return X - self.W @ X
        out = np.empty(X.shape)
        matrices = (-1,) + X.shape[-2:]
        for x, o in zip(X.reshape(matrices), out.reshape(matrices)):
            self._jagged(x, self._weights, o)
        return out

    def consensus_step(self, s: float):
        """The step ``X -> X - s (I - W) X`` as a callable ``step(X, out=None)``
        that writes into ``out`` (not ``X`` itself) or a new array and returns
        it: one product with the precomputed ``I - s (I - W)`` in the
        ``"dense"`` form, the jagged kernel with every weight scaled by ``s``
        in the other, which keeps no ``n x n`` matrix."""
        if self.form == "dense":
            return (np.eye(self.n) - s * (np.eye(self.n) - self.W)).dot
        weights = [s * w for w in self._weights]

        def step(X, out=None):
            out = self._jagged(X, weights, out)
            return np.subtract(X, out, out=out)

        return step

    def _jagged(self, X, weights, out=None) -> np.ndarray:
        """``sum_j w_ij (X_i - X_j)`` over the jagged diagonals, ``weights``
        standing in for the off-diagonal entries of ``W``, into ``out`` or a
        new array.

        Rows are taken in order of falling degree, so diagonal ``k`` (every
        row's ``k``-th neighbour) covers a prefix of them: each diagonal is
        one row gather, one subtraction and one scaling into a prefix of the
        accumulator, with no scatter-add. The tail's few rows are gathered at
        once and summed per row by one ``np.add.reduceat``, so a hub costs no
        loop over its entries. Rows of degree 0 stay 0. The gathers into
        buffers, and the last one back into row order into ``out``, take
        ``mode="clip"``: under the default ``"raise"`` numpy gathers into a
        temporary and copies it into ``out``.
        """
        own, gathered, acc = self._buffers.get(X.shape[1]) or self._allocate(X.shape[1])
        np.take(X, self._order, axis=0, out=own, mode="clip")
        for k, (columns, w) in enumerate(zip(self._columns, weights)):
            rows = len(columns)
            g = np.take(X, columns, axis=0, out=gathered[:rows] if k else acc[:rows], mode="clip")
            np.subtract(own[:rows], g, out=g)
            g *= w
            if k:
                acc[:rows] += g
        if self._tail is not None:
            columns, owners, starts = self._tail
            g = np.take(X, owners, axis=0)
            g -= np.take(X, columns, axis=0)
            g *= weights[-1]
            acc[: starts.size] += np.add.reduceat(g, starts, axis=0)
        return np.take(acc, self._inverse, axis=0, out=out, mode="clip")

    def _allocate(self, m: int):
        """The kernel's buffers for ``m`` columns: the rows in degree order,
        the neighbours gathered for diagonals 1 on (diagonal 0 is gathered
        into the accumulator), the accumulator (zero where never written)."""
        widest = len(self._columns[1]) if len(self._columns) > 1 else 0
        self._buffers[m] = np.empty((self.n, m)), np.empty((widest, m)), np.zeros((self.n, m))
        return self._buffers[m]

    def __repr__(self):
        return (
            f"MixingMatrix(n={self.n}, sigma_max={self.sigma_max_IW:.6g}, "
            f"lambda_min_nz={self.lambda_min_nz_IW:.6g})"
        )


def _is_sparse(n: int, edges: int) -> bool:
    """Whether ``n`` nodes and ``edges`` edges take the jagged form: at most
    ``n**2 / max(128, 18 n**(1/3))`` edges, in exact integer arithmetic."""
    return JAGGED_DENSITY * edges <= n**2 and JAGGED_GROWTH * edges**3 <= n**5


def _jagged_diagonals(W):
    """``(order, inverse, columns, tail, weights)``: the off-diagonal entries
    of ``W`` as jagged diagonals (Saad, *Iterative Methods for Sparse Linear
    Systems*, section 3.4).

    ``order`` lists the rows by falling degree (stably) and ``inverse``
    undoes it. Diagonal ``k`` holds, for the rows of degree above ``k`` in
    that order, the column of their ``k``-th entry in ``columns[k]``. From
    the first diagonal after the 0th with fewer than ``_JAGGED_ROWS`` rows
    on, the entries form the ``tail`` ``(columns, owners, starts)`` instead:
    grouped by row in that order, ``owners`` the row of each entry and
    ``starts`` where each row's group begins. ``weights`` holds each
    diagonal's weights, then the tail's: one float when they are all equal
    (lazy-Laplacian weights), else a column of them.
    """
    n = W.shape[0]
    support = W != 0.0
    np.fill_diagonal(support, False)
    rows, cols = np.nonzero(support)  # faster on booleans than on W itself
    values = W[rows, cols]
    degree = np.bincount(rows, minlength=n)
    order = np.argsort(-degree, kind="stable")
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.arange(n)
    rank = np.arange(rows.size) - (np.cumsum(degree) - degree)[rows]
    lengths = np.bincount(rank)
    short = np.flatnonzero(lengths[1:] < _JAGGED_ROWS)
    head = 1 + int(short[0]) if short.size else lengths.size
    entries = np.lexsort((inverse[rows], np.minimum(rank, head)))
    pieces = np.split(entries, np.cumsum(lengths[:head]))
    columns, weights = [cols[piece] for piece in pieces[:head]], []
    tail = None
    if pieces[head].size:
        owners = rows[pieces[head]]
        starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
        tail = cols[pieces[head]], owners, starts
    for piece in pieces if tail else pieces[:head]:
        w = values[piece]
        weights.append(float(w[0]) if np.all(w == w[0]) else w[:, None])
    return order, inverse, columns, tail, weights


def mixing_from_laplacian(graph: Graph, t: float | None = None) -> MixingMatrix:
    """Lazy Laplacian weights ``W = I - t*L``.

    The default ``t = 1/(max_degree + 1)`` keeps every diagonal entry
    strictly positive and all entries nonnegative. A user-supplied ``t``
    must satisfy ``0 < t <= 1/max_degree`` (nonnegativity) and
    ``t < 2/lambda_max(L)``, read as ``lambda_max(I - W) < 2`` off the
    spectrum of the :class:`MixingMatrix`: one eigenproblem per call.
    """
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    L = graph.laplacian()
    max_deg = float(L.diagonal().max())
    if t is None:
        t = 1.0 / (max_deg + 1)
    else:
        t = _number("t", t)
        bound = 1.0 / max(max_deg, 1.0)  # on one node W = I for every t
        if not 0 < t <= bound:
            raise ValueError(f"t={t} outside (0, 1/max_degree={bound:.6g}]")
    mixing = MixingMatrix(np.eye(graph.n) - t * L, graph)
    if mixing.eigvals_IW[-1] >= 2.0:
        raise ValueError(f"t={t} not below 2/lambda_max(L)")
    return mixing


def mixing_metropolis(graph: Graph) -> MixingMatrix:
    """Metropolis weights ``w_ij = 1/(1 + max(deg_i, deg_j))`` on edges."""
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    deg = graph.degrees()
    W = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        W[i, j] = W[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return MixingMatrix(W, graph)


@dataclass
class MixingValidation:
    """Outcome of the mixing-matrix checks; empty ``failures`` means valid."""

    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_mixing(m: MixingMatrix, tol: float = 1e-10) -> MixingValidation:
    """Check every structural property a mixing matrix must satisfy.

    Verifies symmetry, entrywise nonnegativity, unit row and column sums,
    that the spectrum of ``I - W`` lies in ``[0, 2]`` with exactly one
    (near-)zero eigenvalue, and that the off-diagonal support equals the
    graph's edge set, each within ``tol``. Two checks read no ``tol``: an
    eigenvalue counts as zero within the rounding of the eigensolver,
    ``n * eps * max(1, sigma_max_IW)``, so a small but positive spectral gap
    is a connected graph; and an edge weight is zero when it is not
    positive. Each failed check contributes one entry to ``failures``; the
    numeric evidence is kept in ``details``.
    """
    W = m.W
    report = MixingValidation()

    def check(ok: bool, name: str, value):
        report.details[name] = value
        if not ok:
            report.failures.append(name)

    asym = float(np.abs(W - W.T).max())
    check(asym <= tol, "symmetry", asym)
    min_entry = float(W.min())
    check(min_entry >= -tol, "nonnegativity", min_entry)
    row_err = float(np.abs(W.sum(axis=1) - 1.0).max())
    check(row_err <= tol, "row_sums", row_err)
    col_err = float(np.abs(W.sum(axis=0) - 1.0).max())
    check(col_err <= tol, "column_sums", col_err)

    eigs = m.eigvals_IW
    check(eigs.min() >= -tol, "positive_semidefinite", float(eigs.min()))
    check(eigs.max() <= 2.0 + tol, "spectrum_upper", float(eigs.max()))
    rounding = m.n * np.finfo(float).eps * max(1.0, m.sigma_max_IW)
    n_null = int(np.sum(np.abs(eigs) <= rounding))
    check(n_null == 1, "null_space_dimension", n_null)

    on_edge = np.triu(m.graph.adjacency(), k=1) > 0
    zero_on_edge = on_edge & ~(W > 0.0)
    off_edge = np.triu(np.abs(W) > tol, k=1) & ~on_edge
    bad = [
        (int(i), int(j), "zero weight on edge" if zero_on_edge[i, j] else "weight off the edge set")
        for i, j in np.argwhere(zero_on_edge | off_edge)
    ]
    check(not bad, "sparsity_pattern", bad)
    return report
