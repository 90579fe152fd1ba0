"""The augmented mapping over estimate matrices, and its constants.

A joint action is learned distributedly through an ``n x n`` *estimate
matrix* ``X``: row ``i`` is player ``i``'s running estimate of everyone's
action and the diagonal holds the actions themselves. Feasibility only
constrains the diagonal (each ``X_ii`` must lie in player ``i``'s box); the
feasible set is denoted ``Omega_a`` below. A matrix with equal rows is
called *consensual*.

The augmented mapping couples the disagreement penalty with scaled local
gradients,

    F_a(X) = (I - W) X + Diag(alpha_i * dJ_i/dx_i(row_i)),

and an estimate matrix solves the variational inequality of ``F_a`` on
``Omega_a`` exactly when it is consensual with a Nash equilibrium on its
diagonal. This module evaluates ``F_a`` and its gradient step
``X - s * F_a(X)`` (:func:`gradient_map`), computes its Lipschitz,
strong-monotonicity and restricted-monotonicity constants from the game and
network constants, bounds the resulting condition number, and provides a
sampling-based equilibrium certificate.

The step's precomputed forms are described at :func:`gradient_map`.

:func:`consensus_gap`, the largest distance between two rows, is exact bit
for bit at every size and takes a stack of matrices at once. Up to
``n = 40`` it gathers the row pairs ``i < j`` of the whole stack and forms
each by the exact formula. Past it, one matrix at a time, it forms only the
pairs that can hold the maximum. Past one Gram tile, a prefilter first drops
the rows whose distance to the column mean, plus the largest such distance,
falls short of the largest distance among the four rows farthest from it.
Then Gram products of centered, power-of-two-scaled tiles of the rows left
estimate every squared distance, a rounding bound (dot products, centering
and the exact formula, times two) brackets each estimate, and only the pairs
whose upper bound reaches the largest lower bound are formed by the exact
formula. Non-finite and extremely small inputs skip prefilter and screen and
form every pair.

:func:`augmented_mapping` and :meth:`MixingMatrix.disagreement` take stacks
too, so the solvers record a chunk of iterates in one pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .games import Game, QuadraticGame, _clip, _numbers, _vecdot, box_bounds, clamp
from .network import MixingMatrix

# einsum's C kernel itself: numpy.einsum reaches it through a Python wrapper
try:
    _c_einsum = np._core.multiarray.c_einsum
except AttributeError:  # numpy 1.x
    _c_einsum = np.core.multiarray.c_einsum

__all__ = [
    "AugmentedConfig",
    "ConditionReport",
    "EquilibriumCertificate",
    "N_AFFINE",
    "StrongMonotonicityUnavailableError",
    "affine_form",
    "augmented_mapping",
    "clamp_diagonal",
    "condition_report",
    "consensual_matrix",
    "consensus_gap",
    "gradient_map",
    "is_feasible_estimate",
    "lipschitz_constant",
    "make_augmented_config",
    "ne_certificate",
    "project_estimates",
    "restricted_constants_at",
    "strong_monotonicity_constant",
]


class StrongMonotonicityUnavailableError(RuntimeError):
    """Raised when a solver path needs the strong-monotonicity constant but
    the game/network pair does not admit one; the restricted (``lemma3``)
    path remains available."""


# ---------------------------------------------------------------------------
# estimate matrices


def consensual_matrix(x) -> np.ndarray:
    """The consensual matrix whose every row equals ``x``."""
    x = np.asarray(x, dtype=float)
    return np.tile(x, (x.size, 1))


# consensus_gap's buffers each hold about this many floats
_GAP_BLOCK = 1 << 16


def consensus_gap(X):
    """Largest Euclidean distance between any two rows of ``X``, as a float;
    for a stack ``(B, n, m)`` of matrices, the array of each one's.

    The value is ``sqrt`` of the largest ``sum((X[i] - X[j])**2)`` over the
    row pairs ``i < j``, each pair's differences squared and summed along
    the row; ``sqrt`` is monotone and correctly rounded, so one root of the
    largest sum is the largest root bit for bit. A NaN entry gives NaN; a
    single row gives 0.0. No row is paired with itself, so a single infinite
    entry gives inf: a deliberate change from the earlier all-pairs loop,
    whose self pairs gave NaN (``inf - inf``). Two infinite entries of the
    same sign in one column still give NaN. Each matrix of a stack keeps the
    bits it has alone. Any other number of dimensions is a ValueError.

    Matrices whose ``n x n x m`` pair tensor fits ``_GAP_BLOCK`` floats
    (``n <= 40`` for square ones) gather their row pairs directly, the pairs
    of a whole stack at once (:func:`_pair_sums`). Larger ones are taken one
    at a time and form only the pairs that may hold the maximum
    (:func:`_screened_max`), which gives the same bits; equal rows give 0.0
    at once. Non-finite inputs, and inputs too small to scale into the
    normal range (largest entry off the column mean below about
    ``1e-155``), form every pair ``i < j`` by the same gather, a block of
    rows at a time. Past the index arrays of a stack's gathered pairs, every
    buffer holds about ``_GAP_BLOCK`` floats or fewer.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim not in (2, 3):
        raise ValueError(f"expected an n x m matrix or a stack of them, got shape {X.shape}")
    stack = X.reshape((-1,) + X.shape[-2:])
    B, n, m = stack.shape
    if n * n * m <= _GAP_BLOCK:
        p, q = _pairs(n)
        offsets = np.arange(0, B * n, n)[:, None]
        sums = _pair_sums(stack.reshape(B * n, m), (offsets + p).ravel(), (offsets + q).ravel())
        gaps = sums.reshape(B, p.size).max(axis=1, initial=0.0)
    else:
        gaps = np.array([_largest_pair(x) for x in stack])
    gaps = np.sqrt(gaps)
    return float(gaps[0]) if X.ndim == 2 else gaps


@functools.lru_cache(maxsize=8)
def _pairs(n: int):
    """The row pairs ``i < j`` of ``n`` rows, as read-only index arrays
    ``(p, q)``."""
    p, q = np.triu_indices(n, 1)
    p.flags.writeable = q.flags.writeable = False
    return p, q


def _pair_sums(X, p, q) -> np.ndarray:
    """The squared distances between the rows ``X[p]`` and ``X[q]``, their
    differences squared and summed along the row: the one formula every
    pair is formed with.

    The rows are gathered a chunk of pairs at a time, about ``_GAP_BLOCK /
    4`` floats a side: the size that measured fastest. Per matrix of a stack
    of 8 at n = 20, that chunk took 9.7 us, one of ``_GAP_BLOCK`` floats
    19.7 us and one of 1024 floats 18.5 us, in the same order at n = 12, 30
    and 40 (one BLAS thread of a 2-core x86-64 guest, numpy 2.4.6).
    """
    chunk = max(1, _GAP_BLOCK // (4 * X.shape[1]))
    sums = np.empty(p.size)
    for k in range(0, p.size, chunk):
        diff = X.take(p[k : k + chunk], axis=0)
        diff -= X.take(q[k : k + chunk], axis=0)
        np.square(diff, out=diff)
        diff.sum(axis=-1, out=sums[k : k + chunk])
    return sums


def _largest_pair(X):
    """The largest squared row distance of one matrix too large to gather
    every pair at once: screened where the screen applies, else every pair
    ``i < j`` formed once, the pairs of a block of rows at a time (about
    ``_GAP_BLOCK / 8`` pairs a block)."""
    screened = _screened_max(X)
    if screened is not None:
        return screened[0]
    n = len(X)
    rows = max(1, _GAP_BLOCK // (8 * n))
    tops = []
    for a in range(0, n, rows):
        p, q = np.triu_indices(min(rows, n - a), 1, n - a)
        tops.append(_pair_sums(X, p + a, q + a).max(initial=0.0))
    return np.max(tops)


def _screened_max(X):
    """``(largest squared row distance, rows kept, pairs formed exactly)`` of
    the ``n x m`` array ``X``, found by a prefilter and a screen; None where
    they do not apply: a non-finite entry, or a scale exponent outside the
    normal range. Equal rows give ``(0.0, n, 0)``.

    **Centering.** The rows are centered on the column mean ``mu`` and scaled
    by ``2**s``, chosen so that every centered entry is below ``2**e`` in
    magnitude with ``4 m 4**e <= 2**1020``: no product, sum or estimate
    overflows, and only an entry over ``2**1000`` times smaller than the
    largest can make a product subnormal. Below, ``c_i`` is row ``i`` so
    centered and scaled, ``N_i`` its squared norm as computed and ``r_i``
    the root of that; ``D_ij`` is the exact distance of rows ``i`` and ``j``
    times ``2**s``, ``f_ij`` the exactly formed sum of the pair (see
    :func:`consensus_gap`) times ``4**s``, and ``u = 2**-53``. The bounds
    hold to first order in ``u``. ``rel = (8 m + 40) u`` is at least twice
    each relative bound, which covers the second-order terms for ``m`` far
    below ``1 / u`` and the rounding of the tests themselves, and
    ``slack = m (2**(e - 1060) + 2**(2 s - 1070))`` covers underflow in the
    products, in the scaling and in the exact squares, with the same factor
    of two or more.

    **Prefilter.** ``best`` is the largest squared distance among the 4 rows
    of largest ``N_i``, formed by the exact formula on their ``c_i``. A row
    stays when ``(r_i + r_max)**2 >= best (1 - rel) - slack``, ``r_max`` the
    largest ``r_i``. Both rows of the pair ``i, j`` with the largest
    ``f_ij`` stay:

    * through ``mu``, ``D_ij <= rho_i + rho_max``, where ``rho_i`` is
      ``2**s`` times the exact distance of row ``i`` to ``mu``;
    * the centering rounds each entry by a relative ``u``, ``N_i`` is off
      by at most ``gamma_m |c_i|**2`` (Higham, *Accuracy and Stability of
      Numerical Algorithms*, section 3.1; any summation order, FMA or not)
      and the root by a relative ``u``: ``rho_i <= (1 + (m/2 + 2) u) r_i``;
    * ``best``, the sum of a pair ``a, b``, is off by at most ``(m + 2) u``
      times it, and the centering moves that pair's distance by at most
      ``2 u rho_max``: ``D_ab**2 >= best (1 - (m + 2) u) - 8 u rho_max**2``;
    * ``f_ij >= f_ab``, so ``D_ij**2 >= (1 - 2 (m + 2) u) D_ab**2``.

    Together ``(r_i + r_max)**2 >= best (1 - (4 m + 18) u)``, within half
    the margin. Rows at equal distance to ``mu`` all stay. The prefilter
    runs only where the screen takes more than one tile (``n > t`` below):
    at one tile it saved nothing on GRANE iterates (n = 100: 155 us a call
    with it or without) and cost 35% on rows it could not drop (n = 60 and
    100); at n = 300 it keeps 174 of the 300 rows of a GRANE iterate and
    takes a call from 1.65 to 0.94 ms, and costs about 12% on 300 random
    normal rows, which it cannot drop (one BLAS thread of a 2-core x86-64
    guest, numpy 2.4.6). These are call timings only: no benchmark workload
    has one-tile matrices or rows past one tile that the prefilter cannot
    drop, so neither side of the ``n > t`` choice is measured end to end.

    **Screen.** Over tiles ``I <= J`` of ``t`` rows left (``4 t m`` and
    ``4 t**2`` at most ``_GAP_BLOCK``), one product ``G = C_I @ C_J.T``
    gives the estimates ``d2_ij = N_i + N_j - 2 G_ij``, where ``N_i`` is the
    diagonal of the tile ``C_J @ C_J.T`` holding row ``i``. Each tile keeps
    the largest estimate of its pairs ``i < j``.

    **Bound.** With ``f_ij`` as above:

    * the dot products and norms are off by at most ``gamma_m |c_i||c_j|``
      and ``gamma_m |c_i|**2``, together at most ``2 m u (N_i + N_j)``;
      forming ``d2_ij`` and the bounds below adds ``6 u (N_i + N_j)``;
    * the centering rounds each entry by a relative ``u``: the true squared
      distance of the centered rows moves by at most ``4 u (N_i + N_j)``;
    * forming ``f_ij`` (difference, square, sum of ``m`` terms) is off by
      at most ``gamma_(m+2)`` times it, at most ``2 (m + 2) u (N_i + N_j)``.

    That is ``(4 m + 14) u (N_i + N_j)`` in all. The margin of a tile is
    ``rel`` times the tile's largest ``N_i + N_j``, plus ``slack``.

    **Exact pass.** ``low`` is the largest lower bound ``d2_ij - margin`` so
    far. Each tile raises it, then forms exactly with :func:`_pair_sums` its
    pairs whose upper bound ``d2_ij + margin`` reaches it. ``low`` only
    grows, so every pair reaching its final value is formed, and the largest
    ``f_ij``, at least that value, is among them: the same bits.
    """
    n, m = X.shape
    with np.errstate(invalid="ignore", over="ignore"):
        mu = X.mean(axis=0)
        # rounding is monotone: the largest |fl(x - mu)| over all entries
        amax = np.max(np.maximum(X.max(axis=0) - mu, mu - X.min(axis=0)))
    if not amax < np.inf:  # NaN or infinity
        return None
    if amax == 0.0:  # every row equals mu: every difference is zero
        return 0.0, n, 0
    e = (1018 - m.bit_length()) // 2
    s = e - math.frexp(amax)[1]
    if not -1022 <= s <= 1023:
        return None
    scale = 2.0**s
    rel = (8 * m + 40) * 2.0**-53
    slack = m * (2.0 ** (e - 1060) + 2.0 ** (2 * s - 1070))

    t = max(1, min(n, _GAP_BLOCK // (4 * m), math.isqrt(_GAP_BLOCK // 4)))
    ci, cj, g = np.empty((t, m)), np.empty((t, m)), np.empty(t * t)
    below = np.tri(t, dtype=bool)

    def center(rows, out):
        """The rows ``X[rows]``, centered and scaled in ``out``."""
        c = out[: len(rows)]
        np.take(X, rows, axis=0, out=c, mode="clip")
        c -= mu
        c *= scale
        return c

    keep = np.arange(n)
    if n > t:  # past one tile, first drop the rows that cannot hold the maximum
        radii = np.empty(n)  # squared until the root below
        for i in range(0, n, t):
            c = center(keep[i : i + t], ci)
            radii[i : i + len(c)] = _vecdot(c, c)
        far = np.argpartition(radii, max(n - 4, 0))[-4:]
        best = _pair_sums(center(far, np.empty((far.size, m))), *_pairs(far.size)).max()
        np.sqrt(radii, out=radii)
        keep = np.flatnonzero(np.square(radii + radii.max()) >= best * (1.0 - rel) - slack)
    norms = np.empty(keep.size)

    low, gap, formed = -np.inf, 0.0, 0
    for j in range(0, keep.size, t):
        b = center(keep[j : j + t], cj)
        for i in range(j, -1, -t):
            # the estimates of tile (i, j), pairs not above the diagonal at -inf
            a = b if i == j else center(keep[i : i + t], ci)
            est = g[: len(a) * len(b)].reshape(len(a), len(b))
            np.matmul(a, b.T, out=est)
            if i == j:
                norms[j : j + len(b)] = est.diagonal()
            ni, nj = norms[i : i + len(a)], norms[j : j + len(b)]
            est *= -2.0
            est += ni[:, None]
            est += nj
            if i == j:
                np.putmask(est, below[: len(a), : len(a)], -np.inf)
            margin = rel * (ni.max() + nj.max()) + slack
            top = est.max()
            low = max(low, top - margin)
            if top + margin >= low > -np.inf:  # a one-row tile has no pairs: top is -inf
                est += margin
                p, q = np.nonzero(est >= low)
                formed += p.size
                gap = max(gap, _pair_sums(X, keep[i + p], keep[j + q]).max())
    return gap, keep.size, formed


def clamp_diagonal(X: np.ndarray, lo, hi) -> np.ndarray:
    """Clamp the diagonal of the C-contiguous square array ``X`` into
    ``[lo, hi]`` in place and return ``X``."""
    if not X.flags.c_contiguous:
        raise ValueError("clamp_diagonal needs a C-contiguous array")
    clamp(X.reshape(-1)[:: X.shape[0] + 1], lo, hi)
    return X


def project_estimates(boxes, X) -> np.ndarray:
    """Project onto ``Omega_a``: clamp the diagonal, leave the rest alone."""
    return clamp_diagonal(np.array(X, dtype=float, order="C"), *box_bounds(boxes))


def is_feasible_estimate(boxes, X) -> bool:
    """Whether every diagonal entry ``X_ii`` lies in box ``i``."""
    lo, hi = box_bounds(boxes)
    d = np.asarray(X, dtype=float).diagonal()
    return bool(np.all((lo <= d) & (d <= hi)))


def augmented_mapping(game: Game, mixing: MixingMatrix, alpha, X) -> np.ndarray:
    """Evaluate ``F_a(X) = (I - W) X + Diag(alpha * local gradients)``, with
    ``(I - W) X`` from :meth:`MixingMatrix.disagreement`, for an ``n x n``
    estimate matrix or for each matrix of a stack ``(B, n, n)`` of them;
    each matrix of a stack keeps the bits it has alone. A
    :class:`QuadraticGame` takes the stack's local gradients in one call,
    other games one matrix at a time."""
    X = np.asarray(X, dtype=float)
    n = game.n
    if X.ndim not in (2, 3) or X.shape[-2:] != (n, n):
        raise ValueError(f"expected {n}x{n} estimate matrix, got {X.shape}")
    if X.ndim == 2 or isinstance(game, QuadraticGame):
        gradients = game.local_gradients(X)
    else:
        gradients = np.array([game.local_gradients(x) for x in X])
    out = mixing.disagreement(X)
    out.reshape(-1, n * n)[:, :: n + 1] += np.asarray(alpha, dtype=float) * gradients
    return out


# games up to this many players take gradient steps through the dense
# n**2 x n**2 operator of F_a; past it the structured step is cheaper
N_AFFINE = 12


def affine_form(game: QuadraticGame, mixing: MixingMatrix, alpha):
    """``(J, f0)`` with ``vec F_a(X) = J @ vec(X) + f0`` for a quadratic game,
    ``vec`` the row-major flattening.

    ``J = kron(I - W, I)`` plus ``alpha_i * (Diag(a) + C)[i]`` in row
    ``i*n + i``, columns ``i*n .. i*n + n - 1``; ``f0 = vec Diag(alpha * b)``.
    Built from ``a``, ``C``, ``b``, ``W`` and ``alpha`` directly, not by
    probing :func:`augmented_mapping`.
    """
    n = game.n
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (n,))
    J = np.kron(np.eye(n) - mixing.W, np.eye(n))
    own = np.arange(n)
    J.reshape(n, n, n, n)[own, own, own] += alpha[:, None] * game.jacobian()
    f0 = np.zeros(n * n)
    f0[own * (n + 1)] = alpha * game.b
    return J, f0


def gradient_map(game: Game, mixing: MixingMatrix, alpha, s: float, _project: bool = False):
    """The gradient step ``X -> X - s * F_a(X)``, as a callable
    ``step(x, out)`` on C-ordered flat ``n**2`` rows of estimate matrices: it
    writes the step of ``x`` into ``out`` (not ``x`` itself), leaves ``x`` as
    it is and returns ``out``.

    ``F_a`` is affine for a :class:`QuadraticGame`, so its step is precomputed
    once and equals the formula up to rounding. Up to ``N_AFFINE`` (12)
    players, where a dense product is 1.5x faster or more, it is one product
    with ``I - s J`` plus ``-s f0`` (see :func:`affine_form`). Past it, it is
    the structured form ``P X - Diag(rowsum(K * X) + c)`` with
    ``P X = X - s (I - W) X`` from :meth:`MixingMatrix.consensus_step`,
    ``K = s alpha_i (Diag(a) + C)[i]`` in row ``i`` and ``c = s alpha * b``:
    the consensus step and a correction of the diagonal. The consensus step
    is one product with the precomputed ``I - s (I - W)``, or the
    ``O(|E| n)`` jagged kernel where the mixing's sparsity rule holds (see
    :mod:`grane.network`). The row dot ``rowsum(K * X)`` is
    ``einsum("ij,ij->i", K, X)`` through einsum's C kernel called directly
    (the one ``numpy.einsum`` returns through, so the same bits) into a buffer
    kept by the step, which therefore is not reentrant. At n = 20
    ``numpy.einsum`` took 2.2 us, its C kernel 1.3 of them, and a new array
    for ``+ c`` 0.7 us more, in a step of about 6 us (one BLAS thread of a
    2-core x86-64 guest, numpy 2.4.6). Any other :class:`Game` steps
    through :func:`augmented_mapping`.

    With ``_project`` it is the solvers' projected step
    ``x -> P(x - s * F_a(x))``, chosen when the step is built. The
    projection onto ``Omega_a`` clamps only the diagonal: the affine form
    clips the whole row against bounds that are infinite off the diagonal,
    the others clamp the strided diagonal of ``out``. Both give the bits of
    the step followed by :func:`clamp_diagonal`.
    """
    n = game.n
    lo, hi = game.lo, game.hi
    if isinstance(game, QuadraticGame) and n <= N_AFFINE:
        J, f0 = affine_form(game, mixing, alpha)
        step_matrix, offset = np.eye(n * n) - s * J, -s * f0
        lo, hi = _estimate_bounds(game)

        def step(x, out):
            step_matrix.dot(x, out)
            out += offset
            return out

        def projected(x, out):
            step_matrix.dot(x, out)
            out += offset
            return _clip(out, lo, hi, out=out)

    elif isinstance(game, QuadraticGame):
        scale = s * np.broadcast_to(np.asarray(alpha, dtype=float), (n,))
        consensus_step = mixing.consensus_step(s)
        K, c = scale[:, None] * game.jacobian(), scale * game.b
        correction = np.empty(n)

        # both steps written out: the projected one calling the plain one
        # cost 0.5 us or more of a 4.5 us step at n = 20
        def step(x, out):
            X = x.reshape(n, n)
            consensus_step(X, out.reshape(n, n))
            dot = _c_einsum("ij,ij->i", K, X, out=correction)
            dot += c
            diagonal = out[:: n + 1]
            diagonal -= dot
            return out

        def projected(x, out):
            X = x.reshape(n, n)
            consensus_step(X, out.reshape(n, n))
            dot = _c_einsum("ij,ij->i", K, X, out=correction)
            dot += c
            diagonal = out[:: n + 1]
            diagonal -= dot
            _clip(diagonal, lo, hi, out=diagonal)
            return out

    else:

        def step(x, out):
            F = augmented_mapping(game, mixing, alpha, x.reshape(n, n))
            return np.subtract(x, s * F.reshape(-1), out=out)

        def projected(x, out):
            step(x, out)
            clamp(out[:: n + 1], lo, hi)
            return out

    return projected if _project else step


def _estimate_bounds(game: Game) -> tuple[np.ndarray, np.ndarray]:
    """``Omega_a`` as bounds on the flat ``n**2`` row of an estimate matrix:
    the players' boxes on the diagonal, infinite off it."""
    n = game.n
    lo, hi = np.full(n * n, -np.inf), np.full(n * n, np.inf)
    lo[:: n + 1], hi[:: n + 1] = game.lo, game.hi
    return lo, hi


# ---------------------------------------------------------------------------
# constants of the augmented mapping


def _alpha_vector(alpha, n: int) -> np.ndarray:
    if np.ndim(alpha) > 1 or np.size(alpha) not in (1, n):
        raise ValueError(f"alpha must be a number or a list of {n} numbers, got {alpha!r}")
    vec = np.broadcast_to(_numbers("alpha", alpha), (n,)).copy()
    if not np.all((vec > 0) & (vec < np.inf)):
        raise ValueError(f"alpha entries must be strictly positive and finite, got {alpha!r}")
    return vec


def lipschitz_constant(constants, mixing: MixingMatrix, alpha) -> float:
    """Lipschitz constant of the augmented mapping on ``Omega_a``.

    ``max_i alpha_i*sqrt(L_own_i**2 + L_other_i**2) + sigma_max(I - W)``.
    """
    alpha = np.asarray(alpha, dtype=float)
    return float(np.max(alpha * constants.per_player_lipschitz) + mixing.sigma_max_IW)


def strong_monotonicity_constant(constants, mixing: MixingMatrix, alpha):
    """Strong-monotonicity constant of the augmented mapping, if positive.

    Returns ``min(a1, a2)`` where

        a1 = lambda_min_nz(I - W)
             - 0.5 * max_i alpha_i * (sqrt(mu_F**2 + L_other_i**2) - mu_F)
        a2 = min_i (alpha_i / n) * (mu_F - L_other_i * sqrt(n - 1))

    and ``None`` when either term fails to be positive (or ``mu_F`` is not),
    in which case the restricted path must be used instead.
    """
    mu_F = constants.mu_F
    if mu_F <= 0:
        return None
    n = constants.L_other.size
    alpha = _alpha_vector(alpha, n)
    a1 = mixing.lambda_min_nz_IW - 0.5 * float(
        np.max(alpha * (np.sqrt(mu_F**2 + constants.L_other**2) - mu_F))
    )
    a2 = float(np.min(alpha / n * (mu_F - constants.L_other * np.sqrt(n - 1))))
    if a1 <= 0 or a2 <= 0:
        return None
    return min(a1, a2)


def restricted_constants_at(constants, mixing: MixingMatrix, alpha: float, beta: float):
    """Restricted-monotonicity constant for a given uniform ``alpha`` and ``beta``.

    ``min(b1, b2)`` with

        b1 = min(alpha*(mu_r/n - L_F*(beta**2 + 2*beta)), lambda_min_nz(I-W))
        b2 = lambda_min_nz(I-W) / (1 + 1/beta**2) - alpha*L_F

    where ``L_F = max_i sqrt(L_own_i**2 + L_other_i**2)``. The value may be
    nonpositive for a poor ``(alpha, beta)`` pair.
    """
    n = constants.L_other.size
    L_F = constants.mapping_lipschitz
    lam = mixing.lambda_min_nz_IW
    b1 = min(alpha * (constants.mu_r / n - L_F * (beta**2 + 2 * beta)), lam)
    b2 = lam / (1.0 + 1.0 / beta**2) - alpha * L_F
    return min(b1, b2)


@dataclass
class AugmentedConfig:
    """Per-player scalings and derived constants of the augmented mapping.

    ``mu_Fa`` is ``None`` when the strong-monotonicity conditions fail at
    this scaling, and ``mu_r_Fa`` is ``None`` on the purely strongly
    monotone path.
    """

    alpha: np.ndarray
    L_Fa: float
    mu_Fa: float | None
    mu_r_Fa: float | None
    path: str
    beta: float | None = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if np.any(self.alpha <= 0):
            raise ValueError("alpha entries must be strictly positive")
        if self.gamma < 1.0 - 1e-12:
            raise ValueError("condition number below one")

    @property
    def mu(self) -> float:
        """The monotonicity constant of the selected path."""
        value = self.mu_Fa if self.path == "lemma2" else self.mu_r_Fa
        if value is None:
            raise StrongMonotonicityUnavailableError(
                "no monotonicity constant available for the selected path"
            )
        return value

    @property
    def gamma(self) -> float:
        """The condition number ``L_Fa / mu`` of the selected path."""
        return self.L_Fa / self.mu

    def to_json(self) -> dict:
        return {**asdict(self), "alpha": self.alpha.tolist(), "gamma": self.gamma}


def make_augmented_config(
    game: Game,
    mixing: MixingMatrix,
    alpha=1.0,
    path: str = "lemma2",
    beta: float | None = None,
) -> AugmentedConfig:
    """Assemble the constants of ``F_a`` for a solver run.

    ``path='lemma2'`` uses the strong-monotonicity constant (required by the
    accelerated solver); ``alpha`` must then be a positive scalar or list.
    ``path='lemma3'`` uses the restricted constant
    (:func:`restricted_constants_at`) at a uniform scaling. By default
    ``beta`` is the positive root of ``beta**2 + 2*beta = mu_r / (2*n*L_F)``,
    which collapses the constant's first branch to ``alpha*mu_r/(2n)``, and
    ``alpha='remark4'`` selects ``lambda_min_nz(I-W) / (2*L_F*(1 + 1/beta**2))``
    (Remark 4), which makes the second branch ``alpha*L_F > 0``: the constant
    is then always positive. A custom ``beta > 0`` or uniform numeric
    ``alpha`` is checked against the same formulas instead; the lemma2 path
    has no ``beta`` and refuses one.
    """
    if path not in ("lemma2", "lemma3"):
        raise ValueError(f"path must be 'lemma2' or 'lemma3', got {path!r}")
    if path == "lemma2" and beta is not None:
        raise ValueError("beta only applies to the lemma3 path")
    if isinstance(alpha, str) and (alpha != "remark4" or path != "lemma3"):
        raise ValueError(f"alpha must be numeric, or 'remark4' on the lemma3 path, got {alpha!r}")
    constants, n = game.constants, game.n
    mu_r_Fa = None
    if path == "lemma3":
        given = None if isinstance(alpha, str) else _alpha_vector(alpha, n)
        if given is not None and np.any(given != given[0]):
            raise ValueError("alpha must be uniform on the restricted path")
        if constants.mu_r <= 0:
            raise ValueError("restricted path needs a positive restricted constant mu_r")
        L_F = constants.mapping_lipschitz
        if L_F <= 0:
            raise ValueError("degenerate game: zero Lipschitz constant")
        if beta is None:
            beta = -1.0 + np.sqrt(1.0 + constants.mu_r / (2 * n * L_F))
        elif not beta > 0:
            raise ValueError("beta must be positive")
        remark4 = mixing.lambda_min_nz_IW / (2 * L_F * (1.0 + 1.0 / beta**2))
        alpha = remark4 if given is None else given[0]
        culprit = f"beta={beta}" if given is None else f"alpha={alpha}"
        mu_r_Fa = restricted_constants_at(constants, mixing, alpha, beta)
        if not mu_r_Fa > 0:
            raise ValueError(f"{culprit} makes the restricted constant nonpositive")
    alpha_vec = _alpha_vector(alpha, n)
    L_Fa = lipschitz_constant(constants, mixing, alpha_vec)
    mu_Fa = strong_monotonicity_constant(constants, mixing, alpha_vec)
    if mu_r_Fa is None and mu_Fa is None:
        raise StrongMonotonicityUnavailableError(
            "the augmented mapping is not strongly monotone for this game and "
            "scaling; switch to the lemma3 path"
        )
    return AugmentedConfig(
        alpha=alpha_vec,
        L_Fa=L_Fa,
        mu_Fa=mu_Fa,
        mu_r_Fa=None if mu_r_Fa is None else float(mu_r_Fa),
        path=path,
        beta=None if mu_r_Fa is None else float(beta),
    )


# ---------------------------------------------------------------------------
# condition numbers


@dataclass
class ConditionReport:
    """Condition number of a configuration and the closed-form bound on it.

    ``C = 16*(n-1)*lambda_min_nz(I-W)/mu_F`` scales the recommended uniform
    ``alpha = C/9``. The bound
    ``2*n*L_F/mu_F + (9/8)*lambda_max(I-W)/lambda_min_nz(I-W)`` applies when
    the hypotheses hold: ``max_i L_other_i <= 0.5*mu_F/sqrt(n-1)`` and the
    scaling actually equals ``C/9``; ``bound_holds`` is ``None`` otherwise.
    """

    gamma: float
    C: float
    alpha_recommended: float
    H: float
    hypotheses_hold: bool
    bound: float
    bound_holds: bool | None


def condition_report(cfg: AugmentedConfig, constants, mixing: MixingMatrix) -> ConditionReport:
    """Report the condition number ``gamma`` of ``cfg`` against its bound."""
    mu_F = constants.mu_F
    if mu_F <= 0:
        raise ValueError("condition-number bound needs mu_F > 0")
    gamma = cfg.gamma
    n = constants.L_other.size
    lam_min = mixing.lambda_min_nz_IW
    lam_max = float(np.max(mixing.eigvals_IW))
    C = 16.0 * (n - 1) * lam_min / mu_F
    alpha_rec = C / 9.0
    H = float(constants.L_other.max())
    alpha_is_rec = bool(
        np.all(np.abs(cfg.alpha - alpha_rec) <= 1e-12 * max(1.0, alpha_rec))
    )
    hypotheses = bool(H <= 0.5 * mu_F / np.sqrt(n - 1) and alpha_is_rec)
    bound = 2.0 * n * constants.mapping_lipschitz / mu_F + 9.0 / 8.0 * lam_max / lam_min
    return ConditionReport(
        gamma=gamma,
        C=C,
        alpha_recommended=alpha_rec,
        H=H,
        hypotheses_hold=hypotheses,
        bound=bound,
        bound_holds=bool(gamma <= bound) if hypotheses else None,
    )


# ---------------------------------------------------------------------------
# equilibrium certificate


@dataclass
class EquilibriumCertificate:
    """Outcome of the three equilibrium checks on a candidate matrix."""

    consensus_ok: bool
    vi_ok: bool
    stationarity_ok: bool
    consensus_gap: float
    worst_vi_value: float
    worst_stationarity_value: float

    @property
    def passed(self) -> bool:
        return self.consensus_ok and self.vi_ok and self.stationarity_ok


def ne_certificate(
    game: Game,
    mixing: MixingMatrix,
    alpha,
    X_star,
    samples: int = 1000,
    tol: float = 1e-8,
    seed: int = 0,
    cube: float = 10.0,
) -> EquilibriumCertificate:
    """Certify that ``X_star`` is a Nash-equilibrium matrix.

    Three checks, each within ``tol``: (a) all rows of ``X_star`` agree;
    (b) ``<F_a(X_star), X - X_star> >= 0`` for ``samples`` random feasible
    ``X`` drawn from ``[-cube, cube]^(n x n)`` with clamped diagonals;
    (c) per-player stationarity ``dJ_i(x*) * (x_i - x_i*) >= 0`` at the box
    endpoints, which suffices because the expression is linear in ``x_i``
    (unbounded directions are checked through the gradient sign).
    """
    X_star = np.asarray(X_star, dtype=float)
    if not is_feasible_estimate(game.boxes, X_star):
        raise ValueError("candidate matrix has an infeasible diagonal")

    gap = consensus_gap(X_star)
    consensus_ok = gap <= tol

    Fa_star = augmented_mapping(game, mixing, alpha, X_star)
    rng = np.random.default_rng(seed)
    worst_vi = np.inf
    for _ in range(samples):
        X = clamp_diagonal(rng.uniform(-cube, cube, size=(game.n, game.n)), game.lo, game.hi)
        worst_vi = min(worst_vi, float(np.sum(Fa_star * (X - X_star))))
    vi_ok = worst_vi >= -tol

    x = np.diag(X_star)
    grad = game.mapping(x)
    lo, hi = game.lo, game.hi
    worst_st = np.inf
    for i in range(game.n):
        for endpoint in (lo[i], hi[i]):
            if np.isfinite(endpoint):
                worst_st = min(worst_st, grad[i] * (endpoint - x[i]))
            else:
                # unbounded side: require the gradient not to push that way
                sign = 1.0 if endpoint > 0 else -1.0
                worst_st = min(worst_st, 0.0 if sign * grad[i] >= -tol else -np.inf)
    stationarity_ok = worst_st >= -tol

    return EquilibriumCertificate(
        consensus_ok=bool(consensus_ok),
        vi_ok=bool(vi_ok),
        stationarity_ok=bool(stationarity_ok),
        consensus_gap=gap,
        worst_vi_value=worst_vi,
        worst_stationarity_value=float(worst_st),
    )
