"""GRANE on a 1000-player random tree, mixing over the tree's edges only.

Each GRANE step exchanges estimates between neighbours, so its mixing costs
O(|E| n); a dense (I - W) X costs O(n**3). A MixingMatrix on a large sparse
graph takes the jagged-diagonal form (see grane.network.MixingMatrix), and
every gradient step and residual record goes through it.
"""

import time

import numpy as np

from grane import (
    SolverConfig,
    grane_run,
    make_augmented_config,
    make_quadratic_game,
    mixing_from_laplacian,
    project_estimates,
    random_tree,
)
from grane.augmented import clamp_diagonal, gradient_map

n, steps = 1000, 30
game = make_quadratic_game(n, seed=3)
graph = random_tree(n, seed=4)
mixing = mixing_from_laplacian(graph)
print(f"{n} players, {len(graph.edges)} edges: (I - W) X in the {mixing.form!r} form")

cfg = make_augmented_config(game, mixing, alpha="remark4", path="lemma3")
sc = SolverConfig(alpha="remark4", path="lemma3", step=0.5, max_iters=steps, trace_stride=steps)
X0 = project_estimates(game.boxes, np.random.default_rng(5).uniform(-1.0, 1.0, size=(n, n)))
_, trace = grane_run(game, mixing, cfg, sc, X0=X0)
first, last = trace.records[0], trace.records[-1]
print(f"{steps} GRANE steps of size {sc.step}: consensus gap "
      f"{first['consensus_gap']:.4g} -> {last['consensus_gap']:.4g}, "
      f"vi residual {first['vi_residual']:.4g} -> {last['vi_residual']:.4g}")

# the same steps again, timed without the residual records: the step maps
# the flat n**2 row of one buffer into the other, and the two take turns
step = gradient_map(game, mixing, cfg.alpha, sc.step)
x, out = X0.ravel().copy(), np.empty(n * n)
start = time.perf_counter()
for _ in range(steps):
    clamp_diagonal(step(x, out).reshape(n, n), game.lo, game.hi)
    x, out = out, x
per_step = (time.perf_counter() - start) / steps
X = x.reshape(n, n)
print(f"{per_step * 1e6:.0f} us per GRANE step")

start = time.perf_counter()
dense = X - mixing.W @ X
print(f"one dense (I - W) X for comparison: {(time.perf_counter() - start) * 1e6:.0f} us, "
      f"largest difference from the jagged form {np.abs(dense - mixing.disagreement(X)).max():.2g}")
