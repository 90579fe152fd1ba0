"""The augmented mapping: how partial information enters the solvers.

Each player keeps a full estimate of everyone's action; stacking the
estimates row-wise gives an n x n matrix whose diagonal holds the actual
actions. The augmented mapping adds a disagreement penalty (I - W)X to the
scaled local gradients, and its variational inequality on the feasible set
characterizes Nash equilibria: the solution matrix is consensual with the
equilibrium in every row.
"""

import numpy as np

from grane import (
    BoxSet,
    QuadraticGame,
    augmented_mapping,
    condition_report,
    consensual_matrix,
    lipschitz_constant,
    make_augmented_config,
    mixing_from_laplacian,
    ne_certificate,
    path_graph,
    strong_monotonicity_constant,
)

game = QuadraticGame([2.0, 2.0], [-2.0, 0.0], [[0.0, 1.0], [-1.0, 0.0]],
                     [BoxSet(-10, 10), BoxSet(-10, 10)])
mixing = mixing_from_laplacian(path_graph(2))

x_star = np.linalg.solve(game.jacobian(), -game.b)
X_star = consensual_matrix(x_star)

print("augmented mapping at a disagreeing state:")
print(augmented_mapping(game, mixing, 1.0, np.eye(2)))
print("at the equilibrium matrix it vanishes:")
print(augmented_mapping(game, mixing, 1.0, X_star))

# Constants of the mapping, from the game and network constants alone.
L = lipschitz_constant(game.constants, mixing, np.ones(2))
mu = strong_monotonicity_constant(game.constants, mixing, np.ones(2))
print(f"\nLipschitz constant L_Fa = {L:.6f}   (= sqrt(5) + 1)")
print(f"strong-monotonicity constant mu_Fa = {mu}")

cfg = make_augmented_config(game, mixing, alpha=1.0, path="lemma2")
rep = condition_report(cfg, game.constants, mixing)
print(f"condition number gamma = {cfg.gamma:.4f}")
print(f"recommended uniform scaling alpha = C/9 = {rep.alpha_recommended:.4f}")

# With strong coupling the two-branch constant disappears; the restricted
# path still produces a positive constant by choosing alpha itself.
strong = QuadraticGame([2.0, 2.0], [-2.0, 0.0], [[0.0, 3.0], [-3.0, 0.0]],
                       [BoxSet(-10, 10), BoxSet(-10, 10)])
print("\nstrongly coupled game:",
      strong_monotonicity_constant(strong.constants, mixing, 1.0))
rc = make_augmented_config(strong, mixing, alpha="remark4", path="lemma3")
print(f"restricted path: alpha = {rc.alpha[0]:.3e}, mu_r_Fa = {rc.mu_r_Fa:.3e}")

# The certificate checks consensus, the variational inequality on random
# feasible matrices, and per-player stationarity at the box ends.
cert = ne_certificate(game, mixing, 1.0, X_star, samples=500, tol=1e-8)
print("\nequilibrium certificate passes:", cert.passed)
cert = ne_certificate(game, mixing, 1.0, np.zeros((2, 2)), samples=500, tol=1e-8)
print("the origin is correctly rejected:", not cert.passed,
      "(stationarity check fails)")
