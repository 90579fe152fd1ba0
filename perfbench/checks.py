"""Correctness checks on the files one ``run_experiment`` call writes.

Every check works from the benchmark's own copy of the game and mixing
matrix (see ``workloads.Problem``) and from properties the method must
have; none of them calls into grane. Each returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import json
import math

import numpy as np

EPS = np.finfo(float).eps

# relative tolerance for the benchmark's own GRANE against the program's:
# both apply the same contraction, so they differ only by summation order,
# which stays near 1e-13 relative over the workloads' iteration counts
OWN_GRANE_RTOL = 1e-8

# the augmented Jacobian is built densely, (n*n) x (n*n), only up to this n
JACOBIAN_MAX_N = 20


def parse_trace(data: bytes):
    """Trace CSV rows as a ``(k, fro_residual, ...)`` float array."""
    lines = data.decode().strip().split("\n")
    if lines[0] != "k,fro_residual,relative_error,consensus_gap,vi_residual":
        raise ValueError(f"unexpected trace header {lines[0]!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _summary(outputs):
    return json.loads(outputs["summary.json"])


def reference_error_bounds(config, problem, summary):
    """Fixed-point residual allowed by the reference's stopping rule, and
    the distance to the true equilibrium it implies.

    The reference stops once a projected step of size ``s`` moves the
    iterate by at most ``tol``. For the previous iterate that bounds the
    unit-step residual ``r(y) = |y - P(y - F(y))|`` by ``tol * max(1, 1/s)``;
    ``r`` is ``(2 + L)``-Lipschitz, which carries the bound to the returned
    point. Strong monotonicity with modulus ``mu`` then gives
    ``|x - x*| <= (1 + L) / mu * r(x)``.
    """
    ref = config.get("reference", {})
    tol = float(ref.get("tol", 1e-12))
    sym_min = float(np.linalg.eigvalsh(0.5 * (problem.M + problem.M.T)).min())
    mu = max(0.0, sym_min)
    L = float(np.linalg.norm(problem.M, 2))
    step = ref.get("step", "auto")
    if step == "auto":
        L_F = float(np.max(np.sqrt(problem.a**2 + (problem.C**2).sum(axis=1))))
        step = mu / (problem.n * L_F**2)
    x = np.asarray(summary["reference"]["nash_equilibrium"], dtype=float)
    rounding = 100 * EPS * math.sqrt(problem.n) * (1.0 + np.abs(x).max() + np.abs(problem.mapping(x)).max())
    fp_bound = tol * (max(1.0, 1.0 / float(step)) + 2.0 + L) + rounding
    return fp_bound, (1.0 + L) / mu * fp_bound, mu


def check_reference(config, problem, outputs):
    """The reference satisfies the projected fixed-point condition within the
    bound of its stopping rule, and matches the linear solve when interior."""
    summary = _summary(outputs)
    x = np.asarray(summary["reference"]["nash_equilibrium"], dtype=float)
    fp_bound, dist_bound, mu = reference_error_bounds(config, problem, summary)
    if mu <= 0:
        return "reference_fixed_point", False, "game mapping not strongly monotone"
    residual = float(np.linalg.norm(x - np.clip(x - problem.mapping(x), problem.lo, problem.hi)))
    ok = bool(np.isfinite(residual)) and residual <= fp_bound
    detail = f"residual {residual:.3g} <= {fp_bound:.3g}"
    if np.all(x > problem.lo + dist_bound) and np.all(x < problem.hi - dist_bound):
        gap = float(np.linalg.norm(x - np.linalg.solve(problem.M, -problem.b)))
        ok = ok and gap <= dist_bound
        detail += f"; interior, |x - solve| {gap:.3g} <= {dist_bound:.3g}"
    return "reference_fixed_point", ok, detail


def augmented_jacobian(problem, alpha):
    """Exact Jacobian of ``F_a`` acting on row-major ``vec(X)``."""
    n = problem.n
    J = np.kron(np.eye(n) - problem.W, np.eye(n))
    for i in range(n):
        J[i * n + i, i * n:(i + 1) * n] += alpha[i] * problem.M[i]
    return J


def _grane_solvers(config):
    return [s["name"] for s in config["solvers"] if s.get("algorithm") == "grane"]


def check_contraction(config, problem, outputs):
    """Each GRANE trace contracts between records by at least ``|I - sJ|_2``
    per step, up to the reference's own distance to the equilibrium."""
    summary = _summary(outputs)
    _, dist_bound, _ = reference_error_bounds(config, problem, summary)
    x_ref = np.asarray(summary["reference"]["nash_equilibrium"], dtype=float)
    eps_ref = math.sqrt(problem.n) * dist_bound
    ref_norm = math.sqrt(problem.n) * float(np.linalg.norm(x_ref))
    worst = -np.inf
    for name in _grane_solvers(config):
        entry = summary["solvers"][name]
        step = float(entry["step"])
        J = augmented_jacobian(problem, np.asarray(entry["alpha"], dtype=float))
        rho = float(np.linalg.norm(np.eye(J.shape[0]) - step * J, 2))
        rows = parse_trace(outputs[f"trace_{name}.csv"])
        k, fro = rows[:, 0], rows[:, 1]
        if not (np.all(np.diff(k) > 0) and k[-1] == entry["iterations_run"]):
            return "grane_contraction", False, f"{name}: bad record indices"
        for k1, r1, k2, r2 in zip(k[:-1], fro[:-1], k[1:], fro[1:]):
            steps = k2 - k1
            # rounding: rho**steps to ~steps ulps, and each computed step
            # off by at most ~(n + 2) ulps of the iterate's norm
            factor = rho**steps * (1.0 + 16 * steps * EPS)
            rounding = steps * 4 * (problem.n + 2) * EPS * (ref_norm + r1)
            bound = factor * (r1 + eps_ref) + eps_ref + rounding
            if not r2 <= bound:
                return "grane_contraction", False, f"{name}: k={k2:.0f} {r2:.17g} > {bound:.17g}"
            worst = max(worst, r2 / bound if bound > 0 else 0.0)
    return "grane_contraction", True, f"largest record / bound 1 - {1.0 - worst:.3g}"


def check_lipschitz(config, problem, outputs):
    """The closed-form ``L_Fa`` of every solver is at least ``sigma_max(J)``."""
    summary = _summary(outputs)
    for name, entry in summary["solvers"].items():
        sigma = float(np.linalg.norm(augmented_jacobian(problem, np.asarray(entry["alpha"])), 2))
        L_Fa = entry["constants"]["L_Fa"]
        if not L_Fa >= sigma * (1.0 - 1e-12):
            return "lipschitz_upper_bound", False, f"{name}: L_Fa {L_Fa:.6g} < sigma_max {sigma:.6g}"
    return "lipschitz_upper_bound", True, "closed-form L_Fa >= exact sigma_max(J) for every solver"


def check_acceleration(config, problem, outputs):
    """Acc-GRANE ends closer to the equilibrium than small-alpha GRANE."""
    solvers = _summary(outputs)["solvers"]
    acc = solvers["acc-grane"]["final_normalized_residual"]
    plain = solvers["grane-small-alpha"]["final_normalized_residual"]
    return "acceleration_wins", bool(acc < plain), f"acc-grane {acc:.6g} < grane-small-alpha {plain:.6g}"


def own_grane(problem, alpha, step, iters, x_ref):
    """GRANE written out in the benchmark's numpy; returns the final residuals."""
    n = problem.n
    idx = np.arange(n)

    def F_a(X):
        out = X - problem.W @ X
        out[idx, idx] += alpha * (problem.a * X[idx, idx] + problem.b + (problem.C * X).sum(axis=1))
        return out

    def project(X):
        X[idx, idx] = np.clip(X[idx, idx], problem.lo, problem.hi)
        return X

    X = project(np.zeros((n, n)))
    for _ in range(iters):
        X = project(X - step * F_a(X))
    gap = max(float(np.sqrt(((X - X[i]) ** 2).sum(axis=1)).max()) for i in range(n))
    return {
        "fro_residual": float(np.linalg.norm(X - x_ref[None, :])),
        "consensus_gap": gap,
        "vi_residual": float(np.linalg.norm(X - project(X - F_a(X)))),
    }


def check_own_grane(config, problem, outputs):
    """The benchmark's own GRANE reproduces every GRANE run's final record."""
    summary = _summary(outputs)
    x_ref = np.asarray(summary["reference"]["nash_equilibrium"], dtype=float)
    worst = 0.0
    for name in _grane_solvers(config):
        entry = summary["solvers"][name]
        mine = own_grane(problem, np.asarray(entry["alpha"], dtype=float), float(entry["step"]),
                         int(entry["iterations_run"]), x_ref)
        for key, value in mine.items():
            theirs = entry["final"][key]
            err = abs(theirs - value)
            if not err <= OWN_GRANE_RTOL * abs(value) + 1e-300:
                return "own_grane", False, f"{name}.{key}: {theirs!r} vs own {value!r}"
            worst = max(worst, err / abs(value) if value else 0.0)
    return "own_grane", True, f"largest relative difference {worst:.3g} <= {OWN_GRANE_RTOL:g}"


def check_finite(config, problem, outputs):
    """Every number in the summary's final records is finite."""
    summary = _summary(outputs)
    values = list(summary["reference"]["nash_equilibrium"])
    for entry in summary["solvers"].values():
        values += list(entry["final"].values()) + [entry["final_normalized_residual"]]
    ok = all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    return "finite_results", ok, f"{len(values)} values"


def check_identical(name, outputs, other):
    """Two runs of the same config wrote the same files, byte for byte."""
    same = outputs == other
    differ = sorted(k for k in set(outputs) | set(other) if outputs.get(k) != other.get(k))
    return name, same, "byte-identical" if same else f"differ: {differ}"


def run_checks(config, problem, outputs):
    checks = [check_finite, check_reference, check_own_grane]
    if problem.n <= JACOBIAN_MAX_N:
        checks += [check_contraction, check_lipschitz]
    names = {s["name"] for s in config["solvers"]}
    if {"acc-grane", "grane-small-alpha"} <= names:
        checks.append(check_acceleration)
    return [(name, bool(ok), detail) for name, ok, detail in (c(config, problem, outputs) for c in checks)]
