"""Self-test of the benchmark's correctness checks.

Runs each workload once at a reduced size, confirms that every check
passes on the real outputs, then feeds each check a deliberately corrupted
copy and confirms that it fails. Prints one line per case and exits 1 if
any check misses its corruption. Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import grane  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".bench_out" / "selftest"


def small_configs():
    n2 = workloads.restricted_n2(grane, 0)
    n2["solvers"][0]["max_iters"] = 4000
    return {
        "restricted-n2": n2,
        "paper-sec5": workloads.paper_sec5(grane, 0),
        "records-n300": workloads.records_n300(grane, 0, n=40, iters=30),
    }


def produce(name, config):
    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.json"
    path.write_text(json.dumps(config))
    grane.run_experiment(path, out / "run")
    return {p.name: p.read_bytes() for p in sorted((out / "run").iterdir())}


def with_summary(outputs, edit):
    summary = json.loads(outputs["summary.json"])
    edit(summary)
    return {**outputs, "summary.json": json.dumps(summary).encode()}


def move_reference(summary):
    summary["reference"]["nash_equilibrium"][0] += 1e-6


def alter_trace_row(outputs, solver):
    """Raise one mid-run record's distance to the reference by 1%."""
    key = f"trace_{solver}.csv"
    lines = outputs[key].decode().split("\n")
    row = lines[len(lines) // 2].split(",")
    row[1] = repr(float(row[1]) * 1.01)
    lines[len(lines) // 2] = ",".join(row)
    return {**outputs, key: "\n".join(lines).encode()}


def swap_residuals(summary):
    solvers = summary["solvers"]
    a, b = solvers["acc-grane"], solvers["grane-small-alpha"]
    a["final_normalized_residual"], b["final_normalized_residual"] = (
        b["final_normalized_residual"],
        a["final_normalized_residual"],
    )


def lower_lipschitz(problem):
    def edit(summary):
        entry = next(iter(summary["solvers"].values()))
        J = checks.augmented_jacobian(problem, np.asarray(entry["alpha"]))
        entry["constants"]["L_Fa"] = float(np.linalg.norm(J, 2)) * (1 - 1e-6)

    return edit


def perturb_final(solver, key):
    def edit(summary):
        summary["solvers"][solver]["final"][key] *= 1 + 1e-6

    return edit


def nan_final(summary):
    next(iter(summary["solvers"].values()))["final"]["vi_residual"] = float("nan")


def flip_byte(outputs):
    key = sorted(outputs)[0]
    data = bytearray(outputs[key])
    data[-2] ^= 1
    return {**outputs, key: bytes(data)}


def main():
    failures = 0

    def report(ok, text):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {text}")

    for name, config in small_configs().items():
        outputs = produce(name, config)
        problem = workloads.Problem(config)
        clean = checks.run_checks(config, problem, outputs)
        for check, ok, detail in clean:
            report(ok, f"{name}: {check} accepts the real outputs ({detail})")

        cases = [
            ("reference_fixed_point", "a reference moved by 1e-6", with_summary(outputs, move_reference)),
            ("finite_results", "a NaN final residual", with_summary(outputs, nan_final)),
        ]
        solver = config["solvers"][0]["name"]  # a GRANE run in every workload
        cases += [
            ("own_grane", f"final {key} off by 1e-6", with_summary(outputs, perturb_final(solver, key)))
            for key in ("fro_residual", "consensus_gap", "vi_residual")
        ]
        if problem.n <= checks.JACOBIAN_MAX_N:
            cases.append(("grane_contraction", "an altered trace row", alter_trace_row(outputs, solver)))
            cases.append(("lipschitz_upper_bound", "L_Fa below sigma_max(J)",
                          with_summary(outputs, lower_lipschitz(problem))))
        if name == "paper-sec5":
            cases.append(("acceleration_wins", "swapped solver residuals", with_summary(outputs, swap_residuals)))
        for check, what, corrupted in cases:
            results = {c: ok for c, ok, _ in checks.run_checks(config, problem, corrupted)}
            report(results[check] is False, f"{name}: {check} rejects {what}")
        _, ok, _ = checks.check_identical("traced_outputs_identical", flip_byte(outputs), outputs)
        report(not ok, f"{name}: traced_outputs_identical rejects one flipped byte")

    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
