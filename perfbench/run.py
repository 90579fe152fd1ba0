"""grane benchmark: one workload per process, every metric by name and unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-sec5 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
progress and check results go to standard error, and each run leaves its
outputs, spans and a detailed result under ``.bench_out/<workload>/``.
See ``perfbench/README.md`` for the workloads and the timing method.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (stdlib only, so it stays out of setup_s)

# one BLAS/OpenMP thread: the guest has two cores and the timing kernel
# shares the program's
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
MICRO_SIZES = (2, 20, 100, 300)
# the solver loops whose time iters_per_s divides by
SOLVER_LOOPS = {"solvers": ("grane_run", "acc_grane_run")}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def read_outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class Runner:
    """Runs one workload's config through ``run_experiment`` in timed rounds."""

    def __init__(self, grane, sampler, config_path, out_dir):
        self.grane = grane
        self.sampler = sampler
        self.config_path = config_path
        self.out_dir = out_dir
        self.rounds = []  # one dict per successful round
        self.first_outputs = None
        self.attempted = 0
        self.failed = 0
        self.identical = True

    def _timed(self, name, fn):
        sampler, calls = self.sampler, self._solver_calls

        def wrapper(*args, **kwargs):
            m0 = sampler.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                m1 = sampler.mark()
                calls.append(sampler.normalize(m1.clock - m0.clock, m0, m1))

        return wrapper

    def round(self, tracer=None):
        """One timed ``run_experiment`` call, traced if ``tracer`` is given;
        returns whether it succeeded."""
        sampler = self.sampler
        self._solver_calls = []
        undo = tracing.patch(self.grane, SOLVER_LOOPS, self._timed)
        if tracer is not None:
            tracer.install()
        self.attempted += 1
        m0 = sampler.mark()
        try:
            summary = self.grane.experiment.run_experiment(self.config_path, self.out_dir)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"run_experiment failed: {exc!r}", file=sys.stderr)
            return False
        finally:
            m1 = sampler.mark()
            if tracer is not None:
                tracer.uninstall()
            undo()
        outputs = read_outputs(self.out_dir)
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            self.identical = False
        iterations = sum(entry["iterations_run"] for entry in summary["solvers"].values())
        self.rounds.append(
            {
                "run_s": sampler.normalize(m1.clock - m0.clock, m0, m1),
                "raw_run_s": m1.clock - m0.clock,
                "iters_per_s": iterations / sum(self._solver_calls),
                "kernel_s": sampler.kernel_mean(m0, m1),
                "kernel_parts_s": sampler.part_means(m0, m1),
                "summary": summary,
                "outputs": outputs,
                "marks": (m0, m1),
            }
        )
        return True


def micro_timings(grane, workloads, sampler, seed):
    """Microseconds per call of six layer functions at n in MICRO_SIZES."""
    import numpy as np

    out = {}
    for n in MICRO_SIZES:
        a, b, C, lo, hi = workloads.draw_quadratic(n, seed * 1000 + n, **workloads.RANGES)
        game = grane.QuadraticGame(a, b, C, [grane.BoxSet(l, h) for l, h in zip(lo, hi)])
        graph = grane.Graph(n, workloads.tree_edges(n, seed * 1000 + n + 1))
        mixing = grane.mixing_from_laplacian(graph)
        cfg = grane.make_augmented_config(game, mixing, alpha="remark4", path="lemma3")
        X = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(n, n))
        X_ref = grane.consensual_matrix(np.clip(np.zeros(n), lo, hi))
        calls = {
            "augmented.augmented_mapping": lambda: grane.augmented.augmented_mapping(game, mixing, cfg.alpha, X),
            "augmented.project_estimates": lambda: grane.augmented.project_estimates(game.boxes, X),
            "solvers.residual_metrics": lambda: grane.solvers.residual_metrics(
                X, X_ref, X_ref, game, mixing, cfg.alpha
            ),
            "augmented.consensus_gap": lambda: grane.augmented.consensus_gap(X),
            "network.mixing_from_laplacian": lambda: grane.network.mixing_from_laplacian(graph),
            "augmented.make_augmented_config": lambda: grane.augmented.make_augmented_config(
                game, mixing, alpha="remark4", path="lemma3"
            ),
        }
        for name, call in calls.items():
            call()
            m0 = sampler.mark()
            call()
            once = max(sampler.clock() - m0.clock, 1e-7)
            batch = max(1, int(0.01 / once))
            per_call = []
            for _ in range(5):
                m0 = sampler.mark()
                for _ in range(batch):
                    call()
                m1 = sampler.mark()
                per_call.append(sampler.normalize((m1.clock - m0.clock) / batch, m0, m1))
            out[f"{name}.us.n{n}"] = statistics.median(per_call) * 1e6
    return out


def layer_metrics(per_round):
    """Median over traced rounds of each span aggregate, by metric name."""
    keys = {
        "games.local_gradients": ("calls", "self_s"),
        "games.project_box": ("calls", "self_s"),
        "games.mapping": ("calls", "self_s"),
        "network.mixing_from_laplacian": ("s",),
        "augmented.make_augmented_config": ("s",),
        "augmented.augmented_mapping": ("calls", "self_s"),
        "augmented.project_estimates": ("calls", "self_s"),
        "augmented.consensus_gap": ("calls", "self_s", "bytes_computed"),
        "solvers.residual_metrics": ("calls", "self_s"),
        "solvers.grane_run": ("self_s",),
        "solvers.acc_grane_run": ("self_s",),
        "solvers.centralized_gradient_play": ("s",),
        "experiment.run_experiment": ("self_s",),
    }
    field = {"calls": "calls", "self_s": "self_s", "s": "total_s", "bytes_computed": "bytes"}
    out = {}
    for name, metrics in keys.items():
        for metric in metrics:
            values = [agg.get(name, {}).get(field[metric], 0) for agg in per_round]
            out[f"{name}.{metric}"] = statistics.median_low(values) if metric == "calls" else statistics.median(values)
    return out


UNITS = {"calls": "count", "self_s": "s", "s": "s", "bytes_computed": "B"}


def end_to_end_metrics(rounds, setup_s):
    residuals = [e["final_normalized_residual"] for e in rounds[0]["summary"]["solvers"].values()]
    return {
        "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
        "setup_s": (setup_s, "s"),
        "iters_per_s": (statistics.median(r["iters_per_s"] for r in rounds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_residual": (math.exp(statistics.fmean(map(math.log, residuals))), "ratio"),
    }


def per_layer_metrics(sampler, untraced, traced, traced_aggs, micro):
    per_round = []
    for r, agg in zip(traced, traced_aggs):
        scale = sampler.normalize(1.0, *r["marks"])
        for entry in agg.values():
            entry["self_s"] *= scale
            entry["total_s"] *= scale
        per_round.append(agg)
    metrics = {key: (value, UNITS[key.rsplit(".", 1)[-1]]) for key, value in layer_metrics(per_round).items()}
    metrics["experiment.output_bytes"] = (sum(len(v) for v in untraced[0]["outputs"].values()), "B")
    run_untraced = statistics.median(r["run_s"] for r in untraced)
    run_traced = statistics.median(r["run_s"] for r in traced)
    metrics["trace.run_s"] = (run_traced, "s")
    metrics["trace.untraced_run_s"] = (run_untraced, "s")
    metrics["trace.overhead"] = (run_traced / run_untraced - 1.0, "ratio")
    metrics.update((key, (value, "us")) for key, value in micro.items())
    return metrics


def main():
    args = parse_args()
    if not (ROOT / "src" / "grane" / "__init__.py").is_file():
        print(f"no grane sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import grane

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = OUT_ROOT / args.workload
    if out_dir.exists():
        shutil.rmtree(out_dir)
    (out_dir / "run").mkdir(parents=True)

    # input generation is the benchmark's work and stays out of setup_s
    t_gen = time.perf_counter()
    config = workloads.WORKLOADS[args.workload](grane, args.seed)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config))
    gen_s = time.perf_counter() - t_gen

    grane.constants_report(config_path)
    setup_s = time.perf_counter() - T_START - gen_s

    import checks
    from speed import SpeedSampler

    sampler = SpeedSampler(workloads.NORMALIZE_BY[args.workload])
    runner = Runner(grane, sampler, config_path, out_dir / "run")
    deadline = time.perf_counter() + args.seconds
    traced, traced_aggs, kept_spans, micro = [], [], [], {}
    sampler.start()
    try:
        # a traced run spends half its time untraced, then traced rounds
        # (at least one) and the per-call timings
        untraced_until = deadline - args.seconds / 2 if args.trace else deadline
        runner.round()
        while time.perf_counter() < untraced_until:
            runner.round()
        untraced = list(runner.rounds)
        if args.trace:
            tracer = tracing.Tracer(grane, sampler.clock)
            while True:
                ok = runner.round(tracer)
                spans = tracer.take()
                if ok:
                    traced.append(runner.rounds[-1])
                    traced_aggs.append(tracing.aggregate(spans))
                    if len(kept_spans) < 3:
                        kept_spans.append(spans)
                if time.perf_counter() >= deadline:
                    break
            micro = micro_timings(grane, workloads, sampler, args.seed)
    finally:
        sampler.stop()

    results = []
    if untraced:
        problem = workloads.Problem(config)
        results = checks.run_checks(config, problem, runner.first_outputs)
        results.append(("rounds_identical", runner.identical, f"{len(runner.rounds)} rounds"))
        if args.trace:
            results.append(checks.check_identical(
                "traced_outputs_identical", traced[-1]["outputs"] if traced else {}, runner.first_outputs
            ))
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)
    correct = bool(results) and all(ok for _, ok, _ in results)

    metrics = {}
    if untraced and not args.trace:
        # set-up ran just before the first round, in the same speed phase
        metrics = end_to_end_metrics(untraced, sampler.normalize(setup_s, *untraced[0]["marks"]))
    elif untraced and traced:
        metrics = per_layer_metrics(sampler, untraced, traced, traced_aggs, micro)
        tracing.write_spans(out_dir / "spans.csv", kept_spans)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "raw_setup_s": setup_s,
        "rounds": [{k: r[k] for k in ("run_s", "raw_run_s", "iters_per_s", "kernel_s", "kernel_parts_s")} for r in runner.rounds],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (out_dir / "result.json").write_text(json.dumps(details, indent=1))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
