"""Spans around the public functions of grane's five modules.

The tracer replaces each traced function wherever a grane module's
namespace binds it, so it sees exactly the calls that ``run_experiment``
and the solvers make through those names; the two ``QuadraticGame``
methods are replaced on the class. Spans are kept in memory and written
out after the run. A span's self time is its duration minus the durations
of the spans it called; all times come from the speed sampler's program
clock, which leaves out the reference kernel.
"""

from __future__ import annotations

import functools
import tracemalloc
from collections import defaultdict

# layer -> traced attributes; a dotted attribute is a method on a class
LAYERS = {
    "games": ("project_box", "QuadraticGame.local_gradients", "QuadraticGame.mapping"),
    "network": ("mixing_from_laplacian",),
    "augmented": ("make_augmented_config", "augmented_mapping", "project_estimates", "consensus_gap"),
    "solvers": ("residual_metrics", "grane_run", "acc_grane_run", "centralized_gradient_play"),
    "experiment": ("run_experiment",),
}

# tracemalloc runs only inside these calls: the peak size of the arrays
# they allocate is reported as bytes computed
MEMORY_TRACED = {"augmented.consensus_gap"}


def span_name(layer, attr):
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Records a span for each call of the functions named by ``layers``
    between :meth:`install` and ``uninstall``."""

    def __init__(self, grane, clock):
        self.grane = grane
        self.clock = clock
        self.spans = []  # [name, parent index, start, end, bytes]
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        measure = name in MEMORY_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            if measure:
                tracemalloc.start()
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                if measure:
                    span[4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()

        return wrapper

    def install(self):
        self.uninstall = patch(self.grane, LAYERS, self._wrap)

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def patch(grane, layers, wrap):
    """Replace each function named by ``layers`` with ``wrap(span_name, fn)``
    wherever a grane module binds it; returns a function that undoes it.

    A name the program no longer defines is skipped.
    """
    modules = [grane] + [getattr(grane, layer) for layer in LAYERS]
    restore = []

    def put(owner, key, value):
        restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    for layer, attrs in layers.items():
        module = getattr(grane, layer)
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                original = vars(getattr(module, cls_name, object)).get(meth)
                if original is not None:
                    put(getattr(module, cls_name), meth, wrap(span_name(layer, attr), original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = wrap(span_name(layer, attr), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        put(mod, key, wrapper)

    def undo():
        while restore:
            owner, key, value = restore.pop()
            setattr(owner, key, value)

    return undo


def aggregate(spans):
    """Per span name: calls, total seconds, self seconds and bytes computed."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0})
    for idx, (name, _, start, end, nbytes) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child[idx]
        agg["bytes"] += nbytes
    return dict(out)


def write_spans(path, rounds):
    """One CSV line per span: round, index, parent index, name, start, end, bytes."""
    with open(path, "w") as fh:
        fh.write("round,index,parent,name,start,end,bytes\n")
        for r, spans in enumerate(rounds):
            for idx, (name, parent, start, end, nbytes) in enumerate(spans):
                fh.write(f"{r},{idx},{parent},{name},{start:.9f},{end:.9f},{nbytes}\n")
