"""Spans and counters recorded around the public calls into each layer.

``traced(tracer)`` wraps the listed faultlab functions at every module
that binds them (the runner imports names with ``from ... import``, so
patching only the defining module would miss most calls) and restores
the originals on exit. Spans are kept in memory; ``Tracer.layer_totals``
turns them into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields its counts dict for the caller to fill."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(idx)
        try:
            yield self.spans[idx].counts
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def caller_counts(self) -> dict:
        """Counts of the innermost open span, i.e. of the current caller."""
        return self.spans[self._stack[-1]].counts if self._stack else {}

    def subtree(self, root: int) -> list[int]:
        """Indices of the spans under ``root``, the root included."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
        return sorted(inside)

    def layer_totals(self, root: int) -> dict:
        """Per-name inclusive time, self time, calls and counts under ``root``.

        Inclusive time skips spans nested in a span of the same name, so a
        recursive call is not counted twice. Self time is a span's duration
        minus the durations of its direct children, which never overlap.
        """
        idxs = self.subtree(root)
        child_time = dict.fromkeys(idxs, 0.0)
        for i in idxs[1:]:
            s = self.spans[i]
            child_time[s.parent] += s.end - s.start
        totals: dict = {}
        for i in idxs:
            s = self.spans[i]
            t = totals.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            if not self._nested_in_same_name(i, root):
                t["s"] += s.end - s.start
            t["self_s"] += s.end - s.start - child_time[i]
            t["calls"] += 1
            for key, value in s.counts.items():
                t[key] = t.get(key, 0) + value
        return totals

    def _nested_in_same_name(self, i: int, root: int) -> bool:
        name = self.spans[i].name
        while i != root:
            i = self.spans[i].parent
            if self.spans[i].name == name:
                return True
        return False


# --- what each wrapper counts ------------------------------------------------
#
# A counter hook gets (span counts, bound arguments, result) and returns the
# result to hand back to the caller, which lets it wrap returned callables.


def _count_sample_epochs(counts, args, result):
    counts["samples"] = len(args["train"]) * args["epochs"]
    return result


def _count_synth(counts, args, result):
    counts["samples"] = len(result)
    return result


def _count_quant_forward(counts, args, result):
    n = args["x"].shape[0]
    counts["samples"] = n
    if args.get("matmul_fn") is None:
        # fault-free int8/bf16 engine; faulty matmuls count their own MACs
        counts["macs"] = n * sum(int(w.size) for w in args["model"].weights)
    return result


def _count_run_array(counts, args, result):
    n = len(args["dataset"])
    if args.get("eval_samples") is not None:
        n = min(n, args["eval_samples"])
    counts["samples"] = n
    state = args["state"]
    counts["faulty_pes"] = len(state.faults)  # labels the baseline table's rows
    counts["deactivated"] = int(state.active.size - state.active.sum())
    return result


def _count_faulty_pes(counts, args, result):
    counts["faulty_pes"] = len(result)
    return result


def _count_disabled(counts, args, result):
    counts["pes_disabled"] = int(args["state"].active.sum()) - int(result.sum())
    return result


def _count_flips(counts, args, result):
    counts["flips"] = len(result[1])
    return result


def _count_clusters(counts, args, result):
    counts["clusters"] = len(result)
    return result


def _count_bytes(counts, args, result):
    counts["bytes"] = Path(args["path"]).stat().st_size
    return result


def _hosted_faulty_weights(state, shapes) -> list[int]:
    """Weights hosted by active faulty PEs, per weight matrix."""
    pes = np.array([pe for pe in state.faults if state.active[pe]], dtype=np.int64)
    if not len(pes):
        return [0] * len(shapes)
    n_row, n_col = state.config.n_row, state.config.n_col
    out = []
    for fan_in, fan_out in shapes:
        rows = np.maximum(0, (fan_in - pes[:, 0] + n_row - 1) // n_row)
        cols = np.maximum(0, (fan_out - pes[:, 1] + n_col - 1) // n_col)
        out.append(int((rows * cols).sum()))
    return out


def _matmul_hook(tracer):
    def hook(counts, args, matmul):
        shapes = [tuple(s) for s in args["weight_shapes"]]
        hosted = _hosted_faulty_weights(args["state"], shapes)

        @functools.wraps(matmul)
        def traced_matmul(idx, aq, wq):
            with tracer.span(f"macfault.array.faulty_matmul.L{idx}") as c:
                acc = matmul(idx, aq, wq)
            rows = aq.shape[0]
            c["products"] = rows * int(wq.size)
            c["corrupted_products"] = rows * hosted[idx]
            return acc
        return traced_matmul
    return hook


def _fitness_hook(tracer):
    def hook(counts, args, fitness):
        @functools.wraps(fitness)
        def traced_fitness(assignment):
            caller = tracer.caller_counts()
            caller["fitness_evals"] = caller.get("fitness_evals", 0) + 1
            with tracer.span("neurorel.mapping.fitness"):
                return fitness(assignment)
        return traced_fitness
    return hook


# (defining module, function, metric name, counter hook or hook factory)
TARGETS = [
    ("faultlab.cli.config", "validate", "cli.config.validate", None),
    ("faultlab.cli.runner", "run", "cli.runner.run", None),
    ("faultlab.netcore.data", "synthetic_blobs", "netcore.data.synthetic_blobs",
     _count_synth),
    ("faultlab.netcore.checkpoint", "load_model", "netcore.checkpoint.load_model", None),
    ("faultlab.netcore.train", "train_sgd", "netcore.train.train_sgd",
     _count_sample_epochs),
    ("faultlab.netcore.inference", "quant_forward", "netcore.inference.quant_forward",
     _count_quant_forward),
    ("faultlab.macfault.array", "seed_fault_map", "macfault.array.seed_fault_map",
     _count_faulty_pes),
    ("faultlab.macfault.array", "build_fsr", "macfault.array.build_fsr", None),
    ("faultlab.macfault.array", "deactivate", "macfault.array.deactivate",
     _count_disabled),
    ("faultlab.macfault.array", "run_array", "macfault.array.run_array",
     _count_run_array),
    ("faultlab.macfault.array", "faulty_matmul_factory",
     "macfault.array.faulty_matmul_factory", _matmul_hook),
    ("faultlab.macfault.training", "fault_aware_train",
     "macfault.training.fault_aware_train", _count_sample_epochs),
    ("faultlab.macfault.sweeps", "lsb_sensitivity_sweep",
     "macfault.sweeps.lsb_sensitivity_sweep", None),
    ("faultlab.dramfault", "bitpos_campaign", "dramfault.bitpos_campaign", None),
    ("faultlab.dramfault", "column_campaign", "dramfault.column_campaign", None),
    ("faultlab.dramfault", "inject", "dramfault.inject", _count_flips),
    ("faultlab.dramfault", "model_grids", "dramfault.model_grids", None),
    ("faultlab.neurorel.partition", "kl_partition", "neurorel.partition.kl_partition",
     _count_clusters),
    ("faultlab.neurorel.pso", "pso_assign", "neurorel.pso.pso_assign", None),
    ("faultlab.neurorel.mapping", "map_workload", "neurorel.mapping.map_workload", None),
    ("faultlab.neurorel.mapping", "mapping_fitness", "neurorel.mapping.mapping_fitness",
     _fitness_hook),
    ("faultlab.neurorel.mapping", "random_baseline_fitness",
     "neurorel.mapping.random_baseline_fitness", None),
    ("faultlab.neurorel.placement", "place_synapses", "neurorel.placement.place_synapses",
     None),
    ("faultlab.neurorel.workload", "random_workload", "neurorel.workload.random_workload",
     None),
    ("faultlab.neurorel.workload", "save_workload", "neurorel.workload.save_workload",
     _count_bytes),
    ("faultlab.neurorel.crossbar", "build_endurance_map",
     "neurorel.crossbar.build_endurance_map", None),
]

# hooks that need the tracer, to wrap the callable the function returns
_FACTORY_HOOKS = (_matmul_hook, _fitness_hook)


def _wrap(tracer, fn, name, hook):
    signature = inspect.signature(fn)
    if hook in _FACTORY_HOOKS:
        hook = hook(tracer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as counts:
            result = fn(*args, **kwargs)
        if hook is None:
            return result
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return hook(counts, bound.arguments, result)

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every target at each faultlab module that binds it."""
    for module, _, _, _ in TARGETS:
        importlib.import_module(module)
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "faultlab" or n.startswith("faultlab.")) and m is not None]
    patched = []
    try:
        for module, attr, name, hook in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = _wrap(tracer, original, name, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        patched.append((m, key, original))
        yield tracer
    finally:
        for m, key, original in reversed(patched):
            setattr(m, key, original)
