"""Set-up, timed campaign passes, output checks and metric assembly.

One process, one campaign in flight at a time: a closed loop with a
single client. A pass is every ``faultlab run`` call of a workload, each
made as the CLI makes it (``validate`` then ``cli.runner.run``). All
times are host time from ``time.perf_counter``; the simulated statistics
in the campaign CSVs are hashed and compared, never timed. The end-to-end
times are scaled to a reference host speed by a calibration kernel timed
in the same run (see ``Calibration``).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).with_name("reference.json")
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from faultlab.cli import config as config_mod  # noqa: E402
from faultlab.cli import runner as runner_mod  # noqa: E402
from faultlab import netcore  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import faultlab.cli.runner; print(time.perf_counter() - t)"
)


class Calibration:
    """A fixed numpy and Python kernel that never calls faultlab.

    The shared host's speed drifts by up to a quarter over minutes, and the
    workloads and the kernel slow down together. The kernel is timed before
    and after each set-up and each pass; the mean of the two samples around
    one, over ``REFERENCE_S``, is that interval's host factor. A run's median
    time is divided by the median factor of the same intervals. The kernel's
    mix follows the workloads': float BLAS as in SGD, integer matmul and
    gathers as in the int8 engine, random and streaming reads of arrays larger
    than the cache, and Python string and dict work as in the workload YAML
    and KL.
    """

    REFERENCE_S = 0.40  # median time of one sample at the reference speed

    def __init__(self):
        rng = np.random.default_rng(20210322)
        self.x = rng.standard_normal((512, 784))
        self.w1 = rng.standard_normal((784, 256)) * 0.05
        self.w2 = rng.standard_normal((256, 256)) * 0.05
        self.q = rng.integers(-128, 128, (1000, 256)).astype(np.int32)
        self.wq = rng.integers(-128, 128, (256, 256)).astype(np.int32)
        self.idx = rng.integers(0, 256, (1000, 64))
        self.times: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns its seconds."""
        t0 = time.perf_counter()
        for _ in range(3):
            h = np.maximum(self.x @ self.w1, 0.0)
            g = (h @ self.w2 @ self.w2.T) * (h > 0)
            self.x.T @ g
        for _ in range(2):
            acc = (self.q @ self.wq) >> 7
            np.take_along_axis(acc, self.idx, axis=1).sum()
        # made afresh each time, as the workloads' large temporaries are,
        # so that they hold no memory between samples
        big = np.arange(4_000_000, dtype=np.int32)
        spread = np.arange(1_000_000, dtype=np.int64) * 2_654_435_761 % big.size
        for _ in range(2):
            big[spread].sum()
            (big + 1).sum()
        del big, spread
        lines, groups = [], {}
        for i in range(60_000):
            lines.append(f"- {{pre: {i % 512}, post: {i * 7 % 512}, w: {i * 0.5:.3f}}}")
        for i, line in enumerate(lines):
            groups.setdefault(line[8:11], []).append(i)
        "\n".join(lines)
        seconds = time.perf_counter() - t0
        self.times.append(seconds)
        return seconds

    def factor(self, before: float, after: float) -> float:
        return (before + after) / (2 * self.REFERENCE_S)


def blas_threads() -> int:
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checkpoint_digest(path: Path) -> str:
    """sha256 over the checkpoint's arrays (the zip's timestamps vary)."""
    h = hashlib.sha256()
    with np.load(path, allow_pickle=False) as data:
        for name in sorted(data.files):
            h.update(name.encode())
            h.update(data[name].tobytes())
    return h.hexdigest()


def time_import() -> float:
    """Seconds to import the CLI runner in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def build_baseline(seed: int, path: Path) -> None:
    """Synthesize the training set, train the pinned MLP, write its checkpoint."""
    # called through the package so that a traced set-up is traced too
    s = workloads.seeds(seed)
    train = netcore.synthetic_blobs(workloads.TRAIN_SAMPLES, seed=s["dataset"])
    model = netcore.init_mlp(workloads.MLP_LAYERS, seed=s["init"])
    model, _ = netcore.train_sgd(model, train, epochs=workloads.BASELINE_EPOCHS,
                                 lr=workloads.BASELINE_LR, seed=s["train"])
    netcore.save_model(model, path)


@dataclass
class PassResult:
    seconds: float
    digests: list  # per call: {csv name: sha256}, or None when it raised
    trials: int
    errors: list = field(default_factory=list)
    root: int | None = None  # the pass's span, when traced
    factor: float = 1.0  # host factor around the pass (see Calibration)


class Bench:
    """One workload at one seed, in a private work directory of the checkout."""

    def __init__(self, name: str, seed: int):
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
        self.checkpoint = self.work / "baseline.npz"
        self.configs = self.workload.configs(seed, str(self.checkpoint))
        self.checkpoint_digest = None
        self.expected = None  # digests every pass must reproduce
        self.notes: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.calibration = Calibration()
        self.setup_factors: list[float] = []

    def __enter__(self):
        self.work.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    # --- set-up -------------------------------------------------------------

    def setup(self, repeats: int = SETUP_REPEATS) -> list[float]:
        """Set up ``repeats`` times; returns each set-up's seconds."""
        times, digests = [], set()
        before = self.calibration.sample()
        for _ in range(repeats):
            seconds = time_import()
            t0 = time.perf_counter()
            build_baseline(self.seed, self.checkpoint)
            times.append(seconds + time.perf_counter() - t0)
            digests.add(checkpoint_digest(self.checkpoint))
            after = self.calibration.sample()
            self.setup_factors.append(self.calibration.factor(before, after))
            before = after
        if len(digests) > 1:
            self.problems.append("baseline checkpoint differs between set-ups")
        self.checkpoint_digest = min(digests)
        self._pick_expected()
        return times

    def _pick_expected(self):
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        if self.seed != ref.get("seed") or self.workload.name not in ref.get("outputs", {}):
            return  # no reference: passes must agree with each other
        if blas_threads() != ref["blas_threads"]:
            self.notes.append(
                f"environment difference: {blas_threads()} BLAS threads, reference "
                f"made with {ref['blas_threads']}; checking passes against each other")
            return
        if self.checkpoint_digest != ref["checkpoint"]:
            self.notes.append(
                "environment difference: baseline checkpoint digest differs from the "
                "reference (BLAS build or CPU); checking passes against each other")
            return
        self.expected = ref["outputs"][self.workload.name]

    # --- one pass -------------------------------------------------------------

    def run_pass(self, tracer=None) -> PassResult:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        # start every pass from a collected heap, as a fresh `faultlab run` would;
        # garbage left by earlier passes otherwise slows later ones
        gc.collect()
        errors, ok = [], []
        root = len(tracer.spans) if tracer else None
        span = tracer.span("bench.pass") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            for raw in self.configs:
                try:
                    config, problems = config_mod.validate(raw)
                    if problems:
                        raise ValueError("; ".join(problems))
                    runner_mod.run(config, output_override=str(out / raw["experiment"]))
                    ok.append(True)
                except Exception as err:  # noqa: BLE001 - a failed call is counted
                    errors.append(f"{raw['experiment']}: {type(err).__name__}: {err}")
                    ok.append(False)
        seconds = time.perf_counter() - t0
        digests = [self._digests(out / raw["experiment"]) if good else None
                   for raw, good in zip(self.configs, ok)]
        trials = sum(self._rows(out / raw["experiment"] / f)
                     for raw in self.configs for f in self.workload.trial_files
                     if (out / raw["experiment"] / f).exists())
        return PassResult(seconds, digests, trials, errors, root)

    @staticmethod
    def _digests(directory: Path) -> dict:
        return {p.name: sha256_file(p) for p in sorted(directory.glob("*.csv"))}

    @staticmethod
    def _rows(path: Path) -> int:
        with path.open() as fh:
            return sum(1 for _ in fh) - 1

    def account(self, result: PassResult) -> bool:
        """Count the pass's calls; returns whether every call was correct."""
        if self.expected is None and None not in result.digests:
            self.expected = result.digests
        self.attempted += len(result.digests)
        bad = 0
        for k, digest in enumerate(result.digests):
            if digest is None or (self.expected is not None and digest != self.expected[k]):
                bad += 1
        self.failed += bad
        self.problems.extend(result.errors)
        if bad > len(result.errors):
            self.problems.append(f"{bad - len(result.errors)} call(s) wrote other CSVs "
                                 "than the reference")
        return bad == 0

    def warm_up(self) -> None:
        """One checked, untimed pass: the first pass in a process runs 5 to 10%
        slower, and campaign time is that of a warm interpreter."""
        self.account(self.run_pass())

    def passes(self, seconds: float, min_passes: int, tracer=None) -> list[PassResult]:
        """Correct passes made within ``seconds`` (at least ``min_passes`` tried)."""
        good, tried = [], 0
        start = time.perf_counter()
        last = 0.0
        before = self.calibration.sample()
        while tried < min_passes or time.perf_counter() - start + last <= seconds:
            result = self.run_pass(tracer)
            after = self.calibration.sample()
            result.factor = self.calibration.factor(before, after)
            before = after
            tried += 1
            last = result.seconds
            if self.account(result):
                good.append(result)
        return good

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the two kinds of run ------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off; returns (result line, detail)."""
    with Bench(name, seed) as bench:
        setup_times = bench.setup()
        bench.warm_up()
        good = bench.passes(seconds, MIN_PASSES)
        counts = bench.workload.counts()
        for r in good:
            if r.trials != counts["bench.trials"]:
                bench.problems.append(f"{r.trials} trial rows, config gives "
                                      f"{counts['bench.trials']}")
        times = [r.seconds for r in good]
        metrics, detail = {}, {"passes": len(times), "notes": bench.notes}
        if times:
            campaign = statistics.median(times) / statistics.median(r.factor for r in good)
            metrics = {
                "campaign_s": _metric(campaign, "s"),
                "trials_per_s": _metric(counts["bench.trials"] / campaign, "1/s"),
                "sim_macs_per_s": _metric(counts["bench.sim_macs"] / campaign, "MAC/s"),
                "setup_s": _metric(statistics.median(setup_times)
                                   / statistics.median(bench.setup_factors), "s"),
                "peak_rss_mb": _metric(bench.peak_rss_mb(), "MB"),
            }
            # the host times before scaling, and the factors they were scaled by
            detail.update(pass_s=times, setup_s=setup_times,
                          pass_factors=[r.factor for r in good],
                          setup_factors=bench.setup_factors,
                          calibration_s=bench.calibration.times,
                          samples={"campaign_s": len(times), "trials_per_s": len(times),
                                   "sim_macs_per_s": len(times),
                                   "setup_s": len(setup_times), "peak_rss_mb": 1})
        detail["failed_frac"] = bench.failed / max(bench.attempted, 1)
        detail["problems"] = bench.problems
        return _result(bench, metrics), detail


def traced_run(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from a traced run, after an untraced one for the overhead."""
    with Bench(name, seed) as bench:
        tracer = spans.Tracer()
        with spans.traced(tracer), tracer.span("bench.setup"):
            bench.setup(repeats=1)
        setup_root = 0
        bench.warm_up()
        plain = bench.passes(seconds / 2, MIN_TRACE_PASSES)
        with spans.traced(tracer):
            traced = bench.passes(seconds / 2, MIN_TRACE_PASSES, tracer)
        per_pass = [layer_metrics(tracer, r.root, r.trials) for r in traced]
        _check_counters(bench, per_pass)
        metrics, detail = {}, {"passes": len(traced), "notes": bench.notes}
        if plain and traced:
            # counts repeat exactly (checked above); times vary, so take the median
            metrics = {key: _metric(per_pass[0][key] if unit == "count"
                                    else statistics.median(p[key] for p in per_pass), unit)
                       for key, unit in PER_LAYER}
            untraced_s = statistics.median(r.seconds for r in plain)
            overhead = metrics["bench.traced_campaign_s"]["value"] / untraced_s - 1
            metrics["bench.trace_overhead_frac"] = _metric(overhead, "fraction")
            detail["table"] = baseline_table(tracer, setup_root, traced[0].root)
        detail["failed_frac"] = bench.failed / max(bench.attempted, 1)
        detail["problems"] = bench.problems
        TRACE_ROOT.mkdir(exist_ok=True)
        (TRACE_ROOT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.counts] for s in tracer.spans]))
        return _result(bench, metrics), detail


def write_reference(seed: int) -> dict:
    """Record one pass's CSV digests per workload, and the checkpoint's."""
    ref = {"seed": seed, "blas_threads": blas_threads(), "checkpoint": None,
           "outputs": {}}
    for name in workloads.WORKLOADS:
        with Bench(name, seed) as bench:
            bench.setup(repeats=1)
            result = bench.run_pass()
            if result.errors:
                raise RuntimeError("; ".join(result.errors))
            ref["outputs"][name] = result.digests
            ref["checkpoint"] = bench.checkpoint_digest
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    return ref


def _result(bench: Bench, metrics: dict) -> dict:
    return {"correct": bool(metrics) and bench.failed == 0 and not bench.problems,
            "attempted": max(bench.attempted, 1), "failed": bench.failed,
            "metrics": metrics}


# --- per-layer metrics ---------------------------------------------------------

LAYERS = [name for _, _, name, _ in spans.TARGETS] + ["neurorel.mapping.fitness"]
MATMULS = [f"macfault.array.faulty_matmul.L{k}" for k in range(len(workloads.MLP_LAYERS) - 1)]
CALLS = ["netcore.data.synthetic_blobs", "netcore.inference.quant_forward",
         "macfault.array.run_array", "neurorel.mapping.fitness"]
COUNTERS = [
    "netcore.data.synthetic_blobs.samples",
    "netcore.train.train_sgd.samples",
    "netcore.inference.quant_forward.samples",
    "macfault.array.seed_fault_map.faulty_pes",
    "macfault.array.deactivate.pes_disabled",
    "macfault.array.run_array.samples",
    "macfault.training.fault_aware_train.samples",
    "dramfault.inject.flips",
    "neurorel.partition.kl_partition.clusters",
    "neurorel.pso.pso_assign.fitness_evals",
    "neurorel.workload.save_workload.bytes",
]

PER_LAYER = (
    [(f"{n}.s", "s") for n in LAYERS]
    + [(f"{n}.self_s", "s") for n in LAYERS]
    + [(f"{n}.s", "s") for n in MATMULS]
    + [(f"{n}.calls", "count") for n in CALLS + MATMULS]
    + [(f"{n}.{k}", "count") for n in MATMULS for k in ("products", "corrupted_products")]
    + [(c, "count") for c in COUNTERS]
    + [("bench.sim_macs", "count"), ("bench.trials", "count"),
       ("bench.traced_campaign_s", "s")]
)


def layer_metrics(tracer, root: int, trials: int) -> dict:
    """Every per-layer metric of one traced pass (zero for a layer not called)."""
    totals = tracer.layer_totals(root)
    values = {}
    for key, _ in PER_LAYER:
        layer, _, stat = key.rpartition(".")
        values[key] = totals.get(layer, {}).get(stat, 0)
    values["bench.sim_macs"] = (
        totals.get("netcore.inference.quant_forward", {}).get("macs", 0)
        + sum(totals.get(m, {}).get("products", 0) for m in MATMULS))
    values["bench.trials"] = trials
    values["bench.traced_campaign_s"] = totals["bench.pass"]["s"]
    return values


def _check_counters(bench: Bench, per_pass: list) -> None:
    """Counts repeat exactly between passes and match the config's counts."""
    expected = bench.workload.counts()
    counters = [k for k, unit in PER_LAYER if unit == "count"]
    for key in counters:
        seen = {values[key] for values in per_pass}
        if len(seen) > 1:
            bench.problems.append(f"{key} differs between traced passes: {sorted(seen)}")
    for key, want in expected.items():
        got = per_pass[0][key] if per_pass else None
        if got != want:
            bench.problems.append(f"{key} is {got} in the traced run, config gives {want}")


# --- the baseline table ------------------------------------------------------


def baseline_table(tracer, setup_root: int, pass_root: int) -> list:
    """Rows of ROADMAP's baseline table this workload times: (stage, s, calls).

    The time is the mean per call, or the sum over the pass with ``total``.
    ``{samples}`` in a stage name is filled in from the spans timed.
    """
    rows = []

    def add(stage, name, root=pass_root, where=lambda c: True, total=False):
        hits = [tracer.spans[i] for i in tracer.subtree(root)
                if tracer.spans[i].name == name and where(tracer.spans[i].counts)]
        if hits:
            seconds = sum(s.end - s.start for s in hits)
            samples = sum(s.counts.get("samples", 0) for s in hits)
            if not total:
                seconds, samples = seconds / len(hits), samples // len(hits)
            rows.append((stage.format(samples=samples), seconds, len(hits)))

    add("set-up: plain SGD, {samples} sample-epochs", "netcore.train.train_sgd",
        setup_root)
    add("set-up: synthetic_blobs, {samples} samples", "netcore.data.synthetic_blobs",
        setup_root)
    add("synthetic_blobs, train and test sets, {samples} samples in all",
        "netcore.data.synthetic_blobs", total=True)
    add("int8 quant_forward, fault-free, {samples} samples",
        "netcore.inference.quant_forward", where=lambda c: "macs" in c)
    for fr, pes in ((2.5, 384), (7.5, 1280)):
        add(f"run_array int8, FR {fr}, {{samples}} samples", "macfault.array.run_array",
            where=lambda c, pes=pes: c["faulty_pes"] == pes and not c["deactivated"])
    add("run_array int8, FR 7.5, after deactivation, {samples} samples",
        "macfault.array.run_array",
        where=lambda c: c["faulty_pes"] == 1280 and c["deactivated"])
    add("seed_fault_map (1280 faulty PEs)", "macfault.array.seed_fault_map",
        where=lambda c: c["faulty_pes"] == 1280)
    add("faulty_matmul_factory (layer plans)", "macfault.array.faulty_matmul_factory")
    add("build_fsr", "macfault.array.build_fsr")
    add("deactivate", "macfault.array.deactivate")
    add("fault-aware training, {samples} sample-epochs",
        "macfault.training.fault_aware_train")
    add("bitpos_campaign", "dramfault.bitpos_campaign")
    add("column_campaign", "dramfault.column_campaign")
    add("map_workload", "neurorel.mapping.map_workload")
    add("map_workload: KL partition", "neurorel.partition.kl_partition")
    add("map_workload: PSO, fitness included", "neurorel.pso.pso_assign")
    add("save_workload (YAML dump)", "neurorel.workload.save_workload")
    return rows
