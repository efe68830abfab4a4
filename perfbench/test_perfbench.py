"""Self-tests of the benchmark: layer wrappers, traced outputs, time accounting.

Run from the repository root (about a minute; not part of tier-1)::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.pin_blas_threads()  # before harness imports numpy, as the benchmark does

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent

MAC = {
    "cli.config.validate", "cli.runner.run", "netcore.data.synthetic_blobs",
    "netcore.checkpoint.load_model", "netcore.inference.quant_forward",
    "macfault.array.seed_fault_map", "macfault.array.run_array",
    "macfault.array.faulty_matmul_factory", *harness.MATMULS,
}
# the layers each workload must call, and no others
FIRES = {
    "mac-fault": MAC | {"macfault.sweeps.lsb_sensitivity_sweep",
                        "macfault.array.build_fsr", "macfault.array.deactivate",
                        "macfault.training.fault_aware_train",
                        "netcore.train.train_sgd"},
    "dram-neuro": {
        "cli.config.validate", "cli.runner.run", "netcore.data.synthetic_blobs",
        "netcore.checkpoint.load_model", "netcore.inference.quant_forward",
        "dramfault.bitpos_campaign", "dramfault.column_campaign", "dramfault.inject",
        "dramfault.model_grids", "neurorel.partition.kl_partition",
        "neurorel.pso.pso_assign", "neurorel.mapping.map_workload",
        "neurorel.mapping.mapping_fitness", "neurorel.mapping.fitness",
        "neurorel.mapping.random_baseline_fitness", "neurorel.placement.place_synapses",
        "neurorel.workload.random_workload", "neurorel.workload.save_workload",
        "neurorel.crossbar.build_endurance_map",
    },
}


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def passes(request):
    """One untraced and one traced pass of a workload, at the reference seed."""
    with harness.Bench(request.param, seed=0) as bench:
        bench.setup(repeats=1)
        plain = bench.run_pass()
        bench.account(plain)
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced = bench.run_pass(tracer)
        bench.account(traced)
        yield request.param, bench, plain, traced, tracer


def test_each_workload_calls_exactly_its_layers(passes):
    name, _, _, traced, tracer = passes
    totals = tracer.layer_totals(traced.root)
    fired = {layer for layer in harness.LAYERS + harness.MATMULS
             if totals.get(layer, {}).get("calls", 0) > 0}
    assert fired == FIRES[name]
    if name == "dram-neuro":
        assert not any(layer.startswith("macfault.") for layer in fired)


def test_snn_mapping_calls_no_neural_net_engine(passes):
    name, _, _, traced, tracer = passes
    if name != "dram-neuro":
        pytest.skip("no SNN mapping in this workload")
    runs = [i for i in tracer.subtree(traced.root) if tracer.spans[i].name == "cli.runner.run"]
    calls = [{tracer.spans[j].name for j in tracer.subtree(i)} for i in runs]
    neuro = [names for names in calls if "neurorel.mapping.map_workload" in names]
    assert len(neuro) == 1
    assert not any(n.startswith(("netcore.", "macfault.", "dramfault.")) for n in neuro[0])


def test_every_layer_is_meant_for_some_workload():
    assert set(harness.LAYERS + harness.MATMULS) == set().union(*FIRES.values())


def test_traced_outputs_match_untraced_and_reference(passes):
    _, bench, plain, traced, _ = passes
    assert not plain.errors and not traced.errors
    assert traced.digests == plain.digests
    assert bench.failed == 0, bench.problems


def test_counters_match_the_config(passes):
    _, bench, _, traced, tracer = passes
    values = harness.layer_metrics(tracer, traced.root, traced.trials)
    for key, want in bench.workload.counts().items():
        assert values[key] == want, key


def test_self_times_add_up_to_campaign_time(passes):
    _, _, _, traced, tracer = passes
    values = harness.layer_metrics(tracer, traced.root, traced.trials)
    layer_self = sum(values[f"{n}.self_s"] for n in harness.LAYERS)
    layer_self += sum(values[f"{n}.s"] for n in harness.MATMULS)  # leaves: self = total
    campaign = values["bench.traced_campaign_s"]
    # what is left is the benchmark's own loop around the calls
    assert layer_self == pytest.approx(campaign, rel=0.01)
    assert layer_self <= campaign


def test_layer_totals_on_a_known_tree():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 5.0, parent=0),
        spans.Span("a", 2.0, 3.0, parent=1),  # recursive: inside a
        spans.Span("b", 6.0, 9.0, parent=0, counts={"n": 2}),
    ]
    totals = tracer.layer_totals(0)
    assert totals["root"]["self_s"] == pytest.approx(3.0)
    assert totals["a"] == {"s": 4.0, "self_s": 4.0, "calls": 2}
    assert totals["b"] == {"s": 3.0, "self_s": 3.0, "calls": 1, "n": 2}


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "campaign_s", "trials_per_s", "sim_macs_per_s", "setup_s", "peak_rss_mb"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        *harness.PER_LAYER, ("bench.trace_overhead_frac", "fraction")]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mac-fault", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
