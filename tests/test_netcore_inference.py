"""Inference-mode tests, including the hand-computed int8 forward oracle."""

import io
import json
import math
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import frozen_mlp
import frozen_quant
from conftest import peak_bytes
from faultlab.netcore import evaluate, forward_hooked, init_lenet5, init_mlp
from faultlab.netcore import inference
from faultlab.netcore.data import LabeledDataset, synthetic_blobs
from faultlab.netcore.inference import model_input, quant_forward
from faultlab.netcore.network import (ConvStage, DenseStage, forward, he_uniform,
                                      mlp_stages)
from faultlab.netcore.checkpoint import load_model, save_model
from faultlab.quantnum import Int8Tensor


def _round_half_away(x: float) -> float:
    return math.copysign(math.floor(abs(x) + 0.5), x)


def _oracle_int8_logits(image_rows, weights, biases):
    """Scalar re-implementation of symmetric int8 inference (the oracle).

    Independent of the library path: plain Python loops, one dense layer.
    """
    sw = max(abs(w) for row in weights for w in row) / 127.0
    wq = [[int(_round_half_away(w / sw)) for w in row] for row in weights]
    xs = [[p / 255.0 for p in row] for row in image_rows]
    peak = max(abs(v) for row in xs for v in row)
    sx = peak / 127.0 if peak > 0 else 1.0
    xq = [[int(_round_half_away(v / sx)) for v in row] for row in xs]
    logits = []
    for row in xq:
        out = []
        for j in range(len(biases)):
            acc = sum(row[i] * wq[i][j] for i in range(len(row)))
            out.append(acc * sx * sw + biases[j])
        logits.append(out)
    return logits


def test_int8_matches_hand_computed_forward():
    # scale is max-based, so no weight clamps by construction
    weights = [[0.1, -0.2], [0.3, 0.05], [-0.4, 0.25]]
    biases = [0.01, -0.02]
    images = np.array(
        [[[255, 0, 128]], [[51, 102, 204]], [[0, 0, 0]], [[153, 255, 102]]],
        dtype=np.uint8,
    )
    oracle = _oracle_int8_logits(images.reshape(4, 3).tolist(), weights, biases)
    expected_argmax = [int(np.argmax(row)) for row in oracle]

    model = init_mlp((3, 2))
    model.weights[0][:] = weights
    model.biases[0][:] = biases
    ds = LabeledDataset(images, np.array(expected_argmax, dtype=np.int64))
    logits = quant_forward(model, model_input(ds.images), fmt="int8")
    assert np.allclose(logits, oracle, atol=1e-12)
    assert evaluate(model, ds, "int8") == 1.0


def test_all_zero_model_predicts_tiebreak_class(blob_test):
    # all-zero logits: argmax resolves to the lowest class index, so accuracy
    # equals that class's frequency in the dataset (computed here, not assumed)
    model = init_mlp((784, 10))
    model.weights[0][:] = 0.0
    expected = float(np.mean(blob_test.labels == 0))
    for mode in ("float", "int8", "bfloat16"):
        assert evaluate(model, blob_test, mode) == pytest.approx(expected)


def test_evaluate_rejects_empty_and_unknown_mode(small_mlp, blob_test):
    empty = LabeledDataset(np.zeros((0, 28, 28), dtype=np.uint8),
                           np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        evaluate(small_mlp, empty)
    with pytest.raises(ValueError):
        evaluate(small_mlp, blob_test, "int4")


def test_accuracy_in_unit_interval(small_mlp, blob_test):
    for mode in ("float", "int8", "bfloat16"):
        acc = evaluate(small_mlp, blob_test, mode)
        assert 0.0 <= acc <= 1.0


def test_quantized_argmax_agreement(small_mlp, blob_test):
    x = model_input(blob_test.subset(1000).images)
    ref = np.argmax(forward(small_mlp, x), axis=1)
    for fmt in ("int8", "bfloat16"):
        agree = np.mean(np.argmax(quant_forward(small_mlp, x, fmt), axis=1) == ref)
        assert agree >= 0.99


def _random_images(n: int) -> LabeledDataset:
    rng = np.random.default_rng(0)
    return LabeledDataset(rng.integers(0, 256, (n, 28, 28), dtype=np.uint8),
                          rng.integers(0, 10, n))


def test_model_input_holds_one_float_copy():
    ds = _random_images(2000)
    assert peak_bytes(model_input, ds.images) <= 2000 * 784 * 8 + 2**20


def test_float_evaluate_keeps_no_layer_activations():
    # 2000 samples on the 784-256-256-256-10 MLP. model_input holds the input
    # alone; after that, a layer needs its input, its pre-activation and its
    # output, and nothing of the layers before it.
    ds, model = _random_images(2000), init_mlp(seed=0)
    x_bytes, h_bytes = 2000 * 784 * 8, 2000 * 256 * 8
    assert peak_bytes(evaluate, model, ds) <= x_bytes + 3 * h_bytes + 2**20


def test_forward_hooked_identity_is_bit_identical(rng):
    model = init_mlp((6, 5, 3), seed=4)
    x = rng.uniform(0, 1, size=(5, 6))
    plain = quant_forward(model, x, fmt="int8")
    hooked = forward_hooked(model, x, lambda xo, wo, site: int(xo) * int(wo))
    assert np.array_equal(plain, hooked)


def test_forward_hooked_zero_hook_leaves_biases(rng):
    model = init_mlp((6, 5, 3), seed=4)
    model.biases[0][:] = [0.5, -0.2, 0.1, 0.0, -0.4]
    model.biases[1][:] = [0.3, -0.1, 0.2]
    x = rng.uniform(0, 1, size=(4, 6))
    hooked = forward_hooked(model, x, lambda xo, wo, site: 0)
    assert np.allclose(hooked, np.broadcast_to(model.biases[1], (4, 3)))


def test_forward_hooked_negation_is_sign_flip(rng):
    model = init_mlp((6, 5, 3), seed=8)
    x = rng.uniform(0, 1, size=(4, 6))
    negated = model.copy()
    for w in negated.weights:
        w *= -1.0
    hooked = forward_hooked(model, x, lambda xo, wo, site: -(int(xo) * int(wo)))
    assert np.array_equal(hooked, quant_forward(negated, x, fmt="int8"))


def test_checkpoint_roundtrip(tmp_path, small_mlp, blob_test):
    path = tmp_path / "model.npz"
    save_model(small_mlp, path)
    loaded = load_model(path)
    assert loaded.stages == small_mlp.stages
    for a, b in zip(small_mlp.weights, loaded.weights):
        assert np.array_equal(a, b)
    assert evaluate(loaded, blob_test, "int8") == evaluate(small_mlp, blob_test, "int8")


def test_checkpoint_roundtrip_cnn(tmp_path):
    model = init_lenet5(28, seed=3)
    path = tmp_path / "cnn.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert [w.shape for w in loaded.weights] == [w.shape for w in model.weights]
    for a, b in zip(model.weights, loaded.weights):
        assert np.array_equal(a, b)


def test_checkpoint_meta_of_mlp_and_cnn(tmp_path):
    # the meta strings of the MLP and CNN checkpoint formats, byte for byte
    save_model(init_mlp((784, 16, 10), seed=0), tmp_path / "mlp.npz")
    save_model(init_lenet5(28, seed=0), tmp_path / "cnn.npz")
    with np.load(tmp_path / "mlp.npz") as data:
        assert str(data["meta"]) == (
            '{"format": "faultlab-checkpoint", "version": 1, "kind": "mlp", '
            '"layer_sizes": [784, 16, 10]}')
    with np.load(tmp_path / "cnn.npz") as data:
        assert str(data["meta"]) == (
            '{"format": "faultlab-checkpoint", "version": 1, "kind": "cnn", '
            '"input_hw": 28, "stages": ['
            '{"op": "conv", "weight_idx": 0, "kernel": 5, "in_ch": 1, "out_ch": 6}, '
            '{"op": "pool", "kernel": 2}, '
            '{"op": "conv", "weight_idx": 1, "kernel": 5, "in_ch": 6, "out_ch": 16}, '
            '{"op": "pool", "kernel": 2}, {"op": "flatten"}, '
            '{"op": "dense", "weight_idx": 2, "in_features": 256, "out_features": 120, '
            '"final": false}, '
            '{"op": "dense", "weight_idx": 3, "in_features": 120, "out_features": 84, '
            '"final": false}, '
            '{"op": "dense", "weight_idx": 4, "in_features": 84, "out_features": 10, '
            '"final": true}]}')


def test_checkpoint_cnn_resave_is_byte_identical(tmp_path):
    # every member of the archive, the meta string included, survives a
    # load and a second save byte for byte (the zip's timestamps may not)
    save_model(init_lenet5(16, seed=4), tmp_path / "a.npz")
    save_model(load_model(tmp_path / "a.npz"), tmp_path / "b.npz")
    with zipfile.ZipFile(tmp_path / "a.npz") as a, zipfile.ZipFile(tmp_path / "b.npz") as b:
        assert a.namelist() == b.namelist()
        for name in a.namelist():
            assert a.read(name) == b.read(name), name


@pytest.mark.parametrize("edit, message", [
    (lambda stages: stages[1].update(op="maxpool"), "stage 1: unknown op 'maxpool'"),
    (lambda stages: stages[2].pop("in_ch"), r"stage 2 \(conv\): missing in_ch"),
    (lambda stages: stages[5].pop("op"), "stage 5: unknown op None"),
    # stages that do not chain: the 16x16 input pools to 4x4 with a kernel of 3
    (lambda stages: stages[1].update(kernel=3),
     r"stage 2 \(conv\): a 5x5x6 kernel does not fit a 4x4x6 map"),
    (lambda stages: stages[2].update(in_ch=4),
     r"stage 2 \(conv\): a 5x5x4 kernel does not fit a 6x6x6 map"),
    (lambda stages: stages[5].update(in_features=15),
     r"stage 5 \(dense\): takes 15 features, given 16"),
    (lambda stages: stages[5].update(final=True),
     r"final stages \[5, 7\]: the last stage, and only it"),
], ids=["unknown-op", "missing-field", "missing-op", "pool-kernel-3", "conv-channels",
        "dense-fan-in", "early-final"])
def test_checkpoint_names_a_bad_stage(tmp_path, edit, message):
    save_model(init_lenet5(16, seed=0), tmp_path / "cnn.npz")
    with np.load(tmp_path / "cnn.npz") as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta"]))
    edit(meta["stages"])
    arrays["meta"] = json.dumps(meta)
    np.savez(tmp_path / "bad.npz", **arrays)
    with pytest.raises(ValueError, match=message) as err:
        load_model(tmp_path / "bad.npz")
    assert str(err.value).startswith(f"{tmp_path / 'bad.npz'}: ")


def _without(key):
    return lambda arrays: arrays.pop(key)


def _edit_meta(edit):
    def apply(arrays):
        meta = json.loads(str(arrays["meta"]))
        edit(meta)
        arrays["meta"] = json.dumps(meta)
    return apply


@pytest.mark.parametrize("edit, message", [
    (None, "not a zip archive"),
    (_without("meta"), "missing key 'meta'"),
    (_without("b0"), "missing key 'b0'"),
    (lambda arrays: arrays.update(meta="{kind: mlp"), "meta: Expecting"),
    (_edit_meta(lambda meta: meta.pop("kind")), "meta: missing key 'kind'"),
    (_edit_meta(lambda meta: meta.pop("layer_sizes")), "meta: missing key 'layer_sizes'"),
    (lambda arrays: arrays["w1"].__setitem__((0, 0), np.nan),
     "non-finite weights or biases"),
], ids=["not-zip", "no-meta", "no-b0", "meta-not-json", "meta-no-kind", "meta-no-sizes",
        "nan-weight"])
def test_checkpoint_names_its_path_and_cause(tmp_path, edit, message):
    save_model(init_mlp((784, 16, 10), seed=0), tmp_path / "model.npz")
    path = tmp_path / "bad.npz"
    if edit is None:
        path.write_bytes(b"not a checkpoint")
    else:
        with np.load(tmp_path / "model.npz") as data:
            arrays = {k: data[k] for k in data.files}
        edit(arrays)
        np.savez(path, **arrays)
    with pytest.raises(ValueError, match=message) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("model", [init_mlp((784, 16, 10), seed=0), init_lenet5(28)],
                         ids=["mlp", "cnn"])
@pytest.mark.parametrize("key", ["w1", "b1"])
def test_checkpoint_with_wrong_shape_rejected(tmp_path, model, key):
    save_model(model, tmp_path / "model.npz")
    with np.load(tmp_path / "model.npz") as data:
        arrays = {k: data[k] for k in data.files}
    arrays[key] = arrays[key][:-1]
    np.savez(tmp_path / "bad.npz", **arrays)
    with pytest.raises(ValueError, match="layer 1"):
        load_model(tmp_path / "bad.npz")


def test_mlp_logits_match_frozen_mlp_forward(monkeypatch, small_mlp, blob_test):
    # the Flatten + Dense network against the MLP's own forward pass
    ds = blob_test.subset(300)
    x = model_input(ds.images)
    flat = frozen_mlp.flat_float(ds)
    assert np.array_equal(forward(small_mlp, x),
                          frozen_mlp.mlp_forward(small_mlp, flat)[0])
    got = {fmt: quant_forward(small_mlp, x, fmt) for fmt in ("int8", "bfloat16")}
    # the same quantized linear layers, run through the frozen pass
    monkeypatch.setattr(inference, "forward", lambda model, a, linear_fn=None, start=0:
                        frozen_mlp.mlp_forward(model, flat, linear_fn)[0])
    for fmt in ("int8", "bfloat16"):
        assert np.array_equal(got[fmt], quant_forward(small_mlp, x, fmt))


def _int8_operands(rng, n, fan_in, fan_out):
    aq = rng.integers(-128, 128, size=(n, fan_in)).astype(np.int8)
    wq = rng.integers(-128, 128, size=(fan_in, fan_out)).astype(np.int8)
    aq[0], wq[:, 0] = -128, -128  # the largest product, 2**14, on every input
    return aq, wq


@pytest.mark.parametrize("model", [init_mlp((256, 32, 10), seed=2), init_lenet5(16, seed=2)],
                         ids=["mlp", "lenet5"])
def test_int8_logits_match_frozen_quantizer(monkeypatch, model):
    # every quantized activation is non-negative (images, ReLU and pool
    # outputs, conv patches), the weights are mixed-sign
    x = model_input(synthetic_blobs(300, size=16, seed=5).images)
    got = quant_forward(model, x, "int8")
    monkeypatch.setattr(inference, "quantize_int8", frozen_quant.quantize_int8)
    assert np.array_equal(got, quant_forward(model, x, "int8"))


def _recorded(model, x):
    """(stored weights, logits of a recording pass, its record)."""
    wq, record = inference.quantize_weights(model), []
    return wq, quant_forward(model, x, "int8", weights_q=wq, baseline=record), record


def _changed(w, change, row):
    """``w`` with every bit of weight (row, 0) flipped, or with another scale."""
    if change == "scale":
        return Int8Tensor(raw=w.raw, scale=w.scale * (1.5 + row))
    raw = w.raw.copy()
    raw[row, 0] = ~raw[row, 0]
    return Int8Tensor(raw=raw, scale=w.scale)


# a first dense stage with no Flatten takes 2-D rows: the pass restarts at position 0
_DENSE_FIRST = he_uniform(None, mlp_stages((256, 32, 16, 10))[1:], seed=2)


@pytest.mark.parametrize("model, stage", [
    pytest.param(model, k, id=f"{name}-stage{k}")
    for name, model in [("mlp", init_mlp((256, 32, 16, 10), seed=2)),
                        ("lenet5", init_lenet5(16, seed=2)),
                        ("dense-first", _DENSE_FIRST)]
    for k in range(len(model.weights))])
@pytest.mark.parametrize("change", ["raw", "scale"])
def test_reused_pass_equals_a_fresh_pass(model, stage, change):
    x = model_input(synthetic_blobs(40, size=16, seed=5).images)
    if model is _DENSE_FIRST:
        x = x.reshape(len(x), -1)
    wq, base, record = _recorded(model, x)
    assert record[0] is x and len(record) == 2 + len(model.weights)
    assert np.array_equal(base, record[-1])
    for row in range(len(wq[stage].raw)):  # the first change that reaches the logits
        faulty = wq[:stage] + [_changed(wq[stage], change, row)] + wq[stage + 1:]
        fresh = quant_forward(model, x, "int8", weights_q=faulty)
        if not np.array_equal(fresh, base):
            break
    else:
        pytest.fail(f"no {change} change of stage {stage} reaches the logits")
    assert np.array_equal(quant_forward(model, x, "int8", weights_q=faulty,
                                        baseline=record), fresh)


@pytest.mark.parametrize("model", [init_mlp((256, 32, 16, 10), seed=2),
                                   init_lenet5(16, seed=2)], ids=["mlp", "lenet5"])
def test_record_keeps_quantized_dense_inputs_and_no_float_stage_output(model):
    # x and the logits are the record's only float arrays: a dense stage keeps
    # its quantized input, a convolution nothing
    x = model_input(synthetic_blobs(40, size=16, seed=5).images)
    wq, base, record = _recorded(model, x)
    assert record[0] is x and np.array_equal(record[-1], base)
    weighted = [s for s in model.stages if isinstance(s, (ConvStage, DenseStage))]
    for (w, q), stage in zip(record[1:-1], weighted, strict=True):
        assert w is wq[stage.weight_idx]
        if isinstance(stage, DenseStage):
            assert isinstance(q, Int8Tensor) and q.raw.shape == (len(x), stage.in_features)
        else:
            assert q is None


def test_unchanged_weights_return_the_recorded_logits_by_copy(monkeypatch):
    model = init_mlp((256, 32, 16, 10), seed=2)
    x = model_input(synthetic_blobs(40, size=16, seed=5).images)
    wq, base, record = _recorded(model, x)
    want = base.copy()
    base[:] = 0.0  # the recording pass's logits are not the record's
    monkeypatch.setattr(inference, "exact_int_matmul", None)  # no stage runs
    # equal weights count as unchanged, whether the same objects or not, and
    # so does an equal input
    for weights in (wq, [Int8Tensor(raw=w.raw.copy(), scale=w.scale) for w in wq]):
        got = quant_forward(model, x.copy(), "int8", weights_q=weights, baseline=record)
        assert np.array_equal(got, want)
        got[:] = 0.0  # nor are a reused pass's


_MISUSES = [
    ({"matmul_fn": lambda idx, aq, wq: inference.exact_int_matmul(aq, wq)},
     "needs fmt 'int8' and the exact matmul, got fmt 'int8' and a matmul_fn"),
    ({"fmt": "bfloat16"}, "needs fmt 'int8' and the exact matmul, got fmt 'bfloat16'$"),
]


@pytest.mark.parametrize("kwargs, message", _MISUSES + [
    ({"x": np.zeros((40, 16, 16, 1))}, "made on another input x"),
    ({"x": np.ones((39, 16, 16, 1))}, "made on another input x"),
], ids=["matmul-fn", "bfloat16", "other-values", "other-shape"])
def test_record_misused_rejected(kwargs, message):
    model = init_mlp((256, 32, 16, 10), seed=2)
    x = model_input(synthetic_blobs(40, size=16, seed=5).images)
    _, _, record = _recorded(model, x)
    with pytest.raises(ValueError, match=message):
        quant_forward(model, **{"x": x, "baseline": record, **kwargs})


@pytest.mark.parametrize("kwargs, message", _MISUSES, ids=["matmul-fn", "bfloat16"])
def test_recording_rejected_outside_exact_int8(kwargs, message):
    model = init_mlp((256, 32, 16, 10), seed=2)
    x = model_input(synthetic_blobs(40, size=16, seed=5).images)
    record = []
    with pytest.raises(ValueError, match=message):
        quant_forward(model, x, baseline=record, **kwargs)
    assert record == []


@pytest.mark.parametrize("fan_in", [1024, 2048])
def test_exact_int_matmul_equals_int64_matmul(rng, fan_in):
    aq, wq = _int8_operands(rng, 5, fan_in, 7)
    acc = inference.exact_int_matmul(aq, wq)
    assert acc.dtype == np.float64
    assert np.array_equal(acc, aq.astype(np.int64) @ wq.astype(np.int64))


def test_exact_int_matmul_past_float32_range():
    # 2047 products 127*127 and one 127*126 sum to 33032065: odd and above
    # 2**24, so no float32 accumulation can hold it
    aq = np.full((3, 2048), 127, dtype=np.int8)
    wq = np.full((2048, 2), 127, dtype=np.int8)
    wq[5, 1] = 126
    acc = inference.exact_int_matmul(aq, wq)
    assert acc[0, 1] == 33032065
    assert np.array_equal(acc, aq.astype(np.int64) @ wq.astype(np.int64))


def _arrays(model, path):
    """The members of ``model``'s checkpoint, saved at ``path``, by name."""
    save_model(model, path)
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


@pytest.mark.parametrize("model, edit, message", [
    (init_mlp((784, 16, 10), seed=0), lambda meta: meta.update(layer_sizes=[4.7, 3, 2]),
     "meta: layer_sizes: need a list of at least 2, each of which must be an integer"
     " >= 1"),
    (init_lenet5(16), lambda meta: meta.update(input_hw=28.5),
     "meta: input_hw: must be an integer >= 1"),
    (init_mlp((784, 16, 10), seed=0), lambda meta: meta.update(kind="mlpx"),
     "meta: kind: must be mlp or cnn"),
    (init_lenet5(16), lambda meta: meta["stages"][0].update(kernel="5"),
     "meta: stage 0 (conv): kernel: must be an integer >= 1"),
], ids=["layer-sizes", "input-hw", "kind", "stage-kernel"])
def test_checkpoint_meta_values_checked_by_rule(tmp_path, model, edit, message):
    # no meta value is cast: a fan-in of 4.7 is not cut to 4
    arrays = _arrays(model, tmp_path / "model.npz")
    _edit_meta(edit)(arrays)
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: {message}"


def _member_bytes(model):
    buffer = io.BytesIO()
    save_model(model, buffer)
    with zipfile.ZipFile(buffer) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def _write_members(path, members):
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)


@pytest.mark.parametrize("edit", [
    lambda npy: npy.replace(b"}", b" ", 1),
    lambda npy: npy.replace(b"'descr'", b"'dtype'", 1),
    lambda npy: npy[:-8],
    lambda npy: npy.replace(b"'<f8'", b"'|O' ", 1),
], ids=["header-unclosed", "descr-renamed", "data-truncated", "object-dtype"])
def test_checkpoint_names_a_damaged_member(tmp_path, edit):
    members = _member_bytes(init_mlp((784, 16, 10), seed=0))
    members["b0.npy"] = edit(members["b0.npy"])
    path = tmp_path / "bad.npz"
    _write_members(path, members)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: b0: ")


_JUNK = st.one_of(st.integers(-2, 30), st.floats(), st.booleans(), st.none(),
                  st.text(max_size=4), st.lists(st.integers(0, 3), max_size=3))
_MEMBERS = [_member_bytes(init_mlp((16, 4, 3), seed=0)), _member_bytes(init_lenet5(16))]


@st.composite
def _mutated_checkpoint(draw):
    """The bytes of a valid checkpoint with a meta value, a member's bytes or
    the archive's bytes changed."""
    members = dict(draw(st.sampled_from(_MEMBERS)))
    how = draw(st.sampled_from(["meta", "member", "archive"]))
    if how == "meta":
        meta = np.lib.format.read_array(io.BytesIO(members["meta.npy"]))
        meta = json.loads(meta.item())
        target = draw(st.sampled_from([meta, *meta.get("stages", [])]))
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(_JUNK)
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, np.array(json.dumps(meta)))
        members["meta.npy"] = buffer.getvalue()
    elif how == "member":
        name = draw(st.sampled_from(sorted(members)))
        members[name] = _splice(draw, members[name])
    buffer = io.BytesIO()
    _write_members(buffer, members)
    return _splice(draw, buffer.getvalue()) if how == "archive" else buffer.getvalue()


def _splice(draw, data):
    at = draw(st.integers(0, len(data) - 1))
    return data[:at] + draw(st.binary(max_size=3)) + data[at + draw(st.integers(0, 3)):]


@settings(max_examples=150, deadline=1000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_mutated_checkpoint())
def test_mutated_checkpoint_loads_valid_or_names_its_path(tmp_path, data):
    path = tmp_path / "model.npz"
    path.write_bytes(data)
    try:
        model = load_model(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}: ")
        return
    assert all(np.isfinite(a).all() for a in model.weights + model.biases)
