"""Training-loop tests: gradient oracle, determinism, degenerate inputs."""

import hashlib

import numpy as np
import pytest

import frozen_mlp
from conftest import peak_bytes
from faultlab.netcore import (
    TrainingDiverged,
    init_lenet5,
    init_mlp,
    synthetic_blobs,
    train_sgd,
)
from faultlab.netcore.data import LabeledDataset
from faultlab.netcore.network import (
    ConvStage,
    DenseStage,
    FlattenStage,
    PoolStage,
    backward,
    cross_entropy,
    forward,
    he_uniform,
    softmax,
)


def _numeric_grad(loss_fn, array, indices, eps=1e-6):
    grads = {}
    for idx in indices:
        orig = array[idx]
        array[idx] = orig + eps
        hi = loss_fn()
        array[idx] = orig - eps
        lo = loss_fn()
        array[idx] = orig
        grads[idx] = (hi - lo) / (2 * eps)
    return grads


def test_mlp_gradient_matches_central_differences(rng):
    # 10-parameter toy network: 2-2-2 has 4+2+4+2 = 12, use (2,2) + (2,2)
    model = init_mlp((2, 2, 2), seed=3)
    x = rng.normal(0.3, 0.2, size=(6, 2))
    y = rng.integers(0, 2, size=6)

    caches = []
    forward(model, x, caches=caches)
    grads_w, grads_b = backward(model, caches, y)

    def loss():
        return cross_entropy(forward(model, x), y)

    for l in range(len(model.weights)):
        for arr, analytic in ((model.weights[l], grads_w[l]), (model.biases[l], grads_b[l])):
            idxs = list(np.ndindex(arr.shape))
            numeric = _numeric_grad(loss, arr, idxs)
            for idx in idxs:
                denom = max(abs(numeric[idx]), abs(analytic[idx]), 1e-8)
                assert abs(numeric[idx] - analytic[idx]) / denom < 1e-4


def test_cnn_gradient_matches_central_differences(rng):
    model = he_uniform(8, [ConvStage(0, 3, 1, 2), PoolStage(2), FlattenStage(),
                           DenseStage(1, 18, 3, final=True)], seed=5)
    x = rng.uniform(0, 1, size=(4, 8, 8, 1))
    y = rng.integers(0, 3, size=4)
    caches = []
    forward(model, x, caches=caches)
    grads_w, grads_b = backward(model, caches, y)

    def loss():
        return cross_entropy(forward(model, x), y)

    for l in range(len(model.weights)):
        for arr, analytic in ((model.weights[l], grads_w[l]), (model.biases[l], grads_b[l])):
            flat = list(np.ndindex(arr.shape))
            picks = [flat[i] for i in rng.choice(len(flat), size=min(12, len(flat)), replace=False)]
            numeric = _numeric_grad(loss, arr, picks)
            for idx in picks:
                denom = max(abs(numeric[idx]), abs(analytic[idx]), 1e-8)
                assert abs(numeric[idx] - analytic[idx]) / denom < 1e-4


def test_mlp_training_matches_frozen_mlp_loop(blob_train, blob_test):
    # the Flatten + Dense network trains exactly as the MLP's own passes did;
    # at 610 samples each epoch ends on a partial batch of 10, whose rows are
    # converted in their step like every other batch's
    test = blob_test.subset(300)
    for n in (600, 610):
        train = blob_train.subset(n)
        got, hist = train_sgd(init_mlp((784, 32, 16, 10), seed=5), train, epochs=2,
                              lr=0.1, seed=6, batch_size=50, test=test)
        ref, ref_hist = frozen_mlp.train_sgd(init_mlp((784, 32, 16, 10), seed=5),
                                             train, epochs=2, lr=0.1, seed=6,
                                             batch_size=50, test=test)
        assert hist == ref_hist
        for a, b in zip(got.weights + got.biases, ref.weights + ref.biases):
            assert np.array_equal(a, b)


def test_training_keeps_no_float_copy_of_the_split():
    # one epoch of 4000 samples: each step converts its own 64 rows, so the
    # peak stays below the split's float64 size (about 25 MB)
    rng = np.random.default_rng(0)
    train = LabeledDataset(rng.integers(0, 256, (4000, 28, 28), dtype=np.uint8),
                           rng.integers(0, 10, 4000))
    model = init_mlp((784, 16, 10), seed=0)
    assert peak_bytes(train_sgd, model, train, 1, 0.01, 0) < 4000 * 784 * 8


def test_softmax_sums_to_one(rng):
    z = rng.normal(0, 20, size=(100, 10))
    s = softmax(z)
    assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-9


def test_training_is_deterministic(blob_train, blob_test):
    test = blob_test.subset(100)
    a, hist_a = train_sgd(init_mlp((784, 16, 10), seed=7), blob_train.subset(400),
                          epochs=2, lr=0.1, seed=42, test=test)
    b, hist_b = train_sgd(init_mlp((784, 16, 10), seed=7), blob_train.subset(400),
                          epochs=2, lr=0.1, seed=42, test=test)
    assert len(hist_a) == 2 and hist_a == hist_b
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c, _ = train_sgd(init_mlp((784, 16, 10), seed=7), blob_train.subset(400),
                     epochs=2, lr=0.1, seed=43)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_zero_epochs_is_a_noop(blob_train):
    model = init_mlp((784, 16, 10), seed=1)
    trained, hist = train_sgd(model, blob_train.subset(100), epochs=0, lr=0.1, seed=0)
    assert hist == []
    for w0, w1 in zip(model.weights, trained.weights):
        assert np.array_equal(w0, w1)


def test_training_does_not_mutate_input_model(blob_train):
    model = init_mlp((784, 16, 10), seed=1)
    before = [w.copy() for w in model.weights]
    train_sgd(model, blob_train.subset(200), epochs=1, lr=0.2, seed=0)
    for w0, w1 in zip(before, model.weights):
        assert np.array_equal(w0, w1)


def test_divergence_raises_with_epoch(blob_train):
    # weights large enough that the second matmul overflows float64
    model = init_mlp((784, 16, 10), seed=1)
    model.weights[0][:] = 1e200
    model.weights[1][:] = 1e200
    with pytest.raises(TrainingDiverged) as err:
        train_sgd(model, blob_train.subset(300), epochs=3, lr=0.1, seed=0)
    assert err.value.epoch == 0


def test_empty_dataset_rejected():
    empty = LabeledDataset(np.zeros((0, 28, 28), dtype=np.uint8),
                           np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        train_sgd(init_mlp((784, 8, 10), seed=0), empty, epochs=1, lr=0.1, seed=0)


def test_cnn_trains_on_small_task():
    train = synthetic_blobs(700, classes=4, size=12, seed=31)
    test = synthetic_blobs(300, classes=4, size=12, seed=32)
    model = he_uniform(12, [ConvStage(0, 3, 1, 4), PoolStage(2), FlattenStage(),
                            DenseStage(1, 100, 24, final=False),
                            DenseStage(2, 24, 4, final=True)], seed=2)
    trained, hist = train_sgd(model, train, epochs=8, lr=0.3, seed=3, test=test)
    assert max(hist) > 0.8


def test_lenet5_shapes():
    model = init_lenet5(28, seed=0)
    sizes = [w.shape for w in model.weights]
    assert sizes == [(25, 6), (150, 16), (256, 120), (120, 84), (84, 10)]
    model32 = init_lenet5(32, seed=0)
    assert [w.shape for w in model32.weights][2] == (400, 120)


# sha256 of init_lenet5(hw, seed=3)'s weights then biases, and the fan-in of its
# first dense stage, as the network was built when a plan of ("conv", k, c) and
# ("pool", k) tuples described it
_LENET5_AT = {
    16: (16, "0ff6dfef370aefccf2cbbce4161d8ef60b59bb42f3af84b66806064579363187"),
    20: (64, "d19113eab5445e97e46b6d16ddefc8464c240f34d8da8c0f0a098aef22e71667"),
    28: (256, "ab3e35a7ce69379fe3572f9da2ee6271d0aff4a2c81a2ddac2fe11617faa8124"),
    32: (400, "cdae3bf1531e94c6790c81a6171f6f64afffb82578d08c33e178e8e46a06ab7f"),
}


@pytest.mark.parametrize("hw", sorted(_LENET5_AT))
def test_lenet5_keeps_its_stages_and_weights(hw):
    fan_in, digest = _LENET5_AT[hw]
    model = init_lenet5(hw, seed=3)
    assert model.input_hw == hw
    assert model.stages == [
        ConvStage(0, 5, 1, 6), PoolStage(2), ConvStage(1, 5, 6, 16), PoolStage(2),
        FlattenStage(), DenseStage(2, fan_in, 120, final=False),
        DenseStage(3, 120, 84, final=False), DenseStage(4, 84, 10, final=True)]
    h = hashlib.sha256()
    for a in model.weights + model.biases:
        h.update(a.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("hw, message", [
    (12, "stage 2 (conv): a 5x5x6 kernel does not fit a 4x4x6 map"),
    (18, "stage 3 (pool): pool 2 does not divide map size 3"),
])
def test_lenet5_names_an_input_size_that_does_not_chain(hw, message):
    with pytest.raises(ValueError) as err:
        init_lenet5(hw, seed=3)
    assert str(err.value) == message
