import time
import tracemalloc

import numpy as np
import pytest

from faultlab.netcore import init_mlp, synthetic_blobs, train_sgd

# Desk-scale stand-in datasets. Twin A mirrors an easy digits task (high
# baseline, sign-bit drops land at a few hundred faults); twin B is tuned
# to the sensitivity of a harder apparel-class task, where 40 faults per
# layer already cost a measurable fraction of a point.
TWIN_A = {}
TWIN_B = dict(
    blobs_per_class=4,
    sigma_min_frac=0.05,
    sigma_max_frac=0.09,
    pixel_noise=17.0,
    center_jitter=2.0,
    amplitude_jitter=0.45,
    template_seed=31415,
)


@pytest.fixture(scope="session")
def blob_train():
    return synthetic_blobs(3000, seed=101)


@pytest.fixture(scope="session")
def blob_test():
    return synthetic_blobs(1200, seed=202)


@pytest.fixture(scope="session")
def small_mlp(blob_train, blob_test):
    """A quickly trained 784-64-10 MLP on the synthetic blobs."""
    model = init_mlp((784, 64, 10), seed=11)
    trained, _ = train_sgd(model, blob_train, epochs=6, lr=0.2, seed=12, test=blob_test)
    return trained


@pytest.fixture(scope="session")
def twin_a():
    """(train, test, model, history, train_seconds) on the easy twin."""
    train = synthetic_blobs(8000, seed=1, **TWIN_A)
    test = synthetic_blobs(2000, seed=2, **TWIN_A)
    t0 = time.monotonic()
    model, hist = train_sgd(init_mlp(seed=0), train, epochs=20, lr=0.15, seed=3, test=test)
    return train, test, model, hist, time.monotonic() - t0


@pytest.fixture(scope="session")
def twin_b():
    """(train, test, model, history, train_seconds) on the sensitive twin."""
    train = synthetic_blobs(8000, seed=1, **TWIN_B)
    test = synthetic_blobs(2000, seed=2, **TWIN_B)
    t0 = time.monotonic()
    model, hist = train_sgd(init_mlp(seed=0), train, epochs=25, lr=0.15, seed=3, test=test)
    return train, test, model, hist, time.monotonic() - t0


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def peak_bytes(fn, *args) -> int:
    """The tracemalloc peak of one call ``fn(*args)``, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULTS", []) if mod else []
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
