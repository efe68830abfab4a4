"""IDX parsing and synthetic dataset tests."""

import gzip
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import frozen_data
from conftest import TWIN_B
from faultlab.netcore import IdxError, LabeledDataset, load_idx, synthetic_blobs
from faultlab.netcore.data import BLOCK

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def _image_bytes(images: np.ndarray) -> bytes:
    n, h, w = images.shape
    return struct.pack(">iiii", IMAGE_MAGIC, n, h, w) + images.tobytes()


def _label_bytes(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">ii", LABEL_MAGIC, len(labels)) + labels.tobytes()


@pytest.fixture()
def idx_pair(tmp_path, rng):
    images = rng.integers(0, 256, size=(10, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=10).astype(np.uint8)
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(_image_bytes(images))
    lbl_path.write_bytes(_label_bytes(labels))
    return img_path, lbl_path, images, labels


def test_load_idx_roundtrip(idx_pair):
    img_path, lbl_path, images, labels = idx_pair
    ds = load_idx(img_path, lbl_path)
    assert len(ds) == 10
    assert ds.images.shape == (10, 28, 28)
    assert np.array_equal(ds.images, images)
    assert np.array_equal(ds.labels, labels)


def test_load_idx_gzipped(tmp_path, idx_pair):
    img_path, lbl_path, images, labels = idx_pair
    gz_img = tmp_path / "images.idx.gz"
    gz_lbl = tmp_path / "labels.idx.gz"
    gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
    gz_lbl.write_bytes(gzip.compress(lbl_path.read_bytes()))
    ds = load_idx(gz_img, gz_lbl)
    assert np.array_equal(ds.images, images)
    assert np.array_equal(ds.labels, labels)


def test_load_idx_wrong_magic(idx_pair):
    img_path, lbl_path, _, _ = idx_pair
    # image magic passed where labels are expected
    with pytest.raises(IdxError, match="wrong magic 0x00000803, expected 0x00000801"):
        load_idx(img_path, img_path)
    with pytest.raises(IdxError, match="wrong magic 0x00000801, expected 0x00000803"):
        load_idx(lbl_path, lbl_path)


def test_load_idx_truncated(tmp_path, idx_pair):
    img_path, lbl_path, _, _ = idx_pair
    clipped = tmp_path / "short.idx"
    clipped.write_bytes(img_path.read_bytes()[:-100])
    with pytest.raises(IdxError, match="payload has .* bytes, expected"):
        load_idx(clipped, lbl_path)


def test_load_idx_count_mismatch(tmp_path, idx_pair, rng):
    img_path, _, _, _ = idx_pair
    nine = tmp_path / "nine.idx"
    nine.write_bytes(_label_bytes(rng.integers(0, 10, size=9)))
    with pytest.raises(IdxError, match="9 labels for the .* images"):
        load_idx(img_path, nine)


def test_dataset_invariants():
    with pytest.raises(ValueError, match="3 images but 2 labels"):
        LabeledDataset(np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((1, 2, 2), dtype=np.uint8), np.array([11]))


def test_subset_names_a_count_above_the_set_size():
    ds = LabeledDataset(np.zeros((5, 2, 2), np.uint8), np.arange(5))
    assert len(ds.subset(5)) == 5 and len(ds.subset(None)) == 5
    with pytest.raises(ValueError, match="cannot take 6 samples from a set of 5"):
        ds.subset(6)


def test_synthetic_blobs_deterministic():
    a = synthetic_blobs(50, seed=5)
    b = synthetic_blobs(50, seed=5)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    c = synthetic_blobs(50, seed=6)
    assert not np.array_equal(a.images, c.images)


def test_synthetic_blobs_shapes_and_range():
    ds = synthetic_blobs(40, classes=7, size=16, seed=1)
    assert ds.images.shape == (40, 16, 16)
    assert ds.images.dtype == np.uint8
    assert ds.labels.min() >= 0 and ds.labels.max() < 7


_STILL = dict(center_jitter=0.0, amplitude_jitter=0.0, pixel_noise=0.0)


@pytest.mark.parametrize("params", [{}, TWIN_B, dict(size=16, classes=4), dict(size=12),
                                    dict(blobs_per_class=1), _STILL],
                         ids=["default", "twin-b", "16x16-4-classes", "12x12",
                              "one-blob", "no-jitter-no-noise"])
@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_synthetic_blobs_match_the_per_sample_renderer(params, n):
    got = synthetic_blobs(n, seed=9, **params)
    want = frozen_data.synthetic_blobs(n, seed=9, **params)
    assert got.images.shape == want.images.shape
    assert got.images.tobytes() == want.images.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


def test_synthetic_blobs_keep_the_inverted_sigma_error():
    params = dict(sigma_min_frac=0.3, sigma_max_frac=0.1)
    with pytest.raises(ValueError) as want:
        frozen_data.synthetic_blobs(5, **params)
    with pytest.raises(ValueError) as got:
        synthetic_blobs(5, **params)
    assert str(got.value) == str(want.value)


def test_load_idx_rejects_negative_dimension(tmp_path, idx_pair):
    _, lbl_path, _, _ = idx_pair
    path = tmp_path / "negative.idx"
    path.write_bytes(struct.pack(">iiii", IMAGE_MAGIC, -2, 2, 2))
    with pytest.raises(IdxError) as err:
        load_idx(path, lbl_path)
    assert str(err.value) == f"{path}: negative dimension in shape (-2, 2, 2)"


def test_load_idx_rejects_shape_past_int64(tmp_path, idx_pair):
    # 2**21 * 2**21 * 2**22 items wrap an int64 product to 0
    _, lbl_path, _, _ = idx_pair
    path = tmp_path / "huge.idx"
    path.write_bytes(struct.pack(">iiii", IMAGE_MAGIC, 2**21, 2**21, 2**22))
    with pytest.raises(IdxError) as err:
        load_idx(path, lbl_path)
    assert str(err.value).startswith(f"{path}: payload has 0 bytes")


def test_load_idx_names_label_file_of_a_label_above_nine(tmp_path, idx_pair):
    img_path, _, _, labels = idx_pair
    path = tmp_path / "labels.idx"
    path.write_bytes(_label_bytes(np.where(np.arange(10) == 3, 10, labels)))
    with pytest.raises(ValueError) as err:
        load_idx(img_path, path)
    assert str(err.value) == f"{path}: labels must be in [0, 9]"


def _splice(draw, data):
    at = draw(st.integers(0, len(data) - 1))
    return data[:at] + draw(st.binary(max_size=4)) + data[at + draw(st.integers(0, 4)):]


@settings(max_examples=150, deadline=1000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_idx_pair_loads_valid_or_names_a_path(tmp_path, data):
    # a run of bytes changed in the header or the body of either file
    rng = np.random.default_rng(0)
    files = {"images.idx": _image_bytes(rng.integers(0, 256, (4, 3, 3)).astype(np.uint8)),
             "labels.idx": _label_bytes(rng.integers(0, 10, 4))}
    name = data.draw(st.sampled_from(sorted(files)))
    files[name] = _splice(data.draw, files[name])
    paths = []
    for name, content in files.items():
        paths.append(tmp_path / name)
        paths[-1].write_bytes(content)
    try:
        ds = load_idx(*paths)
    except ValueError as err:
        assert str(err).startswith((f"{paths[0]}: ", f"{paths[1]}: "))
        return
    assert ds.images.ndim == 3 and len(ds.images) == len(ds.labels)
    assert ds.labels.size == 0 or ds.labels.max() <= 9


@pytest.mark.parametrize("damage", [
    lambda gz: gz[:-6],
    lambda gz: gz[:12] + b"\xff" + gz[13:],
], ids=["cut", "corrupt"])
def test_load_idx_names_a_damaged_gzip_file(tmp_path, idx_pair, damage):
    img_path, lbl_path, _, _ = idx_pair
    path = tmp_path / "images.idx.gz"
    path.write_bytes(damage(gzip.compress(img_path.read_bytes())))
    with pytest.raises(IdxError) as err:
        load_idx(path, lbl_path)
    assert str(err.value).startswith(f"{path}: not a whole gzip file")
