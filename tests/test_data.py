"""Dataset ingestion: binary formats and the synthetic generator."""

import struct

import numpy as np
import pytest

from auglocal.data import (
    Dataset,
    gen_synthetic,
    load_cifar10,
    load_mnist_idx,
    serialize_cifar10_record,
)
from auglocal.errors import BadLabelByte, BadMagic, DimMismatch, TruncatedFile


def write_cifar_batch(path, images01, labels):
    with open(path, "wb") as fh:
        for img, lab in zip(images01, labels):
            fh.write(serialize_cifar10_record(img, int(lab)))


def test_cifar_round_trip_byte_exact(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 3, 32, 32)).astype(np.float64) / 255.0
    labels = rng.integers(0, 10, size=5)
    path = tmp_path / "batch.bin"
    write_cifar_batch(path, images, labels)
    ds = load_cifar10(path)
    assert ds.images.shape == (5, 3, 32, 32)
    np.testing.assert_allclose(ds.images, images, atol=1e-12)
    np.testing.assert_array_equal(ds.labels, labels)


def test_cifar_normalization_applied_per_channel(tmp_path):
    value = 128 / 255.0
    images = np.full((2, 3, 32, 32), value)
    path = tmp_path / "b.bin"
    write_cifar_batch(path, images, [0, 1])
    mean = (0.1, 0.2, 0.3)
    std = (0.5, 0.25, 0.1)
    ds = load_cifar10(path, mean, std)
    for c in range(3):
        expected = (value - mean[c]) / std[c]
        np.testing.assert_allclose(ds.images[:, c], expected)


def test_cifar_truncated_file_rejected(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"\x00" * 3072)   # one byte short of a record
    with pytest.raises(TruncatedFile):
        load_cifar10(path)
    (tmp_path / "empty.bin").write_bytes(b"")
    with pytest.raises(TruncatedFile):
        load_cifar10(tmp_path / "empty.bin")


def test_cifar_bad_label_byte_rejected(tmp_path):
    rec = bytes([11]) + b"\x00" * 3072
    path = tmp_path / "bad.bin"
    path.write_bytes(rec)
    with pytest.raises(BadLabelByte):
        load_cifar10(path)


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   n_override=None):
    n, rows, cols = images.shape[0], images.shape[2], images.shape[3]
    ip = tmp_path / "img.idx"
    lp = tmp_path / "lab.idx"
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, n_override or n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lp, "wb") as fh:
        fh.write(struct.pack(">II", label_magic, len(labels)))
        fh.write(bytes(int(v) for v in labels))
    return ip, lp


def test_mnist_idx_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    raw = rng.integers(0, 256, size=(4, 1, 28, 28))
    labels = rng.integers(0, 10, size=4)
    ip, lp = write_idx_pair(tmp_path, raw, labels)
    ds = load_mnist_idx(ip, lp)
    assert ds.images.shape == (4, 1, 28, 28)
    np.testing.assert_allclose(ds.images, raw / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)


def test_mnist_idx_bad_magic(tmp_path):
    raw = np.zeros((2, 1, 28, 28))
    ip, lp = write_idx_pair(tmp_path, raw, [0, 1], image_magic=0x804)
    with pytest.raises(BadMagic):
        load_mnist_idx(ip, lp)
    ip, lp = write_idx_pair(tmp_path, raw, [0, 1], label_magic=0x802)
    with pytest.raises(BadMagic):
        load_mnist_idx(ip, lp)


def test_mnist_idx_dim_mismatch(tmp_path):
    raw = np.zeros((3, 1, 28, 28))
    ip, lp = write_idx_pair(tmp_path, raw, [0, 1, 2], n_override=4)
    with pytest.raises(DimMismatch):
        load_mnist_idx(ip, lp)
    # label count disagreeing with image count
    ip, lp = write_idx_pair(tmp_path, raw, [0, 1])
    with pytest.raises(DimMismatch):
        load_mnist_idx(ip, lp)


def test_mnist_idx_truncated_header(tmp_path):
    ip = tmp_path / "tiny.idx"
    ip.write_bytes(b"\x00" * 8)
    with pytest.raises(TruncatedFile):
        load_mnist_idx(ip, ip)


def test_synthetic_deterministic_per_seed():
    a = gen_synthetic(4, (3, 6, 6), 10, seed=7)
    b = gen_synthetic(4, (3, 6, 6), 10, seed=7)
    c = gen_synthetic(4, (3, 6, 6), 10, seed=8)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)


def test_synthetic_shapes_and_balance():
    ds = gen_synthetic(5, (1, 4, 4), 12, seed=0)
    assert ds.images.shape == (60, 1, 4, 4)
    counts = np.bincount(ds.labels, minlength=5)
    assert list(counts) == [12] * 5


def test_synthetic_class_means_separated_as_requested():
    sep = 6.0
    ds = gen_synthetic(3, (2, 5, 5), 400, seed=3, separation=sep)
    flat = ds.images.reshape(len(ds.labels), -1)
    means = np.stack([flat[ds.labels == c].mean(axis=0) for c in range(3)])
    for i in range(3):
        for j in range(i + 1, 3):
            dist = np.linalg.norm(means[i] - means[j])
            assert dist == pytest.approx(sep, rel=0.1)


def test_synthetic_rejects_single_class():
    with pytest.raises(ValueError):
        gen_synthetic(1, (1, 2, 2), 4, seed=0)
