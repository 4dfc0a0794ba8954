"""Dataset ingestion: CIFAR-10 binary batches, MNIST IDX files, and a
seeded synthetic Gaussian-blob generator for desk-scale runs."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadLabelByte, BadMagic, DimMismatch, TruncatedFile

_CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes, channel-major


@dataclass
class Dataset:
    images: np.ndarray   # (N, C, H, W) float
    labels: np.ndarray   # (N,) int


def load_cifar10(path, mean: tuple[float, ...] | None = None,
                 std: tuple[float, ...] | None = None) -> Dataset:
    """One CIFAR-10 binary batch file: 10000 records of 3073 bytes.

    Pixels are scaled to [0, 1]; when normalization constants are given
    they are applied per channel afterwards.
    """
    raw = np.fromfile(str(path), dtype=np.uint8)
    if raw.size == 0 or raw.size % _CIFAR_RECORD != 0:
        raise TruncatedFile(f"{path}: size {raw.size} is not a multiple of {_CIFAR_RECORD}")
    records = raw.reshape(-1, _CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) > 9:
        raise BadLabelByte(f"{path}: label byte {labels.max()} > 9")
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    if mean is not None and std is not None:
        m = np.asarray(mean).reshape(1, 3, 1, 1)
        s = np.asarray(std).reshape(1, 3, 1, 1)
        images = (images - m) / s
    return Dataset(images=images, labels=labels)


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """MNIST IDX pair: big-endian headers, (N, 1, 28, 28) floats in [0, 1]."""
    with open(images_path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise TruncatedFile(f"{images_path}: header too short")
        magic, n, rows, cols = struct.unpack(">IIII", header)
        if magic != _IDX_IMAGES_MAGIC:
            raise BadMagic(f"{images_path}: magic {magic:#010x}")
        if n == 0:
            raise DimMismatch(f"{images_path}: header promises no images")
        payload = fh.read()
    if len(payload) != n * rows * cols:
        raise DimMismatch(
            f"{images_path}: header promises {n}x{rows}x{cols}, payload has {len(payload)} bytes")
    images = np.frombuffer(payload, dtype=np.uint8).reshape(n, 1, rows, cols)
    images = images.astype(np.float64) / 255.0

    with open(labels_path, "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise TruncatedFile(f"{labels_path}: header too short")
        magic, nl = struct.unpack(">II", header)
        if magic != _IDX_LABELS_MAGIC:
            raise BadMagic(f"{labels_path}: magic {magic:#010x}")
        lab = fh.read()
    if len(lab) != nl or nl != n:
        raise DimMismatch(f"{labels_path}: {nl} labels for {n} images")
    labels = np.frombuffer(lab, dtype=np.uint8).astype(np.int64)
    return Dataset(images=images, labels=labels)


def _simplex_means(classes: int, dims: int, separation: float) -> np.ndarray:
    """Class means: a regular simplex embedded in the first ``classes``
    coordinates, scaled so adjacent means are ``separation`` apart."""
    eye = np.eye(classes)
    centered = eye - eye.mean(axis=0, keepdims=True)
    centered *= separation / np.sqrt(2.0)   # pairwise distance of e_i - e_j is sqrt(2)
    means = np.zeros((classes, dims))
    means[:, :classes] = centered[:, :min(classes, dims)]
    return means


def gen_synthetic(classes: int, shape: tuple[int, int, int], n_per_class: int,
                  seed: int, separation: float = 3.0) -> Dataset:
    """Seeded Gaussian blobs with unit covariance and simplex-arranged means,
    shaped as (C, H, W) images. Deterministic per seed."""
    if classes < 2:
        raise ValueError("need at least 2 classes")
    dims = int(np.prod(shape))
    rng = np.random.default_rng(seed)
    means = _simplex_means(classes, dims, separation)
    xs = []
    ys = []
    for c in range(classes):
        xs.append(means[c] + rng.standard_normal(size=(n_per_class, dims)))
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    images = np.concatenate(xs).reshape(-1, *shape)
    labels = np.concatenate(ys)
    order = rng.permutation(len(labels))
    return Dataset(images=images[order], labels=labels[order])

