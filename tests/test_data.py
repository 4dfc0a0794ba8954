"""Dataset ingestion: binary formats and the synthetic generator."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auglocal.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME, main
from auglocal.data import gen_synthetic, load_cifar10
from auglocal.errors import BadLabelByte, DataError, TruncatedFile
from auglocal.netspec import ClassifierSpec, LocalUnitSpec, PrimaryNetworkSpec, emit_network_text
from helpers import serialize_cifar10_record


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


# ---------------------------------------------------------------------------
# fuzzing: truncated and mutated files
# ---------------------------------------------------------------------------

def _cifar_bytes(labels=(3, 7)) -> bytes:
    """Two CIFAR-10 records with the given labels."""
    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, size=(2, 3, 32, 32)) / 255.0
    return b"".join(serialize_cifar10_record(img, lab) for img, lab in zip(images, labels))


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """``valid`` cut short, with some bytes overwritten and a tail appended."""
    out = bytearray(valid[:draw(st.integers(0, len(valid)))])
    for _ in range(draw(st.integers(0, 6))):
        if out:
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out) + draw(st.binary(max_size=8))


@settings(max_examples=150, deadline=None)
@given(cifar=mutated(_cifar_bytes()))
def test_loaders_reject_mutated_files_with_data_errors(cifar):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "b.bin"
        path.write_bytes(cifar)
        try:
            ds = load_cifar10(path)
        except DataError:
            return
        assert ds.images.ndim == 4 and ds.images.shape[0] == ds.labels.shape[0] > 0


# four classes, so a label byte of 4 to 9 is a valid record the network cannot emit
CIFAR_CLASSES = 4
CIFAR_NETWORK = emit_network_text(PrimaryNetworkSpec(
    (LocalUnitSpec("conv3x3", 3, 2, stride=2), LocalUnitSpec("conv3x3", 2, 2, stride=2),
     LocalUnitSpec("conv3x3", 2, 2, stride=2)), ClassifierSpec(2, CIFAR_CLASSES),
    (3, 32, 32), CIFAR_CLASSES, name="cifar3"))

CIFAR_EXPERIMENT = """format = experiment/1
[experiment]
seed = 0
[network]
spec_file = net.net
[train]
mode = local
epochs = 1
batch_size = 2
[data]
kind = cifar10-binary
train_files = c.bin
test_files = c.bin
"""


def test_cli_train_rejects_test_labels_the_network_cannot_emit(tmp_path, capsys):
    (tmp_path / "net.net").write_text(CIFAR_NETWORK)
    (tmp_path / "exp.cfg").write_text(CIFAR_EXPERIMENT.replace("test_files = c.bin",
                                                               "test_files = t.bin"))
    (tmp_path / "c.bin").write_bytes(_cifar_bytes((1, 2)))
    (tmp_path / "t.bin").write_bytes(_cifar_bytes((1, 9)))
    code = main(["train", "--config", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "run")])
    assert code == EXIT_DATA
    assert json.loads(capsys.readouterr().err)["type"] == "DataError"


@settings(max_examples=25, deadline=None)
@given(cifar=mutated(_cifar_bytes((1, 2))))
def test_cli_train_on_mutated_files_exits_with_a_documented_code(cifar):
    # a file the loader rejects, or whose labels the network cannot emit,
    # is a data error (exit 3); one it accepts trains, or fails with one
    # typed error record (exit 2 or 4)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "net.net").write_text(CIFAR_NETWORK)
        (tmp / "exp.cfg").write_text(CIFAR_EXPERIMENT)
        (tmp / "c.bin").write_bytes(cifar)
        try:
            usable = load_cifar10(tmp / "c.bin").labels.max() < CIFAR_CLASSES
        except DataError:
            usable = False
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--config", str(tmp / "exp.cfg"), "--out", str(tmp / "run")])
        if not usable:
            assert code == EXIT_DATA
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_RUNTIME)
        if code != EXIT_OK:
            record = json.loads(err.getvalue())
            assert record["error"] in ("config", "data", "runtime")
