"""Experiment configuration and the experiment runner.

Configs are nested-section key-value text with an explicit format version.
Parsing is fail-closed: unknown sections or keys are errors, the seed is
mandatory, and every value is checked as it is read (training settings by
TrainConfig), so a typo can never silently change an experiment.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import data as datamod
from .auxbuild import emit_plan_text
from .errors import ConfigError, DataError
from .netspec import (
    PrimaryNetworkSpec,
    ValidatedNetwork,
    emit_network_text,
    parse_network_text,
    preset,
    read_document,
    require,
    validate,
    write_document,
)
from .trainer import TrainConfig, save_checkpoint, train

_FORMAT = "experiment/1"
# the file in a run directory that holds the network's canonical text,
# when no preset names the network
NETWORK_FILE = "network.net"


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _channel_triplet(text: str) -> str:
    """``text`` itself, after checking that it is three finite numbers."""
    values = _numbers(text)
    if len(values) != 3 or not all(map(math.isfinite, values)):
        raise ValueError("expected three comma-separated finite numbers")
    return text


def _checked(cast, ok, expected: str):
    """``cast``, rejecting a value for which ``ok`` is false; ``expected``
    names the values it accepts."""
    def read(text: str):
        value = cast(text)
        if not ok(value):
            raise ValueError(f"expected {expected}")
        return value
    return read


_COUNT = _checked(int, lambda v: v >= 1, "an integer of at least 1")

_SCHEMA: dict[str, dict[str, type | object]] = {
    "experiment": {"seed": int},
    "network": {"preset": str, "spec_file": str},
    # TrainConfig's fields, each cast by the type of its default; the seed is [experiment]'s
    "train": {f.name: type(f.default) for f in fields(TrainConfig) if f.name != "seed"},
    "data": {
        "kind": str,
        "n_per_class": _COUNT, "test_per_class": _COUNT,
        "separation": _checked(float, lambda v: math.isfinite(v) and v > 0,
                               "a positive finite number"),
        "seed": _checked(int, lambda v: v >= 0, "a non-negative integer"),
        "train_files": str, "test_files": str,
        "normalize_mean": _channel_triplet, "normalize_std": _channel_triplet,
        "train_images": str, "train_labels": str,
        "test_images": str, "test_labels": str, "limit": _COUNT,
    },
}

# data.kind -> (its required [data] keys, its optional [data] keys)
_DATA_KINDS = {
    "synthetic-gaussians": ((), ("n_per_class", "test_per_class", "separation", "seed")),
    "cifar10-binary": (("train_files", "test_files"), ("normalize_mean", "normalize_std")),
    "mnist-idx": (("train_images", "train_labels", "test_images", "test_labels"),
                  ("limit",)),
}
# the [data] keys that name files: comma-separated lists, then single files
_FILE_LISTS = ("train_files", "test_files")
_FILES = ("train_images", "train_labels", "test_images", "test_labels")


@dataclass
class ExperimentConfig:
    network: PrimaryNetworkSpec
    train: TrainConfig                # holds the run's seed
    data: dict                        # [data] as read, file paths absolute; normalize_* stay text
    preset_name: str | None = None

    def validated_network(self) -> ValidatedNetwork:
        return validate(self.network)


def emit_experiment_text(cfg: ExperimentConfig) -> str:
    """Canonical config text reflecting the effective settings (including
    any command-line overrides), so a run directory is self-describing. A
    network not named by a preset is the run directory's NETWORK_FILE."""
    network = ({"preset": cfg.preset_name} if cfg.preset_name is not None
               else {"spec_file": NETWORK_FILE})
    return write_document(_FORMAT, [
        ("experiment", {"seed": cfg.train.seed}), ("network", network),
        ("train", {k: getattr(cfg.train, k) for k in _SCHEMA["train"]}),
        ("data", cfg.data)])


def parse_experiment_text(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    """Read an experiment config. Every file it names, the network spec and
    the [data] files, is resolved here, and only here, to an absolute path
    against ``base_dir``, the config's directory (the working directory
    when None). Only the network spec is opened."""
    parsed = read_document(text, _FORMAT, _SCHEMA)

    def where(name: str) -> str:
        return str((Path(base_dir or "") / name.strip()).absolute())

    seed = require(parsed.get("experiment", {}), "experiment", ("seed",))["seed"]
    netsec = parsed.get("network", {})
    if ("preset" in netsec) == ("spec_file" in netsec):
        raise ConfigError("network needs exactly one of 'preset' or 'spec_file'")
    preset_name = netsec.get("preset")
    if "preset" in netsec:
        network = preset(netsec["preset"])
    else:
        spec_path = Path(where(netsec["spec_file"]))
        if not spec_path.is_file():
            raise ConfigError(f"network spec file not found: {spec_path}")
        network = parse_network_text(spec_path.read_text())
    train_cfg = TrainConfig(seed=seed, **parsed.get("train", {}))

    dsec = require(parsed.get("data", {}), "data", ("kind",))
    if dsec["kind"] not in _DATA_KINDS:
        raise ConfigError(f"unknown data.kind: {dsec['kind']!r}")
    required, optional = _DATA_KINDS[dsec["kind"]]
    require(dsec, "data", required)
    stray = set(dsec) - {"kind", *required, *optional}
    if stray:
        raise ConfigError(f"[data] keys {sorted(stray)} do not apply to kind = {dsec['kind']}")
    if ("normalize_mean" in dsec) != ("normalize_std" in dsec):
        raise ConfigError("[data] normalize_mean and normalize_std come as a pair or not at all")
    if "normalize_std" in dsec and min(_numbers(dsec["normalize_std"])) <= 0:
        raise ConfigError("[data] normalize_std values must be positive")
    dsec.update({k: ",".join(map(where, dsec[k].split(","))) for k in _FILE_LISTS if k in dsec})
    dsec.update({k: where(dsec[k]) for k in _FILES if k in dsec})
    return ExperimentConfig(network=network, train=train_cfg, data=dsec,
                            preset_name=preset_name)


def load_experiment(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_experiment_text(path.read_text(), base_dir=path.parent)


def load_datasets(cfg: ExperimentConfig):
    """Materialize (train, test) datasets described by the config. A data
    file that cannot be read is a DataError."""
    d = cfg.data
    kind = d["kind"]
    if kind == "synthetic-gaussians":
        classes = cfg.network.num_classes
        shape = cfg.network.input_shape
        seed = d.get("seed", cfg.train.seed)
        sep = d.get("separation", 5.0)
        tr = datamod.gen_synthetic(classes, shape, d.get("n_per_class", 120),
                                   seed=seed, separation=sep)
        te = datamod.gen_synthetic(classes, shape, d.get("test_per_class", 40),
                                   seed=seed + 10_000, separation=sep)
        return tr, te
    try:
        if kind == "cifar10-binary":
            mean, std = ((_numbers(d["normalize_mean"]), _numbers(d["normalize_std"]))
                         if "normalize_mean" in d else (None, None))

            def load_files(listing: str) -> datamod.Dataset:
                parts = [datamod.load_cifar10(p, mean, std) for p in listing.split(",")]
                return datamod.Dataset(np.concatenate([x.images for x in parts]),
                                       np.concatenate([x.labels for x in parts]))

            return load_files(d["train_files"]), load_files(d["test_files"])
        tr = datamod.load_mnist_idx(d["train_images"], d["train_labels"])
        te = datamod.load_mnist_idx(d["test_images"], d["test_labels"])
    except OSError as exc:
        raise DataError(f"cannot read data file: {exc}") from None
    limit = d.get("limit")
    if limit:
        tr = datamod.Dataset(tr.images[:limit], tr.labels[:limit])
    return tr, te


METRICS_COLUMNS = ["epoch", "split", "loss", "top1", "lr", "wall_ms"]
METRICS_SCHEMA_VERSION = 1


def write_csv(path: Path, header, rows) -> None:
    """Write ``header``, then ``rows``, to the CSV file ``path``, making its
    directory if needed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def code_version_hash() -> str:
    """Content hash over the package sources, so a manifest pins the exact
    code that produced a result."""
    root = Path(__file__).parent
    digest = hashlib.sha256()
    for src in sorted(root.glob("*.py")):
        digest.update(src.name.encode())
        digest.update(src.read_bytes())
    return digest.hexdigest()


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Train per config and write metrics.csv, plan.txt, checkpoint, and a
    reproducibility manifest into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    network = cfg.validated_network()
    tr, te = load_datasets(cfg)
    for split, ds in (("training", tr), ("test", te)):
        if ds.labels.max() >= cfg.network.num_classes:
            raise DataError(f"{split} set has more classes than the network emits")
        if ds.images.shape[1:] != tuple(cfg.network.input_shape):
            raise DataError(f"{split} images are {ds.images.shape[1:]}, but the network "
                            f"takes {cfg.network.input_shape}")

    t0 = time.perf_counter()
    learner, history = train(network, cfg.train, (tr.images, tr.labels),
                             (te.images, te.labels))
    wall = time.perf_counter() - t0
    if learner.plan is not None:
        (out / "plan.txt").write_text(emit_plan_text(learner.plan))
    write_csv(out / "metrics.csv", METRICS_COLUMNS,
              ([row[c] for c in METRICS_COLUMNS] for row in history))
    save_checkpoint(out / "checkpoint.bin", learner)

    effective = emit_experiment_text(cfg)
    (out / "config.txt").write_text(effective)
    if cfg.preset_name is None:
        (out / NETWORK_FILE).write_text(emit_network_text(cfg.network))
    manifest = {
        "metrics_schema_version": METRICS_SCHEMA_VERSION,
        "config_sha256": hashlib.sha256(effective.encode()).hexdigest(),
        "code_sha256": code_version_hash(),
        "seed": cfg.train.seed,
        "mode": cfg.train.mode,
        "network": cfg.network.name,
        "wall_seconds": wall,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    final_acc = next((r["top1"] for r in reversed(history) if r["split"] == "test"),
                     float("nan"))
    return {"learner": learner, "history": history, "test_top1": final_acc,
            "out_dir": str(out)}
