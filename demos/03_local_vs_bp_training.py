"""Gradient-isolated local training versus end-to-end backprop.

Trains the TinyNet-8 preset on a seeded synthetic task three ways — global
backprop, local training with shallow heads (d=2), and local training with
deeper heads (d=3) — and verifies that training the d=3 run again on 4
stage-parallel workers reproduces it bit for bit.

Run:  python3 demos/03_local_vs_bp_training.py   (about a minute on CPU)
"""

import numpy as np

from auglocal.data import gen_synthetic
from auglocal.netspec import tinynet8, validate
from auglocal.trainer import TrainConfig, train


def main() -> None:
    net = validate(tinynet8())
    tr = gen_synthetic(10, (3, 8, 8), 120, seed=0, separation=5.0)
    te = gen_synthetic(10, (3, 8, 8), 40, seed=10_000, separation=5.0)
    data = ((tr.images, tr.labels), (te.images, te.labels))
    print(f"{net.spec.name}: {net.num_units} units, "
          f"{len(tr.labels)} train / {len(te.labels)} test examples")
    print()

    runs = {}
    for label, cfg in [
        ("backprop", TrainConfig(mode="bp", lr=0.2, epochs=12, batch_size=128,
                                 seed=0)),
        ("local d=2", TrainConfig(mode="local", d=2, lr=0.2, epochs=12,
                                  batch_size=128, seed=0)),
        ("local d=3", TrainConfig(mode="local", d=3, lr=0.2, epochs=12,
                                  batch_size=128, seed=0)),
    ]:
        learner, hist = train(net, cfg, *data)
        accs = [r["top1"] for r in hist if r["split"] == "test"]
        runs[label] = (cfg, learner, accs)
        print(f"  {label:10s} test accuracy: start {accs[0]:.3f} -> "
              f"final {accs[-1]:.3f}")
    print()

    cfg, seq_learner, _ = runs["local d=3"]
    pipe_learner, _ = train(net, cfg, *data, workers=4)
    identical = all(
        np.array_equal(t.data, pipe_learner.model.params[name].data)
        for name, t in seq_learner.model.params.items())
    print("4-worker run identical to the 1-worker run:",
          identical)


if __name__ == "__main__":
    main()
