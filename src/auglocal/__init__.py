"""Layer-wise local learning with augmented auxiliary networks.

Library layout:

- ``tensor``: numpy-backed tensors with tape-based reverse-mode autodiff
  and a stop-gradient boundary
- ``netspec``: declarative network descriptions, validation, parameter and
  FLOPs accounting, presets
- ``auxbuild``: per-layer auxiliary head construction (depth schedule,
  selection strategies, dimension adaptation)
- ``nn``: executable models built from specs
- ``trainer``: gradient-isolated local training and the BP baseline at
  any number of stage-parallel workers, SGD, evaluation, checkpoints
- ``pipeline``: training-time model, discrete-event pipeline simulator
- ``analysis``: linear CKA, linear probing, peak-memory model
- ``data`` / ``config`` / ``cli``: ingestion, experiment configs, CLI
"""

__version__ = "0.1.0"
