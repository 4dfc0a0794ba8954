"""Command-line entry point.

Subcommands: plan, flops, train, probe, cka, simulate.
Exit codes: 0 ok, 2 config error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import analysis, pipeline
from .auxbuild import STRATEGIES, emit_plan_text, plan_all
from .config import load_datasets, load_experiment, run_experiment, write_csv
from .errors import AugLocalError, ConfigError, DataError
from .netspec import count_flops, count_params, document_format, parse_network_text, validate
from .trainer import LocalLearner, TrainConfig, load_checkpoint

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _add_head_flags(p: argparse.ArgumentParser):
    """The flags every network subcommand takes: the config and the
    auxiliary-head settings."""
    p.add_argument("--config", type=Path)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--d", type=int)
    p.add_argument("--dmin", type=int)
    p.add_argument("--tau", type=float)


def _resolve_network(args):
    """The network ``--config`` names, and its experiment config: a
    ``network/1`` document has none, and any other file is read by
    ``load_experiment``."""
    if args.config is None:
        raise ConfigError("--config is required (network preset or spec file)")
    path = Path(args.config)
    if path.is_file() and document_format(text := path.read_text()) == "network/1":
        return validate(parse_network_text(text)), None
    cfg = load_experiment(path)
    return cfg.validated_network(), cfg


def _apply_overrides(train: TrainConfig, args) -> TrainConfig:
    """``train`` with the command line's training flags applied, checked
    by TrainConfig like any other settings. Only ``train`` has ``--seed``
    and ``--mode``."""
    flags = {"seed": getattr(args, "seed", None), "mode": getattr(args, "mode", None),
             "strategy": args.strategy, "d": args.d, "d_min": args.dmin, "tau": args.tau}
    return replace(train, **{k: v for k, v in flags.items() if v is not None})


def _plan(args):
    network, cfg = _resolve_network(args)
    t = _apply_overrides(cfg.train if cfg else TrainConfig(), args)
    return network, plan_all(network, d=t.d, d_min=t.d_min, tau=t.tau, strategy=t.strategy)


def cmd_plan(args) -> int:
    _, plan = _plan(args)
    text = emit_plan_text(plan)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_flops(args) -> int:
    network, plan = _plan(args)
    print(f"network = {network.spec.name}")
    print(f"primary_flops = {count_flops(network)}")
    print(f"primary_params = {count_params(network)}")
    print(f"aux_flops = {plan.aux_flops()}")
    print(f"total_flops = {plan.total_flops()}")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.config is None:
        raise ConfigError("train needs --config")
    cfg = load_experiment(args.config)
    cfg.train = _apply_overrides(cfg.train, args)
    out = args.out or Path("runs") / f"{cfg.network.name}-{cfg.train.mode}-seed{cfg.train.seed}"
    result = run_experiment(cfg, out)
    print(f"test_top1 = {result['test_top1']:.4f}")
    print(f"artifacts = {result['out_dir']}")
    return EXIT_OK


def _load_run(run_dir: Path) -> tuple:
    cfg_path = run_dir / "config.txt"
    ckpt = run_dir / "checkpoint.bin"
    if not cfg_path.exists() or not ckpt.exists():
        raise ConfigError(f"{run_dir} is not a training run directory")
    cfg = load_experiment(cfg_path)
    learner = LocalLearner(cfg.validated_network(), cfg.train)
    load_checkpoint(ckpt, learner)
    return cfg, learner


def _probe_layers(text: str | None, num_units: int) -> list[int]:
    """The layers ``--layers`` names, each in 1..num_units; every layer when
    the flag is not given."""
    if text is None:
        return list(range(1, num_units + 1))
    try:
        layers = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"--layers must be comma-separated integers, got {text!r}") from None
    outside = [layer for layer in layers if not 1 <= layer <= num_units]
    if outside:
        raise ConfigError(f"--layers {outside} lie outside 1..{num_units}")
    return layers


def cmd_probe(args) -> int:
    cfg, learner = _load_run(args.run)
    layers = _probe_layers(args.layers, learner.model.num_units)
    tr, te = load_datasets(cfg)
    rows = []
    for layer in layers:
        acc = analysis.linear_probe(learner.model, layer,
                                    (tr.images, tr.labels), (te.images, te.labels),
                                    seed=cfg.train.seed)
        rows.append((layer, acc))
        print(f"layer {layer}: probe_acc = {acc:.4f}")
    if args.out:
        write_csv(args.out, ["layer", "probe_acc"], rows)
    return EXIT_OK


def cmd_cka(args) -> int:
    if args.probe_size < 2:
        raise ConfigError(f"--probe-size must be at least 2, got {args.probe_size}")
    cfg_a, learner_a = _load_run(args.run_a)
    _, learner_b = _load_run(args.run_b)
    _, te = load_datasets(cfg_a)
    probe_x = te.images[:args.probe_size]
    scores = analysis.layerwise_cka(learner_a.model, learner_b.model, probe_x)
    rows = [(i + 1, s) for i, s in enumerate(scores["per_layer"])]
    for layer, s in rows:
        print(f"layer {layer}: cka = {s:.4f}")
    print(f"average = {scores['average']:.4f}")
    if args.out:
        write_csv(args.out, ["layer", "score"], rows)
    return EXIT_OK


_SIM_COLUMNS = ["L", "d", "t_f", "t_b", "N", "bp_time", "auglocal_time",
                "simulated", "ratio"]


def cmd_simulate(args) -> int:
    """The simulated makespan beside the closed-form BP and AugLocal times."""
    cfg = pipeline.PipelineConfig(
        num_layers=args.L, d=args.d, t_f=args.tf, t_b=args.tb,
        iterations=args.N, time_jitter=args.jitter, seed=args.seed)
    simulated = pipeline.simulate_pipeline(cfg).makespan
    pred = pipeline.predict_times(args.L, args.d, args.tf, args.tb, args.N)
    row = [args.L, args.d, args.tf, args.tb, args.N, pred["bp_time"],
           pred["auglocal_time"], simulated, simulated / pred["bp_time"]]
    print(dict(zip(_SIM_COLUMNS, row)))
    if args.out:
        write_csv(args.out, _SIM_COLUMNS, [row])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="auglocal")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan")
    _add_head_flags(p)
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("flops")
    _add_head_flags(p)
    p.set_defaults(fn=cmd_flops)

    p = sub.add_parser("train")
    _add_head_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["bp", "local"])
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("probe")
    p.add_argument("run", type=Path)
    p.add_argument("--layers", type=str, default=None)
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("cka")
    p.add_argument("run_a", type=Path)
    p.add_argument("run_b", type=Path)
    p.add_argument("--probe-size", type=int, default=256)
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_cka)

    p = sub.add_parser("simulate")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tf", type=float, default=1.0)
    p.add_argument("--tb", type=float, default=1.0)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except DataError as exc:
        _emit_error("data", exc)
        return EXIT_DATA
    except (AugLocalError, OSError, ValueError) as exc:
        _emit_error("runtime", exc)
        return EXIT_RUNTIME


def _emit_error(kind: str, exc: Exception) -> None:
    record = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
