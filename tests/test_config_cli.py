"""Experiment configs, the run-directory layout, and the command line."""

import argparse
import csv
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auglocal.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME, build_parser, main
from auglocal.config import (
    emit_experiment_text,
    load_datasets,
    load_experiment,
    parse_experiment_text,
    run_experiment,
)
from auglocal.data import serialize_cifar10_record
from auglocal.errors import ConfigError
from auglocal.netspec import (
    ClassifierSpec,
    LocalUnitSpec,
    PrimaryNetworkSpec,
    emit_network_text,
    parse_network_text,
)
from auglocal.trainer import LocalLearner, save_checkpoint

NETWORK_TEXT = emit_network_text(PrimaryNetworkSpec(
    (LocalUnitSpec("conv3x3", 3, 4),
     LocalUnitSpec("conv3x3", 4, 4),
     LocalUnitSpec("conv3x3", 4, 8, stride=2)),
    ClassifierSpec(8, 4), (3, 6, 6), 4, name="small3"))

CONFIG_TEXT = """format = experiment/1
[experiment]
seed = 5
[network]
spec_file = net.net
[train]
mode = local
d = 2
lr = 0.2
epochs = 2
batch_size = 16
[data]
kind = synthetic-gaussians
n_per_class = 16
test_per_class = 8
separation = 5.0
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "net.net").write_text(NETWORK_TEXT)
    (tmp_path / "exp.cfg").write_text(CONFIG_TEXT)
    return tmp_path


def test_parse_round_trips_fields(workdir):
    cfg = load_experiment(workdir / "exp.cfg")
    assert cfg.train.seed == 5
    assert cfg.train.mode == "local" and cfg.train.d == 2
    assert cfg.train.epochs == 2 and cfg.train.lr == 0.2
    assert cfg.network.name == "small3"
    assert cfg.data["kind"] == "synthetic-gaussians"


def test_parse_fail_closed():
    base = CONFIG_TEXT.replace("spec_file = net.net", "preset = tinynet8")
    with pytest.raises(ConfigError):
        parse_experiment_text(base.replace("lr = 0.2", "lr = 0.2\nlearning = 3"))
    with pytest.raises(ConfigError):
        parse_experiment_text(base + "[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_experiment_text(base.replace("seed = 5\n", ""))
    with pytest.raises(ConfigError):
        parse_experiment_text(base.replace("experiment/1", "experiment/2"))
    with pytest.raises(ConfigError):
        parse_experiment_text(base.replace("lr = 0.2", "lr = fast"))
    with pytest.raises(ConfigError):
        parse_experiment_text(base + "[network]\npreset = tinynet8\n")
    with pytest.raises(ConfigError):
        parse_experiment_text(base.replace("lr = 0.2",
                                           "lr = 0.2\nupdate_after_forward = false"))
    with pytest.raises(ConfigError):
        parse_experiment_text(base.replace("lr = 0.2", "lr = -1"))
    with pytest.raises(ConfigError):
        parse_experiment_text(base.replace("epochs = 2", "epochs = 0"))
    with pytest.raises(ConfigError):
        parse_experiment_text(base.replace("[experiment]", "seed = 5\n[experiment]"))
    with pytest.raises(ConfigError):
        parse_experiment_text(base.replace("kind = synthetic-gaussians",
                                           "kind = cifar10-binary\ntest_files = t.bin")
                              .replace("n_per_class = 16\ntest_per_class = 8\n"
                                       "separation = 5.0\n", ""))
    with pytest.raises(ConfigError):
        parse_experiment_text(base + "train_files = data_batch_1.bin\n")
    with pytest.raises(ConfigError):
        parse_experiment_text(base.replace("batch_size = 16", "batch_size = 0"))
    # a synthetic set has the network's class count, which no key sets
    with pytest.raises(ConfigError):
        parse_experiment_text(base.replace("n_per_class = 16", "classes = 4\nn_per_class = 16"))
    # every training setting is checked when it is read, not when it is used
    for old, new in [("d = 2", "d = 2\nstrategy = foo"), ("d = 2", "d = 1"),
                     ("d = 2", "d = 2\nd_min = 5"), ("d = 2", "d = 2\ntau = 2.0"),
                     ("lr = 0.2", "lr = nan"), ("lr = 0.2", "lr = inf"),
                     ("lr = 0.2", "lr = 0.2\nmomentum = nan"),
                     ("lr = 0.2", "lr = 0.2\nweight_decay = -1"),
                     ("seed = 5", "seed = -1")]:
        with pytest.raises(ConfigError):
            parse_experiment_text(base.replace(old, new))
    # so is every [data] number: counts and limit at least 1, a positive
    # finite separation, a non-negative seed; the error says what is allowed
    count, positive = "expected an integer of at least 1", "expected a positive finite number"
    for old, new, reason in [("n_per_class = 16", "n_per_class = 0", count),
                             ("n_per_class = 16", "n_per_class = -3", count),
                             ("n_per_class = 16", "n_per_class = many", "invalid literal"),
                             ("test_per_class = 8", "test_per_class = 0", count),
                             ("test_per_class = 8", "test_per_class = -1", count),
                             ("separation = 5.0", "separation = nan", positive),
                             ("separation = 5.0", "separation = inf", positive),
                             ("separation = 5.0", "separation = 0", positive),
                             ("separation = 5.0", "separation = 5.0\nseed = -1",
                              "expected a non-negative integer")]:
        with pytest.raises(ConfigError, match=f"is not valid: {reason}"):
            parse_experiment_text(base.replace(old, new))
    mnist = base.split("[data]")[0] + ("[data]\nkind = mnist-idx\ntrain_images = a\n"
                                      "train_labels = b\ntest_images = c\ntest_labels = d\n")
    assert parse_experiment_text(mnist + "limit = 5\n").data["limit"] == 5
    for limit in ("-5", "0"):
        with pytest.raises(ConfigError, match="limit = .* is not valid: expected an integer"):
            parse_experiment_text(mnist + f"limit = {limit}\n")
    with pytest.raises(ConfigError):
        parse_experiment_text(base + "[analysis]\nprobe_layers = 1,2\n")
    cifar = base.split("[data]")[0] + ("[data]\nkind = cifar10-binary\ntrain_files = a.bin\n"
                                      "test_files = b.bin\n")
    with pytest.raises(ConfigError):
        parse_experiment_text(cifar + "normalize_mean = 0.5,0.5,0.5\n")
    with pytest.raises(ConfigError, match="normalize_mean = '1,2' is not valid: expected three"):
        parse_experiment_text(cifar + "normalize_mean = 1,2\nnormalize_std = 1,1,1\n")
    with pytest.raises(ConfigError, match="normalize_mean = 'a,b,c' is not valid: could not"):
        parse_experiment_text(cifar + "normalize_mean = a,b,c\nnormalize_std = 1,1,1\n")
    with pytest.raises(ConfigError):
        parse_experiment_text(cifar + "normalize_mean = 0,0,0\nnormalize_std = 1,0,1\n")
    paired = parse_experiment_text(cifar + "normalize_mean = 0.5,0.5,0.5\n"
                                           "normalize_std = 0.2, 0.2 ,0.2\n")
    assert paired.data["normalize_std"] == "0.2, 0.2 ,0.2"    # kept as read


JUNK_LINES = st.one_of(st.sampled_from([
    "", "# note", "no equals sign", "= 1", "[mystery]", "[network]", "[unit 1]", "[unit 9]",
    "[classifier]", "[train]", "[data]", "format = network/1", "format = experiment/1",
    "seed = 1", "kind = dense", "kind = cifar10-binary", "train_files = a.bin",
]), st.text(max_size=12))
JUNK_VALUES = st.one_of(st.sampled_from([
    "", "0", "-1", "3", "1e309", "nan", "true", "3,8,8", "3,8", "dense", "bp", "tinynet8",
]), st.text(max_size=8))


@st.composite
def mutated(draw, text):
    """``text`` after 1-3 line edits: drop, duplicate, swap, garble a value,
    or insert a junk line."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "garble", "insert"]))
        if op == "insert" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(JUNK_LINES))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = lines[i].partition("=")[0] + "= " + draw(JUNK_VALUES)
    return "\n".join(lines) + "\n"


EXPERIMENT_TEXT = emit_experiment_text(parse_experiment_text(
    CONFIG_TEXT.replace("spec_file = net.net", "preset = tinynet8")))


@settings(max_examples=300, deadline=None)
@given(mutated(NETWORK_TEXT), mutated(EXPERIMENT_TEXT))
def test_mutated_documents_parse_or_raise_config_error(net_text, exp_text):
    try:
        spec = parse_network_text(net_text)
    except ConfigError:
        pass
    else:
        assert parse_network_text(emit_network_text(spec)) == spec
    try:
        parse_experiment_text(exp_text)
    except ConfigError:
        pass


def test_network_source_is_exactly_one_of_preset_or_file():
    neither = CONFIG_TEXT.replace("spec_file = net.net\n", "")
    with pytest.raises(ConfigError):
        parse_experiment_text(neither)
    both = CONFIG_TEXT.replace("spec_file = net.net",
                               "spec_file = net.net\npreset = tinynet8")
    with pytest.raises(ConfigError):
        parse_experiment_text(both)


def test_synthetic_datasets_respect_config(workdir):
    cfg = load_experiment(workdir / "exp.cfg")
    tr, te = load_datasets(cfg)
    assert len(tr.labels) == 4 * 16 and len(te.labels) == 4 * 8
    assert tr.images.shape[1:] == (3, 6, 6)
    assert set(np.unique(tr.labels)) == {0, 1, 2, 3}


def test_config_text_records_the_synthetic_defaults(workdir):
    # omitted [data] keys read as the values they take and are written out;
    # the data seed stays absent, as it follows [experiment] seed
    text = CONFIG_TEXT.replace("n_per_class = 16\ntest_per_class = 8\nseparation = 5.0\n", "")
    cfg = parse_experiment_text(text, base_dir=workdir)
    assert cfg.data == {"kind": "synthetic-gaussians", "n_per_class": 120,
                        "test_per_class": 40, "separation": 5.0}
    emitted = emit_experiment_text(cfg)
    (workdir / "network.net").write_text(NETWORK_TEXT)
    again = parse_experiment_text(emitted, base_dir=workdir)
    assert again.data == cfg.data and emit_experiment_text(again) == emitted
    tr, te = load_datasets(again)
    assert len(tr.labels) == 4 * 120 and len(te.labels) == 4 * 40


def test_run_experiment_writes_complete_artifacts(workdir):
    cfg = load_experiment(workdir / "exp.cfg")
    out = workdir / "run"
    result = run_experiment(cfg, out)
    for name in ("metrics.csv", "plan.txt", "checkpoint.bin", "config.txt",
                 "manifest.json", "network.net"):
        assert (out / name).exists(), name
    with open(out / "metrics.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "split", "loss", "top1", "lr", "wall_ms"]
    assert len(rows) == 1 + 2 * cfg.train.epochs
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5 and manifest["mode"] == "local"
    assert len(manifest["config_sha256"]) == 64
    assert 0.0 <= result["test_top1"] <= 1.0
    # the stored effective config re-parses and round-trips the run
    stored = load_experiment(out / "config.txt")
    assert stored.train.mode == "local" and stored.train.seed == 5
    # network.net holds the network's canonical text
    assert (out / "network.net").read_text() == emit_network_text(cfg.network)
    assert stored.network == cfg.network


def test_cli_plan_and_flops_on_network_file(workdir, capsys):
    assert main(["plan", "--config", str(workdir / "net.net"), "--d", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("format = plan/1")
    assert "[layer 1]" in out and "[layer 2]" in out and "[layer 3]" not in out

    assert main(["flops", "--config", str(workdir / "net.net"), "--d", "2",
                 "--strategy", "handcrafted-c3x3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "primary_flops" in out and "total_flops" in out


def test_cli_exit_codes(workdir, tmp_path, capsys):
    assert main(["plan", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"

    bad_cfg = CONFIG_TEXT.replace("kind = synthetic-gaussians",
                                  "kind = cifar10-binary\ntrain_files = gone.bin\n"
                                  "test_files = gone.bin")
    bad_cfg = bad_cfg.replace("n_per_class = 16\ntest_per_class = 8\nseparation = 5.0\n", "")
    p = workdir / "bad.cfg"
    p.write_text(bad_cfg)
    assert main(["train", "--config", str(p),
                 "--out", str(workdir / "r0")]) == EXIT_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data"

    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(workdir / "exp.cfg"), "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()

    def single_error_record(kind):
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == kind

    # images whose shape is not the network's input are a data error:
    # 3x32x32 CIFAR records and 1x8x8 IDX images on tinynet8 (3x8x8)
    rng = np.random.default_rng(4)
    cifar = b"".join(serialize_cifar10_record(rng.random((3, 32, 32)), label)
                     for label in range(10))
    (workdir / "c.bin").write_bytes(cifar)
    (workdir / "i.idx").write_bytes(struct.pack(">IIII", 0x803, 10, 8, 8)
                                    + rng.integers(0, 256, 640, dtype=np.uint8).tobytes())
    (workdir / "l.idx").write_bytes(struct.pack(">II", 0x801, 10) + bytes(range(10)))
    # and so is a missing MNIST file
    for data in ("kind = cifar10-binary\ntrain_files = c.bin\ntest_files = c.bin\n",
                 "kind = mnist-idx\ntrain_images = i.idx\ntrain_labels = l.idx\n"
                 "test_images = i.idx\ntest_labels = l.idx\n",
                 "kind = mnist-idx\ntrain_images = i.idx\ntrain_labels = l.idx\n"
                 "test_images = gone.idx\ntest_labels = l.idx\n"):
        p.write_text(bad_cfg.replace("spec_file = net.net", "preset = tinynet8")
                     .replace("kind = cifar10-binary\ntrain_files = gone.bin\n"
                              "test_files = gone.bin\n", data))
        assert main(["train", "--config", str(p), "--out", str(workdir / "r2")]) == EXIT_DATA
        single_error_record("data")

    # a missing key, unknown unit kinds (a dense unit on 1x1 inputs, which
    # would chain, is not a local unit), and networks that do not chain:
    # unit 2 does not take unit 1's channels, the classifier does not take
    # the last unit's, and a single unit
    bad_net = workdir / "bad.net"
    for text in (NETWORK_TEXT.replace("kind = conv3x3\n", "", 1),
                 NETWORK_TEXT.replace("kind = conv3x3", "kind = conv5x5", 1),
                 NETWORK_TEXT.replace("input_shape = 3,6,6", "input_shape = 3,1,1")
                 .replace("kind = conv3x3\nin_channels = 4\nout_channels = 8",
                          "kind = dense\nin_channels = 4\nout_channels = 8"),
                 NETWORK_TEXT.replace("in_channels = 4", "in_channels = 5", 1),
                 NETWORK_TEXT.replace("in_channels = 8", "in_channels = 4"),
                 NETWORK_TEXT.split("[unit 2]")[0] + "[classifier]"
                 + NETWORK_TEXT.split("[classifier]")[1].replace("in_channels = 8",
                                                                 "in_channels = 4")):
        bad_net.write_text(text)
        assert main(["flops", "--config", str(bad_net)]) == EXIT_CONFIG
        single_error_record("config")
    p.write_text(bad_cfg.replace("train_files = gone.bin\n", ""))
    assert main(["train", "--config", str(p), "--out", str(workdir / "r1")]) == EXIT_CONFIG
    single_error_record("config")

    # out-of-range head flags fail as config errors when they are applied
    for flag in (["--d", "1"], ["--tau", "3"], ["--dmin", "9"]):
        assert main(["plan", "--config", str(workdir / "net.net"), *flag]) == EXIT_CONFIG
        single_error_record("config")
    # simulator flags are checked by PipelineConfig as they are read
    # (a repeated flag overrides the earlier one)
    for flag in (["--N", "0"], ["--L", "-2"], ["--jitter", "1.5"], ["--tf", "nan"]):
        assert main(["simulate", "--L", "3", "--d", "2", "--N", "2", *flag]) == EXIT_CONFIG
        single_error_record("config")
    # a negative seed is rejected by TrainConfig as the flag is applied
    assert main(["train", "--config", str(workdir / "exp.cfg"), "--seed", "-3"]) == EXIT_CONFIG
    single_error_record("config")
    # plan and flops take only the flags they read
    for cmd, flag in (("plan", "--seed"), ("plan", "--mode"), ("flops", "--out")):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--config", str(workdir / "net.net"), flag, "1"])
        assert exc.value.code == 2
        capsys.readouterr()
    # the network reader, not the CLI, decides a file's format
    commented = workdir / "commented.net"
    commented.write_text("# comment\n\n" + NETWORK_TEXT)
    assert main(["flops", "--config", str(commented)]) == EXIT_OK
    capsys.readouterr()

    run = workdir / "truncated-run"
    run.mkdir()
    (run / "net.net").write_text(NETWORK_TEXT)
    (run / "config.txt").write_text(CONFIG_TEXT)
    cfg = load_experiment(run / "config.txt")
    save_checkpoint(run / "checkpoint.bin", LocalLearner(cfg.validated_network(), cfg.train))
    # probe layers lie in 1..L, and CKA needs at least 2 examples
    for layers in ("0,99", "0", "99", "-1", "4", "x", "1,,2", ""):
        assert main(["probe", str(run), "--layers", layers]) == EXIT_CONFIG
        single_error_record("config")
    assert main(["cka", str(run), str(run), "--probe-size", "1"]) == EXIT_CONFIG
    single_error_record("config")
    full = (run / "checkpoint.bin").read_bytes()
    (run / "checkpoint.bin").write_bytes(full[:45])
    assert main(["probe", str(run)]) == EXIT_RUNTIME
    single_error_record("runtime")


def test_cli_ignores_environment_variables(workdir, capsys, monkeypatch):
    # flags are the only channel for settings on the command line
    monkeypatch.setenv("AUGLOCAL_SEED", "abc")
    monkeypatch.setenv("AUGLOCAL_MODE", "sideways")
    assert main(["plan", "--config", str(workdir / "net.net"), "--d", "2"]) == EXIT_OK
    assert main(["simulate", "--L", "3", "--d", "2", "--N", "2"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_cli_train_probe_cka_flow(workdir, capsys):
    run_a = workdir / "runA"
    run_b = workdir / "runB"
    assert main(["train", "--config", str(workdir / "exp.cfg"),
                 "--out", str(run_a)]) == EXIT_OK
    assert main(["train", "--config", str(workdir / "exp.cfg"), "--mode", "bp",
                 "--seed", "9", "--out", str(run_b)]) == EXIT_OK
    capsys.readouterr()

    probe_csv = workdir / "probe.csv"
    assert main(["probe", str(run_a), "--layers", "1,3",
                 "--out", str(probe_csv)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "layer 1" in out and "layer 3" in out
    with open(probe_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["layer", "probe_acc"] and len(rows) == 3

    assert main(["cka", str(run_a), str(run_b), "--probe-size", "32"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "average =" in out
    avg = float(out.strip().rsplit("=", 1)[1])
    assert 0.0 <= avg <= 1.0


def test_cli_probe_and_cka_find_file_data_from_another_directory(tmp_path, monkeypatch):
    # CIFAR records and IDX files under data/, named relative to the config;
    # probe and cka read the run directories from another working directory
    exp = tmp_path / "exp"
    (exp / "data").mkdir(parents=True)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    rng = np.random.default_rng(8)
    (exp / "data" / "c.bin").write_bytes(b"".join(
        serialize_cifar10_record(rng.random((3, 32, 32)), i % 4) for i in range(16)))
    (exp / "data" / "i.idx").write_bytes(struct.pack(">IIII", 0x803, 16, 6, 6)
                                         + rng.integers(0, 256, 576, dtype=np.uint8).tobytes())
    (exp / "data" / "l.idx").write_bytes(struct.pack(">II", 0x801, 16)
                                         + bytes(i % 4 for i in range(16)))
    head = CONFIG_TEXT.split("[data]")[0]
    for name, shape, data in (
            ("cifar", (3, 32, 32),
             "kind = cifar10-binary\ntrain_files = data/c.bin\ntest_files = data/c.bin\n"),
            ("mnist", (1, 6, 6),
             "kind = mnist-idx\ntrain_images = data/i.idx\ntrain_labels = data/l.idx\n"
             "test_images = data/i.idx\ntest_labels = data/l.idx\n")):
        (exp / f"{name}.net").write_text(emit_network_text(PrimaryNetworkSpec(
            (LocalUnitSpec("conv3x3", shape[0], 4),
             LocalUnitSpec("conv3x3", 4, 4, stride=2),
             LocalUnitSpec("conv3x3", 4, 8, stride=2)),
            ClassifierSpec(8, 4), shape, 4, name=name)))
        (exp / f"{name}.cfg").write_text(
            head.replace("net.net", f"{name}.net") + "[data]\n" + data)
        for mode in ("local", "bp"):
            assert main(["train", "--config", str(exp / f"{name}.cfg"), "--mode", mode,
                         "--out", str(exp / f"{name}-{mode}")]) == EXIT_OK
        assert str(exp / "data") in (exp / f"{name}-local" / "config.txt").read_text()
        monkeypatch.chdir(elsewhere)
        run_a, run_b = (Path("..", "exp", f"{name}-{mode}") for mode in ("local", "bp"))
        assert main(["probe", str(run_a)]) == EXIT_OK
        assert main(["cka", str(run_a), str(run_b), "--probe-size", "8"]) == EXIT_OK


def test_cli_mode_override_is_persisted(workdir, capsys):
    run_b = workdir / "runC"
    assert main(["train", "--config", str(workdir / "exp.cfg"), "--mode", "bp",
                 "--out", str(run_b)]) == EXIT_OK
    capsys.readouterr()
    stored = load_experiment(run_b / "config.txt")
    assert stored.train.mode == "bp"       # effective, not original, settings
    assert not (run_b / "plan.txt").exists()


def test_cli_simulate_and_predict_time_agree(capsys):
    assert main(["simulate", "--L", "8", "--d", "2", "--tf", "1", "--tb", "2",
                 "--N", "10"]) == EXIT_OK
    sim = eval(capsys.readouterr().out)
    assert sim["simulated"] == pytest.approx(sim["auglocal_time"])
    assert sim["bp_time"] == 9 * 3 * 10


def test_readme_examples_match_the_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (ini,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert parse_experiment_text(ini).network.name == "tinynet8"
    cli_block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in cli_block.splitlines()}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert documented == set(sub.choices)
