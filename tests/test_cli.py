import dataclasses
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys

import numpy as np
import oracles
import pytest

from lrco import cli, trainer
from lrco.cli import (
    EXIT_INVALID_CONFIG, EXIT_MISSING_FILE, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
    main,
)
from lrco.config import apply_overrides, default_run_config
from lrco.data import benchmark_spec_hash
from lrco.errors import DatasetFormatError
from lrco.trainer import METHODS, load_checkpoint, save_checkpoint

# small but real settings so CLI runs stay fast
FAST = [
    "--set", "data.n_per_class_source=10",
    "--set", "data.n_per_class_target=10",
    "--set", "data.n_classes=3",
    "--set", "data.input_dim=3",
    "--set", "train.total_steps=4",
    "--set", "train.batch_labeled=10",
    "--set", "train.batch_unlabeled=10",
    "--set", "train.eval_interval=2",
    "--set", "model.hidden_dims=6",
    "--set", "model.feature_dim=5",
]
LONGER = [a if a != "train.total_steps=4" else "train.total_steps=6" for a in FAST]


def run_cli(*argv):
    return main(list(argv))


def contents(root):
    """Every file under root, by its path relative to root, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))}


def test_usage_errors_exit_2(capsys):
    assert run_cli() == EXIT_USAGE
    assert run_cli("no-such-command") == EXIT_USAGE
    assert run_cli("train") == EXIT_USAGE  # --out is required
    capsys.readouterr()


def test_gen_data_writes_four_files(tmp_path, capsys):
    out = tmp_path / "data"
    assert run_cli("gen-data", "--out", str(out), *FAST) == EXIT_OK
    msg = capsys.readouterr().out
    assert "wrote 4 dataset files" in msg
    names = sorted(os.listdir(out))
    assert names == ["source.txt", "target_eval.txt", "target_labeled.txt",
                     "target_unlabeled.txt"]


# sha256 of each file `gen-data` writes for the default spec with two labeled
# target points per class. Recorded with Python 3.11.7, numpy 2.4.6,
# scipy-openblas 0.3.31 (x86-64); the class frame comes from a QR
# factorization, so another numpy or BLAS build may give other bytes.
GEN_DATA_SHA256 = {
    "source.txt": "bd74c38f529cebd6d905afab2af78137fd8974c67491b291da597eb5db486a48",
    "target_eval.txt": "9000e8605125f3f9714e9f9aca7c18de1924549a1790a5c7ce562ed21794efe5",
    "target_labeled.txt": "0cf3543494f9ef2b3b672cfd3a754e95b6b5658ef9af75bf19364a09da74f12a",
    "target_unlabeled.txt": "87bd5b9bee0622cdf955fcb0f7506662fe41b102dacc99d4e1f31003c721af84",
}


def test_gen_data_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "data"
    assert run_cli("gen-data", "--out", str(out),
                   "--set", "data.n_labeled_target_per_class=2") == EXIT_OK
    capsys.readouterr()
    written = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in sorted(os.listdir(out))}
    assert written == GEN_DATA_SHA256


# sha256 of the three tables `analyze` writes for the final checkpoint of a
# FAST run, per method and --feature-mode (same platform as GEN_DATA_SHA256).
# The projection and top-k tables do not depend on the feature mode.
_PROJECTION = "projection_run-run0_step-4_target.csv"
_SIMILARITY = "similarity_run-run0_step-4_target.csv"
_TOPK = "topk_run-run0_step-4_target.csv"
ANALYZE_SHA256 = {
    ("lrco", "rerep"): {
        _PROJECTION: "6c09f9d9f117905abb8e092006ba4138ec181a182d4da7a23161f48568b6982d",
        _SIMILARITY: "fe206602750898133b398e922e218a8a73728d8ba64f0aafe542862a8b916f1d",
        _TOPK: "c8d5c0f72ce9ffe93765adf8578e43c6c2587f75e606441a0fb864439210087c",
    },
    ("lrco", "raw"): {
        _PROJECTION: "6c09f9d9f117905abb8e092006ba4138ec181a182d4da7a23161f48568b6982d",
        _SIMILARITY: "e7bcde7a99e46f8126cce253355ae753cd003e9bb2b70fd49085e8dae5ec102b",
        _TOPK: "c8d5c0f72ce9ffe93765adf8578e43c6c2587f75e606441a0fb864439210087c",
    },
    ("mixlrco", "rerep"): {
        _PROJECTION: "467c0b0bb9131de718e01e73781ddbfdbca750709cf73ad784843814d531fdf5",
        _SIMILARITY: "2be9be7a687d82c95f40b8f6616ad3506c693f0f30aa17ad8233086fd09f86c7",
        _TOPK: "c3212432ab3744849b9c062a6919b74ae2e7f5ab7cff7b7b35c2f8d84dc370da",
    },
    ("mixlrco", "raw"): {
        _PROJECTION: "467c0b0bb9131de718e01e73781ddbfdbca750709cf73ad784843814d531fdf5",
        _SIMILARITY: "1a98df5650fb166e7a36828c634cc900484af52a4241302956be990a7cc19e65",
        _TOPK: "c3212432ab3744849b9c062a6919b74ae2e7f5ab7cff7b7b35c2f8d84dc370da",
    },
}


def test_analyze_bytes_are_pinned(tmp_path, capsys):
    for method in ("lrco", "mixlrco"):
        settings = [*FAST, "--set", f"train.method={method}"]
        run = tmp_path / method
        assert run_cli("train", "--out", str(run), *settings) == EXIT_OK
        for mode in ("rerep", "raw"):
            adir = tmp_path / f"analysis-{method}-{mode}"
            assert run_cli("analyze", "--checkpoint", str(run / "checkpoint_final.npz"),
                           "--out", str(adir), "--feature-mode", mode, *settings) == EXIT_OK
            written = {name: hashlib.sha256((adir / name).read_bytes()).hexdigest()
                       for name in sorted(os.listdir(adir))}
            assert written == ANALYZE_SHA256[method, mode], (method, mode)
    capsys.readouterr()


def test_gen_data_byte_identical_across_runs(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen-data", "--out", str(out1), *FAST) == EXIT_OK
    assert run_cli("gen-data", "--out", str(out2), *FAST) == EXIT_OK
    capsys.readouterr()
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_train_writes_outputs_and_prints_summary(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("train", "--out", str(out), *FAST)
    assert code == EXIT_OK
    msg = capsys.readouterr().out
    assert "config_hash=" in msg and "steps=4" in msg
    assert msg.count("final split=") == 2
    assert (out / "config_used.txt").exists()
    assert (out / "metrics.csv").exists()
    ck = load_checkpoint(out / "checkpoint_final.npz")
    assert ck.step == 4
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert len(lines) == 2 + 2 * 2  # header x2 + evals at steps 2 and 4


def test_train_then_eval_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out), *FAST) == EXIT_OK
    capsys.readouterr()
    code = run_cli("eval", "--checkpoint", str(out / "checkpoint_final.npz"),
                   "--split", "both", *FAST)
    assert code == EXIT_OK
    msg = capsys.readouterr().out
    assert "split=source accuracy=" in msg
    assert "split=target accuracy=" in msg
    assert "class0=" in msg

    code = run_cli("eval", "--checkpoint", str(out / "checkpoint_final.npz"),
                   "--split", "target", *FAST)
    msg = capsys.readouterr().out
    assert code == EXIT_OK
    assert "split=source" not in msg


def test_train_resume_from_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out), *FAST) == EXIT_OK
    code = run_cli("train", "--out", str(tmp_path / "run2"),
                   "--resume", str(out / "checkpoint_final.npz"), *LONGER)
    assert code == EXIT_OK
    assert "steps=2" in capsys.readouterr().out


def test_resumed_metrics_equal_straight_run_bytes(tmp_path, capsys):
    keep = [kv for kv in FAST[1::2] if not kv.startswith(("train.total_steps", "train.eval_"))]
    base = [arg for kv in keep + ["train.eval_interval=50", "train.checkpoint_interval=100"]
            for arg in ("--set", kv)]

    def train(out, steps, *resume):
        return run_cli("train", "--out", str(out), *base,
                       "--set", f"train.total_steps={steps}", *resume)

    assert train(tmp_path / "straight", 400) == EXIT_OK
    straight = (tmp_path / "straight" / "metrics.csv").read_bytes()
    assert len(straight.splitlines()) == 2 + 2 * 8
    for resume_name in ("checkpoint_final.npz", "checkpoint_step100.npz"):
        out = tmp_path / resume_name
        assert train(out, 200) == EXIT_OK
        assert train(out, 400, "--resume", str(out / resume_name)) == EXIT_OK
        assert (out / "metrics.csv").read_bytes() == straight, resume_name
    capsys.readouterr()


def test_resume_into_another_runs_directory_keeps_none_of_its_rows(tmp_path, capsys):
    every2 = [*FAST, "--set", "train.checkpoint_interval=2"]
    straight, other = tmp_path / "straight", tmp_path / "other"
    assert run_cli("train", "--out", str(straight), *every2) == EXIT_OK
    assert run_cli("train", "--out", str(other), *every2,
                   "--set", "train.seed=5") == EXIT_OK
    # the other run has the same columns but another seed and config hash
    code = run_cli("train", "--out", str(other), *every2,
                   "--resume", str(straight / "checkpoint_step2.npz"))
    assert code == EXIT_OK
    capsys.readouterr()
    lines = (straight / "metrics.csv").read_text().splitlines()
    assert [line.split(",", 1)[0] for line in lines[2:]] == ["2", "2", "4", "4"]
    # the straight run's header and its step-4 rows; no row of the other run
    assert (other / "metrics.csv").read_text().splitlines() == lines[:2] + lines[4:]


def test_analyze_writes_three_tables(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out), *FAST) == EXIT_OK
    adir = tmp_path / "analysis"
    code = run_cli("analyze", "--checkpoint", str(out / "checkpoint_final.npz"),
                   "--out", str(adir), *FAST)
    assert code == EXIT_OK
    assert "wrote 3 analysis tables" in capsys.readouterr().out
    names = sorted(os.listdir(adir))
    assert names == [
        "projection_run-run0_step-4_target.csv",
        "similarity_run-run0_step-4_target.csv",
        "topk_run-run0_step-4_target.csv",
    ]
    topk = (adir / "topk_run-run0_step-4_target.csv").read_text().splitlines()
    assert topk[1] == "k,high_mix,low_mix"
    assert len(topk) == 2 + 3  # meta + header + k_max=min(10, K=3)
    sim = (adir / "similarity_run-run0_step-4_target.csv").read_text()
    assert "feature_mode=rerep" in sim


def test_resume_refuses_checkpoint_without_dynamics_hash(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out), *FAST) == EXIT_OK
    ck = load_checkpoint(out / "checkpoint_final.npz")
    unhashed = tmp_path / "unhashed.npz"
    save_checkpoint(unhashed, dataclasses.replace(ck, dynamics_hash=""))
    capsys.readouterr()
    code = run_cli("train", "--out", str(tmp_path / "run2"), "--resume", str(unhashed),
                   *FAST)
    assert code == EXIT_INVALID_CONFIG
    assert "no dynamics hash" in capsys.readouterr().err


def test_resume_refuses_checkpoint_of_another_shape(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out), *FAST) == EXIT_OK
    capsys.readouterr()
    ckpt = out / "checkpoint_final.npz"
    # each override also changes the spec hash, which is checked first; the
    # shape refusal of a checkpoint naming this benchmark is pinned below
    for override in ("data.input_dim=4", "data.n_classes=2"):
        code = run_cli("train", "--out", str(tmp_path / "run2"),
                       "--resume", str(ckpt), *FAST, "--set", override)
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid-config: checkpoint {ckpt} was trained on "
                              f"benchmark spec_hash={load_checkpoint(ckpt).spec_hash}, "
                              "the benchmark has spec_hash="), (override, err)


def test_checkpoint_of_another_input_dim_exits_4_in_every_command(tmp_path, capsys):
    # the spec hash is this benchmark's, but every layer0.weight has a 4th
    # input row; eval and analyze once exited 1 with a matmul traceback, and
    # analyze had created --out by then
    with np.load(train_fast(tmp_path, capsys), allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    for prefix in ("student/", "teacher/", "velocity/"):
        weight = arrays[prefix + "layer0.weight"]
        arrays[prefix + "layer0.weight"] = np.vstack([weight, weight[:1]])
    wide = tmp_path / "wide.npz"
    with open(wide, "wb") as fh:
        np.savez(fh, **arrays)
    out = tmp_path / "out"
    for argv in (["train", "--out", str(out), "--resume", str(wide)],
                 ["eval", "--checkpoint", str(wide)],
                 ["analyze", "--checkpoint", str(wide), "--out", str(out)]):
        code = run_cli(*argv, *FAST)
        err = capsys.readouterr().err
        assert code == EXIT_INVALID_CONFIG, (argv, err)
        assert err.splitlines() == [
            "error: invalid-config: checkpoint model has input_dim=4 n_classes=3, "
            "the benchmark has input_dim=3 n_classes=3"], (argv, err)
        assert not out.exists(), argv


def test_refused_resume_leaves_the_run_directory_untouched(tmp_path, capsys):
    run = tmp_path / "run"
    assert run_cli("train", "--out", str(run), *FAST) == EXIT_OK
    before = contents(run)
    refusals = ((EXIT_INVALID_CONFIG, run / "checkpoint_final.npz"),
                (EXIT_MISSING_FILE, run / "no_such_checkpoint.npz"))
    for expected, ckpt in refusals:
        code = run_cli("train", "--out", str(run), "--resume", str(ckpt), *FAST,
                       "--set", "train.lambda_co=0.7")
        assert code == expected, ckpt
        assert contents(run) == before, ckpt
    # a refused resume into a new directory does not create it
    fresh = tmp_path / "fresh"
    assert run_cli("train", "--out", str(fresh), "--resume", str(run / "nope.npz"),
                   *FAST) == EXIT_MISSING_FILE
    assert not fresh.exists()
    capsys.readouterr()


# What `eval` prints for the final checkpoint of a FAST run, recorded before
# checkpoints named their benchmark (same platform as GEN_DATA_SHA256).
FAST_EVAL_LINES = [
    "split=source accuracy=0.733333 mean_confidence=0.915336 "
    "class0=1.000000 class1=0.900000 class2=0.300000",
    "split=target accuracy=0.566667 mean_confidence=0.990433 "
    "class0=1.000000 class1=0.700000 class2=0.000000",
]


def train_fast(tmp_path, capsys) -> str:
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out), *FAST) == EXIT_OK
    capsys.readouterr()
    return str(out / "checkpoint_final.npz")


def test_eval_on_the_training_benchmark_prints_recorded_lines(tmp_path, capsys):
    ckpt = train_fast(tmp_path, capsys)
    spec = apply_overrides(default_run_config(), FAST[1::2]).data
    assert load_checkpoint(ckpt).spec_hash == benchmark_spec_hash(spec)
    assert run_cli("eval", "--checkpoint", ckpt, *FAST) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == FAST_EVAL_LINES


def test_eval_and_analyze_refuse_checkpoint_of_another_benchmark(tmp_path, capsys):
    ckpt = train_fast(tmp_path, capsys)
    ck = load_checkpoint(ckpt)
    unnamed = str(tmp_path / "unnamed.npz")  # the same model, naming no benchmark
    save_checkpoint(unnamed, dataclasses.replace(ck, spec_hash=""))
    cases = ((ckpt, "data.seed=7", ck.spec_hash), (ckpt, "data.input_dim=6", ck.spec_hash),
             (unnamed, "data.seed=0", "(none recorded)"))
    for path, override, trained_on in cases:
        for command in (["eval"], ["analyze", "--out", str(tmp_path / "analysis")]):
            code = run_cli(*command, "--checkpoint", path, *FAST, "--set", override)
            err = capsys.readouterr().err
            assert code == EXIT_INVALID_CONFIG, (command, override)
            assert err.startswith(f"error: invalid-config: checkpoint {path} was trained "
                                  f"on benchmark spec_hash={trained_on}, "), err
            assert "Traceback" not in err
    assert not (tmp_path / "analysis").exists()


# The entries of a FAST checkpoint, in the order save_checkpoint writes them.
CHECKPOINT_ENTRIES = (
    *(f"{prefix}{array}" for prefix in ("student/", "teacher/", "velocity/")
      for array in ("layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias", "classifier")),
    "bank.contents", "bank.capacity", "meta",
)
UNIT = "InvalidRowsError: bank keys must be unit-normalized"
NO_MODEL = "ShapeMismatchError: arrays of shapes "


def unread(name: str) -> str:
    """The error of a file whose entry ``name`` does not read back as saved."""
    return f"ValueError: entry {name} does not read back as saved"


def with_nan(array):
    array = array.copy()
    array.flat[0] = np.nan
    return array


def meta_with(**changes):
    """An edit of the meta entry: its JSON with ``changes`` set, a change to
    None deleting its key."""
    def edit(meta):
        record = {**json.loads(str(meta)), **changes}
        return np.array(json.dumps({k: v for k, v in record.items() if v is not None}))
    return edit


def npz_bytes(arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


# (meta key, value, the start of the error load_checkpoint names) of each
# recorded value that a checkpoint's ModelState or its Checkpoint refuses
REFUSED_META = (
    *((name, value, f"ConfigError: {name} must lie in (0, inf), got ")
      for name in ("t_ce", "t_re") for value in (0.0, -1.0, math.nan, math.inf)),
    *(("tau", value, "ConfigError: tau must lie in (0, 1), got ")
      for value in (0.0, 1.0, -3.0, 7.0, math.nan)),
    ("step", -3, "ConfigError: step must lie in [0, inf), got "),
    ("step", 1.5, unread("meta")),
    ("seed", -1, "ConfigError: seed must lie in [0, inf), got "),
)

# Each row: the edits of the step-2 checkpoint of a FAST run (entry name ->
# a function of the saved array giving the new one, or None to delete the
# entry), or a function of the file's bytes giving the refused file's bytes;
# and the start of the error load_checkpoint names. Each of these files once
# loaded and ran, or was refused by a check of its own; each now exits 4 in
# every command, as save_checkpoint would not write it.
CHECKPOINT_SWEEP = [
    # test_resume_refuses_a_checkpoint_whose_bank_holds_nan: nan-bank.contents;
    # test_nan_teacher_probabilities_exit_numeric: nan-teacher/layer0.weight,
    # which exited 5 on the first resumed step while such a file still loaded
    *(pytest.param({name: with_nan}, UNIT if name == "bank.contents" else unread(name),
                   id=f"nan-{name}") for name in CHECKPOINT_ENTRIES[:-2]),
    *(pytest.param({name: lambda array: array.astype(bool)},
                   {"bank.contents": UNIT, "bank.capacity": unread("bank.contents"),
                    "meta": "JSONDecodeError: Expecting value"}.get(name, unread(name)),
                   id=f"bool-{name}") for name in CHECKPOINT_ENTRIES),
    # test_checkpoint_arrays_that_form_no_model_exit_4[no_velocity_classifier]:
    # no-velocity/classifier
    *(pytest.param({name: None}, NO_MODEL if name.endswith(".weight") else f"KeyError: '{name}'",
                   id=f"no-{name}") for name in CHECKPOINT_ENTRIES),
    # test_checkpoint_its_model_cannot_run_exits_4_in_every_command and
    # test_load_refuses_a_checkpoint_its_model_cannot_run: the meta-* rows
    # of REFUSED_META, and narrow-bank
    *(pytest.param({"meta": meta_with(**{name: value})}, error, id=f"meta-{name}={value}")
      for name, value, error in REFUSED_META),
    *(pytest.param({"meta": meta_with(**change)}, unread("meta"), id=f"meta-{key}")
      for key, change in (("format=99", {"format": 99}), ("no-format", {"format": None}),
                          ("t_ce=true", {"t_ce": True}), ("t_re='0.5'", {"t_re": "0.5"}),
                          ("step=true", {"step": True}), ("seed=2.0", {"seed": 2.0}),
                          ("unknown-key", {"note": "x"}))),
    pytest.param({"meta": meta_with(spec_hash=None)}, "KeyError: 'spec_hash'",
                 id="meta-no-spec_hash"),
    # test_corrupt_checkpoint_exits_4_naming_the_path: only-an-unknown-entry
    # (its no_meta file), text, truncated and empty
    pytest.param({"x": lambda _: np.zeros(3)}, "ValueError: entries ['x'] are missing or extra",
                 id="unknown-entry"),
    pytest.param(lambda raw: npz_bytes({"x": np.zeros(3)}), "KeyError: 'meta'",
                 id="only-an-unknown-entry"),
    pytest.param(lambda raw: b"not a checkpoint\n", "ValueError: ", id="text"),
    pytest.param(lambda raw: raw[:200], "BadZipFile: ", id="truncated"),
    pytest.param(lambda raw: b"", "EOFError: ", id="empty"),
    pytest.param({"bank.contents": lambda _: oracles.unit_rows(np.random.default_rng(3), 7, 4)},
                 "ShapeMismatchError: bank rows are 4 wide, the features 5", id="narrow-bank"),
    # test_checkpoint_bank_over_its_capacity_or_fractional_exits_4
    pytest.param({"bank.capacity": lambda _: np.array(1, dtype=np.int64)},
                 unread("bank.contents"), id="bank-over-capacity"),
    pytest.param({"bank.capacity": lambda capacity: capacity + 0.7}, unread("bank.capacity"),
                 id="fractional-capacity"),
    pytest.param({"bank.capacity": lambda _: np.array(1e308)}, "OverflowError: ",
                 id="capacity-no-int64-holds"),
    # test_checkpoint_arrays_that_form_no_model_exit_4, its other three ids
    *(pytest.param({name: lambda _, shape=shape: np.ones(shape)}, NO_MODEL, id=f"{name}-{shape}")
      for name, shape in (("velocity/layer0.weight", (3, 3)), ("teacher/classifier", (5, 7)),
                          ("student/layer1.weight", (16, 7)))),
    # a layer chain of its own, but not the student's: Checkpoint refuses it
    pytest.param({"teacher/layer0.weight": lambda _: np.ones((3, 7)),
                  "teacher/layer0.bias": lambda _: np.ones(7),
                  "teacher/layer1.weight": lambda _: np.ones((7, 5))},
                 "ShapeMismatchError: student, teacher and velocity arrays differ in shape",
                 id="teacher-of-another-width"),
]


@pytest.fixture(scope="module")
def step2_checkpoint(tmp_path_factory):
    """A FAST run's directory and what it held, and the entries and bytes of
    its step-2 checkpoint, whose bank holds keys."""
    run = tmp_path_factory.mktemp("sweep") / "run"
    assert run_cli("train", "--out", str(run), *FAST,
                   "--set", "train.checkpoint_interval=2") == EXIT_OK
    raw = (run / "checkpoint_step2.npz").read_bytes()
    with np.load(io.BytesIO(raw), allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    assert tuple(arrays) == CHECKPOINT_ENTRIES and len(arrays["bank.contents"]) >= 2
    return run, contents(run), arrays, raw


@pytest.mark.parametrize("edits, error", CHECKPOINT_SWEEP)
def test_a_checkpoint_save_would_not_write_exits_4(tmp_path, capsys, step2_checkpoint,
                                                   edits, error):
    run, before, arrays, raw = step2_checkpoint
    bad, out = tmp_path / "bad.npz", tmp_path / "out"
    if callable(edits):
        bad.write_bytes(edits(raw))
    else:
        edited = {name: edit(arrays.get(name)) if edit else None for name, edit in edits.items()}
        bad.write_bytes(npz_bytes({name: array for name, array in {**arrays, **edited}.items()
                                   if array is not None}))
    message = f"{bad} is not a readable checkpoint ({error}"
    with pytest.raises(DatasetFormatError) as info:
        load_checkpoint(bad)
    assert str(info.value).startswith(message), str(info.value)
    capsys.readouterr()
    for argv in (["train", "--out", str(run), "--resume", str(bad), *LONGER],
                 ["train", "--out", str(out), "--resume", str(bad), *LONGER],
                 ["eval", "--checkpoint", str(bad), *FAST],
                 ["analyze", "--checkpoint", str(bad), "--out", str(out), *FAST]):
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == EXIT_INVALID_CONFIG, (argv, err)
        assert len(err.splitlines()) == 1, (argv, err)
        assert err.startswith(f"error: invalid-config: {message}"), (argv, err)
    assert contents(run) == before
    assert not out.exists()


def test_every_documented_exit_code(tmp_path, capsys):
    corrupt = tmp_path / "corrupt.npz"
    corrupt.write_text("not a checkpoint\n")
    cases = [
        (EXIT_OK, ["gradcheck", "--instances", "1"], ""),
        (EXIT_USAGE, ["eval"], "required: --checkpoint"),
        (EXIT_USAGE, ["gradcheck", "--instances", "0"],
         "argument --instances: must lie in [1, inf), got 0"),
        (EXIT_USAGE, ["gradcheck", "--instances", "-3"],
         "argument --instances: must lie in [1, inf), got -3"),
        (EXIT_USAGE, ["gradcheck", "--seed", "-1"],
         "argument --seed: must lie in [0, inf), got -1"),
        *((EXIT_USAGE, ["gradcheck", "--tolerance", value],
           f"argument --tolerance: must lie in (0, inf), got {shown}")
          for value, shown in (("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-0.5", "-0.5"))),
        (EXIT_USAGE, ["gradcheck", "--instances", "abc"],
         "argument --instances: expected an integer, got 'abc'"),
        (EXIT_USAGE, ["gradcheck", "--seed", "1.5"],
         "argument --seed: expected an integer, got '1.5'"),
        (EXIT_USAGE, ["gradcheck", "--tolerance", "x"],
         "argument --tolerance: expected a number, got 'x'"),
        (EXIT_MISSING_FILE, ["eval", "--checkpoint", str(tmp_path / "nope.npz")],
         "error: missing-file:"),
        (EXIT_INVALID_CONFIG, ["eval", "--checkpoint", str(corrupt)],
         "error: invalid-config:"),
        (EXIT_NUMERIC, ["gradcheck", "--instances", "1", "--tolerance", "1e-30"], ""),
    ]
    for expected, argv, err_part in cases:
        assert run_cli(*argv) == expected, argv
        err = capsys.readouterr().err
        assert err_part in err and "Traceback" not in err, (argv, err)
        # argparse words a failing type as "invalid <function name> value: ..."
        assert " value: " not in err, (argv, err)


def test_tiny_mix_alpha_exits_numeric(tmp_path, capsys):
    # Beta(1e-300, 1e-300) has no float64 draw: both Gamma draws of every row
    # underflow to 0. The mix draw gives up after its bounded redraws, well
    # inside the alarm, instead of spinning.
    def timed_out(signum, frame):
        raise AssertionError("lrco train did not end within 30 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(30)
    try:
        code = run_cli("train", "--out", str(tmp_path / "o"), *FAST,
                       "--set", "train.method=mixlrco", "--set", "train.alpha=1e-300")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC, err
    assert "error: numeric: sample_beta: alpha=1e-300 is too small" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("method", METHODS)
def test_diverging_run_exits_numeric(tmp_path, capsys, method):
    # at this learning rate the features overflow after one step: their
    # norm is inf, and normalizing by it would give zero rows, which read as
    # uniform predictions (or fail the unit-norm check as a ValueError)
    code = run_cli("train", "--out", str(tmp_path / "o"), *FAST,
                   "--set", f"train.method={method}",
                   "--set", "train.learning_rate=1e200")
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC, err
    assert "error: numeric: cannot normalize vector whose norm overflows to inf" in err
    assert "Traceback" not in err


def test_missing_files_exit_3(tmp_path, capsys):
    code = run_cli("eval", "--checkpoint", str(tmp_path / "nope.npz"))
    assert code == EXIT_MISSING_FILE
    assert "error: missing-file:" in capsys.readouterr().err
    code = run_cli("train", "--out", str(tmp_path / "o"),
                   "--config", str(tmp_path / "ghost.txt"))
    assert code == EXIT_MISSING_FILE
    capsys.readouterr()


@pytest.mark.parametrize("name, contents, error", [
    ("a_directory", None, "IsADirectoryError"),
    ("binary.txt", b"train.seed = \xff\n", "UnicodeDecodeError"),
])
def test_unreadable_config_exits_4(tmp_path, capsys, name, contents, error):
    config = tmp_path / name
    if contents is None:
        config.mkdir()
    else:
        config.write_bytes(contents)
    out = tmp_path / "out"
    code = run_cli("train", "--out", str(out), "--config", str(config))
    err = capsys.readouterr().err
    assert code == EXIT_INVALID_CONFIG, err
    assert err.startswith(f"error: invalid-config: {config} is not a readable config file "
                          f"({error}: "), err
    assert not out.exists()


@pytest.mark.parametrize("command, out, error", [
    ("gen-data", "blocker/sub", "NotADirectoryError"),
    ("train", "blocker", "FileExistsError"),
    ("analyze", "blocker", "FileExistsError"),
])
def test_unusable_out_exits_4_before_writing(tmp_path, capsys, command, out, error):
    rest = ["--checkpoint", train_fast(tmp_path, capsys)] if command == "analyze" else []
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    before = sorted(tmp_path.rglob("*"))
    code = run_cli(command, "--out", str(tmp_path / out), *rest, *FAST)
    err = capsys.readouterr().err
    assert code == EXIT_INVALID_CONFIG, err
    assert err.startswith(f"error: invalid-config: --out {tmp_path / out} is not a usable "
                          f"directory ({error}: "), err
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "a file\n"


def test_invalid_config_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("train.method = teleport\n")
    code = run_cli("train", "--out", str(tmp_path / "o"), "--config", str(bad))
    assert code == EXIT_INVALID_CONFIG
    assert "error: invalid-config:" in capsys.readouterr().err
    for setting in ("data.n_classes=1", "data.seed=-1"):
        out = tmp_path / setting
        assert run_cli("gen-data", "--out", str(out), "--set", setting) == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid-config: {setting.split('=')[0]} must lie in ")
        assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command,key", [
    ("gen-data", "data.n_per_class_source"), ("train", "data.n_per_class_target"),
    ("train", "data.n_labeled_target_per_class"), ("train", "data.input_dim"),
    ("train", "model.hidden_dims"), ("train", "model.feature_dim"),
    ("train", "train.bank_capacity"), ("gen-data", "data.n_classes"),
])
def test_huge_integer_sizes_exit_4(tmp_path, capsys, command, key):
    # a size past 2**31 - 1 is refused before anything is allocated or written;
    # on a circle (input_dim=2) any class count meets the cross-field rule
    out = tmp_path / "out"
    partner = ["--set", "data.input_dim=2"] if key == "data.n_classes" else []
    assert run_cli(command, "--out", str(out), "--set", f"{key}={10**30}", *partner) \
        == EXIT_INVALID_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid-config: {key} must lie in [") and "2147483647]" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command, setting, what", [
    ("train", "model.hidden_dims=2147483647", "the model's parameter vector"),
    ("gen-data", "data.input_dim=2147483647", "the model's parameter vector"),
    ("train", "data.n_per_class_source=2147483647", "the source split"),
    ("gen-data", "data.input_dim=46341", "the (data.input_dim, data.input_dim) class frame"),
])
def test_sizes_no_array_can_hold_exit_4(tmp_path, capsys, command, setting, what):
    # each size lies inside its key's domain, but the arrays it sets would
    # not fit in one array; the rule refuses it before anything is allocated
    out = tmp_path / "out"
    assert run_cli(command, "--out", str(out), "--set", setting) == EXIT_INVALID_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid-config: {what}"), err
    assert err.endswith("an array holds at most 2147483647\n"), err
    assert "Traceback" not in err and not out.exists()


def test_an_allocation_the_machine_cannot_hold_exits_5(tmp_path, capsys, monkeypatch):
    # a size inside every rule may still be more than the machine holds; the
    # failing allocation is monkeypatched in, never made
    def unable(*args, **kwargs):
        raise MemoryError("Unable to allocate 272. GiB for an array with shape "
                          "(36507222016,) and data type float64")

    def bare(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(trainer, "init_model", unable)
    assert run_cli("train", "--out", str(tmp_path / "train"), *FAST) == EXIT_NUMERIC
    assert capsys.readouterr().err == ("error: runtime: Unable to allocate 272. GiB for an "
                                       "array with shape (36507222016,) and data type "
                                       "float64\n")
    # gen-data builds the benchmark before it makes --out
    monkeypatch.setattr(cli, "generate_shift_benchmark", bare)
    out = tmp_path / "data"
    assert run_cli("gen-data", "--out", str(out), *FAST) == EXIT_NUMERIC
    assert capsys.readouterr().err == "error: runtime: out of memory\n"
    assert not out.exists()


@pytest.mark.parametrize("run_id", ["a\nb", "a\r\nb", "a\tb", "a\x0bb", "a\u2028b",
                                    "a\x00b", "a b"],
                         ids=["newline", "crlf", "tab", "vertical-tab", "line-separator",
                              "nul", "space"])
def test_run_id_that_config_used_cannot_give_back_exits_4(tmp_path, capsys, run_id):
    # config_used.txt holds one key per line, stripped on reading, so such an
    # id would write a file that --config cannot load
    out = tmp_path / "out"
    assert run_cli("train", "--out", str(out), *FAST, "--set", f"output.run_id={run_id}") \
        == EXIT_INVALID_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config: output.run_id must be nonempty, of "
                          "printable characters without whitespace, commas or slashes, "
                          f"got {run_id!r}"), err
    assert not out.exists()


def test_run_id_too_long_for_analyze_file_names_exits_4(tmp_path, capsys):
    # analyze names each table {kind}_run-{id}_step-{step}_{split}.csv, and a
    # file name holds at most 255 bytes; an id longer than 204 bytes once
    # exited 1 with an OSError traceback, after making --out
    ckpt = train_fast(tmp_path, capsys)
    for run_id, n_bytes in (("a" * 300, 300), ("a" * 205, 205), ("\u00e9" * 103, 206)):
        out = tmp_path / f"analysis-{n_bytes}"
        code = run_cli("analyze", "--checkpoint", ckpt, "--out", str(out), *FAST,
                       "--set", f"output.run_id={run_id}")
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: invalid-config: output.run_id must be at most 204 bytes in UTF-8, to "
            f"fit the file names of analyze's tables, got {n_bytes} bytes"], err
        assert "Traceback" not in err and not out.exists()
    run_id = "\u00e9" * 102  # 204 bytes, at the step with the most digits
    ckpt_far = tmp_path / "far.npz"
    save_checkpoint(ckpt_far, dataclasses.replace(load_checkpoint(ckpt), step=2**63 - 1))
    out = tmp_path / "analysis"
    assert run_cli("analyze", "--checkpoint", str(ckpt_far), "--out", str(out), *FAST,
                   "--set", f"output.run_id={run_id}") == EXIT_OK
    capsys.readouterr()
    assert sorted(os.listdir(out)) == [f"{kind}_run-{run_id}_step-{2**63 - 1}_target.csv"
                                       for kind in ("projection", "similarity", "topk")]


def test_removed_config_values_exit_4(tmp_path, capsys):
    for setting, message in (("train.rerep_mode=rerep_nodetach",
                              "train.rerep_mode must be one of ('rerep', 'raw'), "
                              "got 'rerep_nodetach'"),
                             ("train.mixup_mode=high_confidence",
                              "train.mixup_mode must be one of ('dominant', 'no_dominance'), "
                              "got 'high_confidence'"),
                             ("model.feature_dim=1",
                              "model.feature_dim must lie in [2, 2147483647], got 1")):
        out = tmp_path / setting
        assert run_cli("train", "--out", str(out), *FAST, "--set", setting) \
            == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-config:") and message in err, err
        assert "Traceback" not in err
        assert not out.exists()


def test_dynamic_tau_refused_for_methods_that_ignore_tau(tmp_path, capsys):
    for method in ("source_only", "baseline"):
        out = tmp_path / method
        code = run_cli("train", "--out", str(out), *FAST, "--set", f"train.method={method}",
                       "--set", "train.dynamic_tau=true")
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: invalid-config: dynamic_tau needs a method that reads tau, "
            f"one of ('strong', 'lrco', 'mixlrco'); {method!r} does not"], err
        assert not out.exists()


def test_analyze_refuses_fewer_than_three_target_rows(tmp_path, capsys):
    small = [*FAST, "--set", "data.n_classes=2", "--set", "data.n_per_class_target=1"]
    assert run_cli("train", "--out", str(tmp_path / "run"), *small) == EXIT_OK
    capsys.readouterr()
    adir = tmp_path / "analysis"
    code = run_cli("analyze", "--checkpoint", str(tmp_path / "run" / "checkpoint_final.npz"),
                   "--out", str(adir), *small)
    assert code == EXIT_INVALID_CONFIG
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: invalid-config: analyze needs at least 3 target rows to project, "
        "the benchmark has 2"], err
    assert not adir.exists()


def test_output_root_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LRCO_OUTPUT_ROOT", str(tmp_path))
    assert run_cli("gen-data", "--out", "rel_dir", *FAST) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "rel_dir" / "source.txt").exists()


def test_gradcheck_reports_terms(capsys):
    code = run_cli("gradcheck", "--instances", "2", "--seed", "0")
    msg = capsys.readouterr().out
    assert code == EXIT_OK
    assert "gradcheck PASS" in msg
    assert "term=objective_mixlrco" in msg
    assert "max_rel_error=" in msg


# sha256 of the stdout of `lrco gradcheck --seed 0 --instances 4`, recorded
# when finite_diff_grad still evaluated one perturbed vector per call.
GRADCHECK_STDOUT_SHA256 = "9901b3eb0d1b9477b159f9f8915baea5fada5b01f07d3d20d30a802d059285db"


def test_gradcheck_stdout_is_pinned(capsys):
    capsys.readouterr()
    assert run_cli("gradcheck", "--seed", "0", "--instances", "4") == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GRADCHECK_STDOUT_SHA256


def test_gradcheck_impossible_tolerance_fails(capsys):
    code = run_cli("gradcheck", "--instances", "1", "--tolerance", "1e-300")
    assert code == EXIT_NUMERIC
    assert "gradcheck FAIL" in capsys.readouterr().out


def test_train_zero_steps_still_checkpoints(tmp_path, capsys):
    out = tmp_path / "warm"
    args = [a if a != "train.total_steps=4" else "train.total_steps=0"
            for a in FAST]
    assert run_cli("train", "--out", str(out), *args) == EXIT_OK
    capsys.readouterr()
    ck = load_checkpoint(out / "checkpoint_final.npz")
    assert ck.step == 0


def _checkpoint_digest(path) -> str:
    """sha256 over each array's name, dtype, shape and bytes, meta included.
    The file's own bytes are not stable: np.savez stamps its zip entries
    with the time of writing."""
    h = hashlib.sha256()
    with np.load(path, allow_pickle=False) as npz:
        for name in sorted(npz.files):
            arr = npz[name]
            h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


# The contents of every checkpoint a FAST mixlrco run with a checkpoint at
# each step writes, and of those a resume of its step-2 checkpoint to six
# steps writes into a new directory (same platform as GEN_DATA_SHA256).
CHECKPOINT_SHA256 = {
    "run/checkpoint_step1.npz":
        "a61c16ce4c654b10c9ad9b2ec349500e8e4dc1cd11a48183a9271d917be647f1",
    "run/checkpoint_step2.npz":
        "f3172ed8d89d43a996628a9d077c40152de7f2963136fe351a161197773ecfc0",
    "run/checkpoint_step3.npz":
        "568f02ac1799e1118ee465ad40edd0859282582c40db5e0a18732aaacc7cac9d",
    "run/checkpoint_final.npz":
        "48576a9c74ea9e8f9660adab0ad072406c071c0cf3d7a86607e1b3cbfc29a605",
    "resumed/checkpoint_step3.npz":
        "001fb973cf36821c2516b53353243e991ebd0ee1bf20ff78889cda93488ca4e5",
    "resumed/checkpoint_step4.npz":
        "e67d0268c24910d873d5dccdc0331777cc5e6d49a260127f63a6ac6efdf4feaa",
    "resumed/checkpoint_step5.npz":
        "ddb9421d215410b1f30050b57a4a2842fb08e2f02d672be535b3320e370d2a21",
    "resumed/checkpoint_final.npz":
        "8ef156d859662cbeda17fa14b48b04da4d975e8cb44b0034c7af40b0081be3ca",
}


def test_checkpoint_contents_are_pinned(tmp_path, capsys):
    every1 = [*FAST, "--set", "train.checkpoint_interval=1"]
    run, resumed = tmp_path / "run", tmp_path / "resumed"
    assert run_cli("train", "--out", str(run), *every1) == EXIT_OK
    longer = [a if a != "train.total_steps=4" else "train.total_steps=6" for a in every1]
    assert run_cli("train", "--out", str(resumed), "--resume",
                   str(run / "checkpoint_step2.npz"), *longer) == EXIT_OK
    capsys.readouterr()
    written = {f"{out.name}/{name}": _checkpoint_digest(out / name)
               for out in (run, resumed) for name in sorted(os.listdir(out))
               if name.endswith(".npz")}
    assert written == CHECKPOINT_SHA256


def test_a_refused_run_prints_its_error_line_alone(tmp_path):
    # t_ce at the smallest positive float overflows the softmax; numpy's
    # RuntimeWarning lines used to come before the error line
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("LRCO_OUTPUT_ROOT", None)
    done = subprocess.run(
        [sys.executable, "-m", "lrco.cli", "train", "--out", str(tmp_path / "run"), *FAST,
         "--set", "train.t_ce=5e-324"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_NUMERIC
    assert done.stderr == "error: runtime: probs must be a valid probability vector\n"
