import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import re
import shlex
import shutil
import signal
import subprocess
import sys
from string import Template

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
    """Every path under root, relative to root, with its bytes (None for a directory)."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


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


def test_train_then_eval_roundtrip(capsys, fast_run):
    ckpt = str(fast_run / "checkpoint_final.npz")
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", ckpt, "--split", "both", *FAST) == EXIT_OK
    msg = capsys.readouterr().out
    assert "split=source accuracy=" in msg
    assert "split=target accuracy=" in msg
    assert "class0=" in msg
    assert run_cli("eval", "--checkpoint", ckpt, "--split", "target", *FAST) == EXIT_OK
    assert "split=source" not in capsys.readouterr().out


def test_train_resume_from_checkpoint(tmp_path, capsys, fast_run):
    assert run_cli("train", "--out", str(tmp_path / "run2"),
                   "--resume", str(fast_run / "checkpoint_final.npz"), *LONGER) == EXIT_OK
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


def test_resume_into_another_runs_directory_keeps_none_of_its_rows(tmp_path, capsys, fast_run):
    every2 = [*FAST, "--set", "train.checkpoint_interval=2"]
    straight, other = fast_run, tmp_path / "other"
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


def test_analyze_writes_three_tables(tmp_path, capsys, fast_run):
    adir = tmp_path / "analysis"
    code = run_cli("analyze", "--checkpoint", str(fast_run / "checkpoint_final.npz"),
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


# What `eval` prints for the final checkpoint of a FAST run, recorded before
# checkpoints named their benchmark (same platform as GEN_DATA_SHA256).
FAST_EVAL_LINES = [
    "split=source accuracy=0.733333 mean_confidence=0.915336 "
    "class0=1.000000 class1=0.900000 class2=0.300000",
    "split=target accuracy=0.566667 mean_confidence=0.990433 "
    "class0=1.000000 class1=0.700000 class2=0.000000",
]


def test_eval_on_the_training_benchmark_prints_recorded_lines(capsys, fast_run):
    ckpt = str(fast_run / "checkpoint_final.npz")
    spec = apply_overrides(default_run_config(), FAST[1::2]).data
    assert load_checkpoint(ckpt).spec_hash == benchmark_spec_hash(spec)
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", ckpt, *FAST) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == FAST_EVAL_LINES


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
    # complex entries, whose cast to float64 dropped the imaginary part with a
    # numpy warning on stderr before the error line
    *(pytest.param({name: lambda array, dtype=dtype: array.astype(dtype)},
                   "TypeError: int() argument" if name == "bank.capacity"
                   else f"TypeError: Cannot cast array data from dtype('{dtype}')",
                   id=f"{dtype}-{name}")
      for dtype in ("complex128", "complex64") for name in CHECKPOINT_ENTRIES[:-1]),
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
def fast_run(tmp_path_factory):
    """A FAST run that also checkpoints at step 2; tests only read it."""
    run = tmp_path_factory.mktemp("fast") / "run"
    assert run_cli("train", "--out", str(run), *FAST,
                   "--set", "train.checkpoint_interval=2") == EXIT_OK
    return run


@pytest.fixture(scope="module")
def step2_checkpoint(fast_run):
    """The FAST run, what it held, and the entries and bytes of its step-2 checkpoint."""
    raw = (fast_run / "checkpoint_step2.npz").read_bytes()
    with np.load(io.BytesIO(raw), allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    assert tuple(arrays) == CHECKPOINT_ENTRIES and len(arrays["bank.contents"]) >= 2
    return fast_run, contents(fast_run), arrays, raw


@pytest.mark.filterwarnings("error")  # pytest would record a warning, not print it
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


def test_every_meta_refusal_the_readme_lists_is_a_sweep_row():
    # README lists the meta values of another JSON type that a load refuses;
    # each example there must be a row of CHECKPOINT_SWEEP, as "key": value
    # with its quotes made single (so "t_re": "0.5" is meta-t_re='0.5')
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    refusals = readme[readme.index("The rule refuses:"):]
    examples = re.findall(r'`"(\w+)": ([^`]+)`', refusals[:refusals.index("\n\n")])
    assert examples
    rows = {param.id for param in CHECKPOINT_SWEEP}
    assert [f"meta-{key}={value}" for key, value in examples
            if f"meta-{key}={value}".replace('"', "'") not in rows] == []


# Setup helpers of REFUSALS: each builds in tmp_path what its row needs,
# given the module's FAST run, which it only reads.
def file_at(name, data=None):
    """Write ``data`` at tmp_path/name, or make a directory there when None."""
    def setup(tmp, run, monkeypatch):
        path = tmp / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if data is None:
            path.mkdir()
        else:
            path.write_bytes(data)
    return setup


def copy_run(tmp, run, monkeypatch):
    shutil.copytree(run, tmp / "run")


def checkpoint_with(name, **changes):
    """The run's final checkpoint with ``changes``, saved as tmp_path/name."""
    def setup(tmp, run, monkeypatch):
        ck = load_checkpoint(run / "checkpoint_final.npz")
        save_checkpoint(tmp / name, dataclasses.replace(ck, **changes))
    return setup


def wide_checkpoint(tmp, run, monkeypatch):
    """The final checkpoint with a 4th input row in every layer0.weight: the
    benchmark's spec hash on a model of another input dimension."""
    with np.load(run / "checkpoint_final.npz", allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    for prefix in ("student/", "teacher/", "velocity/"):
        weight = arrays[prefix + "layer0.weight"]
        arrays[prefix + "layer0.weight"] = np.vstack([weight, weight[:1]])
    (tmp / "wide.npz").write_bytes(npz_bytes(arrays))


def two_class_run(tmp, run, monkeypatch):
    # no checkpoint of a three-class run reaches analyze's row count check
    assert run_cli("train", "--out", str(tmp / "small"), *shlex.split(TWO_ROWS)) == EXIT_OK


def raising(owner, name, error):
    """Patch ``owner.name`` to raise ``error``, a failure too costly to cause."""
    def setup(tmp, run, monkeypatch):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(owner, name, fail)
    return setup


def refusal(row_id, argv, code, error, setup=None, partial=False):
    """A row of REFUSALS; ``partial``: the command fails once it has written under --out."""
    return pytest.param(argv, code, error, setup, partial, id=row_id)


FAST_ARGS = " ".join(FAST)
TRAIN = f"train --out $tmp/out {FAST_ARGS}"
ANALYZE = f"analyze --checkpoint $run/checkpoint_final.npz --out $tmp/out {FAST_ARGS}"
TWO_ROWS = f"{FAST_ARGS} --set data.n_classes=2 --set data.n_per_class_target=1"
IS_A_DIRECTORY = "(IsADirectoryError: [Errno 21] Is a directory:"
READERS = ("eval --checkpoint", "analyze --out $tmp/out --checkpoint",
           "train --out $tmp/out --resume")
UNABLE = "Unable to allocate 272. GiB for an array with shape (36507222016,) and data type float64"

# Each row: one `lrco` command line, split as a shell would, and the one
# line it prints on stderr (None: nothing, as gradcheck prints its table on
# stdout); exit 2 rows give argparse's last line, after its usage. Both may
# name $tmp (the test's tmp_path), $run (the FAST run) and $pid.
REFUSALS = [
    refusal("no-command", "", EXIT_USAGE,
            "lrco: error: the following arguments are required: command"),
    refusal("unknown-command", "no-such-command", EXIT_USAGE,
            "lrco: error: argument command: invalid choice: 'no-such-command' (choose from "
            "'gen-data', 'train', 'eval', 'analyze', 'gradcheck')"),
    refusal("train-without-out", "train", EXIT_USAGE,
            "lrco train: error: the following arguments are required: --out"),
    refusal("eval-without-checkpoint", "eval", EXIT_USAGE,
            "lrco eval: error: the following arguments are required: --checkpoint"),
    # a gradcheck flag outside its domain, or not a number; argparse's own
    # "invalid <function name> value:" wording would name a private helper
    *(refusal(f"gradcheck-{flag}={value}", f"gradcheck --{flag} {value}", EXIT_USAGE,
              f"lrco gradcheck: error: argument --{flag}: {message}")
      for flag, value, message in (
          ("instances", "0", "must lie in [1, inf), got 0"),
          ("instances", "-3", "must lie in [1, inf), got -3"),
          ("seed", "-1", "must lie in [0, inf), got -1"),
          *(("tolerance", value, f"must lie in (0, inf), got {shown}")
            for value, shown in (("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-0.5", "-0.5"))),
          ("instances", "abc", "expected an integer, got 'abc'"),
          ("seed", "1.5", "expected an integer, got '1.5'"),
          ("tolerance", "x", "expected a number, got 'x'"))),
    refusal("eval-corrupt-checkpoint", "eval --checkpoint $tmp/corrupt.npz", EXIT_INVALID_CONFIG,
            "error: invalid-config: $tmp/corrupt.npz is not a readable checkpoint (ValueError: "
            "This file contains pickled (object) data. If you trust the file you can load it "
            "unsafely using the `allow_pickle=` keyword argument or `pickle.load()`.)",
            file_at("corrupt.npz", b"not a checkpoint\n")),
    refusal("gradcheck-pass", "gradcheck --instances 1", EXIT_OK, None),
    refusal("gradcheck-fail", "gradcheck --instances 1 --tolerance 1e-30", EXIT_NUMERIC, None),
    # missing files; a refused resume leaves --out as it was, or absent
    *(refusal(row_id, f"{argv} {path}", EXIT_MISSING_FILE,
              f"error: missing-file: [Errno 2] No such file or directory: '{path}'", setup)
      for row_id, argv, path, setup in (
          ("eval-missing-checkpoint", "eval --checkpoint", "$tmp/nope.npz", None),
          ("train-missing-config", "train --out $tmp/out --config", "$tmp/ghost.txt", None),
          ("resume-missing-checkpoint", f"train --out $tmp/run {FAST_ARGS} --set "
           "train.lambda_co=0.7 --resume", "$tmp/run/no_such_checkpoint.npz", copy_run),
          ("resume-missing-checkpoint-into-new-out", f"{TRAIN} --resume", "$run/nope.npz", None))),
    # a --config that cannot be read, or holds a value outside its domain
    *(refusal(f"config-{name}", f"train --out $tmp/out --config $tmp/{name}", EXIT_INVALID_CONFIG,
              f"error: invalid-config: {message}", file_at(name, data))
      for name, data, message in (
          ("a_directory", None, "$tmp/a_directory is not a readable config file "
           f"{IS_A_DIRECTORY} '$tmp/a_directory')"),
          ("binary.txt", b"train.seed = \xff\n", "$tmp/binary.txt is not a readable config file "
           "(UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 13: invalid "
           "start byte)"),
          ("bad.txt", b"train.method = teleport\n", "train.method must be one of ('source_only', "
           "'baseline', 'strong', 'lrco', 'mixlrco'), got 'teleport'"))),
    # an --out that exists as a file or lies under one
    refusal("gen-data-out-under-a-file", f"gen-data --out $tmp/blocker/sub {FAST_ARGS}",
            EXIT_INVALID_CONFIG, "error: invalid-config: --out $tmp/blocker/sub is not a usable "
            "directory (NotADirectoryError: [Errno 20] Not a directory: '$tmp/blocker/sub')",
            file_at("blocker", b"a file\n")),
    *(refusal(f"{argv.split()[0]}-out-a-file", argv.replace("$tmp/out", "$tmp/blocker"),
              EXIT_INVALID_CONFIG, "error: invalid-config: --out $tmp/blocker is not a usable "
              "directory (FileExistsError: [Errno 17] File exists: '$tmp/blocker')",
              file_at("blocker", b"a file\n")) for argv in (TRAIN, ANALYZE)),
    # a key outside its domain, refused before --out is made
    *(refusal(row_id, argv, EXIT_INVALID_CONFIG, f"error: invalid-config: {message}")
      for row_id, argv, message in (
          ("gen-data-data.n_classes=1", "gen-data --out $tmp/out --set data.n_classes=1",
           "data.n_classes must lie in [2, 2147483647], got 1"),
          ("gen-data-data.seed=-1", "gen-data --out $tmp/out --set data.seed=-1",
           "data.seed must lie in [0, inf), got -1"),
          ("removed-rerep_mode", f"{TRAIN} --set train.rerep_mode=rerep_nodetach",
           "train.rerep_mode must be one of ('rerep', 'raw'), got 'rerep_nodetach'"),
          ("removed-mixup_mode", f"{TRAIN} --set train.mixup_mode=high_confidence",
           "train.mixup_mode must be one of ('dominant', 'no_dominance'), got 'high_confidence'"),
          ("removed-feature_dim=1", f"{TRAIN} --set model.feature_dim=1",
           "model.feature_dim must lie in [2, 2147483647], got 1"),
          *((f"dynamic-tau-{method}",
             f"{TRAIN} --set train.method={method} --set train.dynamic_tau=true",
             "dynamic_tau needs a method that reads tau, one of ('strong', 'lrco', 'mixlrco'); "
             f"{method!r} does not") for method in ("source_only", "baseline")))),
    # a run id that config_used.txt, one key a line, could not give back
    *(refusal(f"run-id-{name}", f"{TRAIN} --set 'output.run_id={run_id}'", EXIT_INVALID_CONFIG,
              "error: invalid-config: output.run_id must be nonempty, of printable characters "
              f"without whitespace, commas or slashes, got {run_id!r}")
      for name, run_id in (("newline", "a\nb"), ("crlf", "a\r\nb"), ("tab", "a\tb"),
                           ("vertical-tab", "a\x0bb"), ("line-separator", "a\u2028b"),
                           ("nul", "a\x00b"), ("space", "a b"))),
    # a run id too long for analyze's table names: a file name holds 255 bytes
    *(refusal(f"run-id-of-{n_bytes}-bytes", f"{ANALYZE} --set output.run_id={run_id}",
              EXIT_INVALID_CONFIG, "error: invalid-config: output.run_id must be at most 204 "
              f"bytes in UTF-8, to fit the file names of analyze's tables, got {n_bytes} bytes")
      for run_id, n_bytes in (("a" * 300, 300), ("a" * 205, 205), ("\u00e9" * 103, 206))),
    # a size past 2**31 - 1, refused before anything is allocated; on a
    # circle (input_dim=2) any class count meets the cross-field rule
    *(refusal(f"huge-{command}-{key}", f"{command} --out $tmp/out --set {key}={10**30}"
              + (" --set data.input_dim=2" if key == "data.n_classes" else ""),
              EXIT_INVALID_CONFIG,
              f"error: invalid-config: {key} must lie in [{low}, 2147483647], got "
              f"{(10**30,) if key == 'model.hidden_dims' else 10**30}")
      for command, key, low in (
          ("gen-data", "data.n_per_class_source", 1), ("train", "data.n_per_class_target", 1),
          ("train", "data.n_labeled_target_per_class", 0), ("train", "data.input_dim", 2),
          ("train", "model.hidden_dims", 1), ("train", "model.feature_dim", 2),
          ("train", "train.bank_capacity", 1), ("gen-data", "data.n_classes", 2))),
    # a size inside its key's domain whose arrays would not fit in one
    *(refusal(f"no-array-holds-{command}-{setting}", f"{command} --out $tmp/out --set {setting}",
              EXIT_INVALID_CONFIG, f"error: invalid-config: {what} would hold {n} entries; an "
              "array holds at most 2147483647")
      for command, setting, what, n in (
          ("train", "model.hidden_dims=2147483647", "the model's parameter vector", 36507222047),
          ("gen-data", "data.input_dim=2147483647", "the model's parameter vector", 34359738544),
          ("train", "data.n_per_class_source=2147483647", "the source split (data.n_classes * "
           "data.n_per_class_source rows of data.input_dim)", 85899345880),
          ("gen-data", "data.input_dim=46341",
           "the (data.input_dim, data.input_dim) class frame and shift rotation", 2147488281))),
    refusal("analyze-two-target-rows", "analyze --checkpoint $tmp/small/checkpoint_final.npz "
            f"--out $tmp/out {TWO_ROWS}", EXIT_INVALID_CONFIG, "error: invalid-config: analyze "
            "needs at least 3 target rows to project, the benchmark has 2", two_class_run),
    # a checkpoint of another benchmark, or of a model of another shape
    *(refusal(f"{argv.split()[0]}-{path.split('/')[-1]}-{override}",
              f"{argv} {path} {FAST_ARGS} --set {override}", EXIT_INVALID_CONFIG,
              f"error: invalid-config: checkpoint {path} was trained on benchmark "
              f"spec_hash={trained_on}, the benchmark has spec_hash={spec_hash}", setup)
      for path, override, trained_on, spec_hash, setup in (
          ("$run/checkpoint_final.npz", "data.seed=7", "5bb447d9a923", "9da488d911d0", None),
          ("$run/checkpoint_final.npz", "data.input_dim=6", "5bb447d9a923", "325583a5d0a8", None),
          ("$run/checkpoint_final.npz", "data.input_dim=4", "5bb447d9a923", "abb6c8ac6909", None),
          ("$run/checkpoint_final.npz", "data.n_classes=2", "5bb447d9a923", "615ff0fbf59e", None),
          ("$tmp/unnamed.npz", "data.seed=0", "(none recorded)", "5bb447d9a923",
           checkpoint_with("unnamed.npz", spec_hash="")))
      for argv in READERS),
    *(refusal(f"{argv.split()[0]}-wide-checkpoint", f"{argv} $tmp/wide.npz {FAST_ARGS}",
              EXIT_INVALID_CONFIG, "error: invalid-config: checkpoint model has input_dim=4 "
              "n_classes=3, the benchmark has input_dim=3 n_classes=3", wide_checkpoint)
      for argv in READERS),
    *(refusal(row_id, argv, EXIT_INVALID_CONFIG,
              f"error: invalid-config: checkpoint was written by a different config ({hashes})",
              setup)
      for row_id, argv, hashes, setup in (
          ("resume-another-config", f"train --out $tmp/run {FAST_ARGS} --set train.lambda_co=0.7 "
           "--resume $tmp/run/checkpoint_final.npz", "3f5e3a6f53f5 != cc0b82250a4e", copy_run),
          ("resume-no-dynamics-hash", f"{TRAIN} --resume $tmp/unhashed.npz",
           "no dynamics hash != 3f5e3a6f53f5", checkpoint_with("unhashed.npz", dynamics_hash="")))),
    # numeric and runtime failures of a run that has begun writing --out
    *(refusal(row_id, f"{TRAIN} --set train.method={method} --set {setting}", EXIT_NUMERIC,
              f"error: numeric: {message}", partial=True)
      for row_id, method, setting, message in (
          ("tiny-mix-alpha", "mixlrco", "train.alpha=1e-300", "sample_beta: alpha=1e-300 is too "
           "small to draw from: both Gamma draws of a row underflowed to 0 on 1000 redraws"),
          *((f"diverging-{method}", method, "train.learning_rate=1e200",
             "cannot normalize vector whose norm overflows to inf") for method in METHODS))),
    refusal("train-unable-to-allocate", TRAIN, EXIT_NUMERIC, f"error: runtime: {UNABLE}",
            raising(trainer, "init_model", MemoryError(UNABLE)), partial=True),
    # gen-data builds the benchmark before it makes --out
    refusal("gen-data-out-of-memory", f"gen-data --out $tmp/out {FAST_ARGS}", EXIT_NUMERIC,
            "error: runtime: out of memory",
            raising(cli, "generate_shift_benchmark", MemoryError())),
    # a file under --out that cannot be written: those written before it stay
    *(refusal(f"{argv.split()[0]}-{name}-write-fails", argv, EXIT_INVALID_CONFIG,
              "error: invalid-config: a file under --out cannot be written "
              f"{IS_A_DIRECTORY} '$tmp/out/{name}{detail}')", file_at(f"out/{name}"), partial=True)
      for argv, name, detail in (
          (f"gen-data --out $tmp/out {FAST_ARGS}", "source.txt", ""),
          (TRAIN, "config_used.txt", ""),
          (TRAIN, "metrics.csv", ""),
          (f"{TRAIN} --set train.checkpoint_interval=2", "checkpoint_step2.npz",
           ".$pid.tmp' -> '$tmp/out/checkpoint_step2.npz"),
          (ANALYZE, "projection_run-run0_step-4_target.csv", ""))),
]


@pytest.mark.filterwarnings("error")  # pytest would record a warning, not print it
@pytest.mark.parametrize("argv, code, error, setup, partial", REFUSALS)
def test_refusal(tmp_path, capsys, monkeypatch, fast_run, argv, code, error, setup, partial):
    names = dict(tmp=tmp_path, run=fast_run, pid=os.getpid())
    argv = shlex.split(argv)
    # --out lies in tmp_path, so the snapshots of tmp_path below hold it
    assert "--out" not in argv or argv[argv.index("--out") + 1].startswith("$tmp/")
    if setup:
        setup(tmp_path, fast_run, monkeypatch)
    before = contents(tmp_path)
    capsys.readouterr()

    def timed_out(signum, frame):
        raise AssertionError("lrco did not end within 30 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(30)
    try:
        exit_code = main([Template(arg).substitute(names) for arg in argv])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert exit_code == code, err
    assert "Traceback" not in err, err
    if error is None:
        assert err == ""
    elif code == EXIT_USAGE:
        assert out == "" and err.startswith("usage: lrco") and " value: " not in err, err
        assert err.splitlines()[-1] == error, err
    else:
        assert out == "" and err == Template(error).substitute(names) + "\n", err
    after = contents(tmp_path)  # partial: what the command wrote before it failed stays
    assert before.items() <= after.items() if partial else after == before
    assert not any(p.suffix == ".tmp" for p in after)


def test_run_id_of_204_bytes_fits_analyze_file_names(tmp_path, capsys, fast_run):
    # 204 bytes, at the step with the most digits: the longest table name
    run_id = "\u00e9" * 102
    ckpt_far = tmp_path / "far.npz"
    save_checkpoint(ckpt_far, dataclasses.replace(
        load_checkpoint(fast_run / "checkpoint_final.npz"), step=2**63 - 1))
    out = tmp_path / "analysis"
    assert run_cli("analyze", "--checkpoint", str(ckpt_far), "--out", str(out), *FAST,
                   "--set", f"output.run_id={run_id}") == EXIT_OK
    capsys.readouterr()
    assert sorted(os.listdir(out)) == [f"{kind}_run-{run_id}_step-{2**63 - 1}_target.csv"
                                       for kind in ("projection", "similarity", "topk")]


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
