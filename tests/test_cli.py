import dataclasses
import hashlib
import os

import numpy as np
import pytest

from lrco.cli import (
    EXIT_INVALID_CONFIG, EXIT_MISSING_FILE, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
    main,
)
from lrco.config import apply_overrides, default_run_config
from lrco.data import benchmark_spec_hash
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


def run_cli(*argv):
    return main(list(argv))


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
        _PROJECTION: "6935400c6ffcc0232c880cb051e38c291c57c9ee0065762aea85bc398b9b9b26",
        _SIMILARITY: "fe206602750898133b398e922e218a8a73728d8ba64f0aafe542862a8b916f1d",
        _TOPK: "c8d5c0f72ce9ffe93765adf8578e43c6c2587f75e606441a0fb864439210087c",
    },
    ("lrco", "raw"): {
        _PROJECTION: "6935400c6ffcc0232c880cb051e38c291c57c9ee0065762aea85bc398b9b9b26",
        _SIMILARITY: "e7bcde7a99e46f8126cce253355ae753cd003e9bb2b70fd49085e8dae5ec102b",
        _TOPK: "c8d5c0f72ce9ffe93765adf8578e43c6c2587f75e606441a0fb864439210087c",
    },
    ("mixlrco", "rerep"): {
        _PROJECTION: "a34e9515f71f61dc11f98225eee6866374b5c07d352992ba276ba8f1f1e6ff9d",
        _SIMILARITY: "0b484dccd7869b538fd49d5d9caa5b504a68d9533431b8db68e8bbfcb1b1d928",
        _TOPK: "9efbe07410ab315d58c74506d79793cba2f127a6b5551ecd418ed6d25ebcb2ff",
    },
    ("mixlrco", "raw"): {
        _PROJECTION: "a34e9515f71f61dc11f98225eee6866374b5c07d352992ba276ba8f1f1e6ff9d",
        _SIMILARITY: "14142a77ee4e4578132e5814313a42fc2d25e59fae1e88f630e589e60a872423",
        _TOPK: "9efbe07410ab315d58c74506d79793cba2f127a6b5551ecd418ed6d25ebcb2ff",
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
    longer = [a if a != "train.total_steps=4" else "train.total_steps=6"
              for a in FAST]
    code = run_cli("train", "--out", str(tmp_path / "run2"),
                   "--resume", str(out / "checkpoint_final.npz"), *longer)
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
    for override in ("data.input_dim=4", "data.n_classes=2"):
        code = run_cli("train", "--out", str(tmp_path / "run2"),
                       "--resume", str(out / "checkpoint_final.npz"), *FAST,
                       "--set", override)
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert "checkpoint model has input_dim=3 n_classes=3" in err, override


def test_refused_resume_leaves_the_run_directory_untouched(tmp_path, capsys):
    run = tmp_path / "run"
    assert run_cli("train", "--out", str(run), *FAST) == EXIT_OK

    def contents(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))}

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


def test_corrupt_checkpoint_exits_4_naming_the_path(tmp_path, capsys):
    good = train_fast(tmp_path, capsys)
    text = tmp_path / "text.npz"
    text.write_text("not a checkpoint\n")
    truncated = tmp_path / "truncated.npz"
    with open(good, "rb") as fh:
        truncated.write_bytes(fh.read(200))
    empty = tmp_path / "empty.npz"
    empty.write_bytes(b"")
    no_meta = tmp_path / "no_meta.npz"
    with open(no_meta, "wb") as fh:
        np.savez(fh, x=np.zeros(3))
    for bad in (text, truncated, empty, no_meta):
        for argv in (["eval", "--checkpoint", str(bad)],
                     ["train", "--out", str(tmp_path / "resumed"), "--resume", str(bad)]):
            assert run_cli(*argv, *FAST) == EXIT_INVALID_CONFIG, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: invalid-config: {bad} is not a readable "
                                  "checkpoint"), err


def test_every_documented_exit_code(tmp_path, capsys):
    corrupt = tmp_path / "corrupt.npz"
    corrupt.write_text("not a checkpoint\n")
    cases = [
        (EXIT_OK, ["gradcheck", "--instances", "1"], ""),
        (EXIT_USAGE, ["eval"], "required: --checkpoint"),
        (EXIT_USAGE, ["gradcheck", "--instances", "0"], "argument --instances: must be >= 1"),
        (EXIT_USAGE, ["gradcheck", "--instances", "-3"], "argument --instances: must be >= 1"),
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


def test_invalid_config_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("train.method = teleport\n")
    code = run_cli("train", "--out", str(tmp_path / "o"), "--config", str(bad))
    assert code == EXIT_INVALID_CONFIG
    assert "error: invalid-config:" in capsys.readouterr().err
    code = run_cli("gen-data", "--out", str(tmp_path / "d"),
                   "--set", "data.n_classes=1")
    assert code == EXIT_INVALID_CONFIG
    capsys.readouterr()


def test_removed_config_values_exit_4(tmp_path, capsys):
    for setting, message in (("train.rerep_mode=rerep_nodetach",
                              "choose from ('rerep', 'raw')"),
                             ("train.mixup_mode=high_confidence",
                              "choose from ('dominant', 'no_dominance')"),
                             ("model.feature_dim=1", "model.feature_dim must be >= 2")):
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
        "d5e5f65eee18fdde99b61a0aab4b1b02923a21b8da85c5cfa18a8d0d8fd222ef",
    "run/checkpoint_step2.npz":
        "4a5c1271ab11a9a7e372c01d9c37ae01b033dc34aba3dbe0091abd8995b1c224",
    "run/checkpoint_step3.npz":
        "935d6f131e1ffb8a3fd7186df528d15ed8b319aeb3d9683b30171f91de9d0b0a",
    "run/checkpoint_final.npz":
        "2ccb5a1d898059d858a786f51302fd2b62f36b795cf13da3537c92f4a8360e46",
    "resumed/checkpoint_step3.npz":
        "bfd787ab69b053e8994b9e88ebd709c13eb51c629d8638bfa95e2d12f63a3d70",
    "resumed/checkpoint_step4.npz":
        "a7db9faba5c5ded078f38605b3f0cee14b7d6043333140d6ec12a15e0b7994cd",
    "resumed/checkpoint_step5.npz":
        "c502790547fbd610a8c6eee10d36d481e9a4b124e4d9595a46aba8de27d82215",
    "resumed/checkpoint_final.npz":
        "4ad1bee3ef99105ab910b6a20b0fc266982af505cc49069b57ab5cc92a58e073",
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
