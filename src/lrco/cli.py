"""Command-line entry point.

Subcommands: gen-data, train, eval, analyze, gradcheck. Every subcommand is a
single process driven by a config file (defaults used when none is given),
with individual keys overridable via repeated --set section.key=value flags.

Exit codes: 0 success, 2 usage, 3 missing file, 4 invalid config or data
format (an unreadable --config, an unusable --out or a file under it that
cannot be written, a corrupt checkpoint, or one that trainer.checkpoint_for
refuses for the benchmark, included),
5 numeric/runtime failure (an allocation the machine cannot hold included).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import (
    MIN_PROJECTION_ROWS, analysis_filename, confidence_feature_vectors,
    mixed_topk_curves, project_2d, similarity_stats, split_by_confidence,
    write_projection_csv, write_similarity_csv, write_topk_csv,
)
from .config import (
    RunConfig, apply_overrides, canonical_text, config_hash, default_run_config,
    dynamics_hash, load_config, parser_for,
)
from .data import benchmark_spec_hash, generate_shift_benchmark, save_dataset
from .data import pack_inputs  # noqa: F401 (unused; perfbench patches it here)
from .errors import (
    ConfigError, DatasetFormatError, DegenerateFeatureError, LrcoError,
    ShapeMismatchError, TrainingDivergedError, inside,
)
from .gradcheck import run_gradient_suite
from .trainer import REREP_MODES, checkpoint_for, evaluate, fit
from .trainer import load_checkpoint  # noqa: F401 (unused; perfbench patches it here)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_INVALID_CONFIG = 4
EXIT_NUMERIC = 5


def _fail_line(kind: str, detail: str) -> None:
    print(f"error: {kind}: {detail}", file=sys.stderr)


def _resolve_out(path: str) -> str:
    root = os.environ.get("LRCO_OUTPUT_ROOT", "")
    if root and not os.path.isabs(path):
        path = os.path.join(root, path)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path} is not a usable directory "
                          f"({type(exc).__name__}: {exc})") from exc
    return path


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_run_config()
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    cfg.validate()
    return cfg


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="path to a run config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")


def _flag_type(annotation: str, domain: str):
    """An argparse type that reads a flag as a config value of ``annotation``
    and refuses it outside ``domain`` by the rule of the config fields."""
    parse = parser_for(annotation)

    def read(text):
        try:
            value = parse(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if not inside(value, domain):
            raise argparse.ArgumentTypeError(f"must lie in {domain}, got {value!r}")
        return value
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrco",
        description="domain-adaptation training on a synthetic shift benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write the benchmark datasets as text files")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train one method on the benchmark")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("source", "target", "both"), default="both")

    p = sub.add_parser("analyze", help="write similarity/top-k/projection tables")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--feature-mode", choices=REREP_MODES, default="rerep",
                   help="vectors of the similarity table, as train.rerep_mode")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common(p)
    p.add_argument("--instances", type=_flag_type("int", "[1, inf)"), default=20)
    p.add_argument("--seed", type=_flag_type("int", "[0, inf)"), default=0)
    p.add_argument("--tolerance", type=_flag_type("float", "(0, inf)"), default=1e-4)

    return parser


def _cmd_gen_data(args) -> int:
    cfg = _load_run_config(args)
    bench = generate_shift_benchmark(cfg.data)
    out = _resolve_out(args.out)
    spec_hash = benchmark_spec_hash(cfg.data)
    blocks = (
        ("source.txt", "source", bench.source_x, bench.source_y),
        ("target_unlabeled.txt", "target", bench.target_unlabeled_x, None),
        ("target_labeled.txt", "target", bench.target_labeled_x, bench.target_labeled_y),
        ("target_eval.txt", "target", *bench.target_eval_samples()),
    )
    for name, domain, x, y in blocks:
        save_dataset(os.path.join(out, name), domain, x, y,
                     n_classes=cfg.data.n_classes, spec_hash=spec_hash)
    print(f"wrote {len(blocks)} dataset files to {out} (spec_hash={spec_hash})")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_run_config(args)
    chash, dhash = config_hash(cfg), dynamics_hash(cfg)
    bench = generate_shift_benchmark(cfg.data)
    # A refused resume must leave --out as it was, so check it before writing.
    resume = None if args.resume is None else checkpoint_for(args.resume, bench, dhash)
    out = _resolve_out(args.out)
    with open(os.path.join(out, "config_used.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_text(cfg))
    result = fit(
        bench, cfg.augment, cfg.train,
        hidden_dims=cfg.model.hidden_dims, feature_dim=cfg.model.feature_dim,
        out_dir=out, resume_from=resume, config_hash=chash, dynamics_hash=dhash,
    )
    print(f"run_id={cfg.output.run_id} config_hash={chash} steps={result.steps_run}")
    for rec in result.history[-2:]:
        print(f"final split={rec.split} accuracy={rec.accuracy:.6f} "
              f"mean_confidence={rec.mean_confidence:.6f}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    bench = generate_shift_benchmark(cfg.data)
    ckpt = checkpoint_for(args.checkpoint, bench)
    splits = {"source": (bench.source_x, bench.source_y),
              "target": bench.target_eval_samples()}
    for name, (x, y) in splits.items():
        if args.split not in (name, "both"):
            continue
        m = evaluate(ckpt.student, x, y)
        per_class = " ".join(
            f"class{c}={v:.6f}" for c, v in sorted(m.per_class.items())
        )
        print(f"split={name} accuracy={m.accuracy:.6f} "
              f"mean_confidence={m.mean_confidence:.6f} {per_class}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    cfg = _load_run_config(args)
    bench = generate_shift_benchmark(cfg.data)
    ckpt = checkpoint_for(args.checkpoint, bench)
    x_target, labels = bench.target_eval_samples()
    if len(labels) < MIN_PROJECTION_ROWS:
        raise ConfigError(
            f"analyze needs at least {MIN_PROJECTION_ROWS} target rows to project, "
            f"the benchmark has {len(labels)}")
    out = _resolve_out(args.out)
    chash = config_hash(cfg)
    meta = f"config_hash={chash} seed={cfg.train.seed} checkpoint_step={ckpt.step}"
    run_id, step = cfg.output.run_id, ckpt.step

    high_idx, low_idx, _, feats = split_by_confidence(ckpt.teacher, x_target, ckpt.tau)
    confident = np.zeros(len(labels), dtype=bool)
    confident[high_idx] = True

    vectors = confidence_feature_vectors(ckpt.teacher, feats, args.feature_mode)
    report = similarity_stats(vectors, labels, confident)
    write_similarity_csv(
        os.path.join(out, analysis_filename("similarity", run_id, step, "target")),
        report, meta=meta + f" feature_mode={args.feature_mode}",
    )

    k_max = min(10, cfg.data.n_classes)
    curves = mixed_topk_curves(
        ckpt.student, x_target[high_idx], x_target[low_idx], bench.source_x,
        alpha=cfg.train.alpha, k_max=k_max, seed=cfg.train.seed,
    )
    write_topk_csv(
        os.path.join(out, analysis_filename("topk", run_id, step, "target")),
        curves, meta=meta + f" k_max={k_max}",
    )

    coords = project_2d(confidence_feature_vectors(ckpt.teacher, feats, "raw"))
    write_projection_csv(
        os.path.join(out, analysis_filename("projection", run_id, step, "target")),
        coords, labels=labels, confident=confident, meta=meta,
    )
    print(f"wrote 3 analysis tables to {out}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    worst = run_gradient_suite(seed=args.seed, n_instances=args.instances)
    ok = True
    for name, err in worst.items():
        print(f"term={name} max_rel_error={err:.3e}")
        ok = ok and err < args.tolerance
    print(f"gradcheck {'PASS' if ok else 'FAIL'} (tolerance {args.tolerance:g})")
    return EXIT_OK if ok else EXIT_NUMERIC


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "analyze": _cmd_analyze,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        # A run that goes numerically wrong ends on its error line alone,
        # without numpy's warnings about the values on the way there.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        _fail_line("missing-file", str(exc))
        return EXIT_MISSING_FILE
    except (ConfigError, DatasetFormatError) as exc:
        _fail_line("invalid-config", str(exc))
        return EXIT_INVALID_CONFIG
    except OSError as exc:  # reads convert their own, so a write under --out failed
        _fail_line("invalid-config",
                   f"a file under --out cannot be written ({type(exc).__name__}: {exc})")
        return EXIT_INVALID_CONFIG
    except (TrainingDivergedError, DegenerateFeatureError, ShapeMismatchError,
            FloatingPointError) as exc:
        _fail_line("numeric", str(exc))
        return EXIT_NUMERIC
    except LrcoError as exc:
        _fail_line("runtime", str(exc))
        return EXIT_NUMERIC
    except MemoryError as exc:
        _fail_line("runtime", str(exc) or "out of memory")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
