"""Training loop: labeled source + unlabeled target, teacher-student with EMA,
confidence-split target batches, and the contrastive branches on low-confidence
samples.

Determinism contract: every random consumer derives a dedicated sub-stream
keyed by (purpose, step) or (purpose, epoch) from the run seed, so two runs
with the same config produce bit-identical parameter trajectories and metric
files, and a checkpoint-resume continues exactly where the original run was.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import losses as L
from .data import AugmentSpec, ShiftBenchmark, benchmark_spec_hash, strong_augment, weak_augment
from .data import pack_inputs, pack_labels  # noqa: F401 (unused; perfbench patches them here)
from .errors import (
    ConfigError, DatasetFormatError, LrcoError, ShapeMismatchError, TrainingDivergedError,
    check_domains, within,
)
from .membank import MemoryBank
from .model import (
    ModelConfig, ModelState, ParamTensors, clone_state, ema_update, features_of, init_model,
    lift_params, probs_of, state_arrays, state_from_arrays, tape_from, unit_classifier,
    with_param_vector,
)
from .numerics import SeededRng
from .numerics import normalize_last  # noqa: F401 (unused; perfbench patches it here)

# The terms each method adds to its objective, in the order the total adds
# them: the one place that says what a method reads. "fixmatch" adds the KLD
# too; "bank" and "mix" add the contrastive term, the latter over the mixes.
METHOD_TERMS = {
    "source_only": ("ce",),
    "baseline": ("ce", "align"),
    "strong": ("ce", "align", "fixmatch"),
    "lrco": ("ce", "align", "fixmatch", "bank"),
    "mixlrco": ("ce", "align", "fixmatch", "mix"),
}
METHODS = tuple(METHOD_TERMS)
# The methods whose objective reads the teacher's pseudo-labels or the
# confidence split built from them, and so tau; the others skip the teacher.
PSEUDO_LABEL_METHODS = tuple(m for m, terms in METHOD_TERMS.items() if "fixmatch" in terms)
SAMPLE_SELECTIONS = ("low", "high", "all")
REREP_MODES = L.REREP_MODES
MIXUP_MODES = ("dominant", "no_dominance")
LOSS_KEYS = ("total", "ce", "align", "fixmatch", "kld", "contrastive")

_FMT = "{:.17g}".format


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one run. Defaults are the settings the recorded
    benchmark numbers were measured with."""

    method: str = within(METHODS, "mixlrco")
    tau: float = within("(0, 1)", 0.9)
    t_ce: float = within("(0, inf)", 0.05)
    t_re: float | None = within("(0, inf)", None)
    t_co: float = within("(0, inf)", 0.3)
    bank_capacity: int = within("[1, 2147483647]", 512)
    lambda_co: float = within("[0, inf)", 0.5)
    lambda_kld: float = within("[0, inf)", 0.1)
    lambda_align: float = within("[0, inf)", 0.1)
    alpha: float = within("(0, inf)", 1.0)
    ema_decay: float = within("[0, 1)", 0.99)
    learning_rate: float = within("(0, inf)", 0.01)
    momentum: float = within("[0, 1)", 0.9)
    batch_labeled: int = within("[1, inf)", 32)
    batch_unlabeled: int = within("[1, inf)", 32)
    total_steps: int = within("[0, inf)", 600)
    eval_interval: int = within("[1, inf)", 100)
    checkpoint_interval: int = within("[0, inf)", 0)
    seed: int = within("[0, inf)", 0)
    sample_selection: str = within(SAMPLE_SELECTIONS, "low")
    rerep_mode: str = within(REREP_MODES, "rerep")
    mixup_mode: str = within(MIXUP_MODES, "dominant")
    dynamic_tau: bool = False
    tau_band: tuple[float, float] = within("[0, 1]", (0.6, 0.8))
    tau_step: float = within("(0, inf)", 0.005)
    tau_bounds: tuple[float, float] = within("(0, 1)", (0.93, 0.98))

    def resolved_t_re(self) -> float:
        return self.t_ce if self.t_re is None else self.t_re

    def validate(self, prefix: str = "") -> None:
        check_domains(self, prefix)
        if not self.tau_band[0] < self.tau_band[1]:
            raise ConfigError("tau_band must satisfy 0 <= low < high <= 1")
        if not self.tau_bounds[0] < self.tau_bounds[1]:
            raise ConfigError("tau_bounds must satisfy 0 < min < max < 1")
        if self.dynamic_tau and "fixmatch" not in METHOD_TERMS[self.method]:
            raise ConfigError(f"dynamic_tau needs a method that reads tau, one of "
                              f"{PSEUDO_LABEL_METHODS}; {self.method!r} does not")


@dataclass(frozen=True)
class StepReport:
    """What one optimizer step did."""

    step: int
    method: str
    losses: dict[str, float]
    n_high: int
    n_low: int
    bank_size: int
    tau: float


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    per_class: dict[int, float]
    mean_confidence: float


@dataclass(frozen=True)
class MetricRecord:
    step: int
    split: str
    accuracy: float
    mean_confidence: float
    per_class: tuple[float, ...]
    losses: dict[str, float]


@dataclass
class FitResult:
    student: ModelState
    teacher: ModelState
    bank: MemoryBank
    history: list[MetricRecord]
    final_tau: float
    steps_run: int


# Step preparation -------------------------------------------------------------

@dataclass
class MixSelection:
    """Mixes of the step's low-confidence rows: row i blends low_idx[i] with
    a source row drawn for it, with target weight lam_prime[i]."""

    lam_prime: np.ndarray
    x_mix: np.ndarray
    k_mix: np.ndarray
    k_target: np.ndarray
    k_source: np.ndarray


@dataclass
class StepBatch:
    """Every input a step consumes, with all randomness already drawn."""

    labeled_weak: np.ndarray
    labeled_y: np.ndarray
    unlabeled_weak: np.ndarray
    unlabeled_strong: np.ndarray
    pseudo: np.ndarray  # int64 hard label of each unlabeled row
    high_idx: np.ndarray
    low_idx: np.ndarray
    sel_idx: np.ndarray
    keys_sel: np.ndarray
    bank_snapshot: np.ndarray
    mix: MixSelection | None


def prepare_step(student: ModelState, teacher: ModelState, bank: MemoryBank,
                 lab_x: np.ndarray, lab_y: np.ndarray, lab_is_source: np.ndarray,
                 unl_x: np.ndarray, cfg: TrainConfig, augment: AugmentSpec,
                 tau: float, step: int) -> StepBatch:
    """Draw views, pseudo-label with the teacher, split by confidence, and
    stage the contrastive inputs for one step.

    Only what the method's METHOD_TERMS read is built: "align" draws the
    unlabeled weak view, "fixmatch" the strong view and the teacher pass,
    "bank" or "mix" stages keys, and "mix" builds the mixes. A skipped view
    has no rows and a skipped index array is empty int64."""
    base = SeededRng(cfg.seed)

    def view(augment_fn, x: np.ndarray, purpose: str) -> np.ndarray:
        return augment_fn(x, augment, base.substream(f"augment-{purpose}-{step}"))

    reads = METHOD_TERMS[cfg.method]
    no_rows = np.zeros((0, unl_x.shape[1]))
    labeled_weak = view(weak_augment, lab_x, "labeled")
    unl_weak = view(weak_augment, unl_x, "unlabeled-weak") if "align" in reads else no_rows
    unl_strong = (view(strong_augment, unl_x, "unlabeled-strong") if "fixmatch" in reads
                  else no_rows)

    bank_snapshot = bank.snapshot()
    # When a mix can happen, the teacher sees the unlabeled weak view stacked
    # with the labeled weak view, once, and mix partners take their rows from it.
    can_mix = "mix" in reads and cfg.lambda_co > 0 and len(bank_snapshot) > 0
    n_u = len(unl_weak)
    if "fixmatch" in reads:
        teacher_in = np.concatenate((unl_weak, labeled_weak)) if can_mix else unl_weak
        teacher_feats = np.asarray(features_of(teacher, teacher_in), dtype=np.float64)
        teacher_unit = unit_classifier(teacher)  # for the pseudo-labels and the keys
        teacher_probs = np.asarray(probs_of(teacher, teacher_feats[:n_u],
                                            classifier_unit=teacher_unit), dtype=np.float64)
        pseudo, flags = L.pseudo_labels(teacher_probs, tau)
    else:
        pseudo, flags = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    high_idx = flags.nonzero()[0]
    low_idx = (~flags).nonzero()[0]
    if cfg.sample_selection == "low":
        sel_idx = low_idx
    elif cfg.sample_selection == "high":
        sel_idx = high_idx
    else:
        sel_idx = np.arange(len(pseudo))

    # Teacher feature rows to key, in one contrast_rows call: the selected
    # rows, then for a mix the low rows (unless they are the selected ones)
    # and the partners' labeled rows.
    key_rows = [sel_idx] if "bank" in reads or "mix" in reads else []
    mix = partners = None
    source_pool = lab_is_source.nonzero()[0] if can_mix else ()
    if len(low_idx) > 0 and len(source_pool) > 0:
        mix_rng = base.substream(f"mix-{step}")
        partners = source_pool[
            np.asarray(mix_rng.integers(0, len(source_pool), size=len(low_idx)))
        ]
        lam_prime = L.draw_mix(cfg.alpha, mix_rng, len(low_idx),
                               dominant=cfg.mixup_mode != "no_dominance")
        partner_strong = view(strong_augment, lab_x[partners], "mix-source")
        x_mix = L.blend(lam_prime, unl_strong[low_idx], partner_strong)
        if sel_idx is not low_idx:
            key_rows.append(low_idx)
        key_rows.append(n_u + partners)
    if key_rows:
        keys = L.contrast_rows(teacher_feats[np.concatenate(key_rows)], teacher.classifier,
                               teacher.t_re, cfg.rerep_mode, teacher_unit[0])
        keys_sel = keys[:len(sel_idx)]
    else:
        keys_sel = np.zeros((0, teacher.feature_dim))
    if partners is not None:  # the low rows' keys come just before the partners'
        k_target = keys[len(keys) - 2 * len(low_idx):len(keys) - len(low_idx)]
        k_source = keys[len(keys) - len(low_idx):]
        k_mix = L.blend(lam_prime, k_target, k_source)
        mix = MixSelection(lam_prime=lam_prime, x_mix=x_mix, k_mix=k_mix,
                           k_target=k_target, k_source=k_source)

    return StepBatch(
        labeled_weak=labeled_weak, labeled_y=lab_y, unlabeled_weak=unl_weak,
        unlabeled_strong=unl_strong, pseudo=pseudo, high_idx=high_idx,
        low_idx=low_idx, sel_idx=sel_idx, keys_sel=keys_sel,
        bank_snapshot=bank_snapshot, mix=mix,
    )


def stacked_forward(model_like, sb: StepBatch, cfg: TrainConfig, classifier_unit=None):
    """The student's one forward pass for a prepared step.

    The views the method reads are stacked (labeled weak, unlabeled weak,
    unlabeled strong, then the mixes) and go through features_of once;
    every row but the mixes goes through probs_of once, by row range, so the
    classifier is normalized once (``classifier_unit`` passes to probs_of).
    Returns (feats, probs, rows): rows maps each stacked view to the int64
    indices of its rows in feats, and probs holds the same rows up to the
    mixes. A method without "align" reads the labeled view alone, which goes
    in as it is. The others' bits depend on the stacking, since a BLAS
    product's rounding depends on its row count.
    """
    reads = METHOD_TERMS[cfg.method]
    views = {"labeled": sb.labeled_weak}
    if "align" in reads:
        views["unlabeled_weak"] = sb.unlabeled_weak
    if "fixmatch" in reads:
        views["unlabeled_strong"] = sb.unlabeled_strong
    if "mix" in reads and cfg.lambda_co > 0 and sb.mix is not None:
        views["mix"] = sb.mix.x_mix
    rows, start = {}, 0
    for name, x in views.items():
        rows[name] = np.arange(start, start + len(x))
        start += len(x)
    if len(views) == 1:
        feats = features_of(model_like, sb.labeled_weak)
        return feats, probs_of(model_like, feats, classifier_unit=classifier_unit), rows
    feats = features_of(model_like, np.concatenate(list(views.values())))
    read = None
    if "mix" in views:  # no probability of a mix row is read
        read = slice(0, start - len(views["mix"]))
    return feats, probs_of(model_like, feats, read, classifier_unit), rows


def step_objective(model_like, sb: StepBatch, cfg: TrainConfig, *,
                   frozen_classifier=None, term_nodes: bool = False):
    """Assemble the method's total objective for a prepared step.

    Works on a ModelState (plain evaluation) or ParamTensors (training graph).
    Returns (total, terms) where terms maps LOSS_KEYS minus "total" to scalars.
    Every term takes its rows of the one stacked_forward pass by offset.
    On the graph, the contrastive term is a node of the total's graph and
    the class terms are plain values, unless ``term_nodes`` asks for each
    as a node of its own, to differentiate it alone (class_terms_batch).
    ``frozen_classifier`` is only for the finite-difference harness.
    """
    reads = METHOD_TERMS[cfg.method]
    terms = dict.fromkeys(LOSS_KEYS[1:], 0.0)
    contrasts = "bank" in reads or "mix" in reads

    # Queries go through the detached classifier; the finite-difference
    # harness substitutes a fixed weight array for it, so the numeric check
    # differentiates the same function the stop-gradient defines. The
    # model's own classifier is normalized once, for the probabilities and
    # the queries; a frozen one normalizes itself in the queries.
    classifier = model_like.classifier if frozen_classifier is None else frozen_classifier
    unit = (unit_classifier(model_like)
            if contrasts and frozen_classifier is None and cfg.rerep_mode == "rerep" else None)

    feats, probs, rows = stacked_forward(model_like, sb, cfg, unit)
    strong = rows.get("unlabeled_strong")  # strong[i]: the stacked row of strong-view row i
    if "align" in reads:
        # More than one class term: one node for them all. The labeled rows
        # come first in the stack, the unlabeled weak rows next.
        n_l, n_u = len(sb.labeled_weak), len(sb.unlabeled_weak)
        high = strong[sb.high_idx] if "fixmatch" in reads else sb.high_idx
        class_total, class_terms = L.class_terms_batch(
            probs, slice(0, n_l), sb.labeled_y, slice(n_l, n_l + n_u),
            high, sb.pseudo[sb.high_idx],
            {"ce": 1.0, "align": cfg.lambda_align, "fixmatch": 1.0, "kld": cfg.lambda_kld},
            term_nodes)
        terms.update(class_terms)
    else:
        class_total = terms["ce"] = L.cross_entropy_batch(probs, sb.labeled_y)

    def contrastive(query_rows, k_pos, k_den):
        return L.contrastive_branch(feats, query_rows, classifier, model_like.t_re,
                                    cfg.rerep_mode, k_pos, k_den, sb.bank_snapshot, cfg.t_co,
                                    None if unit is None else unit[0])

    if ("bank" in reads and cfg.lambda_co > 0 and len(sb.sel_idx) > 0
            and len(sb.bank_snapshot) > 0):
        terms["contrastive"] = contrastive(strong[sb.sel_idx], sb.keys_sel, (sb.keys_sel,))
    elif "mix" in rows:  # stacked only for "mix" with lambda_co > 0 and a mix staged
        terms["contrastive"] = contrastive(rows["mix"], sb.mix.k_mix,
                                           (sb.mix.k_target, sb.mix.k_source))
    else:
        return class_total, terms
    return ad.weighted_sum(((class_total, 1.0), (terms["contrastive"], cfg.lambda_co))), terms


# Optimizer ---------------------------------------------------------------------

def init_velocities(state: ModelState) -> np.ndarray:
    return np.zeros(state.params.shape)


def sgd_step(state: ModelState, grads: np.ndarray, velocities: np.ndarray,
             lr: float, momentum: float) -> None:
    """Classic momentum SGD, in place on the flat vectors: v <- mu v + g; p <- p - lr v."""
    velocities *= momentum
    velocities += grads
    state.params -= lr * velocities


# Single training step ------------------------------------------------------------

def train_step(params: ParamTensors, teacher: ModelState, bank: MemoryBank,
               velocities: np.ndarray, sb: StepBatch,
               cfg: TrainConfig, tau: float, step: int) -> StepReport:
    """One optimizer step: backprop, SGD update, EMA update, bank push.

    ``params`` is the student lifted once by lift_params, before the first
    step: its leaves view the student's params, which the update changes in
    place, and its gradient vector is zeroed here before each backward."""
    student = params.state
    params.grad.fill(0.0)
    total, terms = step_objective(params, sb, cfg)

    loss_values = {k: float(v) for k, v in terms.items()}
    loss_values["total"] = float(total)
    for key, value in loss_values.items():
        if not math.isfinite(value):
            raise TrainingDivergedError(
                f"step {step}: non-finite {key} loss ({value}); "
                f"n_high={len(sb.high_idx)} n_low={len(sb.low_idx)} "
                f"bank={len(sb.bank_snapshot)}"
            )

    if isinstance(total, ad.Tensor):
        total.backward()
    sgd_step(student, tape_from(params), velocities, cfg.learning_rate, cfg.momentum)
    ema_update(teacher, student, cfg.ema_decay)
    if sb.keys_sel.shape[0] > 0:  # prepare_step stages keys only for the bank's methods
        bank.push_batch(sb.keys_sel)

    return StepReport(
        step=step, method=cfg.method, losses=loss_values,
        n_high=int(len(sb.high_idx)), n_low=int(len(sb.low_idx)),
        bank_size=len(bank), tau=tau,
    )


def adjust_tau(high_fraction: float, tau: float, cfg: TrainConfig) -> float:
    """Dynamic threshold policy: keep the high-confidence fraction inside the
    band by nudging tau, always clamped to the configured bounds.

    The clamp wins over the band. With the defaults, tau=0.9 lies below
    tau_bounds=(0.93, 0.98), so the first call, after step 1, returns 0.93
    whatever the high fraction is, and step 2 on gates at 0.93 or above.
    No validation relates tau to tau_bounds.
    """
    if not cfg.dynamic_tau:
        return tau
    lo, hi = cfg.tau_band
    if high_fraction > hi:
        tau = tau + cfg.tau_step
    elif high_fraction < lo:
        tau = tau - cfg.tau_step
    bmin, bmax = cfg.tau_bounds
    return float(min(max(tau, bmin), bmax))


# Evaluation ----------------------------------------------------------------------

def _mean_of(v: np.ndarray) -> float:
    """float(np.mean(v)) for a 1-D bool or float64 array: the float64 sum
    np.mean takes, divided by the length."""
    return float(np.add.reduce(v, dtype=np.float64) / len(v))


def evaluate(state: ModelState, x: np.ndarray, y: np.ndarray) -> EvalMetrics:
    """Accuracy, per-class accuracy, and mean max-probability on inputs x, labels y."""
    if len(y) == 0:
        raise ValueError("cannot evaluate on an empty split")
    probs = np.asarray(probs_of(state, features_of(state, x)), dtype=np.float64)
    preds = probs.argmax(axis=1)
    accuracy = _mean_of(preds == y)
    per_class = {c: _mean_of(preds[y == c] == c) for c in sorted(set(y.tolist()))}
    mean_confidence = _mean_of(np.maximum.reduce(probs, axis=1))
    return EvalMetrics(accuracy=accuracy, per_class=per_class,
                       mean_confidence=mean_confidence)


# Batch scheduling ------------------------------------------------------------------

class _EpochCycler:
    """Stateless batch indexing: the batch for any step is a pure function of
    (seed, purpose, step), which is what makes resume bit-exact."""

    def __init__(self, n: int, batch_size: int, seed: int, purpose: str):
        self.n = n
        self.batch_size = min(batch_size, n)
        self.seed = seed
        self.purpose = purpose
        self.batches_per_epoch = max(1, math.ceil(n / self.batch_size))
        self._cached_epoch = -1
        self._cached_perm: np.ndarray | None = None

    def _perm(self, epoch: int) -> np.ndarray:
        if epoch != self._cached_epoch:
            stream = SeededRng(self.seed).substream(f"shuffle-{self.purpose}-{epoch}")
            self._cached_perm = stream.permutation(self.n)
            self._cached_epoch = epoch
        return self._cached_perm

    def batch_for_step(self, step: int) -> np.ndarray:
        ordinal = step - 1
        epoch = ordinal // self.batches_per_epoch
        slot = ordinal % self.batches_per_epoch
        perm = self._perm(epoch)
        return perm[slot * self.batch_size : (slot + 1) * self.batch_size]


# Metrics serialization ---------------------------------------------------------------

def metrics_header_lines(n_classes: int, config_hash: str, seed: int) -> list[str]:
    cols = ["step", "split", "accuracy", "mean_confidence"]
    cols += [f"acc_class_{c}" for c in range(n_classes)]
    cols += [f"loss_{k}" for k in LOSS_KEYS]
    return [f"# config_hash={config_hash} seed={seed}", ",".join(cols)]


def metric_record_line(rec: MetricRecord) -> str:
    parts = [str(rec.step), rec.split, _FMT(rec.accuracy), _FMT(rec.mean_confidence)]
    parts += [_FMT(v) for v in rec.per_class]
    parts += [_FMT(rec.losses[k]) for k in LOSS_KEYS]
    return ",".join(parts)


# Checkpoints ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """Everything a run continues from; fit trains its arrays in place."""

    student: ModelState
    teacher: ModelState
    velocities: np.ndarray  # laid out like student.params
    bank: MemoryBank
    step: int
    tau: float
    seed: int
    config_hash: str
    dynamics_hash: str = ""
    spec_hash: str = ""


# The record's scalar fields, kept in the checkpoint's JSON "meta" entry.
_META_FIELDS = {"step": int, "tau": float, "seed": int, "config_hash": str,
                "dynamics_hash": str, "spec_hash": str}


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Self-describing binary dump; round-trips bit-exactly."""
    arrays: dict[str, np.ndarray] = {}
    arrays.update(state_arrays(ckpt.student, prefix="student/"))
    arrays.update(state_arrays(ckpt.teacher, prefix="teacher/"))
    arrays.update(state_arrays(with_param_vector(ckpt.student, ckpt.velocities),
                               prefix="velocity/"))
    arrays.update(ckpt.bank.state_arrays())
    meta = {name: cast(getattr(ckpt, name)) for name, cast in _META_FIELDS.items()}
    meta.update(format=1, t_ce=ckpt.student.t_ce, t_re=ckpt.student.t_re)
    arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))
    # Write a temporary file next to the target and rename it into place, so
    # an interrupted write never leaves a truncated checkpoint under `path`.
    # np.savez gets a file handle because it appends ".npz" to a bare name.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a file that is not one raises DatasetFormatError.
    A hash the file does not record loads as the field's default."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        meta = json.loads(str(arrays.pop("meta")))
        student, teacher, velocity = (
            state_from_arrays(arrays, meta["t_ce"], meta["t_re"], prefix=prefix)
            for prefix in ("student/", "teacher/", "velocity/"))
        if not student.layout == teacher.layout == velocity.layout:
            raise ShapeMismatchError("student, teacher and velocity arrays differ in shape")
        return Checkpoint(
            student=student, teacher=teacher, velocities=velocity.params,
            bank=MemoryBank.from_state_arrays(arrays),
            **{name: cast(meta[name]) for name, cast in _META_FIELDS.items() if name in meta},
        )
    except FileNotFoundError:
        raise
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile,
            LrcoError) as exc:
        raise DatasetFormatError(
            f"{path} is not a readable checkpoint ({type(exc).__name__}: {exc})"
        ) from exc


def checkpoint_for(source, benchmark: ShiftBenchmark,
                   dynamics_hash: str = "") -> Checkpoint:
    """The checkpoint at path ``source`` (or ``source`` itself, a Checkpoint
    already loaded), refused with ConfigError unless it belongs to
    ``benchmark``: the same spec hash, then the same input dimension and
    class count, then, when ``dynamics_hash`` is given, the same one. The
    one gate for resuming, evaluating and analyzing a checkpoint."""
    ckpt = source if isinstance(source, Checkpoint) else load_checkpoint(source)
    where = "" if ckpt is source else f" {source}"
    spec = benchmark.spec
    spec_hash = benchmark_spec_hash(spec)
    if ckpt.spec_hash != spec_hash:
        raise ConfigError(
            f"checkpoint{where} was trained on benchmark spec_hash="
            f"{ckpt.spec_hash or '(none recorded)'}, the benchmark has spec_hash={spec_hash}"
        )
    shape = (ckpt.student.input_dim, ckpt.student.n_classes)
    if shape != (spec.input_dim, spec.n_classes):
        raise ConfigError(
            f"checkpoint model has input_dim={shape[0]} n_classes={shape[1]}, "
            f"the benchmark has input_dim={spec.input_dim} n_classes={spec.n_classes}"
        )
    if dynamics_hash and ckpt.dynamics_hash != dynamics_hash:
        raise ConfigError(
            "checkpoint was written by a different config "
            f"({ckpt.dynamics_hash or 'no dynamics hash'} != {dynamics_hash})"
        )
    return ckpt


def _rows_before_resume(path, header: list[str], last_step: int, evaluates_at) -> list[str]:
    """The rows of the checkpoint's run that a resumed run keeps: those up to
    the checkpoint step that a straight run would have written, so the
    resumed file equals the straight run's. ``header`` is the metrics header
    of the run that wrote the checkpoint; a missing file, or one that
    another run wrote, keeps nothing."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return []
    if lines[:2] != header:
        return []
    kept = []
    for line in lines[2:]:
        step = line.split(",", 1)[0]
        if step.isdigit() and int(step) <= last_step and evaluates_at(int(step)):
            kept.append(line)
    return kept


# Full fit ---------------------------------------------------------------------------------

def fit(benchmark: ShiftBenchmark, augment: AugmentSpec, cfg: TrainConfig, *,
        hidden_dims: tuple[int, ...] = (16,), feature_dim: int = 8,
        out_dir=None, resume_from=None,
        config_hash: str = "", dynamics_hash: str = "") -> FitResult:
    """Run the full training loop for one config over one benchmark.

    ``out_dir``, when given, receives metrics.csv and the checkpoints.
    ``config_hash`` is an opaque stamp copied into metrics and checkpoints.
    ``resume_from`` is a checkpoint path or a Checkpoint; checkpoint_for
    decides whether it can continue this run (``dynamics_hash`` guards it).
    """
    cfg.validate()
    augment.validate()

    lab_x, lab_y, lab_is_source = benchmark.labeled_pool()
    unl_x = benchmark.target_unlabeled_x
    n_classes = benchmark.spec.n_classes
    stamp = dict(seed=cfg.seed, config_hash=config_hash, dynamics_hash=dynamics_hash,
                 spec_hash=benchmark_spec_hash(benchmark.spec))

    if resume_from is not None:
        run = checkpoint_for(resume_from, benchmark, dynamics_hash)
        resumed_header = metrics_header_lines(n_classes, run.config_hash, run.seed)
        run = replace(run, **stamp)
    else:
        init_rng = SeededRng(cfg.seed).substream("init")
        model_cfg = ModelConfig(
            input_dim=benchmark.spec.input_dim, hidden_dims=tuple(hidden_dims),
            feature_dim=feature_dim, n_classes=n_classes,
            t_ce=cfg.t_ce, t_re=cfg.resolved_t_re(),
        )
        student = init_model(model_cfg, init_rng)
        run = Checkpoint(student=student, teacher=clone_state(student),
                         velocities=init_velocities(student),
                         bank=MemoryBank(cfg.bank_capacity), step=0, tau=cfg.tau, **stamp)
    tau, start_step = run.tau, run.step
    params = lift_params(run.student)  # once: every step trains these leaves

    lab_cycler = _EpochCycler(len(lab_x), cfg.batch_labeled, cfg.seed, "labeled")
    unl_cycler = _EpochCycler(len(unl_x), cfg.batch_unlabeled, cfg.seed, "unlabeled")
    eval_splits = (("source", (benchmark.source_x, benchmark.source_y)),
                   ("target", benchmark.target_eval_samples()))

    def evaluates_at(step: int) -> bool:
        return step % cfg.eval_interval == 0 or step == cfg.total_steps

    history: list[MetricRecord] = []
    metrics_file = None
    if out_dir is not None:
        metrics_path = f"{out_dir}/metrics.csv"
        header = metrics_header_lines(n_classes, config_hash, cfg.seed)
        kept = (_rows_before_resume(metrics_path, resumed_header, start_step, evaluates_at)
                if resume_from is not None else [])
        metrics_file = open(metrics_path, "w", encoding="utf-8", newline="\n")
        for line in header + kept:
            metrics_file.write(line + "\n")

    def write_record(rec: MetricRecord) -> None:
        history.append(rec)
        if metrics_file is not None:
            metrics_file.write(metric_record_line(rec) + "\n")

    def eval_both(step: int, losses: dict[str, float]) -> None:
        for split, (x, y) in eval_splits:
            m = evaluate(run.student, x, y)
            per_class = tuple(m.per_class.get(c, 0.0) for c in range(n_classes))
            write_record(MetricRecord(
                step=step, split=split, accuracy=m.accuracy,
                mean_confidence=m.mean_confidence, per_class=per_class,
                losses=dict(losses),
            ))

    try:
        for step in range(start_step + 1, cfg.total_steps + 1):
            lab_idx = lab_cycler.batch_for_step(step)
            unl_idx = unl_cycler.batch_for_step(step)
            sb = prepare_step(
                run.student, run.teacher, run.bank, lab_x[lab_idx], lab_y[lab_idx],
                lab_is_source[lab_idx], unl_x[unl_idx], cfg, augment, tau, step,
            )
            report = train_step(params, run.teacher, run.bank, run.velocities, sb, cfg,
                                tau, step)
            n_u = len(sb.pseudo)
            tau = adjust_tau(report.n_high / n_u if n_u else 0.0, tau, cfg)

            if evaluates_at(step):
                eval_both(step, report.losses)
            if (out_dir is not None and cfg.checkpoint_interval > 0
                    and step % cfg.checkpoint_interval == 0 and step < cfg.total_steps):
                save_checkpoint(f"{out_dir}/checkpoint_step{step}.npz",
                                replace(run, step=step, tau=tau))
    finally:
        if metrics_file is not None:
            metrics_file.close()

    if out_dir is not None:
        save_checkpoint(f"{out_dir}/checkpoint_final.npz",
                        replace(run, step=max(start_step, cfg.total_steps), tau=tau))

    return FitResult(
        student=run.student, teacher=run.teacher, bank=run.bank, history=history,
        final_tau=tau, steps_run=max(0, cfg.total_steps - start_step),
    )
