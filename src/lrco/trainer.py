"""Training loop: labeled source + unlabeled target, teacher-student with EMA,
confidence-split target batches, and the contrastive branches on low-confidence
samples.

Determinism contract: every random consumer derives a dedicated sub-stream
keyed by (purpose, step) or (purpose, epoch) from the run seed, so two runs
with the same config produce bit-identical parameter trajectories and metric
files, and a checkpoint-resume continues exactly where the original run was.
One numerics.StepStreams table per run seeds the step streams and the epoch
shuffles in blocks; a stream's bits depend only on its seed and label, never
on the block it was seeded in.
"""

from __future__ import annotations

import functools
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
    ModelConfig, ModelState, ParamTensors, clone_state, ema_update, features_of, features_vjp,
    init_model, lift_params, probs_of, probs_vjp, state_arrays, state_from_arrays, tape_from,
    with_param_vector,
)
from .numerics import SeededRng, StepStreams, float_text, unit_last
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

# The pseudo-labels and confidence split of a step without a teacher pass:
# one shared empty int64 array, read-only so that no step can change it.
NO_ROWS = np.zeros(0, dtype=np.int64)
NO_ROWS.flags.writeable = False


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
class StepBatch:
    """A step's whole plan, with all randomness already drawn; only
    prepare_step decides it, and step_objective carries it out.

    ``x`` is the student's one forward input: the views the method reads,
    stacked, and ``rows`` maps each view to its row slice of x, in the order
    labeled, unlabeled_weak, unlabeled_strong, mix. ``query_rows`` are the
    rows of x the contrastive term queries, against the positive keys
    ``k_pos`` and the denominator keys ``k_den``; None when the step has no
    contrastive term."""

    x: np.ndarray
    rows: dict[str, slice]
    labeled_y: np.ndarray
    pseudo: np.ndarray  # int64 hard label of each unlabeled row
    high_idx: np.ndarray
    low_idx: np.ndarray
    sel_idx: np.ndarray
    keys_sel: np.ndarray
    bank_snapshot: np.ndarray
    query_rows: slice | np.ndarray | None
    k_pos: np.ndarray | None
    k_den: tuple


def prepare_step(student: ModelState, teacher: ModelState, bank: MemoryBank,
                 lab_x: np.ndarray, lab_y: np.ndarray, lab_is_source: np.ndarray,
                 unl_x: np.ndarray, cfg: TrainConfig, augment: AugmentSpec,
                 tau: float, step: int, *, streams: StepStreams) -> StepBatch:
    """Draw views, pseudo-label with the teacher, split by confidence, stage
    the contrastive inputs and stack the student's input for one step.

    Only what the method's METHOD_TERMS read is built: "align" draws the
    unlabeled weak view, "fixmatch" the strong view and the teacher pass,
    "bank" or "mix" stages keys, and "mix" builds the mixes. A skipped view
    has no entry in rows and a skipped index array is empty int64. A method
    that reads the labeled view alone gets it as x, as it is; the others'
    bits depend on the stacking, since a BLAS product's rounding depends on
    its row count.

    Every draw comes from the run's stream of (purpose, step), out of
    ``streams``."""
    if streams.seed != cfg.seed:
        raise ValueError(f"streams of seed {streams.seed} for a run of seed {cfg.seed}")

    def view(augment_fn, x: np.ndarray, purpose: str) -> np.ndarray:
        return augment_fn(x, augment, streams(f"augment-{purpose}", step))

    reads = METHOD_TERMS[cfg.method]
    views = {"labeled": view(weak_augment, lab_x, "labeled")}
    if "align" in reads:
        views["unlabeled_weak"] = view(weak_augment, unl_x, "unlabeled-weak")
    if "fixmatch" in reads:
        views["unlabeled_strong"] = view(strong_augment, unl_x, "unlabeled-strong")

    bank_snapshot = bank.snapshot()
    # When a mix can happen, the teacher sees the unlabeled weak view stacked
    # with the labeled weak view, once, and mix partners take their rows from it.
    can_mix = "mix" in reads and cfg.lambda_co > 0 and len(bank_snapshot) > 0
    if "fixmatch" in reads:
        unl_weak = views["unlabeled_weak"]
        n_u = len(unl_weak)
        teacher_in = np.concatenate((unl_weak, views["labeled"])) if can_mix else unl_weak
        teacher_feats = np.asarray(features_of(teacher, teacher_in), dtype=np.float64)
        teacher_unit = unit_last(teacher.classifier)  # for the pseudo-labels and the keys
        teacher_probs = np.asarray(probs_of(teacher, teacher_feats[:n_u],
                                            classifier_unit=teacher_unit), dtype=np.float64)
        pseudo, flags = L.pseudo_labels(teacher_probs, tau)
        high_idx = flags.nonzero()[0]
        low_idx = (~flags).nonzero()[0]
    else:
        pseudo = high_idx = low_idx = NO_ROWS
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
    partners = None
    source_pool = lab_is_source.nonzero()[0] if can_mix else ()
    if len(low_idx) > 0 and len(source_pool) > 0:
        mix_rng = streams("mix", step)
        partners = source_pool[
            np.asarray(mix_rng.integers(0, len(source_pool), size=len(low_idx)))
        ]
        lam_prime = L.draw_mix(cfg.alpha, mix_rng, len(low_idx),
                               dominant=cfg.mixup_mode != "no_dominance")
        partner_strong = view(strong_augment, lab_x[partners], "mix-source")
        views["mix"] = L.blend(lam_prime, views["unlabeled_strong"][low_idx], partner_strong)
        if sel_idx is not low_idx:
            key_rows.append(low_idx)
        key_rows.append(n_u + partners)
    if key_rows:
        keys = L.contrast_rows(teacher_feats[np.concatenate(key_rows)], teacher.classifier,
                               teacher.t_re, cfg.rerep_mode, teacher_unit[0])
        keys_sel = keys[:len(sel_idx)]
    else:
        keys_sel = np.zeros((0, teacher.feature_dim))

    rows, start = {}, 0
    for name, v in views.items():
        rows[name] = slice(start, start + len(v))
        start += len(v)
    query_rows, k_pos, k_den = None, None, ()
    if partners is not None:  # the low rows' keys come just before the partners'
        k_target = keys[len(keys) - 2 * len(low_idx):len(keys) - len(low_idx)]
        k_source = keys[len(keys) - len(low_idx):]
        query_rows, k_pos = rows["mix"], L.blend(lam_prime, k_target, k_source)
        k_den = (k_target, k_source)
    elif ("bank" in reads and cfg.lambda_co > 0 and len(sel_idx) > 0
            and len(bank_snapshot) > 0):
        query_rows = rows["unlabeled_strong"].start + sel_idx
        k_pos, k_den = keys_sel, (keys_sel,)
    return StepBatch(
        x=views["labeled"] if len(views) == 1 else np.concatenate(list(views.values())),
        rows=rows, labeled_y=lab_y, pseudo=pseudo, high_idx=high_idx, low_idx=low_idx,
        sel_idx=sel_idx, keys_sel=keys_sel, bank_snapshot=bank_snapshot,
        query_rows=query_rows, k_pos=k_pos, k_den=k_den,
    )


def step_objective(model_like, sb: StepBatch, cfg: TrainConfig, *,
                   frozen_classifier=None, term_nodes: bool = False):
    """A prepared step's objective: (total, terms), terms mapping LOSS_KEYS
    but "total" to scalars, on a ModelState (stacked ones included) or on
    ParamTensors. Every term takes its rows of the one pass over sb.x by
    sb.rows; every row but the mixes goes through the probabilities once, by
    row range, and the classifier is normalized once. ``frozen_classifier``
    is only for the finite-difference harness.

    On ParamTensors, total is one node over the parameter leaves, whose
    backward runs the step's chain written out once, in the order the walk
    of the per-op graph gave: the class terms into the probabilities, they
    into the classifier and the features, the contrastive term (at
    lambda_co) added into the features, then the MLP, top layer down. The
    contrastive term is a node too, its chain alone; the class terms are
    plain values, or with ``term_nodes`` a node each, to differentiate one
    at a time.
    """
    graph = isinstance(model_like, ParamTensors)
    m = model_like.state if graph else model_like
    terms = dict.fromkeys(LOSS_KEYS[1:], 0.0)
    rows = sb.rows
    unit = unit_last(m.classifier)
    feats, feats_grad = features_vjp(m, sb.x)
    probs, probs_grad = probs_vjp(m, feats,  # no probability of a mix row is read
                                  slice(0, rows["mix"].start) if "mix" in rows else None, unit)
    if "unlabeled_weak" in rows:
        # More than one class term: one function for them all. The high rows
        # are strong-view rows, which follow the unlabeled weak rows.
        total, class_terms, class_grad = L.class_terms_batch(
            probs, rows["labeled"], sb.labeled_y, rows["unlabeled_weak"],
            rows["unlabeled_weak"].stop + sb.high_idx, sb.pseudo[sb.high_idx],
            {"ce": 1.0, "align": cfg.lambda_align, "fixmatch": 1.0, "kld": cfg.lambda_kld})
        terms.update(class_terms)
    else:
        total, class_grad = L.cross_entropy_vjp(probs, sb.labeled_y)
        terms["ce"] = total
    lambda_co = 0.0
    if sb.query_rows is not None:
        # Queries go through the detached classifier; the finite-difference
        # harness substitutes a fixed weight array for it, which the queries
        # normalize themselves, so the numeric check differentiates the same
        # function the stop-gradient defines.
        classifier, w_unit = ((m.classifier, unit[0]) if frozen_classifier is None
                              else (frozen_classifier, None))
        terms["contrastive"], contrastive_grad = L.contrastive_branch(
            feats, sb.query_rows, classifier, m.t_re, cfg.rerep_mode, sb.k_pos,
            sb.k_den, sb.bank_snapshot, cfg.t_co, w_unit)
        lambda_co = cfg.lambda_co
        total = total + terms["contrastive"] * lambda_co
    if not graph:
        return total, terms

    leaves = model_like.leaves  # the MLP's, then the classifier

    def node(value, class_part, w_co: float) -> ad.Tensor:
        """A node whose backward is the chain from g times the class terms
        class_part differentiates plus w_co times the contrastive term."""
        def backward_fn(g):
            if class_part is None:
                g_f = np.zeros(feats.shape)
            else:
                g_w, g_f = probs_grad(class_part(g))
                leaves[-1].accumulate(g_w)
            if w_co:
                g_f[sb.query_rows] += contrastive_grad(g * w_co)
            for leaf, g_leaf in zip(leaves, feats_grad(g_f)):
                leaf.accumulate(g_leaf)

        return ad.Tensor(value, leaves if class_part else leaves[:-1], backward_fn)

    if sb.query_rows is not None:
        terms["contrastive"] = node(terms["contrastive"], None, 1.0)
    if term_nodes:
        parts = ({t: functools.partial(class_grad, term_weights={t: 1.0}) for t in class_terms}
                 if "unlabeled_weak" in rows else {"ce": class_grad})
        for t, part in parts.items():
            terms[t] = node(terms[t], part, 0.0)
    return node(total, class_grad, lambda_co), terms


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
               cfg: TrainConfig, step: int) -> dict[str, float]:
    """One optimizer step: backprop, SGD update, EMA update, bank push. It
    returns the step's loss values, one per LOSS_KEYS key.

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

    total.backward()
    sgd_step(student, tape_from(params), velocities, cfg.learning_rate, cfg.momentum)
    ema_update(teacher, student, cfg.ema_decay)
    if sb.keys_sel.shape[0] > 0:  # prepare_step stages keys only for the bank's methods
        bank.push_batch(sb.keys_sel)
    return loss_values


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
    total = np.bincount(y)  # per class, correct / total is the division _mean_of makes
    present = total.nonzero()[0]
    correct = np.bincount(y[preds == y], minlength=len(total))[present]
    per_class = dict(zip(present.tolist(), (correct / total[present]).tolist()))
    mean_confidence = _mean_of(np.maximum.reduce(probs, axis=1))
    return EvalMetrics(accuracy=accuracy, per_class=per_class,
                       mean_confidence=mean_confidence)


# Batch scheduling -----------------------------------------------------------------

class _EpochCycler:
    """Stateless batch indexing over n >= 1 rows: the batch for any step is a
    pure function of (seed, purpose, step), which is what makes resume
    bit-exact. Epoch e's order is a permutation drawn from the run's stream
    of (f"shuffle-{purpose}", e); the last epoch's is kept."""

    def __init__(self, n: int, batch_size: int, streams: StepStreams, purpose: str):
        self.batch_size = min(batch_size, n)
        self.batches_per_epoch = math.ceil(n / self.batch_size)
        self._perm = functools.lru_cache(maxsize=1)(
            lambda epoch: streams(f"shuffle-{purpose}", epoch).permutation(n))

    def batch_for_step(self, step: int) -> np.ndarray:
        epoch, slot = divmod(step - 1, self.batches_per_epoch)
        return self._perm(epoch)[slot * self.batch_size:(slot + 1) * self.batch_size]


# Metrics serialization ---------------------------------------------------------------

def metrics_header_lines(n_classes: int, config_hash: str, seed: int) -> list[str]:
    cols = ["step", "split", "accuracy", "mean_confidence"]
    cols += [f"acc_class_{c}" for c in range(n_classes)]
    cols += [f"loss_{k}" for k in LOSS_KEYS]
    return [f"# config_hash={config_hash} seed={seed}", ",".join(cols)]


def metric_record_line(rec: MetricRecord) -> str:
    values = [rec.accuracy, rec.mean_confidence, *rec.per_class]
    values += [rec.losses[k] for k in LOSS_KEYS]
    return ",".join([str(rec.step), rec.split, *map(float_text, values)])


# Checkpoints ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """Everything a run continues from; fit trains its arrays in place. Every
    record, replace()'s too, refuses a step, tau or seed outside its domain,
    and a teacher, velocities or bank rows not laid out like the student."""

    student: ModelState
    teacher: ModelState
    velocities: np.ndarray  # laid out like student.params
    bank: MemoryBank
    step: int = within("[0, inf)")
    tau: float = within("(0, 1)")
    seed: int = within("[0, inf)")
    config_hash: str
    dynamics_hash: str = ""
    spec_hash: str = ""

    def __post_init__(self) -> None:
        check_domains(self)
        if (self.teacher.layout != self.student.layout
                or self.velocities.shape != self.student.params.shape):
            raise ShapeMismatchError("student, teacher and velocity arrays differ in shape")
        if self.bank.dim not in (None, self.student.feature_dim):
            raise ShapeMismatchError(
                f"bank rows are {self.bank.dim} wide, the features {self.student.feature_dim}")


# The record's scalar fields, kept in the checkpoint's JSON "meta" entry.
_META_FIELDS = {"step": int, "tau": float, "seed": int, "config_hash": str,
                "dynamics_hash": str, "spec_hash": str}


def _entries(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    """Every entry of the file that records ``ckpt``, by name, in the order
    it is written: the one declaration of the checkpoint format."""
    entries = {**state_arrays(ckpt.student, "student/"), **state_arrays(ckpt.teacher, "teacher/"),
               **state_arrays(with_param_vector(ckpt.student, ckpt.velocities), "velocity/"),
               **ckpt.bank.state_arrays()}
    meta = {name: cast(getattr(ckpt, name)) for name, cast in _META_FIELDS.items()}
    meta.update(format=1, t_ce=ckpt.student.t_ce, t_re=ckpt.student.t_re)
    entries["meta"] = np.array(json.dumps(meta, sort_keys=True))
    return entries


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Self-describing binary dump of ``_entries(ckpt)``; round-trips bit-exactly."""
    # Write a temporary file next to the target and rename it into place, so
    # an interrupted write never leaves a truncated checkpoint under `path`.
    # np.savez gets a file handle because it appends ".npz" to a bare name.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **_entries(ckpt))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint. A file loads only if saving the record it describes
    writes it back entry for entry: the same names, dtypes and values. Any
    other file, or one whose record refuses a value, raises DatasetFormatError."""
    try:
        # np.load on a path leaves the file open when the zip is truncated
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        meta = json.loads(str(arrays["meta"]))
        student, teacher, velocity = (
            state_from_arrays(arrays, meta["t_ce"], meta["t_re"], prefix=prefix)
            for prefix in ("student/", "teacher/", "velocity/"))
        ckpt = Checkpoint(student=student, teacher=teacher, velocities=velocity.params,
                          bank=MemoryBank.from_state_arrays(arrays),
                          **{name: cast(meta[name]) for name, cast in _META_FIELDS.items()})
        saved = _entries(ckpt)
        if saved.keys() != arrays.keys():
            raise ValueError(f"entries {sorted(saved.keys() ^ arrays.keys())} are missing or extra")
        for name, entry in saved.items():
            # array_equal counts a NaN unequal to itself, so no NaN reads back
            if entry.dtype != arrays[name].dtype or not np.array_equal(entry, arrays[name]):
                raise ValueError(f"entry {name} does not read back as saved")
        return ckpt
    except FileNotFoundError:
        raise
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile,
            OverflowError, LrcoError) as exc:
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
        model_cfg = ModelConfig(
            input_dim=benchmark.spec.input_dim, hidden_dims=tuple(hidden_dims),
            feature_dim=feature_dim, n_classes=n_classes,
            t_ce=cfg.t_ce, t_re=cfg.resolved_t_re(),
        )
        student = init_model(model_cfg, SeededRng(cfg.seed, "init"))
        run = Checkpoint(student=student, teacher=clone_state(student),
                         velocities=init_velocities(student),
                         bank=MemoryBank(cfg.bank_capacity), step=0, tau=cfg.tau, **stamp)
    tau, start_step = run.tau, run.step
    params = lift_params(run.student)  # once: every step trains these leaves

    streams = StepStreams(cfg.seed, cfg.total_steps)
    lab_cycler = _EpochCycler(len(lab_x), cfg.batch_labeled, streams, "labeled")
    unl_cycler = _EpochCycler(len(unl_x), cfg.batch_unlabeled, streams, "unlabeled")
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
                streams=streams,
            )
            losses = train_step(params, run.teacher, run.bank, run.velocities, sb, cfg, step)
            n_u = len(sb.pseudo)
            tau = adjust_tau(len(sb.high_idx) / n_u if n_u else 0.0, tau, cfg)

            if evaluates_at(step):
                eval_both(step, losses)
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
