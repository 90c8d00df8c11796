"""Synthetic covariate-shift benchmark, augmentations, sample packing, and dataset files.

Source data is K Gaussian clusters; the target domain is the same clusters
pushed through a rotation in the first two coordinates plus a translation.
Labels exist for every generated point, but the unlabeled target split only
exposes them through an explicitly named evaluation channel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DatasetFormatError
from .numerics import SeededRng


@dataclass(frozen=True)
class Sample:
    """One point: input vector, optional label, and its domain tag."""

    x: np.ndarray
    label: int | None
    domain: str  # "source" or "target"


@dataclass(frozen=True)
class BenchmarkSpec:
    """Everything needed to regenerate a benchmark deterministically."""

    n_classes: int = 5
    input_dim: int = 2
    n_per_class_source: int = 60
    n_per_class_target: int = 60
    n_labeled_target_per_class: int = 0
    radius: float = 1.0
    noise_sigma: float = 0.1
    shift_angle_deg: float = 50.0
    shift_translation: tuple[float, ...] = ()
    seed: int = 0

    def validate(self) -> None:
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.input_dim < 2:
            raise ValueError("input_dim must be >= 2")
        if self.input_dim > 2 and self.n_classes > self.input_dim:
            raise ValueError(
                "above two dimensions the class centers form an orthonormal set, "
                "which needs n_classes <= input_dim"
            )
        if self.n_per_class_source < 1 or self.n_per_class_target < 1:
            raise ValueError("per-class sample counts must be >= 1")
        if self.n_labeled_target_per_class < 0:
            raise ValueError("n_labeled_target_per_class must be >= 0")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not self.noise_sigma > 0:
            raise ValueError("noise_sigma must be positive")
        if self.shift_translation and len(self.shift_translation) != self.input_dim:
            raise ValueError("shift_translation must be empty or input_dim long")

    def translation_vector(self) -> np.ndarray:
        if not self.shift_translation:
            return np.zeros(self.input_dim)
        return np.asarray(self.shift_translation, dtype=np.float64)


def benchmark_spec_hash(spec: BenchmarkSpec) -> str:
    """Short stable hash of the generating parameters."""
    parts = []
    for f in sorted(fields(spec), key=lambda f: f.name):
        value = getattr(spec, f.name)
        if isinstance(value, tuple):
            value = ",".join(repr(float(v)) for v in value)
        parts.append(f"{f.name}={value!r}")
    text = ";".join(parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass
class ShiftBenchmark:
    """Generated splits plus the ground truth kept aside for evaluation."""

    spec: BenchmarkSpec
    source: list[Sample]
    target_unlabeled: list[Sample]
    target_labeled: list[Sample]
    source_centers: np.ndarray
    target_centers: np.ndarray
    eval_labels_hidden: np.ndarray = field(repr=False)

    def target_eval_samples(self) -> list[Sample]:
        """Evaluation-only channel: the unlabeled target points with labels restored."""
        return [
            Sample(x=s.x, label=int(lbl), domain="target")
            for s, lbl in zip(self.target_unlabeled, self.eval_labels_hidden)
        ]

    def labeled_pool(self) -> list[Sample]:
        """Everything trainable with a label: source plus any few-shot target."""
        return list(self.source) + list(self.target_labeled)


def _class_centers(spec: BenchmarkSpec, rng: SeededRng) -> np.ndarray:
    k, d = spec.n_classes, spec.input_dim
    if d == 2:
        angles = 2.0 * np.pi * np.arange(k) / k
        return spec.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # Higher dimensions: centers are radius-scaled rows of a random orthonormal
    # frame, so they sit at equal pairwise angles.
    gauss = rng.normal(size=(d, d))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))  # canonical sign, deterministic
    return spec.radius * q[:k]


def _rotation_first_two(angle_deg: float, dim: int) -> np.ndarray:
    theta = np.deg2rad(angle_deg)
    rot = np.eye(dim)
    rot[0, 0] = np.cos(theta)
    rot[0, 1] = -np.sin(theta)
    rot[1, 0] = np.sin(theta)
    rot[1, 1] = np.cos(theta)
    return rot


def generate_shift_benchmark(spec: BenchmarkSpec) -> ShiftBenchmark:
    """Draw the source and target splits for a spec; same spec, same bytes."""
    spec.validate()
    root = SeededRng(spec.seed).substream("benchmark")
    centers = _class_centers(spec, root.substream("frame"))
    rot = _rotation_first_two(spec.shift_angle_deg, spec.input_dim)
    translation = spec.translation_vector()
    target_centers = centers @ rot.T + translation

    def draw_cluster(stream: SeededRng, label: int, count: int) -> np.ndarray:
        noise = stream.normal(size=(count, spec.input_dim))
        return centers[label] + spec.noise_sigma * noise

    source: list[Sample] = []
    src_stream = root.substream("source")
    for label in range(spec.n_classes):
        for x in draw_cluster(src_stream, label, spec.n_per_class_source):
            source.append(Sample(x=x, label=label, domain="source"))

    target_unlabeled: list[Sample] = []
    eval_labels: list[int] = []
    tgt_stream = root.substream("target")
    for label in range(spec.n_classes):
        cluster = draw_cluster(tgt_stream, label, spec.n_per_class_target)
        for x in cluster @ rot.T + translation:
            target_unlabeled.append(Sample(x=x, label=None, domain="target"))
            eval_labels.append(label)

    target_labeled: list[Sample] = []
    if spec.n_labeled_target_per_class > 0:
        few_stream = root.substream("target-labeled")
        for label in range(spec.n_classes):
            cluster = draw_cluster(few_stream, label, spec.n_labeled_target_per_class)
            for x in cluster @ rot.T + translation:
                target_labeled.append(Sample(x=x, label=label, domain="target"))

    return ShiftBenchmark(
        spec=spec,
        source=source,
        target_unlabeled=target_unlabeled,
        target_labeled=target_labeled,
        source_centers=centers,
        target_centers=target_centers,
        eval_labels_hidden=np.asarray(eval_labels, dtype=np.int64),
    )


# Augmentation ----------------------------------------------------------------

@dataclass(frozen=True)
class AugmentSpec:
    """Weak and strong view parameters."""

    sigma_weak: float = 0.05
    sigma_strong: float = 0.2
    mask_prob: float = 0.1
    scale_jitter: float = 0.1

    def validate(self) -> None:
        if self.sigma_weak < 0:
            raise ValueError("sigma_weak must be >= 0")
        if self.sigma_strong < self.sigma_weak:
            raise ValueError("sigma_strong must be >= sigma_weak")
        if not 0.0 <= self.mask_prob < 1.0:
            raise ValueError("mask_prob must lie in [0, 1)")
        if self.scale_jitter < 0:
            raise ValueError("scale_jitter must be >= 0")


def weak_augment(x, spec: AugmentSpec, rng: SeededRng) -> np.ndarray:
    """Light Gaussian jitter; sigma_weak = 0 returns the input exactly."""
    x = np.asarray(x, dtype=np.float64)
    return x + spec.sigma_weak * rng.normal(size=x.shape)


def strong_augment(x, spec: AugmentSpec, rng: SeededRng) -> np.ndarray:
    """Heavy view: Gaussian noise, then coordinate masking, then global scale jitter."""
    x = np.asarray(x, dtype=np.float64)
    out = x + spec.sigma_strong * rng.normal(size=x.shape)
    keep = rng.uniform(size=x.shape) >= spec.mask_prob
    out = out * keep
    if x.ndim == 2:
        factor = 1.0 + rng.uniform(-spec.scale_jitter, spec.scale_jitter, size=(x.shape[0], 1))
    else:
        factor = 1.0 + rng.uniform(-spec.scale_jitter, spec.scale_jitter)
    return out * factor


# Dataset files ----------------------------------------------------------------

_DOMAINS = ("source", "target")


def save_dataset(path, samples: list[Sample], *, input_dim: int, n_classes: int,
                 spec_hash: str = "") -> None:
    """Write one sample per line: domain, label or '-', then the coordinates.

    Floats are printed with 17 significant digits so the values round-trip
    exactly.
    """
    lines = [f"input_dim={input_dim},K={n_classes},spec_hash={spec_hash}"]
    for s in samples:
        label = "-" if s.label is None else str(int(s.label))
        coords = ",".join(f"{v:.17g}" for v in np.asarray(s.x, dtype=np.float64))
        lines.append(f"{s.domain},{label},{coords}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> tuple[list[Sample], dict]:
    """Read a dataset file back; malformed content reports the line number."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    if not raw_lines:
        raise DatasetFormatError("line 1: empty dataset file")

    header: dict[str, str] = {}
    for piece in raw_lines[0].split(","):
        if "=" not in piece:
            raise DatasetFormatError(f"line 1: malformed header field {piece!r}")
        key, value = piece.split("=", 1)
        header[key] = value
    try:
        input_dim = int(header["input_dim"])
        n_classes = int(header["K"])
    except (KeyError, ValueError) as exc:
        raise DatasetFormatError(f"line 1: bad header ({exc})") from exc
    meta = {"input_dim": input_dim, "n_classes": n_classes,
            "spec_hash": header.get("spec_hash", "")}

    samples: list[Sample] = []
    for lineno, line in enumerate(raw_lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2 + input_dim:
            raise DatasetFormatError(
                f"line {lineno}: expected {2 + input_dim} fields, got {len(parts)}"
            )
        domain = parts[0]
        if domain not in _DOMAINS:
            raise DatasetFormatError(
                f"line {lineno}: field 1: unknown domain tag {domain!r}"
            )
        if parts[1] == "-":
            label: int | None = None
        else:
            try:
                label = int(parts[1])
            except ValueError:
                raise DatasetFormatError(
                    f"line {lineno}: field 2: bad label {parts[1]!r}"
                ) from None
            if not 0 <= label < n_classes:
                raise DatasetFormatError(
                    f"line {lineno}: field 2: label {label} outside 0..{n_classes - 1}"
                )
        coords = np.empty(input_dim)
        for j, piece in enumerate(parts[2:]):
            try:
                coords[j] = float(piece)
            except ValueError:
                raise DatasetFormatError(
                    f"line {lineno}: field {3 + j}: bad float {piece!r}"
                ) from None
        samples.append(Sample(x=coords, label=label, domain=domain))
    return samples, meta


def pack_inputs(samples: list[Sample]) -> np.ndarray:
    """Stack sample inputs into a (n, d) matrix."""
    return np.stack([np.asarray(s.x, dtype=np.float64) for s in samples])


def pack_labels(samples: list[Sample]) -> np.ndarray:
    """Stack labels; any missing label is an error."""
    labels = []
    for i, s in enumerate(samples):
        if s.label is None:
            raise ValueError(f"sample {i} has no label")
        labels.append(int(s.label))
    return np.asarray(labels, dtype=np.int64)
