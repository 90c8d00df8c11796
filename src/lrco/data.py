"""Synthetic covariate-shift benchmark, augmentations, and dataset files.

Source data is K Gaussian clusters; the target domain is the same clusters
pushed through a rotation in the first two coordinates plus a translation.
Labels exist for every generated point, but the unlabeled target split only
exposes them through an explicitly named evaluation channel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, check_domains, within
from .numerics import SeededRng, float_text


@dataclass(frozen=True)
class BenchmarkSpec:
    """Everything needed to regenerate a benchmark deterministically."""

    n_classes: int = within("[2, 2147483647]", 5)
    input_dim: int = within("[2, 2147483647]", 2)
    n_per_class_source: int = within("[1, 2147483647]", 60)
    n_per_class_target: int = within("[1, 2147483647]", 60)
    n_labeled_target_per_class: int = within("[0, 2147483647]", 0)
    radius: float = within("(0, inf)", 1.0)
    noise_sigma: float = within("(0, inf)", 0.1)
    shift_angle_deg: float = within("(-inf, inf)", 50.0)
    shift_translation: tuple[float, ...] = within("(-inf, inf)", ())
    seed: int = within("[0, inf)", 0)

    def validate(self, prefix: str = "") -> None:
        check_domains(self, prefix)
        if self.input_dim > 2 and self.n_classes > self.input_dim:
            raise ConfigError(
                "above two dimensions the class centers form an orthonormal set, "
                "which needs n_classes <= input_dim"
            )
        if self.shift_translation and len(self.shift_translation) != self.input_dim:
            raise ConfigError("shift_translation must be empty or input_dim long")

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
    """Generated splits as (n, d) inputs and int64 labels, rows in class
    order, plus the target labels kept aside for evaluation."""

    spec: BenchmarkSpec
    source_x: np.ndarray
    source_y: np.ndarray
    target_unlabeled_x: np.ndarray
    target_labeled_x: np.ndarray
    target_labeled_y: np.ndarray
    source_centers: np.ndarray
    target_centers: np.ndarray
    eval_labels_hidden: np.ndarray = field(repr=False)

    def target_eval_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Evaluation-only channel: the unlabeled target inputs and their labels."""
        return self.target_unlabeled_x, self.eval_labels_hidden

    def labeled_pool(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Everything trainable with a label, source rows first: (x, y, is_source)."""
        x = np.concatenate((self.source_x, self.target_labeled_x))
        y = np.concatenate((self.source_y, self.target_labeled_y))
        return x, y, np.arange(len(y)) < len(self.source_y)


def _class_centers(spec: BenchmarkSpec) -> np.ndarray:
    k, d = spec.n_classes, spec.input_dim
    if d == 2:
        angles = 2.0 * np.pi * np.arange(k) / k
        return spec.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # Higher dimensions: centers are radius-scaled rows of a random orthonormal
    # frame, so they sit at equal pairwise angles.
    gauss = SeededRng(spec.seed, "benchmark", "frame").normal(size=(d, d))
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
    centers = _class_centers(spec)
    rot = _rotation_first_two(spec.shift_angle_deg, spec.input_dim)
    translation = spec.translation_vector()
    target_centers = centers @ rot.T + translation

    def draw_split(stream: str, per_class: int) -> tuple[np.ndarray, np.ndarray]:
        y = np.repeat(np.arange(spec.n_classes, dtype=np.int64), per_class)
        noise = SeededRng(spec.seed, "benchmark", stream).normal(size=(len(y), spec.input_dim))
        return centers[y] + spec.noise_sigma * noise, y

    source_x, source_y = draw_split("source", spec.n_per_class_source)
    target_x, target_y = draw_split("target", spec.n_per_class_target)
    labeled_x, labeled_y = draw_split("target-labeled", spec.n_labeled_target_per_class)

    def shift(x: np.ndarray) -> np.ndarray:
        # One product per class: a BLAS product's bits can depend on its row
        # count, and the recorded files and golden digests use per-class products.
        return np.concatenate([c @ rot.T for c in np.split(x, spec.n_classes)]) + translation

    return ShiftBenchmark(
        spec=spec,
        source_x=source_x,
        source_y=source_y,
        target_unlabeled_x=shift(target_x),
        target_labeled_x=shift(labeled_x),
        target_labeled_y=labeled_y,
        source_centers=centers,
        target_centers=target_centers,
        eval_labels_hidden=target_y,
    )


# Augmentation ----------------------------------------------------------------

@dataclass(frozen=True)
class AugmentSpec:
    """Weak and strong view parameters."""

    sigma_weak: float = within("[0, inf)", 0.05)
    sigma_strong: float = within("[0, inf)", 0.2)
    mask_prob: float = within("[0, 1)", 0.1)
    scale_jitter: float = within("[0, inf)", 0.1)

    def validate(self, prefix: str = "") -> None:
        check_domains(self, prefix)
        if self.sigma_strong < self.sigma_weak:
            raise ConfigError("sigma_strong must be >= sigma_weak")


def weak_augment(x, spec: AugmentSpec, rng: SeededRng) -> np.ndarray:
    """Light Gaussian jitter; sigma_weak = 0 returns the input exactly."""
    x = np.asarray(x, dtype=np.float64)
    return x + spec.sigma_weak * rng.normal(size=x.shape)


def strong_augment(x, spec: AugmentSpec, rng: SeededRng) -> np.ndarray:
    """Heavy view: Gaussian noise, then coordinate masking, then a scale jitter
    drawn once per row."""
    x = np.asarray(x, dtype=np.float64)
    out = x + spec.sigma_strong * rng.normal(size=x.shape)
    keep = rng.uniform(size=x.shape) >= spec.mask_prob
    out = out * keep
    factor = 1.0 + rng.uniform(-spec.scale_jitter, spec.scale_jitter, size=(*x.shape[:-1], 1))
    return out * factor


# Dataset files ----------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """One row of a dataset file: input vector, optional label, domain tag."""

    x: np.ndarray
    label: int | None
    domain: str  # "source" or "target"


def save_dataset(path, domain: str, x: np.ndarray, labels: np.ndarray | None, *,
                 n_classes: int, spec_hash: str = "") -> None:
    """Write one split, a row per line: domain, label ('-' for every row
    when ``labels`` is None), then the coordinates.

    Floats are printed with 17 significant digits so the values round-trip
    exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    tags = ["-"] * len(x) if labels is None else [str(int(v)) for v in labels]
    lines = [f"input_dim={x.shape[1]},K={n_classes},spec_hash={spec_hash}"]
    for tag, row in zip(tags, x.tolist()):
        lines.append(f"{domain},{tag}," + ",".join(map(float_text, row)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def pack_inputs(samples: list[Sample]) -> np.ndarray:
    """Stack the inputs of Sample rows into a (n, d) matrix."""
    return np.stack([np.asarray(s.x, dtype=np.float64) for s in samples])


def pack_labels(samples: list[Sample]) -> np.ndarray:
    """Stack labels; any missing label is an error."""
    labels = []
    for i, s in enumerate(samples):
        if s.label is None:
            raise ValueError(f"sample {i} has no label")
        labels.append(int(s.label))
    return np.asarray(labels, dtype=np.int64)
