"""Diagnostics over trained models: confidence-grouped feature-similarity
statistics, top-k probability accumulation curves for mixed inputs, and a
2-D PCA projection for external plotting. All outputs are plain CSV tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import (
    blend, check_probability_rows, check_unit_rows, contrast_rows, draw_mix,
    pseudo_labels,
)
from .losses import re_represent_batch  # noqa: F401 (unused; perfbench patches it here)
from .model import ModelState, features_of, probs_of
from .numerics import SeededRng
from .numerics import normalize_last  # noqa: F401 (unused; perfbench patches it here)

_FMT = "{:.17g}".format

GROUPS = ("high", "low", "all")
MIN_PROJECTION_ROWS = 3


@dataclass(frozen=True)
class SimilarityReport:
    """Mean pairwise cosine similarities per confidence group.

    ``within`` / ``cross`` hold the raw means; ``within_scaled`` /
    ``cross_scaled`` divide each group by the all-group value so the "all"
    entries equal 1 exactly. Groups that cannot produce a statistic (too few
    samples or classes) carry NaN and are listed in ``degenerate``.
    """

    within: dict[str, float]
    cross: dict[str, float]
    within_scaled: dict[str, float]
    cross_scaled: dict[str, float]
    scale_within: float
    scale_cross: float
    degenerate: tuple[str, ...]


def _mean_pair_cosine(vecs: np.ndarray, mask_same: np.ndarray) -> float:
    """Mean of cos(v_i, v_j) over unordered pairs i<j selected by mask_same."""
    n = vecs.shape[0]
    if n < 2:
        return float("nan")
    sims = vecs @ vecs.T
    iu = np.triu_indices(n, k=1)
    selected = mask_same[iu]
    if not np.any(selected):
        return float("nan")
    return float(np.mean(sims[iu][selected]))


def similarity_stats(features: np.ndarray, labels, confident) -> SimilarityReport:
    """Within-class and cross-class mean cosine similarity for the high-,
    low-, and all-sample groups, scaled so the all-group values equal 1.
    """
    vecs = np.asarray(features, dtype=np.float64)
    if vecs.ndim != 2:
        raise ValueError("features must be a 2-D array of unit row vectors")
    check_unit_rows(vecs, "similarity_stats features")
    y = np.asarray(labels, dtype=np.int64)
    conf = np.asarray(confident, dtype=bool)
    if y.shape[0] != vecs.shape[0] or conf.shape[0] != vecs.shape[0]:
        raise ValueError("features, labels, and confidence flags must align")

    group_index = {
        "high": np.flatnonzero(conf),
        "low": np.flatnonzero(~conf),
        "all": np.arange(vecs.shape[0]),
    }
    within: dict[str, float] = {}
    cross: dict[str, float] = {}
    degenerate: list[str] = []
    for name, idx in group_index.items():
        gy = y[idx]
        same = gy[:, None] == gy[None, :]
        w = _mean_pair_cosine(vecs[idx], same)
        c = _mean_pair_cosine(vecs[idx], ~same)
        within[name] = w
        cross[name] = c
        # The statistic needs at least two samples spread over at least two
        # classes; anything else is reported as degenerate, never fatal.
        if len(idx) < 2 or len(set(gy.tolist())) < 2 or not np.isfinite(w) or not np.isfinite(c):
            degenerate.append(name)

    scale_w = within["all"]
    scale_c = cross["all"]
    within_scaled = {
        g: (v / scale_w if np.isfinite(scale_w) and scale_w != 0 else float("nan"))
        for g, v in within.items()
    }
    cross_scaled = {
        g: (v / scale_c if np.isfinite(scale_c) and scale_c != 0 else float("nan"))
        for g, v in cross.items()
    }
    return SimilarityReport(
        within=within, cross=cross, within_scaled=within_scaled,
        cross_scaled=cross_scaled, scale_within=scale_w, scale_cross=scale_c,
        degenerate=tuple(degenerate),
    )


def topk_accumulation(prob_rows: np.ndarray, k_max: int = 10) -> np.ndarray:
    """Mean accumulated probability mass of the k largest entries, k=1..k_max."""
    p = np.asarray(prob_rows, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("expected a 2-D array of probability rows")
    n, n_classes = p.shape
    if n == 0:
        raise ValueError("need at least one probability row")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if n_classes < k_max:
        raise ValueError(f"k_max={k_max} exceeds the number of classes {n_classes}")
    check_probability_rows(p)
    ordered = np.sort(p, axis=1)[:, ::-1]
    cumulative = np.cumsum(ordered[:, :k_max], axis=1)
    return cumulative.mean(axis=0)


def pca_top2(features: np.ndarray):
    """Top-2 principal directions of the centered feature matrix.

    Returns (coords (n,2), components (2,d), singular_values (min(n,d),)).
    Sign convention: within each component the largest-magnitude loading is
    positive, so repeated runs produce identical output.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be 2-D")
    n, d = x.shape
    if n < MIN_PROJECTION_ROWS:
        raise ValueError(f"need at least {MIN_PROJECTION_ROWS} samples to project")
    centered = x - x.mean(axis=0, keepdims=True)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    n_comp = min(2, vt.shape[0])
    components = np.zeros((2, d))
    components[:n_comp] = vt[:n_comp]
    for row in range(2):
        comp = components[row]
        if np.any(comp != 0):
            pivot = int(np.argmax(np.abs(comp)))
            if comp[pivot] < 0:
                components[row] = -comp
        elif row < d:
            components[row, row] = 1.0  # rank-deficient: axis-aligned fallback
    coords = centered @ components.T
    return coords, components, s


def project_2d(features: np.ndarray) -> np.ndarray:
    """Project samples onto their top-2 principal components."""
    coords, _, _ = pca_top2(features)
    return coords


# Model-aware helpers ------------------------------------------------------------

def split_by_confidence(state: ModelState, x_rows: np.ndarray, tau: float):
    """Teacher-style confidence split on clean inputs.

    Returns (high_idx, low_idx, probs, features).
    """
    feats = np.asarray(features_of(state, x_rows), dtype=np.float64)
    probs = np.asarray(probs_of(state, feats), dtype=np.float64)
    _, conf = pseudo_labels(probs, tau)
    return np.flatnonzero(conf), np.flatnonzero(~conf), probs, feats


def confidence_feature_vectors(state: ModelState, features: np.ndarray,
                               feature_mode: str = "rerep") -> np.ndarray:
    """Unit vectors the similarity statistics are computed on: the rows the
    contrastive loss compares under ``train.rerep_mode=feature_mode``, from
    ``state``'s features (as split_by_confidence returns them)."""
    return contrast_rows(features, state.classifier, state.t_re, feature_mode)


def mixed_topk_curves(state: ModelState, x_target_high: np.ndarray,
                      x_target_low: np.ndarray, x_source: np.ndarray,
                      alpha: float, k_max: int, seed: int) -> dict[str, np.ndarray]:
    """Top-k accumulation curves for target-dominant mixes of each confidence
    group with randomly drawn source samples."""
    if x_source.shape[0] == 0:
        raise ValueError("need source samples to build mixes")
    rng = SeededRng(seed).substream("analysis-mix")
    curves: dict[str, np.ndarray] = {}
    for name, block in (("high_mix", x_target_high), ("low_mix", x_target_low)):
        if block.shape[0] == 0:
            curves[name] = np.full(k_max, np.nan)
            continue
        partners = np.asarray(rng.integers(0, x_source.shape[0], size=block.shape[0]))
        x_mix = blend(draw_mix(alpha, rng, block.shape[0]), block, x_source[partners])
        probs = np.asarray(probs_of(state, features_of(state, x_mix)), dtype=np.float64)
        curves[name] = topk_accumulation(probs, k_max)
    return curves


# CSV export ----------------------------------------------------------------------

def analysis_filename(kind: str, run_id: str, step: int, split: str) -> str:
    return f"{kind}_run-{run_id}_step-{step}_{split}.csv"


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_similarity_csv(path, report: SimilarityReport, meta: str = "") -> None:
    lines = []
    if meta:
        lines.append(f"# {meta}")
    lines.append("group,within,cross,within_scaled,cross_scaled,degenerate")
    for g in GROUPS:
        lines.append(",".join([
            g, _FMT(report.within[g]), _FMT(report.cross[g]),
            _FMT(report.within_scaled[g]), _FMT(report.cross_scaled[g]),
            "1" if g in report.degenerate else "0",
        ]))
    _write_lines(path, lines)


def write_topk_csv(path, curves: dict[str, np.ndarray], meta: str = "") -> None:
    names = list(curves)
    if not names:
        raise ValueError("no curves to write")
    k_max = len(next(iter(curves.values())))
    lines = []
    if meta:
        lines.append(f"# {meta}")
    lines.append(",".join(["k"] + names))
    for k in range(k_max):
        lines.append(",".join([str(k + 1)] + [_FMT(curves[n][k]) for n in names]))
    _write_lines(path, lines)


def write_projection_csv(path, coords: np.ndarray, labels=None, confident=None,
                         meta: str = "") -> None:
    coords = np.asarray(coords, dtype=np.float64)
    lines = []
    if meta:
        lines.append(f"# {meta}")
    header = ["x", "y"]
    if labels is not None:
        header.append("label")
    if confident is not None:
        header.append("confident")
    lines.append(",".join(header))
    for i in range(coords.shape[0]):
        row = [_FMT(coords[i, 0]), _FMT(coords[i, 1])]
        if labels is not None:
            row.append(str(int(labels[i])))
        if confident is not None:
            row.append("1" if confident[i] else "0")
        lines.append(",".join(row))
    _write_lines(path, lines)
