import numpy as np
import pytest

from lrco.analysis import (
    GROUPS, analysis_filename, confidence_feature_vectors, mixed_topk_curves,
    pca_top2, project_2d, similarity_stats, split_by_confidence,
    topk_accumulation, write_projection_csv, write_similarity_csv,
    write_topk_csv,
)
from lrco.model import ModelConfig, features_of, init_model
from lrco.numerics import SeededRng
from oracles import unit_rows


# --- similarity statistics -------------------------------------------------------

def test_similarity_two_orthogonal_classes():
    # two copies per class, classes on orthogonal axes
    vecs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    labels = [0, 0, 1, 1]
    conf = [True, True, False, False]
    rep = similarity_stats(vecs, labels, conf)
    # all-group: within pairs are the identical duplicates (cos 1), cross are
    # the four orthogonal pairs (cos 0)
    assert rep.within["all"] == pytest.approx(1.0)
    assert rep.cross["all"] == pytest.approx(0.0)
    # each single-class confidence group has no cross pair -> degenerate
    assert "high" in rep.degenerate and "low" in rep.degenerate
    assert "all" not in rep.degenerate
    assert np.isnan(rep.cross["high"])


def test_similarity_scaled_all_is_exactly_one():
    rng = SeededRng(0)
    vecs = unit_rows(rng, 30, 6)
    labels = np.asarray(rng.integers(0, 3, size=30))
    conf = np.asarray(rng.uniform(size=30)) > 0.5
    rep = similarity_stats(vecs, labels, conf)
    assert rep.within_scaled["all"] == 1.0  # exact: x / x
    assert rep.cross_scaled["all"] == 1.0
    assert rep.within_scaled["high"] == rep.within["high"] / rep.within["all"]


def test_similarity_permutation_invariant():
    rng = SeededRng(1)
    vecs = unit_rows(rng, 20, 4)
    labels = np.asarray(rng.integers(0, 3, size=20))
    conf = np.asarray(rng.uniform(size=20)) > 0.4
    perm = np.asarray(SeededRng(2).permutation(20))
    a = similarity_stats(vecs, labels, conf)
    b = similarity_stats(vecs[perm], labels[perm], conf[perm])
    for g in GROUPS:
        assert a.within[g] == pytest.approx(b.within[g], abs=1e-12, nan_ok=True)
        assert a.cross[g] == pytest.approx(b.cross[g], abs=1e-12, nan_ok=True)


def test_similarity_matches_bruteforce():
    rng = SeededRng(3)
    vecs = unit_rows(rng, 12, 5)
    labels = np.asarray(rng.integers(0, 2, size=12))
    conf = np.asarray(rng.uniform(size=12)) > 0.5
    rep = similarity_stats(vecs, labels, conf)
    within_pairs, cross_pairs = [], []
    for i in range(12):
        for j in range(i + 1, 12):
            s = float(vecs[i] @ vecs[j])
            (within_pairs if labels[i] == labels[j] else cross_pairs).append(s)
    assert rep.within["all"] == pytest.approx(np.mean(within_pairs), abs=1e-12)
    assert rep.cross["all"] == pytest.approx(np.mean(cross_pairs), abs=1e-12)


def test_similarity_validates_inputs():
    with pytest.raises(ValueError):
        similarity_stats(np.array([[2.0, 0.0]]), [0], [True])  # not unit
    with pytest.raises(ValueError):
        similarity_stats(np.eye(3), [0, 1], [True, False, True])  # misaligned


def test_similarity_all_degenerate_not_fatal():
    rep = similarity_stats(np.array([[1.0, 0.0]]), [0], [True])
    assert set(rep.degenerate) == set(GROUPS)
    assert np.isnan(rep.within["all"])
    assert np.isnan(rep.within_scaled["all"])


# --- top-k accumulation ------------------------------------------------------------

def test_topk_one_hot_saturates_immediately():
    p = np.eye(4)
    curve = topk_accumulation(p, k_max=4)
    np.testing.assert_allclose(curve, np.ones(4), atol=1e-12)


def test_topk_uniform_is_linear():
    p = np.full((3, 10), 0.1)
    curve = topk_accumulation(p, k_max=10)
    np.testing.assert_allclose(curve, np.arange(1, 11) / 10.0, atol=1e-12)


def test_topk_monotone_bounded_ends_at_one():
    rng = SeededRng(4)
    p = np.asarray(rng.uniform(size=(50, 10))) + 1e-3
    p = p / p.sum(axis=1, keepdims=True)
    curve = topk_accumulation(p, k_max=10)
    assert np.all(np.diff(curve) > 0)
    assert np.all(curve <= 1.0 + 1e-12)
    assert curve[-1] == pytest.approx(1.0, abs=1e-9)
    # k=1 is the mean max prob
    assert curve[0] == pytest.approx(float(p.max(axis=1).mean()), abs=1e-12)


def test_topk_rejects_bad_inputs():
    with pytest.raises(ValueError):
        topk_accumulation(np.full((2, 5), 0.2), k_max=10)  # k_max > classes
    with pytest.raises(ValueError):
        topk_accumulation(np.array([[0.5, 0.6]]), k_max=2)  # not a distribution
    with pytest.raises(ValueError):
        topk_accumulation(np.zeros((0, 5)), k_max=3)


def test_topk_sharper_distribution_dominates():
    rng = SeededRng(5)
    sharp = np.asarray(rng.uniform(size=(40, 10))) ** 8
    sharp = sharp / sharp.sum(axis=1, keepdims=True)
    flat = np.asarray(rng.uniform(size=(40, 10))) + 0.5
    flat = flat / flat.sum(axis=1, keepdims=True)
    c_sharp = topk_accumulation(sharp, 10)
    c_flat = topk_accumulation(flat, 10)
    assert np.all(c_sharp[:-1] > c_flat[:-1])  # k=10 ties at 1


# --- PCA projection -----------------------------------------------------------------

def test_project_preserves_planar_geometry():
    # points already in a 2-D plane embedded in 5-D: distances must survive
    rng = SeededRng(6)
    basis, _ = np.linalg.qr(np.asarray(rng.normal(size=(5, 2))))
    plane = np.asarray(rng.normal(size=(20, 2)))
    cloud = plane @ basis.T
    coords = project_2d(cloud)
    d_orig = np.linalg.norm(cloud[:, None] - cloud[None, :], axis=2)
    d_proj = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
    np.testing.assert_allclose(d_proj, d_orig, atol=1e-9)


def test_project_identical_points_map_to_origin():
    cloud = np.ones((5, 4))
    coords = project_2d(cloud)
    np.testing.assert_allclose(coords, np.zeros((5, 2)), atol=1e-12)


def test_pca_reconstruction_matches_svd_oracle():
    rng = SeededRng(7)
    x = np.asarray(rng.normal(size=(30, 6)))
    coords, components, s = pca_top2(x)
    centered = x - x.mean(axis=0, keepdims=True)
    # rank-2 reconstruction error equals the tail singular values' energy
    recon = coords @ components
    err = np.linalg.norm(centered - recon) ** 2
    assert err == pytest.approx(float(np.sum(s[2:] ** 2)), rel=1e-9)
    # components orthonormal
    np.testing.assert_allclose(components @ components.T, np.eye(2), atol=1e-10)


def test_pca_sign_convention_deterministic():
    rng = SeededRng(8)
    x = np.asarray(rng.normal(size=(15, 4)))
    _, comp_a, _ = pca_top2(x)
    _, comp_b, _ = pca_top2(np.array(x))
    np.testing.assert_array_equal(comp_a, comp_b)
    for row in comp_a:
        assert row[int(np.argmax(np.abs(row)))] > 0


def test_pca_of_one_wide_features_has_a_zero_second_component():
    x = np.array([[0.5], [-2.0], [1.25], [3.0]])
    coords, components, s = pca_top2(x)
    centered = x - x.mean(axis=0, keepdims=True)
    np.testing.assert_array_equal(components, [[1.0], [0.0]])
    np.testing.assert_array_equal(coords[:, 0], centered[:, 0])
    np.testing.assert_array_equal(coords[:, 1], np.zeros(4))
    assert s.shape == (1,)


def test_project_needs_three_samples():
    with pytest.raises(ValueError):
        project_2d(np.ones((2, 3)))


# --- model-aware helpers ---------------------------------------------------------------

def make_state(seed=0):
    cfg = ModelConfig(input_dim=3, hidden_dims=(6,), feature_dim=4, n_classes=3,
                      t_ce=0.05, t_re=0.05)
    return init_model(cfg, SeededRng(seed).substream("init"))


def test_split_by_confidence_partition():
    state = make_state()
    rng = SeededRng(9)
    x = np.asarray(rng.normal(size=(20, 3)))
    hi, lo, probs, feats = split_by_confidence(state, x, tau=0.8)
    assert len(hi) + len(lo) == 20
    assert probs.shape == (20, 3) and feats.shape == (20, 4)
    assert np.all(probs.max(axis=1)[hi] > 0.8)
    assert np.all(probs.max(axis=1)[lo] <= 0.8)


def test_confidence_feature_vectors_modes():
    state = make_state()
    rng = SeededRng(10)
    feats = np.asarray(features_of(state, np.asarray(rng.normal(size=(8, 3)))))
    rerep = confidence_feature_vectors(state, feats, "rerep")
    raw = confidence_feature_vectors(state, feats, "raw")
    for block in (rerep, raw):
        np.testing.assert_allclose(np.linalg.norm(block, axis=1), np.ones(8),
                                   atol=1e-9)
    assert not np.allclose(rerep, raw)
    with pytest.raises(ValueError):
        confidence_feature_vectors(state, feats, "fancy")


def test_mixed_topk_curves_shapes_and_determinism():
    state = make_state()
    rng = SeededRng(11)
    x_hi = np.asarray(rng.normal(size=(6, 3)))
    x_lo = np.asarray(rng.normal(size=(5, 3)))
    x_src = np.asarray(rng.normal(size=(9, 3)))
    a = mixed_topk_curves(state, x_hi, x_lo, x_src, alpha=1.0, k_max=3, seed=4)
    b = mixed_topk_curves(state, x_hi, x_lo, x_src, alpha=1.0, k_max=3, seed=4)
    assert set(a) == {"high_mix", "low_mix"}
    np.testing.assert_array_equal(a["high_mix"], b["high_mix"])
    np.testing.assert_array_equal(a["low_mix"], b["low_mix"])
    assert a["high_mix"].shape == (3,)
    assert np.all(np.diff(a["high_mix"]) > 0)


def test_mixed_topk_empty_group_gives_nan_curve():
    state = make_state()
    rng = SeededRng(12)
    x_lo = np.asarray(rng.normal(size=(4, 3)))
    x_src = np.asarray(rng.normal(size=(6, 3)))
    curves = mixed_topk_curves(state, np.zeros((0, 3)), x_lo, x_src,
                               alpha=1.0, k_max=3, seed=0)
    assert np.all(np.isnan(curves["high_mix"]))
    assert np.all(np.isfinite(curves["low_mix"]))
    with pytest.raises(ValueError):
        mixed_topk_curves(state, x_lo, x_lo, np.zeros((0, 3)), 1.0, 3, 0)


# --- CSV output ---------------------------------------------------------------------------

def test_analysis_filename_layout():
    assert analysis_filename("similarity", "run7", 600, "target") == \
        "similarity_run-run7_step-600_target.csv"


def test_write_similarity_csv(tmp_path):
    vecs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    rep = similarity_stats(vecs, [0, 1, 0, 1], [True, True, False, False])
    path = tmp_path / "sim.csv"
    write_similarity_csv(path, rep, meta="step=5")
    lines = path.read_text().splitlines()
    assert lines[0] == "# step=5"
    assert lines[1].startswith("group,within,cross")
    assert len(lines) == 2 + len(GROUPS)
    assert lines[2].split(",")[0] == "high"


def test_write_topk_csv(tmp_path):
    curves = {"high_mix": np.array([0.5, 0.8]), "low_mix": np.array([0.3, 0.6])}
    path = tmp_path / "topk.csv"
    write_topk_csv(path, curves)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,high_mix,low_mix"
    assert lines[1].split(",")[0] == "1"
    assert lines[2].split(",")[1] == "0.80000000000000004"  # 17 digits of 0.8


def test_write_projection_csv(tmp_path):
    coords = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "proj.csv"
    write_projection_csv(path, coords, labels=[0, 1], confident=[True, False])
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,label,confident"
    assert lines[1] == "1,2,0,1"
    assert lines[2] == "3,4,1,0"
