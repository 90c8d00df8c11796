import numpy as np
import pytest

from lrco.data import (
    AugmentSpec, BenchmarkSpec, Sample, benchmark_spec_hash,
    generate_shift_benchmark, pack_inputs, pack_labels,
    save_dataset, strong_augment, weak_augment,
)
from lrco.numerics import SeededRng

# The measured accuracy drop of a source-fit nearest-centroid classifier on the
# shifted target, median over seeds 0..4 of the default 2-D benchmark.  A
# regenerated benchmark must keep showing at least a 10-point drop.
NEAREST_CENTROID_SHIFT_DROP_PTS = 99.33333333333333


def nearest_centroid_accuracy(train, test):
    (train_x, train_y), (test_x, test_y) = train, test
    k = int(train_y.max()) + 1
    centroids = np.stack([train_x[train_y == c].mean(axis=0) for c in range(k)])
    d2 = ((test_x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == test_y).mean())


# --- spec validation and hashing ----------------------------------------------

def test_spec_validation():
    BenchmarkSpec().validate()
    with pytest.raises(ValueError):
        BenchmarkSpec(n_classes=1).validate()
    with pytest.raises(ValueError):
        BenchmarkSpec(input_dim=1).validate()
    with pytest.raises(ValueError):
        BenchmarkSpec(input_dim=4, n_classes=6).validate()  # needs K <= dim above 2-D
    with pytest.raises(ValueError):
        BenchmarkSpec(noise_sigma=-0.1).validate()
    with pytest.raises(ValueError):
        BenchmarkSpec(noise_sigma=0.0).validate()  # zero noise is degenerate too
    with pytest.raises(ValueError):
        BenchmarkSpec(shift_translation=(1.0,)).validate()  # wrong length


def test_spec_hash_stable_and_sensitive():
    a = benchmark_spec_hash(BenchmarkSpec())
    b = benchmark_spec_hash(BenchmarkSpec())
    assert a == b and len(a) == 12
    assert benchmark_spec_hash(BenchmarkSpec(seed=1)) != a
    assert benchmark_spec_hash(BenchmarkSpec(noise_sigma=0.2)) != a


# --- geometry -------------------------------------------------------------------

def test_centers_on_circle_2d():
    bench = generate_shift_benchmark(BenchmarkSpec(n_classes=4, radius=2.0))
    np.testing.assert_allclose(np.linalg.norm(bench.source_centers, axis=1),
                               np.full(4, 2.0), atol=1e-12)
    # equal angular spacing: consecutive dot products all equal
    dots = [bench.source_centers[i] @ bench.source_centers[(i + 1) % 4]
            for i in range(4)]
    np.testing.assert_allclose(dots, dots[0], atol=1e-12)


def test_centers_orthonormal_high_dim():
    bench = generate_shift_benchmark(BenchmarkSpec(n_classes=5, input_dim=6))
    gram = bench.source_centers @ bench.source_centers.T
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)


def test_target_centers_are_rotated():
    spec = BenchmarkSpec(shift_angle_deg=90.0)
    bench = generate_shift_benchmark(spec)
    # 90 degrees in 2-D: (x, y) -> (-y, x)
    expected = np.stack([-bench.source_centers[:, 1], bench.source_centers[:, 0]],
                        axis=1)
    np.testing.assert_allclose(bench.target_centers, expected, atol=1e-12)


def test_translation_applied():
    spec = BenchmarkSpec(shift_angle_deg=0.0, shift_translation=(3.0, -1.0))
    bench = generate_shift_benchmark(spec)
    np.testing.assert_allclose(bench.target_centers,
                               bench.source_centers + np.array([3.0, -1.0]),
                               atol=1e-12)


def test_split_sizes_and_domains():
    spec = BenchmarkSpec(n_classes=3, n_per_class_source=10, n_per_class_target=8,
                         n_labeled_target_per_class=2)
    bench = generate_shift_benchmark(spec)
    assert bench.source_x.shape == (30, 2)
    assert bench.target_unlabeled_x.shape == (24, 2)
    assert bench.target_labeled_x.shape == (6, 2)
    # labels in class order, every class equally often
    np.testing.assert_array_equal(bench.source_y, np.repeat([0, 1, 2], 10))
    np.testing.assert_array_equal(bench.target_labeled_y, np.repeat([0, 1, 2], 2))
    assert bench.source_y.dtype == bench.target_labeled_y.dtype == np.int64
    x, y, is_source = bench.labeled_pool()
    np.testing.assert_array_equal(x, np.concatenate((bench.source_x, bench.target_labeled_x)))
    np.testing.assert_array_equal(y, np.concatenate((bench.source_y, bench.target_labeled_y)))
    np.testing.assert_array_equal(is_source, np.arange(36) < 30)


def test_eval_channel_restores_labels():
    bench = generate_shift_benchmark(BenchmarkSpec(n_classes=3, n_per_class_target=5))
    x, labels = bench.target_eval_samples()
    assert len(labels) == len(bench.target_unlabeled_x)
    assert set(labels.tolist()) == {0, 1, 2}
    # same points, same order
    np.testing.assert_array_equal(x, bench.target_unlabeled_x)


def test_generation_is_deterministic():
    a = generate_shift_benchmark(BenchmarkSpec(seed=7))
    b = generate_shift_benchmark(BenchmarkSpec(seed=7))
    np.testing.assert_array_equal(a.source_x, b.source_x)
    np.testing.assert_array_equal(a.target_unlabeled_x, b.target_unlabeled_x)
    c = generate_shift_benchmark(BenchmarkSpec(seed=8))
    assert not np.array_equal(a.source_x, c.source_x)


@pytest.mark.parametrize("input_dim,drawn", [(2, 3), (8, 4)])
def test_generation_seeds_only_the_streams_it_draws_from(monkeypatch, input_dim, drawn):
    # one numpy SeedSequence per stream that draws: the noise of the three
    # splits, and above 2-D the random frame of the class centers
    seed_sequence, built = np.random.SeedSequence, [0]

    def counting_seed_sequence(*args, **kwargs):
        built[0] += 1
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
    generate_shift_benchmark(BenchmarkSpec(n_classes=3, input_dim=input_dim))
    assert built[0] == drawn


def test_zero_shift_means_matched_domains():
    spec = BenchmarkSpec(shift_angle_deg=0.0)
    bench = generate_shift_benchmark(spec)
    np.testing.assert_allclose(bench.target_centers, bench.source_centers, atol=1e-12)
    source = (bench.source_x, bench.source_y)
    acc_src = nearest_centroid_accuracy(source, source)
    acc_tgt = nearest_centroid_accuracy(source, bench.target_eval_samples())
    assert abs(acc_src - acc_tgt) < 0.02  # within 2 points when nothing shifted


def test_shift_hurts_source_fit_classifier():
    # the benchmark has to actually pose an adaptation problem
    drops = []
    for seed in range(5):
        bench = generate_shift_benchmark(BenchmarkSpec(seed=seed))
        source = (bench.source_x, bench.source_y)
        acc_src = nearest_centroid_accuracy(source, source)
        acc_tgt = nearest_centroid_accuracy(source, bench.target_eval_samples())
        drops.append(100.0 * (acc_src - acc_tgt))
    median_drop = float(np.median(drops))
    assert median_drop >= 10.0
    assert abs(median_drop - NEAREST_CENTROID_SHIFT_DROP_PTS) < 15.0


# --- augmentation ----------------------------------------------------------------

def test_weak_augment_zero_sigma_identity():
    spec = AugmentSpec(sigma_weak=0.0)
    x = np.array([1.0, -2.0, 3.0])
    out = weak_augment(x, spec, SeededRng(0).substream("w"))
    np.testing.assert_array_equal(out, x)


def test_weak_augment_noise_scale():
    spec = AugmentSpec(sigma_weak=0.05)
    rng = SeededRng(1).substream("w")
    x = np.zeros((100_000, 1))
    out = weak_augment(x, spec, rng)
    assert abs(out.std() - 0.05) < 0.05 * 0.05  # within 5 percent


def test_weak_augment_deterministic_per_stream():
    spec = AugmentSpec()
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    a = weak_augment(x, spec, SeededRng(5).substream("aug-3"))
    b = weak_augment(x, spec, SeededRng(5).substream("aug-3"))
    np.testing.assert_array_equal(a, b)
    c = weak_augment(x, spec, SeededRng(5).substream("aug-4"))
    assert not np.array_equal(a, c)


def test_strong_augment_masks_and_scales():
    spec = AugmentSpec(sigma_strong=0.0, sigma_weak=0.0, mask_prob=0.5,
                       scale_jitter=0.0)
    rng = SeededRng(2).substream("s")
    x = np.ones((2000, 4))
    out = strong_augment(x, spec, rng)
    zero_frac = float((out == 0.0).mean())
    assert abs(zero_frac - 0.5) < 0.03
    assert set(np.unique(out)).issubset({0.0, 1.0})


def test_strong_augment_scale_jitter_rowwise():
    spec = AugmentSpec(sigma_strong=0.0, sigma_weak=0.0, mask_prob=0.0,
                       scale_jitter=0.1)
    rng = SeededRng(3).substream("s")
    x = np.ones((50, 3))
    out = strong_augment(x, spec, rng)
    # each row scaled by a single factor in [0.9, 1.1]
    row_factors = out[:, 0]
    np.testing.assert_allclose(out, row_factors[:, None] * np.ones((50, 3)),
                               atol=1e-15)
    assert np.all(row_factors >= 0.9) and np.all(row_factors <= 1.1)
    assert np.std(row_factors) > 0.0


def test_strong_augment_more_aggressive_than_weak():
    spec = AugmentSpec()
    x = np.ones((20_000, 2))
    weak = weak_augment(x, spec, SeededRng(4).substream("w"))
    strong = strong_augment(x, spec, SeededRng(4).substream("s"))
    assert np.mean((strong - x) ** 2) > np.mean((weak - x) ** 2)


def test_augment_spec_validation():
    AugmentSpec().validate()
    with pytest.raises(ValueError):
        AugmentSpec(sigma_weak=-0.1).validate()
    with pytest.raises(ValueError):
        AugmentSpec(sigma_weak=0.3, sigma_strong=0.1).validate()
    with pytest.raises(ValueError):
        AugmentSpec(mask_prob=1.0).validate()


# --- dataset files -----------------------------------------------------------------

def read_dataset_file(path):
    """Parse a file save_dataset wrote: the header fields, then per row
    (domain, label or None, coordinates parsed with float())."""
    header, *lines = path.read_text().splitlines()
    meta = dict(piece.split("=", 1) for piece in header.split(","))
    rows = []
    for line in lines:
        domain, tag, *coords = line.split(",")
        label = None if tag == "-" else int(tag)
        rows.append((domain, label, np.array([float(c) for c in coords])))
    return meta, rows


def test_save_load_roundtrip_exact(tmp_path):
    bench = generate_shift_benchmark(BenchmarkSpec(n_classes=3, n_per_class_source=4,
                                                   n_per_class_target=4))
    src, unl = tmp_path / "source.txt", tmp_path / "unlabeled.txt"
    save_dataset(src, "source", bench.source_x, bench.source_y, n_classes=3,
                 spec_hash="abc123")
    save_dataset(unl, "target", bench.target_unlabeled_x, None, n_classes=3,
                 spec_hash="abc123")
    # one file may mix domains and labeled/unlabeled rows: join the two splits
    path = tmp_path / "mixed.txt"
    path.write_text(src.read_text() + "".join(unl.read_text().splitlines(True)[1:]))
    meta, loaded = read_dataset_file(path)
    assert meta == {"input_dim": "2", "K": "3", "spec_hash": "abc123"}
    expected = ([("source", int(y), x) for x, y in zip(bench.source_x, bench.source_y)]
                + [("target", None, x) for x in bench.target_unlabeled_x])
    assert len(loaded) == len(expected) == 24
    for (domain, label, x), (back_domain, back_label, back_x) in zip(expected, loaded):
        assert back_domain == domain
        assert back_label == label
        np.testing.assert_array_equal(back_x, x)  # 17 digits: bit-exact


def test_empty_sample_list_roundtrips(tmp_path):
    # An empty split is written as the header line alone.
    path = tmp_path / "none.txt"
    save_dataset(path, "target", np.zeros((0, 3)), None, n_classes=2)
    meta, loaded = read_dataset_file(path)
    assert loaded == []
    assert meta["input_dim"] == "3" and meta["K"] == "2"


def test_save_is_byte_deterministic(tmp_path):
    bench = generate_shift_benchmark(BenchmarkSpec(n_per_class_source=2,
                                                   n_per_class_target=2))
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_dataset(p1, "source", bench.source_x, bench.source_y, n_classes=5)
    save_dataset(p2, "source", bench.source_x, bench.source_y, n_classes=5)
    assert p1.read_bytes() == p2.read_bytes()


def test_pack_helpers():
    samples = [Sample(x=np.array([1.0, 2.0]), label=1, domain="source"),
               Sample(x=np.array([3.0, 4.0]), label=0, domain="source")]
    np.testing.assert_array_equal(pack_inputs(samples), [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(pack_labels(samples), [1, 0])
    with pytest.raises(ValueError):
        pack_labels([Sample(x=np.zeros(2), label=None, domain="target")])
