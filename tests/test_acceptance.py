"""End-to-end acceptance checks for the shipped package.

One test per guarantee, in order: gradient correctness, loss-value oracles,
loss nonnegativity, the stop-gradient contract, structural invariants,
benchmark method ordering, the confidence/similarity direction, the mixed
top-k direction, ablation degradation, and run determinism.  Each test
prints one ``ACCEPTANCE <nn> <name>: PASS (...)`` line with the measured
numbers, so ``pytest -v -s tests/test_acceptance.py`` reads as a checklist.

Training-based checks read their fits from the session cache of
conftest.py, which the golden digests share, so every configuration is
trained once per session.
"""

import dataclasses
import time

import numpy as np
import pytest

from lrco import losses as L
from lrco import reference_results as ref
from lrco.analysis import (
    confidence_feature_vectors, mixed_topk_curves, similarity_stats,
    split_by_confidence,
)
from lrco.cli import EXIT_OK, main as cli_main
from lrco.config import default_run_config, dynamics_hash
from lrco.data import AugmentSpec, generate_shift_benchmark
from lrco.gradcheck import check_instance
from lrco.membank import MemoryBank
from lrco.model import ModelConfig, _cut, clone_state, ema_update, init_model, state_arrays
from lrco.numerics import SeededRng, StepStreams, normalize_last, softmax_last
from lrco.trainer import fit, load_checkpoint, metric_record_line, prepare_step, step_objective
from oracles import states_allclose, teacher_probs_at_step_1, tiny_setup, unit_rows

BASE = default_run_config()
SEEDS = ref.BENCHMARK_SEEDS
METHODS = ("source_only", "baseline", "strong", "lrco", "mixlrco")
RECORD_TOL = 0.5  # points; recorded medians must match a fresh measurement


def _fit_run(trained, seed, data=None, **train_overrides):
    """(benchmark, FitResult, seconds) of the default config at ``seed``,
    with ``data`` (a dict) and ``train_overrides`` applied, from the session
    cache of conftest.py."""
    return trained(dataclasses.replace(
        BASE, data=dataclasses.replace(BASE.data, seed=seed, **(data or {})),
        train=dataclasses.replace(BASE.train, seed=seed, **train_overrides)))


def _final_target_acc(res) -> float:
    return 100.0 * [r.accuracy for r in res.history if r.split == "target"][-1]


@pytest.fixture(scope="module")
def benchmark_runs(trained):
    """(method, seed) -> (benchmark, FitResult, seconds) on the default config."""
    return {(m, s): _fit_run(trained, s, method=m) for m in METHODS for s in SEEDS}


@pytest.fixture(scope="module")
def ablation_runs(trained):
    return {
        "high_confidence_positives": {
            s: _fit_run(trained, s, method="lrco", sample_selection="high") for s in SEEDS},
        "raw_features": {
            s: _fit_run(trained, s, method="lrco", rerep_mode="raw") for s in SEEDS},
        "no_dominance_mixup": {
            s: _fit_run(trained, s, method="mixlrco", mixup_mode="no_dominance")
            for s in SEEDS},
    }


@pytest.fixture(scope="module")
def wide_benchmark_runs(trained):
    """Strong-baseline runs on a 12-class variant so k=1..10 is informative."""
    return {s: _fit_run(trained, s, data=dict(n_classes=12, input_dim=12), method="strong")[:2]
            for s in SEEDS}


def _median(runs, method) -> float:
    return float(np.median([_final_target_acc(runs[(method, s)][1]) for s in SEEDS]))


# --- 01: analytic gradients vs central finite differences ---------------------

def test_01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    results = [check_instance(i) for i in range(20)]
    elapsed = time.perf_counter() - t0

    sizes = {(r.n_classes, r.feature_dim) for r in results}
    assert sizes == {(2, 3), (2, 8), (5, 3), (5, 8)}
    worst = max(err for r in results for err in r.errors.values())
    assert np.isfinite(worst) and worst < 1e-4
    assert elapsed < 60.0
    print(f"ACCEPTANCE 01 gradient-suite: PASS (worst rel err {worst:.2e} over "
          f"{len(results)} instances, sizes {sorted(sizes)}, {elapsed:.1f}s)")


# --- 02/03: contrastive losses vs an independent oracle -----------------------

def _lse(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(values - m))))


def _unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_02_losses_match_logsumexp_oracle():
    rng = np.random.default_rng(20260818)
    worst_single = worst_mix = 0.0
    for _ in range(10_000):
        d = int(rng.integers(2, 9))
        n_bank = int(rng.integers(1, 17))
        t = float(rng.uniform(0.1, 1.0))
        bank = unit_rows(rng, n_bank, d)
        q = _unit(rng, d)

        k = _unit(rng, d)
        sims = np.concatenate(([q @ k], bank @ q)) / t
        oracle = _lse(sims) - sims[0]
        value = float(L.contrastive_batch(q.reshape(1, -1), k.reshape(1, -1), bank, t))
        worst_single = max(worst_single, abs(value - oracle))

        k_t, k_s = _unit(rng, d), _unit(rng, d)
        lam_prime = float(rng.uniform(0.5, 1.0))
        k_mix = lam_prime * k_t + (1.0 - lam_prime) * k_s  # blended, not renormalized
        den = np.concatenate(([q @ k_t], [q @ k_s], bank @ q)) / t
        oracle_mix = _lse(den) - (q @ k_mix) / t
        value_mix = float(L.mixlrco_batch(q.reshape(1, -1), k_mix.reshape(1, -1),
                                          k_t.reshape(1, -1), k_s.reshape(1, -1), bank, t))
        worst_mix = max(worst_mix, abs(value_mix - oracle_mix))

    assert worst_single < 1e-10
    assert worst_mix < 1e-10
    print(f"ACCEPTANCE 02 loss-oracles: PASS (10000 instances each; max abs dev "
          f"single {worst_single:.2e}, mix {worst_mix:.2e}, tol 1e-10)")


def test_03_mix_loss_is_nonnegative():
    rng = np.random.default_rng(90210)
    smallest = np.inf
    for _ in range(10_000):
        d = int(rng.integers(2, 9))
        n_bank = int(rng.integers(1, 17))
        t = float(rng.uniform(0.1, 1.0))
        q, k_t, k_s = _unit(rng, d), _unit(rng, d), _unit(rng, d)
        lam = float(rng.uniform(0.0, 1.0))
        lam_prime = max(lam, 1.0 - lam)
        k_mix = lam_prime * k_t + (1.0 - lam_prime) * k_s
        value = float(L.mixlrco_batch(q.reshape(1, -1), k_mix.reshape(1, -1),
                                      k_t.reshape(1, -1), k_s.reshape(1, -1),
                                      unit_rows(rng, n_bank, d), t))
        smallest = min(smallest, value)
        assert value >= 0.0
    print(f"ACCEPTANCE 03 mix-loss-nonnegative: PASS (10000 instances, "
          f"min value {smallest:.3e} >= 0)")


# --- 04: the contrastive term must not backpropagate into the classifier ------

def test_04_contrastive_gradient_skips_classifier():
    for method in ("lrco", "mixlrco"):
        cfg, student, teacher, bank, lab_x, lab_y, lab_src, unl_x = tiny_setup(method)
        bank.push_batch(np.eye(5)[:4])
        # tau just below 1 forces (nearly) every sample into the low group
        sb = prepare_step(student, teacher, bank, lab_x, lab_y, lab_src, unl_x,
                          cfg, AugmentSpec(), tau=0.999999, step=1,
                          streams=StepStreams(cfg.seed, 1))
        assert len(sb.sel_idx) >= 1
        if method == "mixlrco":
            assert sb.query_rows == sb.rows["mix"]
        assert sb.query_rows is not None  # the step builds its contrastive term
        # the contrastive term's gradient from the backward train_step calls
        backward = step_objective(student, sb, cfg, with_grad=True)[2]
        grad = np.zeros(student.params.shape)
        backward("contrastive", grad)
        views = _cut(grad, student.layout)  # weights[0] first, the classifier last
        assert np.all(views[-1] == 0.0)
        assert np.any(views[0] != 0.0)
    print("ACCEPTANCE 04 stop-gradient: PASS (classifier grad exactly zero under "
          "both contrastive objectives; encoder grad nonzero)")


# --- 05: structural invariants -------------------------------------------------

def test_05_structural_invariants():
    # (a) confidence split partitions the unlabeled batch; the hard labels and
    # the flags follow the teacher's probabilities on the weak view, drawn
    # again from the same substream
    cfg, student, teacher, bank, lab_x, lab_y, lab_src, unl_x = tiny_setup("lrco", seed=3)
    probs = teacher_probs_at_step_1(cfg, teacher, unl_x)
    for tau in (0.4, 0.6, 0.9):
        sb = prepare_step(student, teacher, bank, lab_x, lab_y, lab_src, unl_x,
                          cfg, AugmentSpec(), tau=tau, step=1, streams=StepStreams(cfg.seed, 1))
        merged = np.sort(np.concatenate([sb.high_idx, sb.low_idx]))
        assert np.array_equal(merged, np.arange(len(sb.pseudo)))
        assert np.array_equal(sb.pseudo, np.argmax(probs, axis=1))
        flags = probs.max(axis=1) > tau
        assert np.array_equal(np.flatnonzero(flags), np.sort(sb.high_idx))

    # (b) bank behaves exactly like a capped reference list, oldest first
    bank = MemoryBank(capacity=8)
    rng = np.random.default_rng(5)
    kept: list[np.ndarray] = []
    for _ in range(120):
        rows = normalize_last(rng.normal(size=(int(rng.integers(1, 6)), 4)))
        bank.push_batch(rows)
        kept = (kept + [r for r in rows])[-8:]
        assert np.array_equal(bank.snapshot(), np.asarray(kept))

    # (c) repeated averaging against a fixed student follows the closed form
    mc = ModelConfig(input_dim=3, hidden_dims=(4,), feature_dim=5, n_classes=3,
                     t_ce=0.1, t_re=0.1)
    srng = SeededRng(7)
    student_m = init_model(mc, srng.substream("s"))
    teacher0 = init_model(mc, srng.substream("t"))
    teacher_m = clone_state(teacher0)
    n = 50
    for _ in range(n):
        teacher_m = ema_update(teacher_m, student_m, 0.99)
    w = 0.99 ** n
    t0_arrays = state_arrays(teacher0)
    s_arrays = state_arrays(student_m)
    ema_dev = 0.0
    for name, arr in state_arrays(teacher_m).items():
        expected = w * t0_arrays[name] + (1.0 - w) * s_arrays[name]
        ema_dev = max(ema_dev, float(np.max(np.abs(arr - expected))))
    assert ema_dev < 1e-10

    # (d) probability rows sum to one, normalized rows have unit length
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.normal(size=(6, 5)) * float(rng.uniform(0.5, 3.0))
        p = softmax_last(m, float(rng.uniform(0.05, 2.0)))
        assert np.all(p > 0)
        assert float(np.max(np.abs(p.sum(axis=1) - 1.0))) < 1e-12
        u = normalize_last(m)
        assert float(np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0))) < 1e-12

    print(f"ACCEPTANCE 05 structural-invariants: PASS (split partitions batch; "
          f"bank == reference list over 120 pushes; averaged-teacher dev "
          f"{ema_dev:.1e} < 1e-10; softmax/norm rows exact to 1e-12)")


# --- 06: method ordering on the default benchmark ------------------------------

def test_06_benchmark_method_ordering(benchmark_runs):
    med = {m: _median(benchmark_runs, m) for m in METHODS}
    slowest = max(el for (_, _, el) in benchmark_runs.values())
    assert slowest < 300.0  # every run fits the five-minute budget

    assert med["source_only"] < med["strong"] < med["lrco"] <= med["mixlrco"]
    margin = med["mixlrco"] - med["strong"]
    assert margin >= 1.0

    for method, value in med.items():
        assert abs(value - ref.BENCHMARK_TARGET_MEDIANS[method]) <= RECORD_TOL, (
            f"{method}: measured median {value:.2f} drifted from recorded "
            f"{ref.BENCHMARK_TARGET_MEDIANS[method]:.2f}")

    print(f"ACCEPTANCE 06 benchmark-ordering: PASS (medians over seeds {list(SEEDS)}: "
          f"source_only {med['source_only']:.2f} < strong {med['strong']:.2f} < "
          f"lrco {med['lrco']:.2f} <= mixlrco {med['mixlrco']:.2f}; "
          f"margin {margin:.2f} >= 1.0; slowest run {slowest:.1f}s)")


# --- 07: low-confidence samples sit closer to other classes --------------------

def test_07_confidence_similarity_direction(benchmark_runs):
    gaps = []
    for seed in SEEDS:
        bench, res, _ = benchmark_runs[("strong", seed)]
        x, y = bench.target_eval_samples()
        hi, lo, _, feats = split_by_confidence(res.student, x, res.final_tau)
        assert len(hi) >= 2 and len(lo) >= 2
        conf = np.zeros(len(x), dtype=bool)
        conf[hi] = True
        vecs = confidence_feature_vectors(res.student, feats, "rerep")
        rep = similarity_stats(vecs, y, conf)
        assert "high" not in rep.degenerate and "low" not in rep.degenerate
        assert rep.within["low"] < rep.within["high"]
        assert rep.cross["low"] > rep.cross["high"]
        gaps.append((rep.within["high"] - rep.within["low"],
                     rep.cross["low"] - rep.cross["high"]))
    w_gap = min(g for g, _ in gaps)
    c_gap = min(g for _, g in gaps)
    print(f"ACCEPTANCE 07 similarity-direction: PASS (all {len(SEEDS)} seeds: "
          f"low within < high within (min gap {w_gap:.4f}), low cross > high "
          f"cross (min gap {c_gap:.4f}))")


# --- 08: mixes built from confident samples keep sharper predictions -----------

def test_08_mixed_topk_direction(wide_benchmark_runs):
    min_gap = np.inf
    for seed in SEEDS:
        bench, res = wide_benchmark_runs[seed]
        x_unl = bench.target_unlabeled_x
        hi, lo, _, _ = split_by_confidence(res.student, x_unl, res.final_tau)
        assert len(hi) >= 1 and len(lo) >= 1
        curves = mixed_topk_curves(res.student, x_unl[hi], x_unl[lo],
                                   bench.source_x,
                                   alpha=BASE.train.alpha, k_max=10, seed=seed)
        high, low = curves["high_mix"], curves["low_mix"]
        assert high.shape == (10,) and np.all(np.isfinite(high))
        assert np.all(high > low)  # dominance at every k = 1..10
        min_gap = min(min_gap, float(np.min(high - low)))
    print(f"ACCEPTANCE 08 mixed-topk-direction: PASS (12-class variant, all "
          f"{len(SEEDS)} seeds, high-confidence mixes dominate at every k; "
          f"min per-k gap {min_gap:+.4f})")


# --- 09: removing each ingredient hurts ----------------------------------------

def test_09_ablations_degrade(benchmark_runs, ablation_runs):
    parent_of = {"high_confidence_positives": "lrco", "raw_features": "lrco",
                 "no_dominance_mixup": "mixlrco"}
    notes = []
    for name, runs_by_seed in ablation_runs.items():
        ablated = float(np.median([_final_target_acc(runs_by_seed[s][1]) for s in SEEDS]))
        parent = _median(benchmark_runs, parent_of[name])
        assert abs(ablated - ref.ABLATION_TARGET_MEDIANS[name]) <= RECORD_TOL
        diff = parent - ablated
        # An ablation must not help; a tie within half a point is reported.
        assert diff >= -RECORD_TOL, (
            f"{name}: ablated median {ablated:.2f} beats parent {parent:.2f}")
        verdict = "degrades" if diff > RECORD_TOL else "tie within 0.5 (reported)"
        notes.append(f"{name} {parent:.2f}->{ablated:.2f} {verdict}")
    print(f"ACCEPTANCE 09 ablations: PASS ({'; '.join(notes)})")


# --- 10: byte-identical metrics and bit-exact resume ----------------------------

def test_10_determinism_and_resume(tmp_path):
    # (a) two identical CLI runs write byte-identical artifacts
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["train", "--out", str(out_a)]) == EXIT_OK
    assert cli_main(["train", "--out", str(out_b)]) == EXIT_OK
    metrics_a = (out_a / "metrics.csv").read_bytes()
    assert metrics_a == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "config_used.txt").read_bytes() == (out_b / "config_used.txt").read_bytes()
    ck_a = load_checkpoint(out_a / "checkpoint_final.npz")
    ck_b = load_checkpoint(out_b / "checkpoint_final.npz")
    assert states_allclose(ck_a.student, ck_b.student)
    assert states_allclose(ck_a.teacher, ck_b.teacher)
    assert np.array_equal(ck_a.bank.snapshot(), ck_b.bank.snapshot())

    # (b) stopping at the midpoint and resuming equals the uninterrupted run
    bench = generate_shift_benchmark(BASE.data)
    dh = dynamics_hash(BASE)
    kwargs = dict(hidden_dims=BASE.model.hidden_dims,
                  feature_dim=BASE.model.feature_dim, dynamics_hash=dh)
    straight = fit(bench, BASE.augment, BASE.train, **kwargs)

    half_cfg = dataclasses.replace(BASE.train, total_steps=BASE.train.total_steps // 2)
    ckpt_dir = tmp_path / "half"
    ckpt_dir.mkdir()
    fit(bench, BASE.augment, half_cfg, out_dir=str(ckpt_dir), **kwargs)
    resumed = fit(bench, BASE.augment, BASE.train,
                  resume_from=str(ckpt_dir / "checkpoint_final.npz"), **kwargs)

    assert states_allclose(resumed.student, straight.student)
    assert states_allclose(resumed.teacher, straight.teacher)
    assert np.array_equal(resumed.bank.snapshot(), straight.bank.snapshot())
    assert resumed.final_tau == straight.final_tau
    resumed_lines = {(r.step, r.split): metric_record_line(r) for r in resumed.history}
    for rec in straight.history:
        key = (rec.step, rec.split)
        if key in resumed_lines:
            assert resumed_lines[key] == metric_record_line(rec)

    print(f"ACCEPTANCE 10 determinism: PASS (metrics byte-identical over "
          f"{len(metrics_a)} bytes; resumed run bit-exact vs straight run "
          f"at {BASE.train.total_steps} steps)")
