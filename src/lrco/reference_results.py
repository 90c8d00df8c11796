"""Recorded results for the bundled benchmark at the default configuration.

Every number in this module was measured by training on the benchmark
returned by :func:`lrco.config.default_run_config` (five classes, eight
input dimensions, 40 source / 60 target samples per class, noise 0.3,
50-degree shift) for the full default step budget, once per seed in
``BENCHMARK_SEEDS``, and taking the median over seeds of the final
target-split accuracy.  Accuracies are percentages.

The numbers are frozen here so that regressions are visible: retraining
with the shipped defaults must reproduce them (the acceptance suite
re-measures and compares).  To regenerate after an intentional change to
the defaults, run the training grid yourself, e.g.::

    import dataclasses, numpy as np
    from lrco.config import default_run_config
    from lrco.data import generate_shift_benchmark
    from lrco.trainer import fit

    base = default_run_config()
    accs = []
    for seed in range(5):
        bench = generate_shift_benchmark(dataclasses.replace(base.data, seed=seed))
        cfg = dataclasses.replace(base.train, method="mixlrco", seed=seed)
        res = fit(bench, base.augment, cfg, hidden_dims=base.model.hidden_dims,
                  feature_dim=base.model.feature_dim)
        accs.append(100.0 * [r.accuracy for r in res.history if r.split == "target"][-1])
    print(np.median(accs))

and update the matching constant.
"""

# Seeds used for every median below.
BENCHMARK_SEEDS = (0, 1, 2, 3, 4)

# Median final target accuracy (percent) per training method.
BENCHMARK_TARGET_MEDIANS = {
    "source_only": 88.33333333333333,
    "baseline": 88.66666666666667,
    "strong": 94.0,
    "lrco": 95.0,
    "mixlrco": 95.66666666666667,
}

# Same protocol with one ingredient of the contrastive pipeline replaced.
# Keys name the replacement, values are the median target accuracy.
ABLATION_TARGET_MEDIANS = {
    # lrco, but positives drawn from confident samples instead of uncertain ones
    "high_confidence_positives": 94.33333333333334,
    # lrco, but contrastive features taken straight from the encoder
    # (no classifier-weight re-representation)
    "raw_features": 94.66666666666667,
    # mixlrco, but the mixing coefficient is used as drawn instead of being
    # folded toward the target domain
    "no_dominance_mixup": 94.0,
}
