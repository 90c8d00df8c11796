"""Golden trajectory digests: a refactor is neutral only if these stay equal.

Each case trains on the default run config (seed 0, the default 600 steps)
and the run is reduced to the first 16 hex characters of a sha256 over the
final student arrays, the final teacher arrays, the bank snapshot and the
metric lines. Any change to a floating-point expression, a random draw or
the order of either moves the digest.

A case is named by its settings, comma-separated: first the method, then
any value that differs from the default. A setting is a ``train.*`` key
unless it names its section. Each method runs with the defaults; the other
cases pin the non-default values of the ablation switches, the dynamic
threshold, and the semi-supervised setting (labeled target rows in the
labeled pool). Each case trains on the benchmark of its own data config,
through the session cache in conftest.py that the acceptance grids share.
"""

import pytest

from conftest import trajectory_digest
from lrco.config import apply_overrides, default_run_config
from lrco.trainer import (
    METHOD_TERMS, METHODS, MIXUP_MODES, PSEUDO_LABEL_METHODS, REREP_MODES, SAMPLE_SELECTIONS,
)

# Recorded with Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31 (x86-64).
# The digests depend on the numpy and BLAS build; on another platform they
# may differ without any change to the code.
GOLDEN_DIGESTS = {
    "source_only": "5507ed935dbe97ef",
    "baseline": "39a01c13e2536b7d",
    "strong": "7e919a78788628b0",
    "lrco": "5897b9317144a46c",
    "mixlrco": "843cdad5c56c4572",
    "lrco,sample_selection=high": "6ecb78f553b6de56",
    "lrco,sample_selection=all": "fe9804ad9bc889ee",
    "lrco,rerep_mode=raw": "275897210d4f0298",
    "mixlrco,sample_selection=high": "49de367aa8e8bfc7",
    "mixlrco,mixup_mode=no_dominance": "da32a2299ca43759",
    "mixlrco,dynamic_tau=true": "0d55a593b94918d1",
    "lrco,data.n_labeled_target_per_class=3": "791c4df589bcd35c",
    "mixlrco,data.n_labeled_target_per_class=3": "c913cc9ff3be724d",
}


def golden_config(case: str):
    """The default run config with the case's settings applied; a setting
    whose key names no section is a ``train.*`` one."""
    method, *settings = case.split(",")
    return apply_overrides(default_run_config(), [
        f"train.method={method}",
        *(s if "." in s.partition("=")[0] else f"train.{s}" for s in settings),
    ])


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_trajectory_digest_unchanged(case, trained):
    _, result, _ = trained(golden_config(case))
    assert result.steps_run == 600
    assert trajectory_digest(result) == GOLDEN_DIGESTS[case]


def test_every_config_value_is_pinned():
    # switch -> (its values, the methods that read it). A value counts only
    # in cases whose method reads the switch, so it is pinned by a run where
    # it changes the trajectory.
    contrastive = tuple(m for m, terms in METHOD_TERMS.items()
                        if "bank" in terms or "mix" in terms)
    mixing = tuple(m for m, terms in METHOD_TERMS.items() if "mix" in terms)
    switches = {
        "method": (METHODS, METHODS),
        "sample_selection": (SAMPLE_SELECTIONS, contrastive),
        "rerep_mode": (REREP_MODES, contrastive),
        "mixup_mode": (MIXUP_MODES, mixing),
        "dynamic_tau": ((False, True), PSEUDO_LABEL_METHODS),
    }
    cfgs = [golden_config(case) for case in GOLDEN_DIGESTS]
    for name, (values, methods) in switches.items():
        pinned = {getattr(c.train, name) for c in cfgs if c.train.method in methods}
        missing = set(values) - pinned
        assert not missing, f"train.{name}: no golden case for {missing}"
    assert any(c.data.n_labeled_target_per_class > 0 for c in cfgs), \
        "no golden case with labeled target rows"
