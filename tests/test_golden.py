"""Golden trajectory digests: a refactor is neutral only if these stay equal.

Each method trains on the default run config (seed 0, the default 600 steps)
and the run is reduced to the first 16 hex characters of a sha256 over the
final student arrays, the final teacher arrays, the bank snapshot and the
metric lines. Any change to a floating-point expression, a random draw or
the order of either moves the digest.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from lrco.config import default_run_config
from lrco.data import generate_shift_benchmark
from lrco.model import state_arrays
from lrco.trainer import fit, metric_record_line

# Recorded with Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31 (x86-64).
# The digests depend on the numpy and BLAS build; on another platform they
# may differ without any change to the code.
GOLDEN_DIGESTS = {
    "source_only": "5507ed935dbe97ef",
    "baseline": "b7193a84db722b9b",
    "strong": "ffbf06578c16d728",
    "lrco": "fc074f35eabe00c8",
    "mixlrco": "abc34c9b88830cca",
}


def trajectory_digest(result) -> str:
    h = hashlib.sha256()
    for prefix, state in (("student/", result.student), ("teacher/", result.teacher)):
        for name, arr in state_arrays(state, prefix).items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(b"bank")
    h.update(np.ascontiguousarray(result.bank.snapshot(), dtype=np.float64).tobytes())
    for rec in result.history:
        h.update((metric_record_line(rec) + "\n").encode())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def default_benchmark():
    return generate_shift_benchmark(default_run_config().data)


@pytest.mark.parametrize("method", sorted(GOLDEN_DIGESTS))
def test_trajectory_digest_unchanged(method, default_benchmark):
    base = default_run_config()
    cfg = dataclasses.replace(base.train, method=method)
    result = fit(default_benchmark, base.augment, cfg,
                 hidden_dims=base.model.hidden_dims, feature_dim=base.model.feature_dim)
    assert result.steps_run == 600
    assert trajectory_digest(result) == GOLDEN_DIGESTS[method]
