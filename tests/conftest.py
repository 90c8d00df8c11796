"""Fixtures shared across test modules.

``trained`` is one session-wide cache of full training runs keyed by the
run config: the golden digests and the acceptance grids read the same
fits, so each config trains once per session.
"""

import hashlib
import time

import numpy as np
import pytest

from lrco.data import generate_shift_benchmark
from lrco.model import state_arrays
from lrco.trainer import fit, metric_record_line


def trajectory_digest(result) -> str:
    """The first 16 hex characters of a sha256 over a fit's final student
    and teacher arrays, its bank snapshot and its metric lines."""
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


@pytest.fixture(scope="session")
def trained():
    """trained(cfg) -> (benchmark, FitResult, seconds) for a RunConfig. The
    first call trains, later calls return the same objects; the benchmark is
    generated once per data config. No test may write into a result: at
    teardown every result's digest must still equal the one taken when it
    was trained."""
    benchmarks, runs, digests = {}, {}, {}

    def get(cfg):
        if cfg not in runs:
            if cfg.data not in benchmarks:
                benchmarks[cfg.data] = generate_shift_benchmark(cfg.data)
            bench = benchmarks[cfg.data]
            t0 = time.perf_counter()
            result = fit(bench, cfg.augment, cfg.train, hidden_dims=cfg.model.hidden_dims,
                         feature_dim=cfg.model.feature_dim)
            runs[cfg] = (bench, result, time.perf_counter() - t0)
            digests[cfg] = trajectory_digest(result)
        return runs[cfg]

    yield get
    changed = [f"{cfg.data} {cfg.train}" for cfg, (_, result, _) in runs.items()
               if trajectory_digest(result) != digests[cfg]]
    if changed:
        pytest.fail(f"{len(changed)} cached fits changed after training: {changed}")
