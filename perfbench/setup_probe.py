"""Set-up probe, run as its own process by run.py to time set-up.

Imports lrco from the checkout, resolves the config for a method and seed,
generates the benchmark and runs `fit` with zero steps (everything before the
first training step), then prints "ready", the process CPU seconds used so
far and the median CPU seconds of the reference kernel (calibrate.py),
measured right after.

    python3 perfbench/setup_probe.py METHOD SEED
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lrco import cli, config, data, gradcheck, trainer  # noqa: E402,F401

from calibrate import median_kernel_s  # noqa: E402

KERNEL_CALLS = 41

method, seed = sys.argv[1], int(sys.argv[2])
cfg = config.apply_overrides(config.default_run_config(), [
    f"train.method={method}", f"train.seed={seed}", f"data.seed={seed}", "train.total_steps=0"])
cfg.validate()
bench = data.generate_shift_benchmark(cfg.data)
trainer.fit(bench, cfg.augment, cfg.train, hidden_dims=cfg.model.hidden_dims,
            feature_dim=cfg.model.feature_dim)
setup_cpu = time.process_time()
print(f"ready {setup_cpu!r} {median_kernel_s(KERNEL_CALLS)!r}", flush=True)
