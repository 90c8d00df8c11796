"""lrco benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --digests

Run from the root of a checkout. It imports lrco from ``src/`` and exits with
code 1 if that is missing. It prints the checks, the environment and every
metric with its unit. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics. ``--trace 1`` runs the workload untraced and then
traced for half the time each, and reports the per-layer metrics. Work files
and the traced run's spans go to ``perfbench/out/``. ``--digests`` prints
each method's digest next to the ROADMAP baseline table.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads; set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 9

if __name__ == "__main__" and not (SRC / "lrco" / "__init__.py").is_file():
    sys.exit(f"error: lrco sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from lrco import data  # noqa: E402
from calibrate import NOMINAL_S, reference_span_s, reference_times  # noqa: E402
from spans import (  # noqa: E402
    Patcher, SpanTable, StepClock, Tracer, install_tracing, per_layer_metrics, perf,
)
from workloads import (  # noqa: E402
    WORKLOADS, Outcome, Scale, TrainWorkload, fit_config, fit_digest, run_config,
)

WORKLOAD_NAMES = tuple(WORKLOADS)

# ROADMAP.md "Baseline" digests (seed 0, default config, 600 steps). They
# depend on the platform and on a byte layout the ROADMAP does not state, so
# they are shown for information only and never checked.
ROADMAP_DIGESTS = {
    "source_only": "03928cf98d68e4ec", "baseline": "2b9d9448ee32c95d",
    "strong": "bd6f30317b77d5f9", "lrco": "428908fcd120b88f",
    "mixlrco": "31e1d9488f24a002",
}


def environment() -> list[str]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ[v]}" for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return [
        f"env python={sys.version.split()[0]} numpy={np.__version__}",
        f"env blas={blas.get('name')} {blas.get('version')} {threads}",
        f"env nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()}",
    ]


def loadavg() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def measure_setup(method: str, seed: int) -> tuple[float, float, float]:
    """Medians over SETUP_PROBES fresh processes of the time from process
    start to "ready": CPU seconds at the reference speed, CPU seconds, wall
    seconds."""
    ref_s, cpu_s, wall_s = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = perf()
        with subprocess.Popen([sys.executable, str(BENCH_DIR / "setup_probe.py"), method,
                               str(seed)], cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            word, *reported = proc.stdout.readline().split()
            wall_s.append(perf() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if word != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        setup_cpu, kernel_s = map(float, reported)
        cpu_s.append(setup_cpu)
        ref_s.append(setup_cpu * NOMINAL_S / kernel_s)
    return statistics.median(ref_s), statistics.median(cpu_s), statistics.median(wall_s)


def run_phase(workload, seconds: float, min_ops: int, outcome, tracer=None,
              calibrated=False):
    """Run operations until `seconds` have passed and at least `min_ops` ran.
    Returns the results, the StepClock and, for each result, the number of
    steps completed before and after its operation."""
    patcher, clock = Patcher(), StepClock(calibrated)
    clock.install(patcher)
    if tracer is not None:
        install_tracing(tracer, patcher)
        workload.tracer = tracer
    results, ranges = [], []
    try:
        deadline = perf() + seconds
        i = 0
        while i < min_ops or perf() < deadline:
            if tracer is not None:
                tracer.op_id = i
            first = len(clock.cpu)
            with tracer.span("bench.op") if tracer is not None else contextlib.nullcontext():
                result = outcome.attempt(f"operation {i}", lambda: workload.op(i, outcome))
            if result is not None:
                results.append(result)
                ranges.append((first, len(clock.cpu)))
            i += 1
    finally:
        patcher.restore()
        workload.tracer = None
    return results, clock, ranges


def check_tracing_neutral(workload, outcome) -> None:
    """A short run gives the same digest with and without tracing."""
    case = workload.neutrality_case()
    plain = outcome.attempt("untraced short run", case)
    patcher = Patcher()
    install_tracing(Tracer(), patcher)
    try:
        traced = outcome.attempt("traced short run", case)
    finally:
        patcher.restore()
    outcome.check("traced and untraced short runs give equal digests",
                  plain is not None and plain == traced, f"untraced={plain} traced={traced}")


def steps_per_s(results, clock: str = "cpu") -> float:
    return sum(r.steps for r in results) / sum(getattr(r, clock) for r in results)


def run(name: str, seed: int, seconds: float, trace: bool, scale=None):
    """One benchmark run. Returns (lines, result, tracer or None)."""
    scale = scale or Scale()
    outcome = Outcome()
    lines = [f"workload {name} seed={seed} seconds={seconds:g} trace={int(trace)}",
             *environment(), f"env loadavg_start={loadavg()}"]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    workload = WORKLOADS[name](seed, scale, workdir)
    tracer = None
    metrics: dict[str, tuple[float, str]] = {}
    try:
        if not trace:
            setup_ref, setup_cpu, setup_wall = measure_setup(workload.method, seed)
            metrics["setup_s"] = (setup_ref, "s")
        check_tracing_neutral(workload, outcome)
        workload.setup(outcome)
        if not trace:
            results, clock, ranges = run_phase(workload, seconds, workload.min_ops,
                                               outcome, calibrated=True)
        else:
            results, _, _ = run_phase(workload, seconds / 2, 1, outcome)
            tracer = Tracer()
            traced, _, _ = run_phase(workload, seconds / 2, 1, outcome, tracer)
            plain = {r.key: r.digest for r in results}
            for r in traced:
                if r.key in plain:
                    outcome.check(f"traced and untraced {r.key} give equal digests",
                                  r.digest == plain[r.key], f"{plain[r.key]} {r.digest}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not results or (trace and not traced):
        raise RuntimeError("no operation completed")

    for r in results:
        extra = ""
        if r.key == "seed=0" and scale.fit_steps is None and isinstance(workload, TrainWorkload):
            extra = (f" roadmap_baseline={ROADMAP_DIGESTS[workload.method]}"
                     " (platform-dependent, informational)")
        lines.append(f"op {r.key} wall_s={r.wall:.4f} cpu_s={r.cpu:.4f} steps={r.steps} "
                     f"quality_pct={r.quality:.4f} digest={r.digest}{extra}")

    if trace:
        table = SpanTable(tracer)
        metrics.update(per_layer_metrics(table, steps_per_s(results), steps_per_s(traced)))
        tracer.save(OUT / f"trace-{name}-seed{seed}.npz")
        lines.append(f"trace spans={len(table.dur)} ops={len(traced)} "
                     f"wall_s={table.roots_wall():.4f} written to perfbench/out/")
    else:
        ms = [1e3 * s for s in clock.cpu]
        wall_ms = [1e3 * s for s in clock.wall]
        ref_ms = [1e3 * s for s in reference_times(clock.cpu, clock.kernel_at)]
        metrics["step_ref_ms_p50"] = (statistics.median(ref_ms), "ms")
        op_ref_s = [reference_span_s(r.cpu, clock.kernel_at, *span)
                    for r, span in zip(results, ranges)]
        metrics["op_ref_s_p50"] = (statistics.median(op_ref_s), "s")
        metrics["quality_pct"] = (workload.quality(results, outcome), "%")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["ok_rate"] = (1.0 - outcome.failed / outcome.attempted, "ratio")
        kernel_us = [1e6 * k for _, k in clock.kernel_at]
        lines.append(f"samples ops={len(results)} steps={len(ms)} "
                     f"kernel_calls={len(kernel_us)}")
        lines.append(f"reference kernel us: nominal={1e6 * NOMINAL_S:.6g} "
                     f"median={statistics.median(kernel_us):.6g} "
                     f"p10={statistics.quantiles(kernel_us, n=10)[0]:.6g} "
                     f"p90={statistics.quantiles(kernel_us, n=10)[8]:.6g} "
                     f"step_ref_ms_p90={statistics.quantiles(ref_ms, n=10)[8]:.6g}")
        lines.append("informational (not metrics: they follow the host's fast and slow phases) "
                     f"setup_cpu_s={setup_cpu:.6g} "
                     f"step_cpu_ms_p90={statistics.quantiles(ms, n=10)[8]:.6g} "
                     f"steps_per_cpu_s={steps_per_s(results):.6g} "
                     f"step_cpu_ms_p50={statistics.median(ms):.6g} "
                     f"op_cpu_s_p50={statistics.median(r.cpu for r in results):.6g}")
        lines.append(f"informational wall-clock setup_s={setup_wall:.6g} "
                     f"steps_per_s={steps_per_s(results, 'wall'):.6g} "
                     f"step_ms_p50={statistics.median(wall_ms):.6g} "
                     f"step_ms_p90={statistics.quantiles(wall_ms, n=10)[8]:.6g} "
                     f"op_s_p50={statistics.median(r.wall for r in results):.6g}")
    lines.append("note: one process, no queue or lock: no layer waits, so no waited time is reported")
    lines += outcome.lines
    lines.append(f"ops attempted={outcome.attempted} failed={outcome.failed} "
                 f"error_rate={outcome.failed / outcome.attempted:.6f} "
                 f"known_defects={outcome.known} (reported above, not counted in failed)")
    lines.append(f"env loadavg_end={loadavg()}")
    for key, (value, unit) in metrics.items():
        lines.append(f"metric {key} = {value:.6g} {unit}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result, tracer


def print_digest_table() -> None:
    for method, roadmap in ROADMAP_DIGESTS.items():
        cfg = run_config(method, 0)
        bench = data.generate_shift_benchmark(cfg.data)
        result = fit_config(cfg, bench)
        print(f"digest method={method} seed=0 steps={result.steps_run} ours={fit_digest(result)} "
              f"roadmap_baseline={roadmap} (platform-dependent, informational)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.digests and args.workload is None:
        parser.error("--workload is required")
    if args.digests:
        print_digest_table()
        return 0
    lines, result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
