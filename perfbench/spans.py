"""Span recording for the traced run, applied to lrco from outside.

Nothing under ``src/`` knows about tracing. :func:`install_tracing` replaces
public functions with timing wrappers in the namespace where each consumer
looks them up (``lrco.trainer.weak_augment``, ``lrco.gradcheck.step_objective``,
``MemoryBank.snapshot``, ``Tensor.backward`` ...), and :class:`Patcher` puts
the originals back. Spans live in flat arrays in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

import calibrate

perf = time.perf_counter
cpu = time.process_time

# Methods whose step objective reads the teacher's pseudo-labels or the
# confidence split built from them (see trainer.step_objective).
PSEUDO_LABEL_READERS = frozenset({"strong", "lrco", "mixlrco"})


class Tracer:
    """In-memory span store: name, start, end, parent span and operation id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._step_teacher = None
        self._step_method = ""

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf()
        self._stack.pop()

    def wrap(self, fn, name, before=None, after=None):
        """Timing wrapper; ``name`` may be a function of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = tracer.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(result)
            return result

        return traced

    def span(self, name: str):
        return _Span(self, name)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(),
                            count_keys=np.array(sorted(self.counts)),
                            count_values=np.array([self.counts[k] for k in sorted(self.counts)]))


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


class Patcher:
    """Sets attributes on modules and classes and restores them, newest first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original_function)``."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class StepClock:
    """The untraced run's only hook: clock reads when a step begins and when
    it ends, in process CPU time and in wall time. A step runs from entry to
    ``trainer.prepare_step`` to return from ``trainer.train_step``. With
    `calibrated`, the reference kernel runs after every ``calibrate.EVERY``-th
    step, after the clock reads, and its times go to `kernel_at`."""

    def __init__(self, calibrated: bool = False):
        self.cpu = array("d")
        self.wall = array("d")
        self.calibrated = calibrated
        self.kernel_at: list[tuple[int, float]] = []
        self._t0 = self._c0 = 0.0

    def install(self, patcher: Patcher) -> None:
        from lrco import trainer

        clock = self

        def make_begin(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                clock._t0, clock._c0 = perf(), cpu()
                return fn(*args, **kwargs)
            return timed

        def make_end(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                result = fn(*args, **kwargs)
                clock.cpu.append(cpu() - clock._c0)
                clock.wall.append(perf() - clock._t0)
                if clock.calibrated and len(clock.cpu) % calibrate.EVERY == 0:
                    clock.kernel_at.append((len(clock.cpu), calibrate.kernel_s()))
                return result
            return timed

        patcher.replace(trainer, "prepare_step", make_begin)
        patcher.replace(trainer, "train_step", make_end)


def install_tracing(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every public function of each lrco module where it is looked up."""
    from lrco import (analysis, autodiff, cli, data, gradcheck, losses, membank,
                      model, numerics, trainer)

    def wrap(owner, attr, name, before=None, after=None):
        patcher.replace(owner, attr, lambda fn: tracer.wrap(fn, name, before, after))

    def count(owner, attr, key):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        patcher.replace(owner, attr, make)

    def forward(kind):
        graph, numpy_ = f"model.{kind}.graph", f"model.{kind}.numpy"
        return lambda args: graph if isinstance(args[0], model.ParamTensors) else numpy_

    # Per-step bookkeeping for trainer.teacher_use_ratio and n_low_per_step.
    def step_begins(args):
        tracer._step_teacher = args[1]
        tracer._step_method = args[7].method

    def step_prepared(sb):
        tracer._step_teacher = None
        tracer.counts["trainer.n_low"] += len(sb.low_idx)

    def teacher_pass(args):
        if tracer._step_teacher is not None and args[0] is tracer._step_teacher:
            tracer.counts["trainer.teacher_pass"] += 1
            if tracer._step_method in PSEUDO_LABEL_READERS:
                tracer.counts["trainer.teacher_pass_used"] += 1

    # numerics
    count(numerics.SeededRng, "__init__", "numerics.rng_constructed")
    wrap(numerics.SeededRng, "substream", "numerics.substream")
    wrap(losses, "sample_beta", "numerics.sample_beta")
    for owner in (trainer, gradcheck, analysis):
        wrap(owner, "normalize_last", "numerics.normalize_last")
    wrap(gradcheck, "relative_grad_error", "numerics.relative_grad_error")
    objective_eval = functools.partial(tracer.wrap, name="gradcheck.objective_eval")
    patcher.replace(gradcheck, "finite_diff_grad", lambda fn: tracer.wrap(
        functools.wraps(fn)(lambda f, p, h=1e-5: fn(objective_eval(f), p, h=h)),
        "numerics.finite_diff_grad"))

    # autodiff
    count(autodiff.Tensor, "__init__", "autodiff.nodes")
    wrap(autodiff.Tensor, "backward", "autodiff.backward")

    # model
    for owner in (trainer, gradcheck, analysis):
        wrap(owner, "features_of", forward("features_of"))
        wrap(owner, "probs_of", forward("probs_of"),
             before=teacher_pass if owner is trainer else None)
    for owner, names in ((trainer, ("lift_params", "tape_from", "ema_update", "init_model",
                                    "clone_state", "state_arrays")),
                         (gradcheck, ("compute_gradients", "with_param_vector",
                                      "get_param_vector", "init_model"))):
        for attr in names:
            wrap(owner, attr, f"model.{attr}")

    # data
    for owner in (trainer, gradcheck):
        wrap(owner, "weak_augment", "data.weak_augment")
    wrap(trainer, "strong_augment", "data.strong_augment")
    for owner in (trainer, cli):
        wrap(owner, "pack_inputs", "data.pack_inputs")
    wrap(trainer, "pack_labels", "data.pack_labels")
    for owner in (data, cli):
        wrap(owner, "generate_shift_benchmark", "data.generate_shift_benchmark")
    wrap(data.ShiftBenchmark, "target_eval_samples", "data.target_eval_samples")
    wrap(data.ShiftBenchmark, "labeled_pool", "data.labeled_pool")

    # losses (the trainer and gradcheck call them as attributes of the module)
    for attr in ("make_pseudo_label", "draw_mix", "contrastive_batch", "mixlrco_batch",
                 "re_represent_batch", "cross_entropy_batch", "entropy_alignment",
                 "kld_uniform_batch"):
        wrap(losses, attr, f"losses.{attr}")
    for attr in ("draw_mix", "re_represent_batch"):
        wrap(analysis, attr, f"losses.{attr}")

    # membank
    wrap(membank.MemoryBank, "snapshot", "membank.snapshot")
    wrap(membank.MemoryBank, "push_batch", "membank.push_batch")
    wrap(membank.MemoryBank, "from_state_arrays", "membank.from_state_arrays")
    wrap(membank.MemoryBank, "state_arrays", "membank.state_arrays")

    # trainer (fit looks its helpers up in the trainer module; gradcheck and
    # cli imported some of them by name)
    wrap(trainer, "prepare_step", "trainer.prepare_step",
         before=step_begins, after=step_prepared)
    for attr in ("train_step", "step_objective", "sgd_step", "adjust_tau", "evaluate",
                 "save_checkpoint", "load_checkpoint", "fit"):
        wrap(trainer, attr, f"trainer.{attr}")
    for attr in ("prepare_step", "step_objective"):
        wrap(gradcheck, attr, f"trainer.{attr}")
    for attr in ("fit", "evaluate", "load_checkpoint"):
        wrap(cli, attr, f"trainer.{attr}")

    # analysis, as the CLI calls it
    for attr in ("split_by_confidence", "confidence_feature_vectors", "similarity_stats",
                 "mixed_topk_curves", "project_2d", "write_similarity_csv",
                 "write_topk_csv", "write_projection_csv"):
        wrap(cli, attr, f"analysis.{attr}")

    # config, as the CLI calls it
    for attr in ("load_config", "apply_overrides", "default_run_config", "canonical_text",
                 "config_hash", "dynamics_hash"):
        wrap(cli, attr, f"config.{attr}")

    # gradcheck
    wrap(gradcheck, "check_instance", "gradcheck.check_instance")


# Analysis of a finished trace ------------------------------------------------

LAYERS = ("numerics", "autodiff", "model", "data", "losses", "membank", "trainer",
          "analysis", "gradcheck", "config", "cli", "bench")


class SpanTable:
    """Durations, self times and group sums over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name_id, self.parent, self.op = a["name_id"], a["parent"], a["op"]
        self.start, self.end = a["start"], a["end"]
        self.dur = self.end - self.start
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered
        self.counts = tracer.counts

    def mask(self, predicate) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if predicate(n)]
        return np.isin(self.name_id, ids)

    def calls(self, *names) -> int:
        return int(self.mask(lambda n: n in names).sum())

    def total(self, *names) -> float:
        """Wall seconds inside any of the named spans, counting nested ones once."""
        m = self.mask(lambda n: n in names)
        outer = m & ~self._has_ancestor_in(m)
        return float(self.dur[outer].sum())

    def self_total(self, predicate) -> float:
        return float(self.self_time[self.mask(predicate)].sum())

    def _has_ancestor_in(self, m: np.ndarray) -> np.ndarray:
        found = np.zeros(len(m), dtype=bool)
        p = self.parent.copy()
        while True:
            live = p >= 0
            if not live.any():
                return found
            found[live] |= m[p[live]]
            p[live] = self.parent[p[live]]

    def roots_wall(self) -> float:
        return float(self.dur[self.parent < 0].sum())

    def nesting_errors(self) -> list[str]:
        """Spans that are unclosed, cross an operation, or leave their parent."""
        errors = []
        if np.any(self.dur < 0):
            errors.append(f"{int((self.dur < 0).sum())} spans end before they start")
        child = np.flatnonzero(self.parent >= 0)
        p = self.parent[child]
        outside = (self.start[child] < self.start[p]) | (self.end[child] > self.end[p])
        if outside.any():
            errors.append(f"{int(outside.sum())} spans lie outside their parent")
        if np.any(self.op[child] != self.op[p]):
            errors.append("a span and its parent belong to different operations")
        return errors


def per_layer_metrics(table: SpanTable, steps_per_s_untraced: float,
                      steps_per_s_traced: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json. A "step" is one
    ``trainer.prepare_step`` call; a ratio with no calls behind it reads 0."""
    c = table.counts
    steps = table.calls("trainer.prepare_step")
    instances = table.calls("gradcheck.check_instance")

    def per(value, n):
        return value / n if n else 0.0

    def ms_per_step(*names):
        return per(1e3 * table.total(*names), steps)

    def ms_per_call(*names):
        return per(1e3 * table.total(*names), table.calls(*names))

    def self_ms_per_step(name):
        return per(1e3 * table.self_total(lambda n: n == name), steps)

    analysis_s = table.total(*[n for n in table.names if n.startswith("analysis.")])
    config_s = table.total(*[n for n in table.names if n.startswith("config.")])
    cli_commands = table.calls("cli.train", "cli.resume", "cli.eval", "cli.analyze",
                               "cli.gradcheck")
    objective_evals = table.calls("gradcheck.objective_eval")
    teacher_passes = c["trainer.teacher_pass"]
    wall = table.roots_wall()

    m = {
        "autodiff.backward.ms_per_step": (ms_per_step("autodiff.backward"), "ms"),
        "autodiff.nodes_per_step": (per(c["autodiff.nodes"], steps), "count"),
        "membank.snapshot.ms_per_step": (ms_per_step("membank.snapshot"), "ms"),
        "membank.push.ms_per_step": (ms_per_step("membank.push_batch"), "ms"),
        "membank.restore.ms": (ms_per_call("membank.from_state_arrays"), "ms"),
        "losses.pseudo_label.ms_per_step": (ms_per_step("losses.make_pseudo_label"), "ms"),
        "losses.pseudo_label.calls_per_step": (
            per(table.calls("losses.make_pseudo_label"), steps), "count"),
        "losses.contrastive.ms_per_step": (ms_per_step(
            "losses.contrastive_batch", "losses.mixlrco_batch",
            "losses.re_represent_batch"), "ms"),
        "losses.supervised.ms_per_step": (ms_per_step(
            "losses.cross_entropy_batch", "losses.entropy_alignment",
            "losses.kld_uniform_batch"), "ms"),
        "losses.draw_mix.calls_per_step": (per(table.calls("losses.draw_mix"), steps), "count"),
        "model.forward_graph.ms_per_step": (ms_per_step(
            "model.features_of.graph", "model.probs_of.graph"), "ms"),
        "model.forward_numpy.ms_per_step": (ms_per_step(
            "model.features_of.numpy", "model.probs_of.numpy"), "ms"),
        "model.ema_update.ms_per_step": (ms_per_step("model.ema_update"), "ms"),
        "data.augment.ms_per_step": (ms_per_step("data.weak_augment", "data.strong_augment"), "ms"),
        "data.pack.ms_per_call": (ms_per_call("data.pack_inputs"), "ms"),
        "numerics.rng_constructed_per_step": (per(c["numerics.rng_constructed"], steps), "count"),
        "trainer.prepare_step.self_ms_per_step": (self_ms_per_step("trainer.prepare_step"), "ms"),
        "trainer.step_objective.self_ms_per_step": (self_ms_per_step("trainer.step_objective"), "ms"),
        "trainer.train_step.self_ms_per_step": (self_ms_per_step("trainer.train_step"), "ms"),
        "trainer.sgd_step.self_ms_per_step": (self_ms_per_step("trainer.sgd_step"), "ms"),
        "trainer.evaluate.ms_per_call": (ms_per_call("trainer.evaluate"), "ms"),
        "trainer.save_checkpoint.ms_per_call": (ms_per_call("trainer.save_checkpoint"), "ms"),
        "trainer.load_checkpoint.ms_per_call": (ms_per_call("trainer.load_checkpoint"), "ms"),
        "trainer.teacher_use_ratio": (
            c["trainer.teacher_pass_used"] / teacher_passes if teacher_passes else 1.0, "ratio"),
        "trainer.n_low_per_step": (per(c["trainer.n_low"], steps), "count"),
        "analysis.ms_per_call": (per(1e3 * analysis_s, table.calls("cli.analyze")), "ms"),
        "config.ms_per_command": (per(1e3 * config_s, cli_commands), "ms"),
        "cli.train.s": (per(table.total("cli.train"), table.calls("cli.train")), "s"),
        "cli.resume.s": (per(table.total("cli.resume"), table.calls("cli.resume")), "s"),
        "cli.eval.s": (per(table.total("cli.eval"), table.calls("cli.eval")), "s"),
        "cli.analyze.s": (per(table.total("cli.analyze"), table.calls("cli.analyze")), "s"),
        "cli.gradcheck.s": (per(table.total("cli.gradcheck"), table.calls("cli.gradcheck")), "s"),
        "gradcheck.objective_evals_per_instance": (per(objective_evals, instances), "count"),
        "gradcheck.objective_eval.us": (
            per(1e6 * table.total("gradcheck.objective_eval"), objective_evals), "us"),
        "gradcheck.finite_diff.ms_per_instance": (
            per(1e3 * table.total("numerics.finite_diff_grad"), instances), "ms"),
    }
    for layer in LAYERS:
        share = table.self_total(lambda n, layer=layer: n.split(".", 1)[0] == layer)
        m[f"{layer}.self_pct"] = (100.0 * per(share, wall), "%")
    m["trace.overhead_pct"] = (
        100.0 * (per(steps_per_s_untraced, steps_per_s_traced) - 1.0), "%")
    return m
