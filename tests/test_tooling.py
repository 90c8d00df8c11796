"""The benchmark's tracer patches lrco from outside, by attribute name; every
name it patches must exist, and restoring must put every original back. The
package decides what a method does from trainer.METHOD_TERMS alone, which
only the config check and the step's plan read, only model.py builds a
state's arrays, no top-level function or class is left that nothing names,
every function of tests/oracles.py has a test that uses it, __all__ lists
the package's public imports, every written float and line ending goes
through one format, the golden and acceptance tests train through the
shared cache, only the step hands the contrastive branch its bank, whose
rows the bank checked, while only the reference heads check a bank's rows,
and lift_params builds the only parameter leaves.
Every committed BENCH_*.json record parses and carries the keys that all of
them share, a claim's numeric fields equal what its raw pairs give, and the
bench ledger lists every record. A traced short run gives the untraced
digests."""

import ast
import importlib
import inspect
import json
import pathlib
import statistics
import subprocess
import sys

import lrco
from lrco import (
    analysis, autodiff, cli, data, gradcheck, losses, membank, model, numerics,
    trainer,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PATCHED = (analysis, autodiff, cli, data, gradcheck, losses, membank, model, numerics,
           trainer, numerics.SeededRng, autodiff.Tensor, membank.MemoryBank,
           data.ShiftBenchmark)


def test_perfbench_patches_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = [dict(vars(owner)) for owner in PATCHED]

    patcher = spans.Patcher()
    try:
        spans.StepClock().install(patcher)
        spans.install_tracing(spans.Tracer(), patcher)
        assert trainer.prepare_step is not before[PATCHED.index(trainer)]["prepare_step"]
        assert losses.draw_mix is not before[PATCHED.index(losses)]["draw_mix"]
    finally:
        patcher.restore()

    for owner, saved in zip(PATCHED, before):
        now = vars(owner)
        assert set(now) == set(saved), owner
        changed = [name for name in saved if now[name] is not saved[name]]
        assert not changed, (owner, changed)


def test_perfbench_traced_runs_give_the_untraced_digests(monkeypatch, tmp_path):
    # the tracer reads some names only when a wrapped function runs:
    # model.ParamTensors in its forward spans, and prepare_step's positional
    # teacher (args[1]) and cfg (args[7]). A short fit of each method and one
    # gradcheck instance run them, with the step clock and the tracer
    # installed, and must give the untraced digests, as the benchmark's own
    # neutrality check (run.check_tracing_neutral) asks
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    runs = {method: workloads.TrainWorkload(method, 1, 0, workloads.TINY, str(tmp_path))
            .neutrality_case() for method in trainer.METHODS}
    runs["gradcheck"] = lambda: repr(gradcheck.check_instance(0).errors)
    plain = {name: run() for name, run in runs.items()}
    tracer, patcher = spans.Tracer(), spans.Patcher()
    try:
        spans.StepClock().install(patcher)
        spans.install_tracing(tracer, patcher)
        traced = {name: run() for name, run in runs.items()}
    finally:
        patcher.restore()
    assert traced == plain
    # the call-time lookups ran: a forward span named by its argument's type,
    # and the teacher passes of the methods that read pseudo-labels
    assert {"model.features_of.numpy", "trainer.prepare_step"} <= set(tracer.names)
    assert tracer.counts["trainer.teacher_pass_used"] > 0


def test_perfbench_pseudo_label_readers_match_the_trainer(monkeypatch):
    # trainer.teacher_use_ratio counts a teacher pass as used when its
    # method is one the benchmark lists; the trainer runs it for exactly those
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.PSEUDO_LABEL_READERS == set(trainer.PSEUDO_LABEL_METHODS)


def _method_name_compares(source: str) -> list[int]:
    """Line numbers of the comparisons with a method name as an operand, as
    a string constant or inside a tuple, list or set display."""
    def names_a_method(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(names_a_method, node.elts))
        return isinstance(node, ast.Constant) and node.value in trainer.METHODS

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(map(names_a_method, [node.left, *node.comparators]))]


def test_no_method_name_is_compared_outside_the_terms_table():
    # a method's behaviour is read from METHOD_TERMS; a comparison with a
    # method's name would decide it a second time
    found = {path.name: lines for path in sorted((ROOT / "src" / "lrco").glob("*.py"))
             if (lines := _method_name_compares(path.read_text(encoding="utf-8")))}
    assert not found, found
    sample = 'a = m in ("x", "lrco")\nb = m < 2\nc = "strong" != m\nd = {"lrco"} == m\n'
    assert _method_name_compares(sample) == [1, 3, 4]


def _readers(source: str, name: str) -> list[str]:
    """The dotted names of the functions and classes whose code reads
    ``name``, as a name, an attribute or an imported name, "<module>" for a
    top-level statement."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if ((isinstance(child, ast.Name) and child.id == name
                 and isinstance(child.ctx, ast.Load))
                    or (isinstance(child, ast.Attribute) and child.attr == name)
                    or (isinstance(child, ast.alias) and child.name == name)):
                found.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_only_the_step_plan_reads_the_terms_table():
    # prepare_step decides a step's plan from METHOD_TERMS and records it in
    # the StepBatch; a step that reads the table again decides it twice
    source = (ROOT / "src" / "lrco" / "trainer.py").read_text(encoding="utf-8")
    readers = _readers(source, "METHOD_TERMS")
    assert set(readers) <= {"<module>", "TrainConfig.validate", "prepare_step"}, readers
    sample = ("METHOD_TERMS = {}\nA = tuple(m for m in METHOD_TERMS)\n\n"
              "class C:\n    def validate(self):\n        return METHOD_TERMS\n\n"
              "def f():\n    def g():\n        return METHOD_TERMS['x']\n    return g\n\n"
              "def h(terms=METHOD_TERMS):\n    return terms\n\n"
              "def k():\n    from trainer import METHOD_TERMS as t\n"
              "    return trainer.METHOD_TERMS\n")
    assert _readers(sample, "METHOD_TERMS") == ["<module>", "C.validate", "f.g", "h", "k"]


STATE_ARRAYS = ("weights", "biases", "classifier")


def _state_array_rebinds(source: str, in_model: bool) -> list[int]:
    """Line numbers of the calls of ModelState and of the assignments to an
    attribute weights, biases or classifier. In model.py, ModelState setting
    its own views (self.<name> = ...) and its constructor calls are allowed."""
    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            return [t for elt in node.elts for t in targets(elt)]
        return [node.value if isinstance(node, ast.Starred) else node]

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and not in_model:
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "ModelState":
                found.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in (t for each in assigned for t in targets(each)):
                if (isinstance(target, ast.Attribute) and target.attr in STATE_ARRAYS
                        and not (in_model and getattr(target.value, "id", None) == "self")):
                    found.append(node.lineno)
    return sorted(found)


def test_state_arrays_stay_views_of_params():
    # a state's weights, biases and classifier are views of its params, which
    # SGD and the EMA update; rebinding one would detach it from params
    found = {path.name: lines for path in sorted((ROOT / "src" / "lrco").glob("*.py"))
             if (lines := _state_array_rebinds(path.read_text(encoding="utf-8"),
                                               path.name == "model.py"))}
    assert not found, found
    sample = ("s = model.ModelState(p, l, 1.0, 1.0)\nm.weights = w\n"
              "a, m.classifier = c, d\nm.biases += b\nm.classifier[...] = c\n"
              "self.weights = w\n")
    assert _state_array_rebinds(sample, in_model=False) == [1, 2, 3, 4, 6]
    assert _state_array_rebinds(sample, in_model=True) == [2, 3, 4]


def _leaf_builders(source: str) -> list[str]:
    """The dotted name of the function or class, "<module>" at top level, of
    each call of Tensor (as a name or an attribute) that passes no parents
    (none, or an empty tuple) or no backward function (none, or None): each
    builds a node without a backward, a leaf."""
    found = []

    def missing(arg) -> bool:
        return (arg is None or (isinstance(arg, ast.Constant) and arg.value is None)
                or (isinstance(arg, ast.Tuple) and not arg.elts))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", getattr(child.func, "attr", None)) == "Tensor"):
                given = dict(zip(("value", "parents", "backward_fn"), child.args))
                given.update((kw.arg, kw.value) for kw in child.keywords)
                if missing(given.get("parents")) or missing(given.get("backward_fn")):
                    found.append(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_parameter_leaves_come_only_from_lift_params():
    # a step's graph holds parameter leaves and op nodes only; a leaf built
    # anywhere else would be a constant node, which nothing differentiates
    found = {path.stem: scopes for path in sorted((ROOT / "src" / "lrco").glob("*.py"))
             if (scopes := _leaf_builders(path.read_text(encoding="utf-8")))}
    assert found == {"model": ["lift_params"]}, found
    sample = ("a = ad.Tensor(x)\n\n"
              "def f(x):\n    return Tensor(x, (x,), g)\n\n"
              "def g(x):\n    return ad.Tensor(x, parents=(x,))\n\n"
              "class C:\n    def h(self, x):\n        return ad.Tensor(x, (), fn)\n\n"
              "def k(x):\n    return ad.Tensor(x, backward_fn=fn, parents=(x,))\n\n"
              "def m(x):\n    def n():\n        return ad.Tensor(x, (x,), None)\n"
              "    return n, isinstance(x, ad.Tensor)\n")
    assert _leaf_builders(sample) == ["<module>", "C.h", "g", "m.n"]


def _declared_domains(source: str) -> dict[str, bool]:
    """For each class in ``source`` with a field declared by within(...),
    whether its validate or its __post_init__ calls check_domains (as a name
    or an attribute), the only code that enforces a declared domain."""

    def called(node) -> str | None:
        return getattr(node.func, "id", getattr(node.func, "attr", None))

    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.AnnAssign) and isinstance(item.value, ast.Call)
                and called(item.value) == "within" for item in node.body):
            found[node.name] = any(
                isinstance(item, ast.FunctionDef) and item.name in ("validate", "__post_init__")
                and any(isinstance(call, ast.Call) and called(call) == "check_domains"
                        for call in ast.walk(item))
                for item in node.body)
    return found


def test_every_declared_domain_is_checked():
    # a within(...) field is a promise that check_domains keeps: a record
    # that declares a domain and never checks it lets any value through
    declared = {f"{path.stem}.{name}": checked
                for path in sorted((ROOT / "src" / "lrco").glob("*.py"))
                for name, checked in _declared_domains(path.read_text(encoding="utf-8")).items()}
    assert {"model.ModelState", "trainer.Checkpoint", "trainer.TrainConfig"} <= declared.keys()
    assert [name for name, checked in declared.items() if not checked] == [], declared
    sample = ("class A:\n    x: int = within('[0, 1]')\n\n"
              "    def validate(self, prefix=''):\n        check_domains(self, prefix)\n\n"
              "class B:\n    x: float = errors.within('(0, 1)', 0.5)\n\n"
              "    def __post_init__(self):\n        errors.check_domains(self)\n\n"
              "class C:\n    x: int = within('[0, 1]')\n    y: int = 3\n\n"
              "class D:\n    x: int = within('[0, 1]')\n\n"
              "    def check(self):\n        check_domains(self)\n\n"
              "class E:\n    x: int = field(default=0)\n\n"
              "    def validate(self):\n        pass\n")
    assert _declared_domains(sample) == {"A": True, "B": True, "C": False, "D": False}


# Top-level functions and classes of src/lrco, and public methods of its
# classes, that no other code there names, each with the reason it stays. A
# fused node that leaves the code it replaced behind, uncalled, fails the
# test below until that code goes or is listed here.
UNNAMED_ALLOWED = {
    "cli.main": "the console entry point",
    "losses.make_pseudo_label": "perfbench/spans.py wraps it by name (ROADMAP 1 (a))",
    "losses.cross_entropy_batch": "reference head: the step's node keeps the bits of its "
                                  "chain; perfbench/spans.py wraps it by name",
    "losses.entropy_alignment": "reference head: class_terms_batch keeps the bits of its "
                                "chain; perfbench/spans.py wraps it by name",
    "losses.kld_uniform_batch": "reference head, as entropy_alignment",
    "losses.contrastive_batch": "reference head: contrastive_branch keeps the bits of its "
                                "chain; perfbench/spans.py wraps it by name",
    "losses.mixlrco_batch": "reference head, as contrastive_batch",
    "numerics._DerivedSeed.generate_state": "numpy's ISeedSequence protocol: PCG64 calls it",
}


def _names(tree):
    """(name, line) of each name, attribute and imported name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, getattr(node, "lineno", 0)


def _unnamed_definitions(sources: dict) -> list:
    """module.name of each top-level function or class in ``sources`` (module
    name -> source), and module.Class.name of each public method of a
    top-level class, that no code outside its own definition names, as a
    name, an attribute or an imported name. __init__ is left out: its
    re-exports would name everything it exports."""
    trees = {mod: ast.parse(text) for mod, text in sources.items() if mod != "__init__"}
    named: dict = {}  # name -> [(module, line)]
    for mod, tree in trees.items():
        for name, line in _names(tree):
            named.setdefault(name, []).append((mod, line))
    definitions = []  # (module, dotted name, node)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((mod, node.name, node))
            if isinstance(node, ast.ClassDef):
                definitions += [(mod, f"{node.name}.{item.name}", item) for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("_")]
    found = []
    for mod, dotted, node in definitions:
        inside = range(node.lineno, node.end_lineno + 1)
        if all(m == mod and line in inside for m, line in named.get(node.name, ())):
            found.append(f"{mod}.{dotted}")
    return sorted(found)


def test_every_top_level_definition_is_named_or_listed():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "lrco").glob("*.py"))}
    found = _unnamed_definitions(sources)
    assert not set(found) - set(UNNAMED_ALLOWED), found
    for entry in UNNAMED_ALLOWED:  # the list names no code that is gone
        mod, *_, name = entry.split(".")
        assert f"def {name}(" in sources[mod], entry
    sample = {"a": "def f():\n    return f()\n\ndef g():\n    return h()\n\nclass C:\n    pass\n",
              "b": "from a import C\nimport a\nx = a.h\n\ndef h():\n    pass\n",
              "c": ("class D:\n    def m(self):\n        return self.m()\n\n"
                    "    def n(self):\n        pass\n\n    def _p(self):\n        pass\n\n"
                    "    def __call__(self):\n        pass\n\nD().n()\n"),
              "__init__": "from .a import f\n"}
    assert _unnamed_definitions(sample) == ["a.f", "a.g", "c.D.m"]


def test_only_the_step_reads_the_branch_and_only_the_reference_heads_check_a_bank():
    # contrastive_branch checks its bank's shape alone: its bank is the
    # step's MemoryBank snapshot, whose rows the bank checked when they were
    # pushed. The row-checking conform serves the reference heads, whose
    # bank may be any matrix; a new user of either could let an unchecked
    # row reach the loss
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "lrco").glob("*.py"))}

    def readers(name):
        return sorted(f"{mod}.{scope}" for mod, text in sources.items()
                      for scope in _readers(text, name))

    assert readers("contrastive_branch") == ["trainer.step_objective"]
    assert readers("_checked_bank") == ["losses.contrastive_batch", "losses.mixlrco_batch"]


def _unused_oracles(oracle_source: str, test_sources) -> list[str]:
    """The top-level functions and classes of ``oracle_source`` that none of
    ``test_sources`` names, as a name, an attribute or an imported name."""
    named = {name for text in test_sources for name, _ in _names(ast.parse(text))}
    return sorted(node.name for node in ast.parse(oracle_source).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in named)


def test_every_oracle_is_used_by_a_test():
    # tests/oracles.py holds the reference ops and the shared helpers; one
    # that no test names any more checks nothing
    tests = ROOT / "tests"
    found = _unused_oracles((tests / "oracles.py").read_text(encoding="utf-8"),
                            [path.read_text(encoding="utf-8")
                             for path in sorted(tests.glob("test_*.py"))])
    assert not found, found
    sample = ("def f():\n    return g()\n\ndef g():\n    pass\n\n"
              "def h():\n    pass\n\nclass C:\n    pass\n")
    assert _unused_oracles(sample, ["import oracles\nx = oracles.f\n",
                                    "from oracles import h as k\n"]) == ["C", "g"]


def test_the_public_list_equals_the_public_imports():
    # __init__ writes the package's public names twice: as its imports and
    # as __all__
    public = {name for name, value in vars(lrco).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(lrco.__all__) == sorted(public)


def _text_format_forks(sources: dict) -> list[tuple[str, int, str]]:
    """(module, line, fork) of each ".17g" string outside the definition of
    numerics.float_text, and of each call of the builtin open in a write mode
    without "b" that does not pass newline="\\n"; a mode that is not a
    constant counts as a write mode."""
    def defines_float_text(node) -> bool:
        targets = node.targets if isinstance(node, ast.Assign) else [node]
        return any(getattr(t, "id", getattr(t, "name", None)) == "float_text" for t in targets)

    found = []
    for mod, text in sources.items():
        tree = ast.parse(text)
        own = [range(node.lineno, node.end_lineno + 1) for node in tree.body
               if mod == "numerics" and defines_float_text(node)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and ".17g" in str(node.value)
                    and not any(node.lineno in lines for lines in own)):
                found.append((mod, node.lineno, ".17g"))
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
                continue
            keywords = {kw.arg: kw.value for kw in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            newline = keywords.get("newline")
            writes = mode is not None and (not isinstance(mode, ast.Constant) or (
                set(str(mode.value)) & set("wax") and "b" not in str(mode.value)))
            if writes and getattr(newline, "value", None) != "\n":
                found.append((mod, node.lineno, "newline"))
    return sorted(found)


def test_written_text_has_one_float_format_and_one_newline():
    # every file the package writes prints a float with numerics.float_text
    # and ends its lines with "\n" on every platform; a writer that chose
    # either again could fork the pinned bytes
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "lrco").glob("*.py"))}
    assert _text_format_forks(sources) == []
    sample = {"numerics": 'float_text = "{:.17g}".format\nx = f"{v:.17g}"\ny = float_text(v)\n',
              "a": ('def f(v):\n    return "%.17g" % v\n\n'
                    'with open(p, "w", encoding="utf-8") as fh:\n    pass\n'
                    'open(p, "wb")\nopen(p, mode="a", newline="\\n")\n'
                    'open(p, "w", newline="\\r\\n")\nopen(p)\nopen(p, "r")\n'
                    'open(p, m)\nopen(p, "x", newline="\\n")\n')}
    assert _text_format_forks(sample) == [("a", 2, ".17g"), ("a", 4, "newline"),
                                          ("a", 8, "newline"), ("a", 11, "newline"),
                                          ("numerics", 2, ".17g")]


def _fit_calls(source: str, allowed=()) -> list[int]:
    """Line numbers of the calls of fit, as a name or an attribute, outside
    the top-level functions named in ``allowed``."""
    tree = ast.parse(source)
    skip = [range(node.lineno, node.end_lineno + 1) for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in allowed]
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "fit"
                  and not any(node.lineno in lines for lines in skip))


def test_golden_and_acceptance_fits_go_through_the_session_cache():
    # a fit there would train a config that the cache in conftest.py may
    # already hold; ACCEPTANCE 10 tests a second fit and a resume, so it
    # trains its own
    tests = ROOT / "tests"
    assert _fit_calls((tests / "test_golden.py").read_text(encoding="utf-8")) == []
    assert _fit_calls((tests / "test_acceptance.py").read_text(encoding="utf-8"),
                      allowed=("test_10_determinism_and_resume",)) == []
    sample = ("r = fit(b, a, c)\n\ndef t():\n    return trainer.fit(b, a, c)\n\n"
              "def u():\n    fit(b, a, c)\n    fitted(b)\n")
    assert _fit_calls(sample) == [1, 4, 7]
    assert _fit_calls(sample, allowed=("u",)) == [1, 4]


# The keys every perf record at the root carries: what was measured, against
# which parent, by which command and protocol, on which machine, and the claim.
BENCH_KEYS = ("topic", "parent_commit", "command", "protocol", "environment", "claim")


def test_every_bench_record_parses_and_has_the_shared_keys():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(record, dict), path.name
        missing = [key for key in BENCH_KEYS if key not in record]
        assert not missing, (path.name, missing)


# The numeric fields of a claim, which its raw pairs must give.
CLAIM_FIELDS = ("before", "after", "better", "pairs", "parent_iqr")


def _claim_fields(record: dict, better: dict) -> dict:
    """CLAIM_FIELDS recomputed from the raw pairs of claim.metric on
    claim.workload: the parent and change medians, the pairs in which the
    change is better (``better`` maps each metric to "lower" or "higher"),
    the pair count and the parent's interquartile range (inclusive
    quartiles); each median and the range rounded to 6 decimals."""
    claim = record["claim"]
    pairs = record["workloads"][claim["workload"]]["pairs"]
    parent, change = ([pair[side][claim["metric"]] for pair in pairs]
                      for side in ("parent", "change"))
    sign = 1 if better[claim["metric"]] == "lower" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return {"before": round(statistics.median(parent), 6),
            "after": round(statistics.median(change), 6),
            "better": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(pairs), "parent_iqr": round(q3 - q1, 6)}


def test_every_numeric_claim_equals_what_its_pairs_give():
    # a claim's numbers are copied from its pairs by hand; every record whose
    # claimed workload keeps pairs must carry them, and each is recomputed,
    # so a transcription error, or a new record without them, fails here
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    checked = []
    for path in sorted(ROOT.glob("BENCH_*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        claim = record["claim"]
        kept = record.get("workloads", {})
        if isinstance(claim, dict) and "pairs" in kept.get(claim["workload"], {}):
            assert {key: claim.get(key) for key in CLAIM_FIELDS} == _claim_fields(
                record, better), path.name
            checked.append(path.name)
    assert len(checked) >= 9 and "BENCH_bank_check.json" in checked, checked
    sample = {"claim": {"metric": "m", "workload": "w"}, "workloads": {"w": {"pairs": [
        {"parent": {"m": p}, "change": {"m": c}} for p, c in ((1.0, 0.5), (2.0, 2.5), (4.0, 3.0),
                                                             (3.0, 3.0), (5.0, 1.0))]}}}
    assert _claim_fields(sample, {"m": "lower"}) == {
        "before": 3.0, "after": 2.5, "better": 3, "pairs": 5, "parent_iqr": 2.0}
    assert _claim_fields(sample, {"m": "higher"})["better"] == 1


def test_bench_ledger_lists_every_record_once():
    # one line per record; a claim whose pairs are not kept says so
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_ledger.py")],
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    names = sorted(path.name for path in ROOT.glob("BENCH_*.json"))
    assert sorted(line.split()[0] for line in lines) == names
    assert "BENCH_step_node.json" in names
    unpaired = sorted(line.split()[0] for line in lines if line.endswith("no pairs kept"))
    assert unpaired == [f"BENCH_{topic}.json" for topic in (
        "hotpath", "loss_heads", "numpy_dispatch", "stacked_fd", "stacked_forward",
        "teacher_skip")]
    for line in lines:
        record = json.loads((ROOT / line.split()[0]).read_text(encoding="utf-8"))
        if isinstance(record["claim"], dict):
            assert line.split()[1:3] == [record["claim"]["workload"],
                                         record["claim"]["metric"]], line
