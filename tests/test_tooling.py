"""The benchmark's tracer patches lrco from outside, by attribute name; every
name it patches must exist, restoring must put every original back, and a
traced short run gives the untraced digests. The rules over the syntax trees
of src/lrco and tests/ are the rows of SOURCE_RULES, each with its reason.
__all__ lists the package's public imports. Every committed BENCH_*.json
record parses and carries the keys that all of them share, a claim's numeric
fields equal what its raw pairs give, the bench ledger lists every record,
and every record README.md names exists."""

import ast
import collections
import importlib
import inspect
import json
import pathlib
import re
import statistics
import subprocess
import sys

import pytest

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


def test_every_unused_import_is_a_name_perfbench_patches(monkeypatch):
    # the package imports some names it never calls ("noqa: F401") because
    # install_tracing replaces them there, by name; each such import must
    # name an attribute the tracer replaces on that same module, so one
    # kept after its wrap is gone fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    replaced = set()

    class Logged(spans.Patcher):
        def replace(self, owner, attr, make):
            replaced.add((owner, attr))
            super().replace(owner, attr, make)

    patcher = Logged()
    try:
        spans.StepClock().install(patcher)
        spans.install_tracing(spans.Tracer(), patcher)
    finally:
        patcher.restore()
    kept = {}  # (module, line) -> the names that import brings in
    for path, tree in TREES.items():
        lines = SOURCES[path].splitlines()
        for node in ast.walk(tree):
            if (path.parent == PACKAGE and isinstance(node, ast.ImportFrom)
                    and any("# noqa: F401" in lines[i - 1] for i in _lines(node))):
                kept[path.stem, node.lineno] = [alias.name for alias in node.names]
    assert len(kept) == 8 and sum(map(len, kept.values())) == 10
    stale = [(mod, name) for (mod, _), names in kept.items() for name in names
             if (importlib.import_module(f"lrco.{mod}"), name) not in replaced]
    assert stale == []


def test_perfbench_pseudo_label_readers_match_the_trainer(monkeypatch):
    # trainer.teacher_use_ratio counts a teacher pass as used when its
    # method is one the benchmark lists; the trainer runs it for exactly those
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.PSEUDO_LABEL_READERS == set(trainer.PSEUDO_LABEL_METHODS)


PACKAGE, TESTS = ROOT / "src" / "lrco", ROOT / "tests"
# each file of the package and of the tests, read and parsed once per session
SOURCES = {path: path.read_text(encoding="utf-8")
           for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])}
TREES = {path: ast.parse(text) for path, text in SOURCES.items()}


def _scoped(tree, scope=""):
    """(scope, node) of each node below ``tree``: the dotted name of the
    innermost function or class around it, "<module>" at top level. A
    definition's arguments, annotations and decorators are inside it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(node, f"{scope}.{node.name}" if scope else node.name)
        else:
            yield scope or "<module>", node
            yield from _scoped(node, scope)


def _called(node) -> str | None:
    """The name a call calls, as a name or an attribute; None for any other node."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))


def _lines(*nodes) -> set[int]:
    """The line numbers that the given definitions span."""
    return {line for node in nodes for line in range(node.lineno, node.end_lineno + 1)}


def _names(tree):
    """(name, line) of each name, attribute and imported name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, getattr(node, "lineno", 0)


def _per_module(find):
    """find(module, tree, *args) over each module of trees, kept where it finds something."""
    def each(trees, *args):
        return {mod: found for mod, tree in trees.items() if (found := find(mod, tree, *args))}
    return each


@_per_module
def _method_name_compares(mod, tree) -> list[int]:
    """Line numbers of the comparisons with a method name as an operand, as
    a string constant or inside a tuple, list or set display."""
    def names_a_method(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(names_a_method, node.elts))
        return isinstance(node, ast.Constant) and node.value in trainer.METHODS

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(map(names_a_method, [node.left, *node.comparators]))]


@_per_module
def _readers(mod, tree, name, called=False) -> list[str]:
    """The dotted names of the functions and classes whose code reads
    ``name``, as a name, an attribute or an imported name, "<module>" for a
    top-level statement; with ``called``, those whose code calls it."""
    def reads(node):
        return ((isinstance(node, ast.Name) and node.id == name
                 and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and node.name == name))

    return sorted({scope for scope, node in _scoped(tree)
                   if (_called(node) == name if called else reads(node))})


@_per_module
def _state_array_rebinds(mod, tree) -> list[int]:
    """Line numbers of the calls of ModelState and of the assignments to an
    attribute weights, biases or classifier. In model.py, ModelState setting
    its own views (self.<name> = ...) and its constructor calls are allowed."""
    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            return [t for elt in node.elts for t in targets(elt)]
        return [node.value if isinstance(node, ast.Starred) else node]

    in_model = mod == "model"
    found = []
    for node in ast.walk(tree):
        if _called(node) == "ModelState" and not in_model:
            found.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in (t for each in assigned for t in targets(each)):
                if (isinstance(target, ast.Attribute)
                        and target.attr in ("weights", "biases", "classifier")
                        and not (in_model and getattr(target.value, "id", None) == "self")):
                    found.append(node.lineno)
    return sorted(found)


@_per_module
def _leaf_builders(mod, tree) -> list[str]:
    """The dotted name of the function or class, "<module>" at top level, of
    each call of Tensor (as a name or an attribute) that passes no parents
    (none, or an empty tuple) or no backward function (none, or None): each
    builds a node without a backward, a leaf."""
    def missing(arg) -> bool:
        return (arg is None or (isinstance(arg, ast.Constant) and arg.value is None)
                or (isinstance(arg, ast.Tuple) and not arg.elts))

    def builds_a_leaf(call) -> bool:
        given = dict(zip(("value", "parents", "backward_fn"), call.args))
        given.update((kw.arg, kw.value) for kw in call.keywords)
        return missing(given.get("parents")) or missing(given.get("backward_fn"))

    return sorted(scope for scope, node in _scoped(tree)
                  if _called(node) == "Tensor" and builds_a_leaf(node))


@_per_module
def _imports_module(mod, tree, name) -> bool:
    """Whether the module imports the package module ``name``: as ``import
    ...name``, ``from .name import ...``, or ``from . import name`` (or from
    lrco)."""
    def imports(node) -> bool:
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[-1] == name for alias in node.names)
        return isinstance(node, ast.ImportFrom) and (
            (node.module or "").split(".")[-1] == name
            or (node.module in (None, "lrco") and any(alias.name == name
                                                     for alias in node.names)))

    return any(map(imports, ast.walk(tree)))


@_per_module
def _declared_domains(mod, tree) -> dict[str, bool]:
    """For each class with a field declared by within(...), whether its
    validate or its __post_init__ calls check_domains (as a name or an
    attribute), the only code that enforces a declared domain."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.AnnAssign) and _called(item.value) == "within"
                for item in node.body):
            found[node.name] = any(
                isinstance(item, ast.FunctionDef) and item.name in ("validate", "__post_init__")
                and any(_called(call) == "check_domains" for call in ast.walk(item))
                for item in node.body)
    return found


# Top-level functions and classes of src/lrco, and public methods of its
# classes, that no other code there names, each with the reason it stays. A
# fused node that leaves the code it replaced behind, uncalled, fails the
# unnamed-definitions rule until that code goes or is listed here.
UNNAMED_ALLOWED = {
    "cli.main": "the console entry point",
    "losses.make_pseudo_label": "perfbench/spans.py wraps it by name (ROADMAP 1 (a))",
    "losses.cross_entropy_batch": "reference head: the step's backward keeps the bits of "
                                  "its chain; perfbench/spans.py wraps it by name",
    "losses.entropy_alignment": "reference head: class_terms_batch keeps the bits of its "
                                "chain; perfbench/spans.py wraps it by name",
    "losses.kld_uniform_batch": "reference head, as entropy_alignment",
    "losses.contrastive_batch": "reference head: contrastive_branch keeps the bits of its "
                                "chain; perfbench/spans.py wraps it by name",
    "losses.mixlrco_batch": "reference head, as contrastive_batch",
    "numerics._DerivedSeed.generate_state": "numpy's ISeedSequence protocol: PCG64 calls it",
}


def _unnamed_definitions(trees, allowed=()) -> list[str]:
    """module.name of each top-level function or class in ``trees``, and
    module.Class.name of each public method of a top-level class, that no
    code outside its own definition names, as a name, an attribute or an
    imported name, and that ``allowed`` does not list; and each entry of
    ``allowed`` whose module defines no function of its name. __init__ is
    left out: its re-exports would name everything it exports."""
    trees = {mod: tree for mod, tree in trees.items() if mod != "__init__"}
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
    found = {f"{mod}.{dotted}" for mod, dotted, node in definitions
             if all(m == mod and line in _lines(node) for m, line in named.get(node.name, ()))}
    defined = {(mod, node.name) for mod, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    gone = {entry for entry in allowed
            if (entry.split(".")[0], entry.split(".")[-1]) not in defined}
    return sorted((found - set(allowed)) | gone)


def _unused_oracles(trees) -> list[str]:
    """The top-level functions and classes of the module oracles that no
    test module (test_*) names, as a name, an attribute or an imported name."""
    named = {name for mod, tree in trees.items() if mod.startswith("test_")
             for name, _ in _names(tree)}
    return sorted(node.name for node in trees["oracles"].body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named)


def _text_format_forks(trees) -> list[tuple[str, int, str]]:
    """(module, line, fork) of each ".17g" string outside the definition of
    numerics.float_text, and of each call of the builtin open in a write mode
    without "b" that does not pass newline="\\n"; a mode that is not a
    constant counts as a write mode."""
    def defines_float_text(node) -> bool:
        targets = node.targets if isinstance(node, ast.Assign) else [node]
        return any(getattr(t, "id", getattr(t, "name", None)) == "float_text" for t in targets)

    found = []
    for mod, tree in trees.items():
        own = _lines(*(node for node in tree.body
                       if mod == "numerics" and defines_float_text(node)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and ".17g" in str(node.value)
                    and node.lineno not in own):
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


def _fit_calls(trees, module, allowed=()) -> list[int]:
    """Line numbers of the calls of fit, as a name or an attribute, in
    ``module`` outside its top-level functions named in ``allowed``."""
    tree = trees[module]
    skip = _lines(*(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name in allowed))
    return sorted(node.lineno for node in ast.walk(tree)
                  if _called(node) == "fit" and node.lineno not in skip)


# A row of SOURCE_RULES: a rule over the syntax trees of one directory's
# modules (module name -> tree), with its reason. For each (args, result) of
# package, find(trees, *args) on that directory gives the result; for each of
# expected, find on the parsed sample (module name -> source) does.
Rule = collections.namedtuple("Rule", "id why scope find package sample expected")


SOURCE_RULES = [
    Rule("method-names",
         "a method's behaviour is read from METHOD_TERMS; a comparison with a method's "
         "name would decide it a second time",
         PACKAGE, _method_name_compares, {(): {}},
         {"a": 'a = m in ("x", "lrco")\nb = m < 2\nc = "strong" != m\nd = {"lrco"} == m\n'},
         {(): {"a": [1, 3, 4]}}),
    Rule("terms-readers",
         "the config check and prepare_step read METHOD_TERMS; prepare_step decides a "
         "step's plan from it and records it in the StepBatch, and a step that reads the "
         "table again decides it twice",
         PACKAGE, _readers,
         {("METHOD_TERMS",): {"trainer": ["<module>", "TrainConfig.validate", "prepare_step"]}},
         {"a": ("METHOD_TERMS = {}\nA = tuple(m for m in METHOD_TERMS)\n\n"
                "class C:\n    def validate(self):\n        return METHOD_TERMS\n\n"
                "def f():\n    def g():\n        return METHOD_TERMS['x']\n    return g\n\n"
                "def h(terms=METHOD_TERMS):\n    return terms\n\n"
                "def k():\n    from trainer import METHOD_TERMS as t\n"
                "    return trainer.METHOD_TERMS\n")},
         {("METHOD_TERMS",): {"a": ["<module>", "C.validate", "f.g", "h", "k"]}}),
    Rule("state-views",
         "a state's weights, biases and classifier are views of its params, which SGD and "
         "the EMA update; rebinding one would detach it from params",
         PACKAGE, _state_array_rebinds, {(): {}},
         dict.fromkeys(("a", "model"), "s = model.ModelState(p, l, 1.0, 1.0)\nm.weights = w\n"
                       "a, m.classifier = c, d\nm.biases += b\nm.classifier[...] = c\n"
                       "self.weights = w\n"),
         {(): {"a": [1, 2, 3, 4, 6], "model": [2, 3, 4]}}),
    Rule("parameter-leaves",
         "no command builds a graph; the tests' graphs, their chains and a step's graph view "
         "(oracles.step_nodes), hold parameter leaves and op nodes only, and a leaf built "
         "anywhere but lift_params would be a constant node, which nothing differentiates",
         PACKAGE, _leaf_builders, {(): {"model": ["lift_params"]}},
         {"a": ("a = ad.Tensor(x)\n\n"
                "def f(x):\n    return Tensor(x, (x,), g)\n\n"
                "def g(x):\n    return ad.Tensor(x, parents=(x,))\n\n"
                "class C:\n    def h(self, x):\n        return ad.Tensor(x, (), fn)\n\n"
                "def k(x):\n    return ad.Tensor(x, backward_fn=fn, parents=(x,))\n\n"
                "def m(x):\n    def n():\n        return ad.Tensor(x, (x,), None)\n"
                "    return n, isinstance(x, ad.Tensor)\n")},
         {(): {"a": ["<module>", "C.h", "g", "m.n"]}}),
    Rule("engine-importers",
         "no command builds a graph: training and gradcheck differentiate through "
         "step_objective's backward. The graph engine serves the lifted leaves and the "
         "dual-dispatch heads of model and losses; any other module that imports it could "
         "put a graph on a command's path again",
         PACKAGE, _imports_module, {("autodiff",): {"losses": True, "model": True}},
         {"a": "from . import autodiff as ad\n", "b": "from .autodiff import Tensor\n",
          "c": "import lrco.autodiff\n", "d": "from lrco import autodiff\n",
          "e": "from .model import autodiff_grad\nfrom lrco import model\nimport autodiffx\n"},
         {("autodiff",): {"a": True, "b": True, "c": True, "d": True}}),
    Rule("declared-domains",
         "a within(...) field is a promise that check_domains keeps: a record that declares "
         "a domain and never checks it lets any value through",
         PACKAGE, _declared_domains,
         {(): {"config": {"ModelSection": True},
               "data": {"BenchmarkSpec": True, "AugmentSpec": True},
               "model": {"ModelConfig": True, "ModelState": True},
               "trainer": {"TrainConfig": True, "Checkpoint": True}}},
         {"a": ("class A:\n    x: int = within('[0, 1]')\n\n"
                "    def validate(self, prefix=''):\n        check_domains(self, prefix)\n\n"
                "class B:\n    x: float = errors.within('(0, 1)', 0.5)\n\n"
                "    def __post_init__(self):\n        errors.check_domains(self)\n\n"
                "class C:\n    x: int = within('[0, 1]')\n    y: int = 3\n\n"
                "class D:\n    x: int = within('[0, 1]')\n\n"
                "    def check(self):\n        check_domains(self)\n\n"
                "class E:\n    x: int = field(default=0)\n\n"
                "    def validate(self):\n        pass\n")},
         {(): {"a": {"A": True, "B": True, "C": False, "D": False}}}),
    Rule("unnamed-definitions",
         "code that nothing names does nothing; a fused node that leaves the code it "
         "replaced behind, uncalled, fails until that code goes or UNNAMED_ALLOWED lists "
         "it, and UNNAMED_ALLOWED names no code that is gone",
         PACKAGE, _unnamed_definitions, {(tuple(UNNAMED_ALLOWED),): []},
         {"a": "def f():\n    return f()\n\ndef g():\n    return h()\n\nclass C:\n    pass\n",
          "b": "from a import C\nimport a\nx = a.h\n\ndef h():\n    pass\n",
          "c": ("class D:\n    def m(self):\n        return self.m()\n\n"
                "    def n(self):\n        pass\n\n    def _p(self):\n        pass\n\n"
                "    def __call__(self):\n        pass\n\nD().n()\n"),
          "__init__": "from .a import f\n"},
         {(): ["a.f", "a.g", "c.D.m"]}),
    Rule("bank-gate",
         "contrastive_branch checks only its bank's shape: its bank is the step's MemoryBank "
         "snapshot, whose rows were checked when pushed, and its keys come from prepare_step, "
         "the only place a StepBatch is built. The row-checking conform and check_unit_rows "
         "serve the reference heads, whose bank may be any matrix, the bank's push and the "
         "analysis; a new user of either could let an unchecked row reach the loss",
         PACKAGE, _readers,
         {("contrastive_branch",): {"trainer": ["step_objective"]},
          ("_checked_bank",): {"losses": ["contrastive_batch", "mixlrco_batch"]},
          ("StepBatch", True): {"trainer": ["prepare_step"]},
          ("check_unit_rows",): {"analysis": ["<module>", "similarity_stats"],
                                 "losses": ["_checked_bank", "_contrast_head"],
                                 "membank": ["<module>", "MemoryBank.push_batch"]}},
         {"a": "def a(x: S) -> S:\n    return x\n\ndef b():\n    return m.S(1)\n"},
         {("S",): {"a": ["a", "b"]}, ("S", True): {"a": ["b"]}}),
    Rule("oracles-used",
         "tests/oracles.py holds the reference ops and the shared helpers; one that no test "
         "names any more checks nothing",
         TESTS, _unused_oracles, {(): []},
         {"oracles": ("def f():\n    return g()\n\ndef g():\n    pass\n\n"
                      "def h():\n    pass\n\nclass C:\n    pass\n"),
          "test_a": "import oracles\nx = oracles.f\n", "test_b": "from oracles import h as k\n"},
         {(): ["C", "g"]}),
    Rule("text-format",
         "every file the package writes prints a float with numerics.float_text and ends "
         'its lines with "\\n" on every platform; a writer that chose either again could '
         "fork the pinned bytes",
         PACKAGE, _text_format_forks, {(): []},
         {"numerics": 'float_text = "{:.17g}".format\nx = f"{v:.17g}"\ny = float_text(v)\n',
          "a": ('def f(v):\n    return "%.17g" % v\n\n'
                'with open(p, "w", encoding="utf-8") as fh:\n    pass\n'
                'open(p, "wb")\nopen(p, mode="a", newline="\\n")\n'
                'open(p, "w", newline="\\r\\n")\nopen(p)\nopen(p, "r")\n'
                'open(p, m)\nopen(p, "x", newline="\\n")\n')},
         {(): [("a", 2, ".17g"), ("a", 4, "newline"), ("a", 8, "newline"),
               ("a", 11, "newline"), ("numerics", 2, ".17g")]}),
    Rule("cached-fits",
         "a fit in the golden or acceptance tests would train a config that the cache in "
         "conftest.py may already hold; ACCEPTANCE 10 tests a second fit and a resume, so "
         "it trains its own",
         TESTS, _fit_calls,
         {("test_golden",): [],
          ("test_acceptance", ("test_10_determinism_and_resume",)): []},
         {"a": ("r = fit(b, a, c)\n\ndef t():\n    return trainer.fit(b, a, c)\n\n"
                "def u():\n    fit(b, a, c)\n    fitted(b)\n")},
         {("a",): [1, 4, 7], ("a", ("u",)): [1, 4]}),
]


@pytest.mark.parametrize("rule", SOURCE_RULES, ids=lambda rule: rule.id)
def test_source_rule(rule):
    trees = {path.stem: tree for path, tree in TREES.items() if path.parent == rule.scope}
    sample = {mod: ast.parse(text) for mod, text in rule.sample.items()}
    for args, found in rule.package.items():
        assert rule.find(trees, *args) == found, (args, rule.why)
    for args, found in rule.expected.items():
        assert rule.find(sample, *args) == found, args


def test_the_public_list_equals_the_public_imports():
    # __init__ writes the package's public names twice: as its imports and
    # as __all__
    public = {name for name, value in vars(lrco).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(lrco.__all__) == sorted(public)

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


def test_every_record_the_readme_names_exists():
    # README cites the record of each measured change; a record renamed or
    # dropped would leave its citation pointing at nothing
    cited = set(re.findall(r"BENCH_(\w+)\.json", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert cited
    assert sorted(topic for topic in cited if not (ROOT / f"BENCH_{topic}.json").exists()) == []


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
