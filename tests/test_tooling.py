"""The benchmark's tracer patches lrco from outside, by attribute name; every
name it patches must exist, and restoring must put every original back. The
package decides what a method does from trainer.METHOD_TERMS alone, only
model.py builds a state's arrays, no autodiff op that a fused node replaced is
called again, and no top-level function or class is left that nothing names."""

import ast
import importlib
import pathlib

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


# The autodiff ops that only the reference chains of the tests call: the
# fused nodes (model.features_of, model.probs_of, losses.re_represent_batch,
# losses.contrastive_branch) replaced them in training, one node per head.
REFERENCE_OPS = ("add", "matmul", "tanh", "softmax_rows", "take_rows", "detach")


def _reference_op_uses(source: str) -> list[int]:
    """Line numbers of the calls ad.<op>(...) or autodiff.<op>(...) and of
    the imports of such an op from the autodiff module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (node.func.attr in REFERENCE_OPS and isinstance(owner, ast.Name)
                    and owner.id in ("ad", "autodiff")):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
            if any(alias.name in REFERENCE_OPS for alias in node.names):
                found.append(node.lineno)
    return sorted(found)


def test_no_reference_autodiff_op_is_called_in_the_package():
    # each such call would add a node per op back to a training step
    found = [f"{path.name}:{line}" for path in sorted((ROOT / "src" / "lrco").glob("*.py"))
             for line in _reference_op_uses(path.read_text(encoding="utf-8"))]
    assert not found, found
    sample = ("h = ad.add(ad.matmul(x, w), b)\ny = autodiff.tanh(h)\nz = ad.take_rows(y, i)\n"
              "from .autodiff import detach\nfrom . import autodiff as ad\n"
              "w = ad.value_of(np.add(a, b))\nq = other.softmax_rows(z, 1.0)\n"
              "r = ad.row_block(y, i)\n")
    assert _reference_op_uses(sample) == [1, 1, 2, 3, 4]


# Top-level functions and classes of src/lrco that no other code there names,
# each with the reason it stays. A fused node that leaves the code it
# replaced behind, uncalled, fails the test below until that code goes or is
# listed here.
UNNAMED_ALLOWED = {
    "cli.main": "the console entry point",
    "autodiff.detach": "reference op: the chains in tests/test_autodiff.py check the fused "
                       "nodes against it (ROADMAP 1 (d) retires it)",
    "autodiff.matmul": "reference op, as detach",
    "autodiff.softmax_rows": "reference op, as detach",
    "autodiff.take_rows": "reference op, as detach; contrastive_branch and probs_of take "
                          "their rows themselves",
    "losses.make_pseudo_label": "perfbench/spans.py wraps it by name (ROADMAP 1 (a))",
    "losses.entropy_alignment": "reference head: class_terms_batch keeps the bits of its "
                                "chain; perfbench/spans.py wraps it by name",
    "losses.kld_uniform_batch": "reference head, as entropy_alignment",
    "losses.contrastive_batch": "reference head: contrastive_branch keeps the bits of its "
                                "chain; perfbench/spans.py wraps it by name",
    "losses.mixlrco_batch": "reference head, as contrastive_batch",
}


def _unnamed_definitions(sources: dict) -> list:
    """module.name of each top-level function or class in ``sources`` (module
    name -> source) that no code outside its own definition names, as a name,
    an attribute or an imported name. __init__ is left out: its re-exports
    would name everything it exports."""
    trees = {mod: ast.parse(text) for mod, text in sources.items() if mod != "__init__"}
    named: dict = {}  # name -> [(module, line)]
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            named.setdefault(name, []).append((mod, getattr(node, "lineno", 0)))
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                inside = range(node.lineno, node.end_lineno + 1)
                if all(m == mod and line in inside for m, line in named.get(node.name, ())):
                    found.append(f"{mod}.{node.name}")
    return sorted(found)


def test_every_top_level_definition_is_named_or_listed():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "lrco").glob("*.py"))}
    found = _unnamed_definitions(sources)
    assert not set(found) - set(UNNAMED_ALLOWED), found
    for entry in UNNAMED_ALLOWED:  # the list names no code that is gone
        mod, name = entry.split(".")
        assert f"def {name}(" in sources[mod], entry
    sample = {"a": "def f():\n    return f()\n\ndef g():\n    return h()\n\nclass C:\n    pass\n",
              "b": "from a import C\nimport a\nx = a.h\n\ndef h():\n    pass\n",
              "__init__": "from .a import f\n"}
    assert _unnamed_definitions(sample) == ["a.f", "a.g"]
