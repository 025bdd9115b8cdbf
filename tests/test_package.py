import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

import polekit

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "polekit").glob("*.py"))

# Library names that only tests reach, each with the use it waits for.
TEST_ONLY_ALLOWED = {
    "AdaptedCoefficients.is_closed":
        "closedness check of adapted-frame scenes (ROADMAP item 5)",
    "pair_adapted_coefficients":
        "pairing oracle of adapted-frame verify jobs (ROADMAP item 5)",
    "AdaptedCoefficients._scale": "ROADMAP item 5",
}

# Defaulted parameters that no program call passes, each with the use
# it waits for.
UNPASSED_ALLOWED = {
    "gamma_from_zeta(constants)":
        "anchor values of adapted-frame scenes (ROADMAP item 5)",
}


# Instance attributes that nothing in the program reads, each with the
# reason it is kept.
UNREAD_ALLOWED = {
    "EvaluationError.op":
        "exception payload: the failing primitive, for callers that catch",
    "QuadratureError.worst_interval":
        "exception payload: where the refinement gave up",
    "SymmetryError.tau":
        "exception payload: the tau sample of the violation",
    "PTerm.quadrature_error":
        "error estimate of the integral term (ROADMAP items 6 and 10)",
}


def test_every_exported_name_resolves():
    """Each name in polekit.__all__ is an attribute of the package, so a
    removed object cannot stay listed as an export."""
    missing = [name for name in polekit.__all__ if not hasattr(polekit, name)]
    assert missing == []
    assert len(set(polekit.__all__)) == len(polekit.__all__)


def test_no_library_name_is_reached_only_by_tests():
    """Each top-level function and class and each method of src/polekit
    but the dunder ones is named somewhere besides its definitions: in
    src/polekit, perfbench/*.py, README.md or polekit.__all__."""
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    names = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                names.extend(
                    (f"{node.name}.{m.name}", m.name) for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__")
                             and m.name.endswith("__")))
    defined = Counter(node.name for tree in trees for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    text = "\n".join(path.read_text() for path in [
        *SOURCES, *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "README.md"])
    mentions = Counter(re.findall(r"\w+", text))
    test_only = sorted(
        qualified for qualified, name in names
        if name not in polekit.__all__ and mentions[name] <= defined[name])
    assert test_only == sorted(TEST_ONLY_ALLOWED)


def _program_trees():
    """The syntax trees of src/polekit, of perfbench/*.py and of the
    Python code blocks of README.md."""
    readme = (ROOT / "README.md").read_text()
    return [ast.parse(path.read_text()) for path in SOURCES] + [
        ast.parse(path.read_text())
        for path in sorted((ROOT / "perfbench").glob("*.py"))] + [
        ast.parse(block)
        for block in re.findall(r"```python\n(.*?)```", readme, re.S)]


def _call_sites(trees):
    """(name, call) for each call in ``trees``: the name is the called
    function's or method's; a call of ``cls`` in a class counts for the
    class and its subclasses, ``super().__init__`` for the bases."""
    classes = [node for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)]
    bases = {c.name: [b.id for b in c.bases if isinstance(b, ast.Name)]
             for c in classes}
    for c in classes:
        for node in ast.walk(c):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == "cls":
                for name in [c.name] + [k for k, v in bases.items()
                                        if c.name in v]:
                    yield name, node
            elif (isinstance(f, ast.Attribute) and f.attr == "__init__"
                  and isinstance(f.value, ast.Call)
                  and getattr(f.value.func, "id", None) == "super"):
                for name in bases[c.name]:
                    yield name, node
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, (ast.Name, ast.Attribute)):
                    yield getattr(f, "id", None) or f.attr, node


def _is_dataclass(node):
    return isinstance(node, ast.ClassDef) and any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass"
        for d in node.decorator_list)


def _defaulted_parameters(tree):
    """(qualified parameter, called name, position or None) for each
    defaulted parameter of a top-level function or a method, and for
    each defaulted field of a dataclass (a parameter of the class); the
    position counts the arguments a call passes, so a method's ``self``
    or ``cls`` is not one, and a keyword-only parameter has none."""
    for c in tree.body:
        if _is_dataclass(c):
            fields = [f for f in c.body if isinstance(f, ast.AnnAssign)]
            for i, f in enumerate(fields):
                if f.value is not None:
                    yield f"{c.name}({f.target.id})", c.name, f.target.id, i
    defs = [(node.name, node.name, node, 0) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    for c in tree.body:
        if isinstance(c, ast.ClassDef):
            defs += [
                (f"{c.name}.{m.name}",
                 c.name if m.name == "__init__" else m.name, m,
                 0 if any(getattr(d, "id", None) == "staticmethod"
                          for d in m.decorator_list) else 1)
                for m in c.body if isinstance(m, ast.FunctionDef)]
    for qualified, called, node, skip in defs:
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield f"{qualified}({arg.arg})", called, arg.arg, i - skip
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield f"{qualified}({arg.arg})", called, arg.arg, None


def test_every_defaulted_parameter_is_passed_by_the_program():
    """Each defaulted parameter of a function or method of src/polekit
    is passed, by position or by keyword, by some call in src/polekit,
    perfbench/*.py or the README's Python code: an option that only
    tests set is a constant or a required argument.  Calls are matched
    by name alone, so a parameter passed to any function of that name
    counts as passed."""
    trees = _program_trees()
    most_positional = Counter()
    keywords = {}
    for name, call in _call_sites(trees):
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            most_positional[name] = float("inf")
        most_positional[name] = max(most_positional[name], len(call.args))
        keywords.setdefault(name, set()).update(kw.arg
                                                for kw in call.keywords)
    unpassed = sorted(
        qualified for tree in trees[:len(SOURCES)]
        for qualified, called, arg, position in _defaulted_parameters(tree)
        if not ({arg, None} & keywords.get(called, set())
                or (position is not None
                    and position < most_positional[called])))
    assert unpassed == sorted(UNPASSED_ALLOWED)


def test_every_dataclass_field_is_read():
    """Each field of a dataclass of src/polekit is read as an attribute
    somewhere in src/polekit, perfbench/*.py or the README's Python
    code: a field that only tests read, or nothing reads, is dead
    state.  Reads are matched by attribute name alone."""
    trees = _program_trees()
    reads = _attribute_reads(trees)
    unread = [
        f"{c.name}.{f.target.id}"
        for tree in trees[:len(SOURCES)] for c in tree.body if _is_dataclass(c)
        for f in c.body
        if isinstance(f, ast.AnnAssign) and f.target.id not in reads]
    assert unread == []


def _attribute_reads(trees):
    """The attribute names that ``trees`` read: attribute loads and the
    string constants named by ``getattr`` calls."""
    reads = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                reads.add(node.args[1].value)
    return reads


def test_every_instance_attribute_is_read():
    """Each attribute that a method of src/polekit stores on ``self`` is
    read, as an attribute or by ``getattr``, somewhere in src/polekit,
    perfbench/*.py or the README's Python code: state that only tests
    read, or nothing reads, is dead.  Reads are matched by attribute
    name alone."""
    trees = _program_trees()
    reads = _attribute_reads(trees)
    unread = sorted({
        f"{c.name}.{node.attr}"
        for tree in trees[:len(SOURCES)] for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef)
        for node in ast.walk(c)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and getattr(node.value, "id", None) == "self"
        and node.attr not in reads})
    assert unread == sorted(UNREAD_ALLOWED)


def test_benchmark_tracer_finds_every_entry_point():
    """perfbench/tracing.py wraps a method only where its class defines
    it, so each test form must hold its own ``jets_at`` and
    ``values_at``; the tracer finds every entry point it names and puts
    every original back."""
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        restored = tracer.restore()
    assert tracer.absent == []
    assert restored
