import ast
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
}


def test_every_exported_name_resolves():
    """Each name in polekit.__all__ is an attribute of the package, so a
    removed object cannot stay listed as an export."""
    missing = [name for name in polekit.__all__ if not hasattr(polekit, name)]
    assert missing == []
    assert len(set(polekit.__all__)) == len(polekit.__all__)


def test_no_library_name_is_reached_only_by_tests():
    """Each top-level function and class and each public method of
    src/polekit is named somewhere besides its definitions: in
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
                    and not m.name.startswith("_"))
    defined = Counter(node.name for tree in trees for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    text = "\n".join(path.read_text() for path in [
        *SOURCES, *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "README.md"])
    test_only = sorted(
        qualified for qualified, name in names
        if name not in polekit.__all__
        and len(re.findall(rf"\b{name}\b", text)) <= defined[name])
    assert test_only == sorted(TEST_ONLY_ALLOWED)
