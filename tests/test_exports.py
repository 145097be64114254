"""Every name the package exports is used outside the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corrclass"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def code_references(path):
    """Identifiers a Python file reads, as names or attributes; a name's
    own ``def`` or ``class`` is not a reference to it."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def test_every_export_is_used_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "scripts").glob("*.py"),
                *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(code_references, sources))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = sorted(name for name in exported_names() if name not in used
                    and not re.search(rf"\b{name}\b", readme))
    assert unused == []


def test_classify_names_no_partition():
    """``classify`` reads Level I as masks (the lattice's poset, full mask
    and size) and leaves every partition object to the writers."""
    path = PACKAGE / "classify.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module, *(alias.name for alias in node.names)}
    forbidden = {"Partition", "partitions", "index", "shape",
                 "mask_to_partitions"}
    assert sorted((code_references(path) | imported) & forbidden) == []
