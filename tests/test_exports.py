"""Every name the package exports, and every public ``Poset`` method, is
used outside the tests."""

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


def sources_outside_the_tests():
    """The package's modules but ``__init__``, ``scripts/`` and
    ``perfbench/``."""
    return [*(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
            *(ROOT / "scripts").glob("*.py"),
            *(ROOT / "perfbench").glob("*.py")]


def test_every_export_is_used_outside_the_tests():
    used = set().union(*map(code_references, sources_outside_the_tests()))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = sorted(name for name in exported_names() if name not in used
                    and not re.search(rf"\b{name}\b", readme))
    assert unused == []


# Poset methods that only the tests call, kept as their independent
# references: the meet and join of any poset, and a validating constructor
# from relation pairs.
POSET_TEST_REFERENCES = {"meet", "join", "from_pairs"}


def test_every_public_poset_method_is_called_outside_the_tests():
    tree = ast.parse((PACKAGE / "poset.py").read_text(encoding="utf-8"))
    poset = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Poset")
    public = {node.name for node in poset.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    called = {node.attr for path in sources_outside_the_tests()
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Attribute)}
    assert POSET_TEST_REFERENCES <= public
    assert sorted(public - called - POSET_TEST_REFERENCES) == []


def imports(path):
    """The modules a Python file imports from, and the names it imports."""
    modules, names = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names |= {alias.name for alias in node.names}
    return modules, names


def definitions(path):
    """The names a Python file gives a ``def`` or a ``class``."""
    return {node.name for node in ast.walk(ast.parse(
        path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))}


def test_classify_names_no_partition():
    """``classify`` reads Level I as masks (the lattice's poset, full mask
    and size).  Every module of the package holds a partition only as an
    index into ``PartitionLattice``'s block and pair tuples: none defines,
    imports or reads a partition object or a table of them."""
    path = PACKAGE / "classify.py"
    modules, names = imports(path)
    forbidden = {"Partition", "partitions", "index", "shape",
                 "mask_to_partitions"}
    assert sorted((code_references(path) | modules | names)
                  & forbidden) == []
    forbidden = {"Partition", "all_partitions", "partitions",
                 "mask_to_partitions", "maximal_partitions"}
    paths = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "partitions.py" in paths
    for path in paths:
        found = ((code_references(path) | imports(path)[1]) & forbidden
                 | definitions(path) & (forbidden | {"index"}))
        assert (path.name, sorted(found)) == (path.name, [])
