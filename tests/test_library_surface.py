"""The library keeps only what the pipeline runs.

Every public top-level function and class of a ``zcolor`` module must be
used by something other than the tests: another module of the package, a
later place in its own module, or the benchmark harness (``perfbench/``,
its tests excepted).  A re-export from ``zcolor/__init__.py`` is not a use.
The same holds one level down: every public method, property and record
field of a public class must be read as an attribute somewhere in the
package outside its own definition, or in the harness.  Test oracles
belong in ``tests/conftest.py``, not in the package.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zcolor"

# Public names kept as library API although nothing outside the tests calls
# them; one reason per name.
ALLOWED = {
    "is_z_colorable": "the paper's colorability decision; the CLI reuses "
                      "the lattice it builds through colorability",
    "is_simple": "the paper's simplicity predicate; simplify-coloring reads "
                 "the diffs of an output its run has already verified",
}


# Public class members kept although nothing outside the tests reads them
# as an attribute; one reason per ``Class.member``.
ALLOWED_MEMBERS: dict[str, str] = {
    "ColoringLattice.edge_vectors": "the benchmark's own tests (perfbench/tests) read "
                                    "it to check lattice vectors; the pipeline writes "
                                    "lattices through jsonio.lattice_to_json",
}


def _identifiers(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name ``tree`` reads, imports or looks up as an attribute,
    outside the subtree ``skip``."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        stack.extend(ast.iter_child_nodes(node))
    return out


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def unreferenced_names() -> dict[str, str]:
    """Public name -> its module, for names nothing outside the tests uses."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
               if p.stem != "__init__"}
    bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bench |= _identifiers(ast.parse(path.read_text()))
    used_by = {name: _identifiers(tree) for name, tree in modules.items()}
    out = {}
    for name, tree in modules.items():
        elsewhere = bench.union(*(ids for other, ids in used_by.items() if other != name))
        for node in _public_definitions(tree):
            if node.name not in elsewhere and node.name not in _identifiers(tree, skip=node):
                out[node.name] = name
    return out


def _attributes(tree: ast.AST) -> Counter:
    """How often ``tree`` looks up each attribute name."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _public_members(cls: ast.ClassDef):
    """(name, node) of each public method, property and annotated field."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name, node


def unread_members() -> dict[str, str]:
    """``Class.member`` -> its module, for public members of public classes
    that nothing outside the tests reads as an attribute."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
               if p.stem != "__init__"}
    reads = Counter()
    for tree in modules.values():
        reads += _attributes(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reads += _attributes(ast.parse(path.read_text()))
    out = {}
    for name, tree in modules.items():
        for cls in _public_definitions(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for member, node in _public_members(cls):
                if reads[member] == _attributes(node)[member]:  # read only inside itself
                    out[f"{cls.name}.{member}"] = name
    return out


def test_every_public_name_is_used_outside_the_tests():
    orphans = {n: m for n, m in unreferenced_names().items() if n not in ALLOWED}
    assert not orphans, (
        "used only by tests (move oracles to tests/conftest.py, delete the rest, "
        f"or give a reason in ALLOWED): {orphans}")


def test_allow_list_names_only_unused_public_names():
    assert set(ALLOWED) <= set(unreferenced_names()), \
        "an ALLOWED name is gone or now has a caller; drop it from the list"


def test_every_public_member_is_read_outside_the_tests():
    orphans = {n: m for n, m in unread_members().items() if n not in ALLOWED_MEMBERS}
    assert not orphans, (
        "read only by tests (delete them, or give a reason in ALLOWED_MEMBERS): "
        f"{orphans}")


def test_member_allow_list_names_only_unread_members():
    assert set(ALLOWED_MEMBERS) <= set(unread_members()), \
        "an ALLOWED_MEMBERS entry is gone or now has a reader; drop it from the list"


def private_names_in_cli() -> list[str]:
    """``module.name`` for each ``_``-prefixed name that ``cli.py`` reads
    off, or imports from, another ``zcolor`` module."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    modules: set[str] = set()   # local names of the package's modules
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    out.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            out.append(f"{node.value.id}.{node.attr}")
    return out


def test_cli_uses_only_public_library_names():
    assert private_names_in_cli() == [], "give the name a public spelling in its module"
