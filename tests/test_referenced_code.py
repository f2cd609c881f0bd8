"""Every top-level function and class of ``src/mvloc``, and every method
that is not a dunder, is referred to by a name or an attribute somewhere in
``src/mvloc`` or ``perfbench``. Code that only tests call has no place in
the package; a test that needs such a helper keeps it in ``conftest.py``.

Only ``ast.Name`` and ``ast.Attribute`` nodes count as uses, so an import
(the re-exports of ``mvloc/__init__.py`` included) or a docstring that
names a definition does not keep it alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mvloc"


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def definitions(tree):
    """Names of the top-level functions and classes and of the non-dunder
    methods of the classes, methods as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}"


def used_names(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_definition_is_referred_to_by_the_package_or_the_benchmark():
    package = _trees(sorted(PACKAGE.glob("*.py")))
    benchmark = _trees(sorted((ROOT / "perfbench").glob("*.py")))
    used = used_names([*package.values(), *benchmark.values()])
    unreferenced = [
        f"{path.stem}.{name}"
        for path, tree in package.items()
        for name in definitions(tree)
        if name.rsplit(".", 1)[-1] not in used
    ]
    assert unreferenced == []
