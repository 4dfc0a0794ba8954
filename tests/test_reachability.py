"""The package holds only what a run reaches: every public function, class
and method of ``src/auglocal`` is referenced by the package itself, the
benchmark harness or the demos, not only by tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "auglocal"
USERS = (PACKAGE, ROOT / "perfbench", ROOT / "demos")


def _public_definitions(tree: ast.Module):
    """(name, line) of each public top-level function or class and each
    public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno


def _references(tree: ast.Module) -> set[str]:
    """Names, attributes, identifier-like string constants and imported
    names or aliases used in ``tree``."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs.add(node.value)
        elif isinstance(node, ast.alias):
            refs.update(part for part in (node.name.split(".")[-1], node.asname) if part)
    return refs


def test_every_public_definition_is_reached_outside_the_tests():
    refs = set()
    for directory in USERS:
        for path in sorted(directory.glob("*.py")):
            refs |= _references(ast.parse(path.read_text(), str(path)))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in _public_definitions(ast.parse(path.read_text(), str(path))):
            if name.split(".")[-1] not in refs:
                unreached.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not unreached, "referenced only by tests, or by nothing:\n" + "\n".join(unreached)
