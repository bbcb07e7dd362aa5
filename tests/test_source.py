"""Checks on the source of ``skipdiff`` itself."""

import ast
from pathlib import Path

import skipdiff

# Kept for the tests only, as the README's library layout says: the concat
# primitive completes the closed primitive set, and the gradient oracle.
TEST_ONLY = {"autodiff.concat", "gradcheck.finite_diff_check"}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) of each top-level function and class
    and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def test_no_production_code_is_used_only_by_tests():
    # A definition counts as used when a name or attribute spells it
    # anywhere in the package outside the definition itself; imports and
    # re-exports do not count.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(skipdiff.__file__).parent.glob("*.py")}
    spelled = {module: [(node, node.id if isinstance(node, ast.Name) else node.attr)
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Name, ast.Attribute))]
               for module, tree in trees.items()}
    unused = set()
    for module, tree in trees.items():
        for qualname, name, definition in _definitions(module, tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(spelling == name and not (other == module and id(node) in inside)
                       for other, nodes in spelled.items() for node, spelling in nodes):
                unused.add(qualname)
    assert unused == TEST_ONLY
