"""Every public function or method of the package has a reader in the
package or in perfbench, the benchmark; tests do not count."""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
ROOT = REPO / "src" / "sexticforms"
PERFBENCH = REPO / "perfbench"

# public names that nothing in the package or perfbench reads, and why
# they stay
KEPT = {
    "act_sl2": "the symbolic SL2 action, the definition the invariance tests check",
    "restrict_to_a11": "the r = 1 restriction, with no other implementation",
    "char2_is_singular": "the direct smoothness test the lifted discriminant is checked against",
}


def _trees():
    paths = sorted(ROOT.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    return {path: ast.parse(path.read_text()) for path in paths}


def _public_definitions(tree):
    """Names of the module's public functions and of its classes' public
    methods."""
    bodies = [tree.body] + [
        node.body for node in tree.body if isinstance(node, ast.ClassDef)
    ]
    return {
        node.name
        for body in bodies
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def _references(tree):
    """Names read as attributes, as plain names, through an import, or as
    string constants (``getattr(module, name)``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_has_a_reader():
    trees = _trees()
    defined = set().union(
        *(_public_definitions(t) for p, t in trees.items() if p.parent == ROOT)
    )
    read = set().union(*map(_references, trees.values()))
    assert sorted(defined - read) == sorted(KEPT)
