"""Every public function or method of the package has a reader in the
package or in perfbench, the benchmark; tests do not count.

A module function is read through a plain name, an attribute, an import
or a string constant (``getattr(module, name)``).  A method is read only
through an attribute (``x.name``) or a string constant, never through a
plain name: a local variable ``sub`` does not read a method ``sub``.  An
attribute does not say whose method it reads, so where several classes
define one method name, SHARED_READERS lists the classes whose method of
that name is read."""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
ROOT = REPO / "src" / "sexticforms"
PERFBENCH = REPO / "perfbench"

# public functions and methods (as Class.method) that nothing in the
# package or perfbench reads, and why they stay
KEPT = {
    "act_sl2": "the symbolic SL2 action, the definition the invariance tests check",
    "FourierExpansion.restrict_to_a11": "the r = 1 restriction, with no other implementation",
    "char2_is_singular": "the direct smoothness test the lifted discriminant is checked against",
    "Char2Invariant.evaluate": "a lifted invariant at an F_2 pair, which the exhaustive "
    "smoothness test compares with char2_is_singular",
}

# method names that several classes define -> the classes whose method of
# that name the package or perfbench reads, each with one reader
SHARED_READERS = {
    # arith._images' unit; MultiPoly.__pow__
    "const": {"LaurentPoly", "MultiPoly"},
    # poly.transvect, on covariants and on Fourier expansions;
    # Covariant.derivative
    "derivative": {"Covariant", "FourierExpansion", "MultiPoly"},
    # Covariant.evaluate_at_sextic
    "evaluate": {"MultiPoly"},
    # FourierExpansion.exact_div_chi10; modp.k3
    "exact_div": {"LaurentPoly", "MultiPoly"},
    # FourierExpansion.from_json; ringlab's cache reader
    "from_json": {"FourierExpansion", "LaurentPoly"},
    # cli.cmd_nu; ringlab.odd_weight_divisibility_check; FourierExpansion's
    # cell check; Covariant.is_zero
    "is_zero": {"Covariant", "FourierExpansion", "LaurentPoly", "MultiPoly"},
    # covariants.grace_young; Covariant.primitive
    "primitive": {"Covariant", "MultiPoly"},
    # covariants.transvectant; ringlab.eisenstein_report; numap.nu_raw;
    # arith.Substitution on Majorant and Packed images; MultiPoly.primitive
    "scale": {
        "Covariant",
        "FourierExpansion",
        "LaurentPoly",
        "Majorant",
        "MultiPoly",
        "Packed",
    },
    # FourierExpansion.to_json; cli.cmd_covariant; ringlab.named_form
    "to_json": {"FourierExpansion", "LaurentPoly", "MultiPoly"},
    # FourierExpansion.to_text; cli.cmd_covariant; cli's chi6_8 check
    "to_text": {"FourierExpansion", "LaurentPoly", "MultiPoly"},
}


def _trees():
    paths = sorted(ROOT.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    return {path: ast.parse(path.read_text()) for path in paths}


def _is_public_def(node):
    return isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef)
    ) and not node.name.startswith("_")


def _definitions(tree):
    """(functions, methods): the names of the module's public functions,
    and {method name: names of the classes defining it} of its classes'
    public methods."""
    functions = {node.name for node in tree.body if _is_public_def(node)}
    methods = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if _is_public_def(node):
                    methods.setdefault(node.name, set()).add(cls.name)
    return functions, methods


def _references(tree):
    """(names, attributes): the names read plainly or through an import,
    and those read as attributes or string constants."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)
    return names, attributes


def _surface():
    """(functions, methods) over the package, as in ``_definitions``, and
    (names, attributes) read by the package and perfbench."""
    trees = _trees()
    functions, methods = set(), {}
    for path, tree in trees.items():
        if path.parent == ROOT:
            f, m = _definitions(tree)
            functions |= f
            for name, classes in m.items():
                methods.setdefault(name, set()).update(classes)
    names, attributes = set(), set()
    for tree in trees.values():
        n, a = _references(tree)
        names |= n
        attributes |= a
    return functions, methods, names, attributes


def test_every_public_name_has_a_reader():
    functions, methods, names, attributes = _surface()
    unread = {f for f in functions if f not in names | attributes}
    for name, classes in methods.items():
        if name not in attributes:
            read = set()
        elif len(classes) > 1:
            read = SHARED_READERS.get(name, set())
        else:
            read = classes
        unread |= {f"{cls}.{name}" for cls in classes - read}
    assert sorted(unread) == sorted(KEPT)


def test_shared_readers_cover_the_shared_method_names():
    _, methods, _, _ = _surface()
    shared = {name: classes for name, classes in methods.items() if len(classes) > 1}
    assert sorted(SHARED_READERS) == sorted(shared)
    for name, classes in SHARED_READERS.items():
        assert classes <= shared[name], name
