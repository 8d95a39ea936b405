"""Every private module-level name of the package has a caller in the
package itself, and every public function or method is exported or has
one: a helper that only tests call belongs under tests/."""

import ast
from pathlib import Path

import atomdecoh

SRC = Path(atomdecoh.__file__).parent


def _defined(tree):
    """The names a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _used(tree):
    """The names a module reads: loaded names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_name_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _used(tree)}
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _defined(tree)
        if name.startswith("_") and name != "_" and not name.startswith("__") and name not in used
    ]
    assert unused == []


def _public_functions(tree):
    """A module's public functions and the public methods of its public
    classes, as (qualified name, name)."""
    def public(node):
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_"))

    for node in filter(public, tree.body):
        if isinstance(node, ast.ClassDef):
            for method in filter(public, node.body):
                yield f"{node.name}.{method.name}", method.name
        else:
            yield node.name, node.name


def test_every_public_function_is_exported_or_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _used(tree)}
    unused = [
        f"{module}:{qualified}"
        for module, tree in trees.items()
        for qualified, name in _public_functions(tree)
        if name not in atomdecoh._EXPORTS and name not in used
    ]
    assert unused == []


#: what the package's other modules may take from quadrature: the error and
#: the moment kernels, so a caller-side copy of a branch rule fails here
QUADRATURE_API = {"QuadratureError", "damped_moments", "_moments", "_damped_moments_array"}


def _quadrature_names(tree):
    """The names a module takes from quadrature: imported from it, or read
    as attributes of the module imported whole."""
    whole = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("quadrature", "atomdecoh.quadrature"):
                yield from (alias.name for alias in node.names)
            elif node.module in (None, "atomdecoh"):
                whole |= {alias.asname or alias.name
                          for alias in node.names if alias.name == "quadrature"}
        elif isinstance(node, ast.Import):
            whole |= {alias.asname or alias.name
                      for alias in node.names if alias.name == "atomdecoh.quadrature"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            if owner in whole:
                yield node.attr


def test_only_the_moment_kernels_are_taken_from_quadrature():
    taken = {
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "quadrature.py"
        for name in _quadrature_names(ast.parse(path.read_text()))
        if name not in QUADRATURE_API
    }
    assert taken == set()
