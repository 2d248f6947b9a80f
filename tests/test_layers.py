"""Import hygiene of the package, read from the source with ``ast``.

The modules form layers: each imports only from modules below it, so the
graph of relative imports, counting those inside functions, has no cycle.
And a module other than ``__init__`` uses every name it imports.
"""

import ast
from pathlib import Path

import dqqpft

PACKAGE = Path(dqqpft.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _relative_imports(tree):
    """The package module each relative import names, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                # ``from . import io as qio`` imports the module itself
                yield from (alias.name for alias in node.names)


def _graph():
    return {name: set(_relative_imports(tree)) for name, tree in MODULES.items()}


def _cycle(graph):
    """A list of modules that closes a cycle, or None."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for dep in sorted(graph.get(node, ())):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state and (found := visit(dep, path + [dep])):
                return found
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state and (found := visit(node, [node])):
            return found
    return None


def test_every_relative_import_names_a_package_module():
    for deps in _graph().values():
        assert deps <= set(MODULES)


def test_relative_imports_form_no_cycle():
    assert _cycle(_graph()) is None


def test_cycle_finder_sees_a_deferred_import():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    tree = ast.parse("def f():\n    from .a import x\n")
    assert list(_relative_imports(tree)) == ["a"]


def _unused_imports(tree):
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_modules_use_every_name_they_import():
    unused = {name: sorted(_unused_imports(tree))
              for name, tree in MODULES.items() if name != "__init__"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_finder_sees_a_leftover():
    tree = ast.parse("import math\nfrom .fast import _forward, make_plan\nmake_plan()\n")
    assert _unused_imports(tree) == {"math", "_forward"}
