"""The package's public names are its library modules' __all__, each listed once, and its
modules import one another without a cycle."""

import ast
import importlib
import pkgutil
import types
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import dtcnet


def test_public_names_are_the_modules_exports():
    # cli is the command-line front end, not part of the library API
    modules = [m.name for m in pkgutil.iter_modules(dtcnet.__path__) if m.name != "cli"]
    exports = [name for m in modules for name in importlib.import_module(f"dtcnet.{m}").__all__]
    assert len(exports) == len(set(exports)), "a name is in two modules' __all__"
    public = {
        name for name, value in vars(dtcnet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(exports)


def test_module_imports_form_a_dag():
    # every "from .<module> import" of src/dtcnet, those inside functions too; __init__ re-exports them all
    graph = {}
    for path in Path(dtcnet.__file__).parent.glob("*.py"):
        if path.stem != "__init__":
            nodes = ast.walk(ast.parse(path.read_text()))
            graph[path.stem] = {
                node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            }
    assert "ensemble" in graph["cli"]  # the parse sees the package's imports
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"module import cycle: {' -> '.join(exc.args[1])}") from None
