"""The package's public names are its library modules' __all__, each listed once."""

import importlib
import pkgutil
import types

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
