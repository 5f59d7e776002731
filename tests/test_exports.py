"""Every name a conefix module exports resolves."""

import importlib
import pkgutil

import conefix


def test_every_exported_name_resolves():
    modules = [conefix] + [
        importlib.import_module(f"conefix.{info.name}")
        for info in pkgutil.iter_modules(conefix.__path__)
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 6  # algebra, applications, fixed_point, grid, scenarios, spaces
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
