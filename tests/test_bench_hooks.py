"""The benchmark's per-layer hooks still find what they patch.

perfbench/layers.py wraps library functions and methods by name, from
outside src/.  A renamed function would make its span silently read 0, and
a method that a class only inherits, instead of defining in its own body,
makes every traced run raise KeyError, since the patch saves the original
from the class's own vars().
"""

import importlib
import sys

import conefix  # noqa: F401  (imports every module the hooks patch)
from perfbench.layers import SPANS, LayerTrace

_SITES = tuple(site for sites in SPANS.values() for site in sites) + (
    ("conefix.fixed_point", "MapFamily.member"),
)


def _conefix_modules():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "conefix" or name.startswith("conefix."))}


def _classes():
    return {(module, attr.split(".")[0]) for module, attr in _SITES if "." in attr}


def _bindings() -> dict:
    """Every conefix module global and every method of a patched class."""
    out = {}
    for name, mod in _conefix_modules().items():
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
    for module, cls_name in _classes():
        cls = getattr(sys.modules[module], cls_name)
        for attr, value in vars(cls).items():
            out[(module, cls_name, attr)] = value
    return out


def test_every_hook_site_resolves():
    for module, attr in _SITES:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), f"{module}.{cls_name}.{attr} is not in its own class body"
        assert callable(getattr(owner, attr, None)), f"{module}.{attr} does not resolve"


def test_install_then_uninstall_restores_every_original():
    before = _bindings()
    trace = LayerTrace()
    trace.install()
    try:
        patched = _bindings()
        for module, attr in _SITES:
            if "." in attr:
                cls_name, attr = attr.split(".")
                key = (module, cls_name, attr)
            else:
                key = (module, attr)
            assert patched[key] is not before[key], f"{key} was not patched"
    finally:
        trace.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    moved = [key for key in before if after[key] is not before[key]]
    assert moved == []
