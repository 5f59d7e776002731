"""The benchmark's per-layer hooks still find what they patch.

perfbench/layers.py wraps library functions and methods by name, from
outside src/.  A renamed function would make its span silently read 0, and
a method that a class only inherits, instead of defining in its own body,
makes every traced run raise KeyError, since the patch saves the original
from the class's own vars().

The hooks also change what the library may do under trace: the wrapper of
spectral_radius hashes its argument, and the member counter puts each index
in a set.  A lane column handed to either raises TypeError there, and the
harnesses, which solve members on lanes only, let it propagate: a traced
run of a scenario would fail, as the counts below and the traced bench
smoke runs in CI would show.
"""

import importlib
import sys

import pytest

import conefix  # noqa: F401  (imports every module the hooks patch)
from conefix.scenarios import run_scenario
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


@pytest.mark.parametrize("name, picard_calls, harnesses", [
    ("thm_2_9", 1, 1),  # the limit map
    ("thm_2_10", 1, 1),
    ("thm_3_6", 0, 2),  # the witness and responder forms
    ("thm_4_1", 3, 1),  # the aligned, crossed and limit systems
    ("example_2_8", 0, 1),  # the printed uniform sups
    # both cluster checks of thm_3_10 solve their families as lanes, and
    # its rows read the solved points, so no member is built one by one
    ("thm_3_10", 0, 0),
])
def test_traced_lane_families_solve_and_build_as_untraced(name, picard_calls, harnesses):
    trace = LayerTrace()
    trace.install()
    try:
        run = run_scenario(name)
    finally:
        trace.uninstall()
    counts = trace.snapshot()
    assert counts["fixed_point.picard_solve.calls"] == picard_calls
    # lane families build members one by one only for the printed rows
    assert counts["fixed_point.member_memo.lookups"] <= harnesses * len(run.table.indices)


def test_traced_example_2_8_sups_make_no_scalar_distances():
    # example_2_8's pointwise and uniform checks and its printed sups all
    # read lane columns; a scalar fallback would call distance thousands
    # of times
    trace = LayerTrace()
    trace.install()
    try:
        run_scenario("example_2_8")
    finally:
        trace.uninstall()
    assert trace.snapshot()["spaces.distance.calls"] == 0
