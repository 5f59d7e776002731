"""The per-layer trace: repeatable counts, clean removal, untouched payloads."""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import conefix.cli
import conefix.fixed_point
from perfbench.layers import SPANS, LayerTrace, MemoryProbe, layer_metrics
from perfbench.workloads import Operation

ROOT = Path(__file__).resolve().parents[2]

# one short scenario per layer family keeps the test quick
OPS = (
    Operation("thm_4_1", "thm_4_1", "json", {"tol": 1e-14, "horizon": 2000}),
    Operation("thm_3_10", "thm_3_10", "json", {"tol": 1e-3}),
    Operation("ode_sequence", "ode_sequence", "csv",
              {"tol": 1e-10, "horizon": 100, "grid_pts": 129}),
    Operation("example_2_6", "example_2_6", "json", {"horizon": 2000}),
)


def _pass(tmp_path: Path, seed: int = 3) -> dict[str, bytes]:
    out = {}
    for op in OPS:
        path = tmp_path / f"{op.label}.{op.fmt}"
        with contextlib.redirect_stderr(io.StringIO()):
            conefix.cli.main(op.argv(seed, str(path)))
        out[op.label] = path.read_bytes()
    return out


def _traced_pass(tmp_path: Path):
    trace = LayerTrace()
    trace.install()
    try:
        payloads = _pass(tmp_path)
    finally:
        trace.uninstall()
    return trace.snapshot(), payloads


def _counts(snapshot: dict) -> dict:
    return {k: v for k, v in snapshot.items() if not k.endswith("_s")}


def test_two_traced_passes_give_identical_counts(tmp_path):
    first, _ = _traced_pass(tmp_path)
    second, _ = _traced_pass(tmp_path)
    assert _counts(first) == _counts(second)
    assert first["cli.main.calls"] == len(OPS)
    for layer in ("fixed_point.picard_solve.calls", "spaces.distance.calls",
                  "algebra.cone_compare.calls", "applications.ode_solve.sweeps",
                  "grid.cumulative_trapezoid_from.calls", "scenarios.payload_bytes"):
        assert first[layer] > 0, layer


def test_tracing_leaves_payloads_unchanged(tmp_path):
    plain = _pass(tmp_path)
    _, traced = _traced_pass(tmp_path)
    assert traced == plain


def test_uninstall_restores_every_original():
    main, picard = conefix.cli.main, conefix.fixed_point.picard_solve
    member = conefix.fixed_point.MapFamily.__dict__["member"]
    trace = LayerTrace()
    trace.install()
    assert conefix.cli.main is not main
    assert conefix.fixed_point.picard_solve is not picard
    trace.uninstall()
    probe = MemoryProbe()
    probe.install()
    probe.uninstall()
    assert conefix.cli.main is main
    assert conefix.fixed_point.picard_solve is picard
    assert conefix.fixed_point.MapFamily.__dict__["member"] is member


def test_self_times_partition_the_traced_pass(tmp_path):
    start = time.perf_counter()
    snapshot, _ = _traced_pass(tmp_path)
    wall = time.perf_counter() - start
    self_times = [snapshot[f"{name}.self_s"] for name in SPANS]
    assert min(self_times) >= 0.0
    assert 0.0 < sum(self_times) <= wall


def test_every_declared_per_layer_metric_is_reported():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    produced = set(layer_metrics(LayerTrace().snapshot(), 0, 0.0))
    assert declared <= produced
