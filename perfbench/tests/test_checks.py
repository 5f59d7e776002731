"""The payload checks pass on real payloads and bite on corrupted ones."""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction as F

import pytest

from conefix import cli
from perfbench.checks import ODE_H, check_payload, check_same_bytes, ode_family_gap
from perfbench.workloads import WORKLOADS

SEED = 7
OPS = {op.label: op for ops in WORKLOADS.values() for op in ops}

EXACT_FIXED_POINT_DIST = {
    "thm_2_9": lambda n: (F(2, n + 2), F(4, n + 2)),
    "thm_2_10": lambda n: (F(1, n + 2) / (F(1, 2) + F(1, n + 3)),
                           2 * F(1, n + 2) / (F(1, 2) + F(1, n + 3))),
    "thm_3_6": lambda n: (F(1, n), F(2, n)),
    "thm_4_1": lambda n: (F(2, n), F(0)),
}


@pytest.fixture(scope="module")
def payloads(tmp_path_factory) -> dict[str, str]:
    out = tmp_path_factory.mktemp("payloads")
    texts = {}
    for label, op in OPS.items():
        path = out / f"{label}.{op.fmt}"
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(op.argv(SEED, str(path))) == 0, label
        texts[label] = path.read_text()
    return texts


def _below(value: F) -> float:
    """The largest float strictly below an exact value."""
    x = float(value)
    while F(x) >= value:
        x = math.nextafter(x, -math.inf)
    return x


def _edit_json_row(text: str, n: int, field: str, new_pair) -> str:
    doc = json.loads(text)
    row = next(r for r in doc["rows"] if r["n"] == n)
    row[field] = list(new_pair)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _edit_csv_row(text: str, n: int, column: int, value: float) -> str:
    lines = text.split("\n")
    for i, line in enumerate(lines[1:-1], start=1):
        fields = line.split(",")
        if int(fields[0]) == n:
            fields[column] = repr(value)
            lines[i] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("label", sorted(OPS))
def test_real_payload_passes(payloads, label):
    assert check_payload(OPS[label], SEED, payloads[label]) == []


@pytest.mark.parametrize("label", sorted(EXACT_FIXED_POINT_DIST))
@pytest.mark.parametrize("n", [1, 50, 1000])
def test_bound_below_exact_distance_fails(payloads, label, n):
    exact = EXACT_FIXED_POINT_DIST[label](n)
    doc = json.loads(payloads[label])
    bound = next(r for r in doc["rows"] if r["n"] == n)["bound"]
    corrupted = _edit_json_row(payloads[label], n, "bound", (_below(exact[0]), bound[1]))
    problems = check_payload(OPS[label], SEED, corrupted)
    assert any("does not dominate" in p for p in problems), problems


@pytest.mark.parametrize("label", sorted(EXACT_FIXED_POINT_DIST))
def test_dist_moved_by_1e_9_fails(payloads, label):
    doc = json.loads(payloads[label])
    row = doc["rows"][-1]
    d1 = row["dist"][0] + 1e-9
    moved = (d1, 2 * d1) if label != "thm_4_1" else (d1, row["dist"][1])
    corrupted = _edit_json_row(payloads[label], row["n"], "dist", moved)
    problems = check_payload(OPS[label], SEED, corrupted)
    assert any("off the exact distance" in p for p in problems), problems


def test_ut2_second_coordinate_must_be_twice_the_first(payloads):
    doc = json.loads(payloads["thm_2_9"])
    d1, d2 = doc["rows"][3]["dist"]
    corrupted = _edit_json_row(payloads["thm_2_9"], doc["rows"][3]["n"], "dist",
                               (d1, math.nextafter(d2, 0.0)))
    problems = check_payload(OPS["thm_2_9"], SEED, corrupted)
    assert any("twice" in p for p in problems), problems


@pytest.mark.parametrize("label", ["ode_sequence-g257", "ode_sequence-g2049"])
def test_ode_dist_moved_by_1e_9_fails(payloads, label):
    n = 1000
    moved = ode_family_gap(n) + 1e-9
    corrupted = _edit_csv_row(payloads[label], n, 1, moved)
    problems = check_payload(OPS[label], SEED, corrupted)
    assert any("closed form" in p for p in problems), problems


def test_ode_bound_below_exact_gap_fails(payloads):
    label = "ode_sequence-g257"
    corrupted = _edit_csv_row(payloads[label], 1, 3, _below(F(ode_family_gap(1))))
    problems = check_payload(OPS[label], SEED, corrupted)
    assert any("does not dominate" in p for p in problems), problems


def test_ode_gap_sup_is_at_the_left_end():
    # the closed form reduces to the end point value for this family
    for n in (1, 2, 1000):
        left = math.exp(-3.0 * ODE_H) * math.expm1(ODE_H / n)
        assert ode_family_gap(n) == left


def test_example_2_6_rows_must_be_exact(payloads):
    doc = json.loads(payloads["example_2_6"])
    row = doc["rows"][5]
    d = math.nextafter(row["dist"][0], 1.0)
    corrupted = _edit_json_row(payloads["example_2_6"], row["n"], "dist", (d, d))
    problems = check_payload(OPS["example_2_6"], SEED, corrupted)
    assert any("not exactly (1/n, 1/n)" in p for p in problems), problems


def test_example_2_8_sup_must_stay_pinned(payloads):
    doc = json.loads(payloads["example_2_8"])
    row = doc["rows"][-1]
    corrupted = _edit_json_row(payloads["example_2_8"], row["n"], "dist",
                               (0.2 * (1 - 1e-6), row["dist"][1]))
    problems = check_payload(OPS["example_2_8"], SEED, corrupted)
    assert any("pinned" in p for p in problems), problems


def test_flipped_respected_flag_fails(payloads):
    text = payloads["thm_3_6"].replace('"bound_respected": true', '"bound_respected": false', 1)
    problems = check_payload(OPS["thm_3_6"], SEED, text)
    assert any("exact comparison" in p for p in problems), problems


def test_wrong_seed_in_config_fails(payloads):
    problems = check_payload(OPS["thm_4_1"], SEED + 1, payloads["thm_4_1"])
    assert any("config" in p for p in problems), problems


@pytest.mark.parametrize("label", ["thm_3_10", "ode_linear"])
def test_one_changed_byte_between_passes_fails(payloads, label):
    first = payloads[label].encode()
    for offset in (0, len(first) // 2, len(first) - 1):
        second = bytearray(first)
        second[offset] ^= 0x01
        problems = check_same_bytes(OPS[label], first, bytes(second))
        assert problems and f"offset {offset}" in problems[0]
    assert check_same_bytes(OPS[label], first, bytes(first)) == []
