"""Golden payload gate: every scenario's JSON and CSV at default knobs.

Each scenario runs once and both payloads must equal the committed files
under tests/golden byte for byte.  A performance or refactoring change that
moves one bit of a payload is a behaviour change; a golden file may be
regenerated only by a change that states which columns moved and why.

The committed files are also audited on their own: every row's bound
must dominate the exact distance, computed in rationals by the benchmark's
checks (perfbench/checks.py), the one copy of that oracle.  The same audit
runs on fresh payloads at two non-default knob sets.  Beyond the defaults,
the hashes of every payload under six knob sets must equal the lines of
tests/golden/payload_hashes.txt (see tests/payload_hashes.py).

Regenerate with:  PYTHONPATH=src python tests/test_golden.py [scenario ...]
It rewrites the files of the named scenarios only (all of them when none is
named) and prints which files changed bytes.
"""

from pathlib import Path

import pytest

from conefix.scenarios import SCENARIOS, ScenarioConfig, run_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_payloads_match_golden(name):
    run = run_scenario(name)
    json_golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
    csv_golden = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert run.to_json().encode() == json_golden
    assert run.to_csv().encode() == csv_golden


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_golden_payloads_pass_the_exact_audit(name, fmt):
    # imported here so that regenerating the goldens needs only src/ on the path
    from perfbench.checks import check_payload
    from perfbench.workloads import Operation

    text = (GOLDEN_DIR / f"{name}.{fmt}").read_text()
    op = Operation(name, name, fmt, SCENARIOS[name].defaults)
    assert check_payload(op, 0, text) == []


# two non-default knob sets for the exact audit, each scenario taking the
# knobs it declares.  thm_3_10's tol is the radius of its cluster ball, so
# at 1e-15 the settling family honestly reads as not convergent and the
# audit, which expects a passing verdict, gives it 1e-2 instead.
_OTHER_KNOBS = {
    "horizon 6000": {"horizon": 6000, "seed": 5},
    "tol 1e-15": {"tol": 1e-15, "seed": 3},
}
_OTHER_KNOBS_BY_SCENARIO = {("tol 1e-15", "thm_3_10"): {"tol": 1e-2, "seed": 3}}


@pytest.mark.parametrize("knob_set", sorted(_OTHER_KNOBS))
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_payloads_pass_the_exact_audit_at_other_knobs(name, knob_set):
    from perfbench.checks import check_payload
    from perfbench.workloads import Operation

    defaults = SCENARIOS[name].defaults
    knobs = _OTHER_KNOBS_BY_SCENARIO.get((knob_set, name), _OTHER_KNOBS[knob_set])
    given = {key: value for key, value in knobs.items() if key in defaults}
    run = run_scenario(name, ScenarioConfig(seed=knobs["seed"], **given))
    for fmt, text in (("json", run.to_json()), ("csv", run.to_csv())):
        op = Operation(name, name, fmt, {**defaults, **given})
        assert check_payload(op, knobs["seed"], text) == []


def test_payload_hashes_match_golden():
    # the sha256 of every scenario's payloads and notes under six knob sets
    # (tests/payload_hashes.py), against the committed lines
    from payload_hashes import payload_lines

    golden = (GOLDEN_DIR / "payload_hashes.txt").read_text().splitlines()
    assert list(payload_lines()) == golden


def _write_goldens(names) -> None:
    """Regenerate the golden files of the named scenarios and print which
    files changed bytes."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        run = run_scenario(name)
        for fmt, text in (("json", run.to_json()), ("csv", run.to_csv())):
            path = GOLDEN_DIR / f"{name}.{fmt}"
            data = text.encode()
            if path.exists() and path.read_bytes() == data:
                print(f"unchanged {path.name}")
            else:
                path.write_bytes(data)
                print(f"CHANGED {path.name}")


if __name__ == "__main__":
    import sys

    wanted = sys.argv[1:] or list(SCENARIOS)
    unknown = [name for name in wanted if name not in SCENARIOS]
    if unknown:
        sys.exit(f"unknown scenario(s): {', '.join(unknown)}; known: {', '.join(SCENARIOS)}")
    _write_goldens(wanted)
