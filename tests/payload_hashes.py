"""Print a hash of every scenario's payloads under a fixed set of knobs.

    PYTHONPATH=src python tests/payload_hashes.py

One line per knob set and scenario: the sha256 of the JSON payload, of
the CSV payload and of the notes (joined by newlines), or the type and
message of the exception the run raised.  Each scenario is given only the
knobs it declares (ScenarioConfig.declared_by), as `conefix run --all`
gives them.  A change that moves no payload byte prints the same lines
before and after it: run the script in both checkouts and diff the output.

tests/golden/payload_hashes.txt holds the lines, and tests/test_golden.py
compares them with a fresh run.  Like the golden payloads, the file may be
regenerated (redirect this script's output into it) only by a change that
states which payloads moved and why.
"""

import hashlib

from conefix.scenarios import SCENARIOS, ScenarioConfig, run_scenario

KNOB_SETS = (
    ("defaults", ScenarioConfig()),
    ("tol=1e-6", ScenarioConfig(tol=1e-6)),
    ("tol=1e-3", ScenarioConfig(tol=1e-3)),
    ("horizon=300", ScenarioConfig(horizon=300)),
    ("grid_pts=65", ScenarioConfig(grid_pts=65)),
    ("seed=3", ScenarioConfig(seed=3)),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def payload_line(config: ScenarioConfig, name: str) -> str:
    """The hashes of one scenario's run under config, or its exception."""
    try:
        run = run_scenario(name, config.declared_by(SCENARIOS[name]))
    except Exception as exc:  # reported, so that a refusal is compared too
        return f"{type(exc).__name__}: {exc}"
    return " ".join(_sha256(text) for text in (run.to_json(), run.to_csv(), "\n".join(run.notes)))


def payload_lines():
    """The script's lines, one per knob set and scenario, in order."""
    for label, config in KNOB_SETS:
        for name in SCENARIOS:
            yield f"{label} {name} {payload_line(config, name)}"


def main() -> None:
    for line in payload_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
