"""The benchmark's workloads: serial lists of scenario runs with pinned knobs.

Every knob is passed explicitly on the command line, so a later change of a
scenario's defaults cannot silently change what a workload measures.  The
values below are the scenario defaults at the time the benchmark was made,
except where a workload deliberately scales a knob (finer ODE grid, longer
probe horizons).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Operation", "WORKLOADS", "program_seed"]


@dataclass(frozen=True)
class Operation:
    """One scenario run through the command line: the unit the checks judge."""

    label: str
    scenario: str
    fmt: str
    knobs: dict = field(default_factory=dict)

    def argv(self, seed: int, out_path: str) -> list[str]:
        args = ["run", self.scenario, "--format", self.fmt, "--seed", str(seed)]
        for key, flag in (("tol", "--tol"), ("horizon", "--horizon"),
                          ("grid_pts", "--grid-pts")):
            if key in self.knobs:
                args += [flag, repr(self.knobs[key])]
        return args + ["--out", out_path]


def _json(scenario: str, **knobs) -> Operation:
    return Operation(scenario, scenario, "json", knobs)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Operation, ...]] = {
    "fixed_point_families": (
        _json("thm_2_9", tol=1e-12, horizon=10_000, grid_pts=128),
        _json("thm_2_10", tol=1e-12, horizon=10_000),
        _json("thm_3_6", tol=1e-12, horizon=10_000),
        _json("thm_3_10", tol=1e-3),
        _json("thm_4_1", tol=1e-14, horizon=10_000),
    ),
    "ode_families": (
        Operation("ode_sequence-g257", "ode_sequence", "csv",
                  {"tol": 1e-10, "horizon": 1000, "grid_pts": 257}),
        Operation("ode_sequence-g2049", "ode_sequence", "csv",
                  {"tol": 1e-10, "horizon": 1000, "grid_pts": 2049}),
        Operation("ode_linear", "ode_linear", "csv", {"tol": 1e-11, "grid_pts": 257}),
    ),
    "long_horizon_probes": (
        _json("example_2_6", horizon=50_000),
        _json("example_2_8", horizon=20_000, grid_pts=256),
    ),
}


def program_seed(bench_seed: int) -> int:
    """The sampling seed handed to the program.

    Always ten digits, so that payload sizes (the seed is echoed in JSON
    configs) do not depend on the seed; non-negative, as the program requires.
    """
    return 1_000_000_000 + bench_seed % 1_000_000_000
