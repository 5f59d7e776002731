"""End-to-end checks of the command line front end."""

import dataclasses
import json

import pytest

from conefix.cli import main
from conefix.scenarios import KNOB_CAPS, SCENARIOS

ALL_NAMES = (
    "example_2_6", "example_2_8", "thm_2_9", "thm_2_10", "thm_3_6",
    "thm_3_10", "thm_4_1", "ode_linear", "ode_sequence",
)


def test_registry_contents():
    assert tuple(SCENARIOS) == ALL_NAMES


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_NAMES:
        assert name in out
    for anchor in ("Example 2.6", "Theorem 2.10", "Theorem 4.3"):
        assert anchor in out


def test_run_json_payload(capsys):
    assert main(["run", "thm_2_9"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert set(doc) == {"scenario", "anchor", "config", "rows", "verdict"}
    assert doc["scenario"] == "thm_2_9"
    assert doc["anchor"] == "Theorem 2.9"
    assert doc["verdict"] is True
    assert doc["rows"], "row table should not be empty"
    first = doc["rows"][0]
    assert set(first) == {"n", "dist", "bound", "bound_respected"}
    assert all(row["bound_respected"] for row in doc["rows"])
    assert "verdict pass" in captured.err


def test_run_csv_payload(capsys):
    assert main(["run", "thm_2_9", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,dist_c1,dist_c2,bound_c1,bound_c2,bound_respected"
    assert out.endswith("\n")


def test_run_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "run.json"
    assert main(["run", "example_2_8", "--out", str(target)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verdict pass" in captured.err
    doc = json.loads(target.read_text())
    assert doc["anchor"] == "Example 2.8"


def test_run_all_writes_one_file_per_scenario(tmp_path, capsys):
    assert main(["run", "--all", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(f"{name}.json" for name in ALL_NAMES)
    for path in tmp_path.iterdir():
        assert json.loads(path.read_text())["verdict"] is True


def test_honest_fail_exits_one(capsys):
    # a 50 step horizon cannot reach the smallest probe threshold, so the
    # scenario reports its own failure rather than masking it
    assert main(["run", "example_2_6", "--horizon", "50"]) == 1
    captured = capsys.readouterr()
    assert "verdict fail" in captured.err
    assert json.loads(captured.out)["verdict"] is False


def test_unknown_scenario_exits_two(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_bad_knob_exits_two(capsys):
    assert main(["run", "ode_linear", "--grid-pts", "256"]) == 2
    assert "error:" in capsys.readouterr().err


def test_single_point_grid_exits_two(capsys):
    # the harness used to divide by grid_pts - 1 before the grid was checked
    assert main(["run", "ode_sequence", "--grid-pts", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid_pts must be odd and at least 3, got 1\n"


@pytest.mark.parametrize("name", ["example_2_6", "ode_sequence"])
@pytest.mark.parametrize("flag, key", [("--horizon", "horizon"), ("--grid-pts", "grid_pts")])
@pytest.mark.parametrize("value", ["1000000000000", "cap+1"])
def test_huge_size_knobs_exit_two_before_running(name, flag, key, value, monkeypatch, capsys):
    value = str(KNOB_CAPS[key] + 1) if value == "cap+1" else value

    def refuse(knobs):
        raise AssertionError(f"scenario started with {knobs}")

    monkeypatch.setitem(SCENARIOS, name, dataclasses.replace(SCENARIOS[name], runner=refuse))
    assert main(["run", name, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} must be at most {KNOB_CAPS[key]}, got {value}\n"


@pytest.mark.parametrize("flag, key", [("--horizon", "horizon"), ("--grid-pts", "grid_pts")])
def test_zero_size_knobs_exit_two(flag, key, capsys):
    assert main(["run", "thm_2_9", flag, "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} must be positive, got 0\n"


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_exits_two(tol, capsys):
    assert main(["run", "thm_2_9", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "verdict" not in captured.err


def test_parser_rejects_contradictory_requests(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "thm_2_9", "--all", "--out", "somewhere"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--all"])  # --all without --out
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_payload_determinism(fmt, capsys):
    main(["run", "example_2_8", "--seed", "7", "--format", fmt])
    first = capsys.readouterr().out
    main(["run", "example_2_8", "--seed", "7", "--format", fmt])
    second = capsys.readouterr().out
    assert first == second


def test_no_convergence_exits_one(capsys):
    # a valid request whose root the solver cannot pin down to the asked
    # tolerance is an honest failure, not an invalid request
    assert main(["run", "thm_4_1", "--tol", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "verdict" not in captured.err


def test_run_all_counts_no_convergence_as_failed(tmp_path, monkeypatch, capsys):
    import conefix.cli as cli

    monkeypatch.setattr(cli, "SCENARIOS",
                        {name: SCENARIOS[name] for name in ("example_2_6", "thm_4_1")})
    assert main(["run", "--all", "--tol", "1e-300", "--out", str(tmp_path)]) == 1
    assert "thm_4_1: error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["example_2_6.json"]


def test_horizon_below_the_probe_tail_names_the_least_horizon(capsys):
    assert main(["run", "ode_sequence", "--horizon", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: horizon must be >= tail_required (16), got 2\n"


def test_knob_the_scenario_does_not_take_exits_two(capsys):
    # ode_linear has no horizon; accepting it would echo a setting that had
    # no effect in the payload's config
    assert main(["run", "ode_linear", "--horizon", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: ode_linear has no horizon knob; its knobs are tol, grid_pts, seed\n"
    )


def test_run_all_passes_each_scenario_only_its_knobs(tmp_path, monkeypatch, capsys):
    import conefix.cli as cli

    monkeypatch.setattr(cli, "SCENARIOS",
                        {name: SCENARIOS[name] for name in ("thm_3_10", "ode_linear")})
    assert main(["run", "--all", "--horizon", "7", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    configs = {p.name: json.loads(p.read_text())["config"] for p in tmp_path.iterdir()}
    assert configs == {
        "thm_3_10.json": {"seed": 0, "tol": 1e-3},
        "ode_linear.json": {"grid_pts": 257, "seed": 0, "tol": 1e-11},
    }


def test_run_all_with_an_invalid_knob_exits_two_and_writes_the_rest(tmp_path, capsys):
    # thm_3_10 and ode_linear take no horizon, so --all runs them; every
    # other scenario refuses a horizon below its probe tail
    assert main(["run", "--all", "--horizon", "2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["ode_linear.json", "thm_3_10.json"]
    refused = [name for name in ALL_NAMES if name not in ("thm_3_10", "ode_linear")]
    assert len(refused) == 7
    for name in refused:
        line = f"{name}: error: horizon must be >= tail_required (16), got 2\n"
        assert err.count(line) == 1
    assert err.count("tail_required (16)") == 7


@pytest.mark.parametrize("name", ["example_2_8", "thm_2_9"])
def test_negative_seed_exits_two_before_running(name, capsys):
    # example_2_8 used to fail inside numpy's generator, and thm_2_9, which
    # never reads the seed, ran and echoed it
    assert main(["run", name, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"
