"""One workload run in a fresh process: set-up, checked serial passes, metrics.

run.py starts this module with pinned thread counts and a fixed hash seed;
see README.md for the measurement rules.  The last line of standard output
is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from .checks import check_payload, check_same_bytes
from .layers import LayerTrace, MemoryProbe, layer_metrics
from .workloads import WORKLOADS, program_seed

ROOT = Path(__file__).resolve().parents[1]
# a run keeps timing whole passes while the next one is expected to end
# within --seconds, and makes at least this many timed passes, so the
# reported median has a middle
MIN_TIMED_PASSES = 3
# stop starting passes past this point so the process ends well inside the
# three minutes a run may take
PASS_START_DEADLINE_S = 110.0


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class PassRunner:
    """Runs the workload's scenarios one after another through the CLI and
    judges every payload as soon as the pass is over."""

    def __init__(self, cli, ops, seed: int, out_dir: Path) -> None:
        self.cli = cli
        self.ops = ops
        self.seed = seed
        self.paths = [out_dir / f"{op.label}.{op.fmt}" for op in ops]
        self.argvs = [op.argv(seed, str(p)) for op, p in zip(ops, self.paths)]
        self.reference: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.problems: list[str] = []

    def run_pass(self) -> tuple[list[float], list[float]]:
        """Per-scenario (wall seconds, CPU seconds) of one serial pass."""
        outcomes, walls, cpus = [], [], []
        commentary = io.StringIO()
        gc.collect()
        with contextlib.redirect_stderr(commentary):
            for argv in self.argvs:
                cpu0 = _cpu_s()
                t0 = time.perf_counter()
                try:
                    # looked up on the module at each call, so a traced pass
                    # goes through the wrapper that layers.py patches in
                    outcomes.append(self.cli.main(argv))
                except Exception as exc:  # one failed operation, counted below
                    outcomes.append(exc)
                walls.append(time.perf_counter() - t0)
                cpus.append(_cpu_s() - cpu0)
        self._judge(outcomes, commentary.getvalue())
        self.passes += 1
        print(f"pass {self.passes}: wall {sum(walls):.3f} s, cpu {sum(cpus):.3f} s; per scenario "
              + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
        return walls, cpus

    def _judge(self, outcomes, commentary: str) -> None:
        for op, path, outcome in zip(self.ops, self.paths, outcomes):
            self.attempted += 1
            if outcome != 0:
                self.failed += 1
                print(f"{op.label}: failed with {outcome!r}\n{commentary}", file=sys.stderr)
                continue
            data = path.read_bytes()
            path.unlink()
            reference = self.reference.setdefault(op.label, data)
            self.problems += check_same_bytes(op, reference, data)
            self.problems += check_payload(op, self.seed, data.decode(errors="replace"))


def _timed(runner: PassRunner, seconds: float, started: float) -> dict[str, float]:
    t_end = started + seconds
    walls, cpus = [], []
    while True:
        pass_start = time.perf_counter()
        wall, cpu = runner.run_pass()
        walls.append(wall)
        cpus.append(cpu)
        now = time.perf_counter()
        # start another pass only if it is expected to end within --seconds,
        # so a run measures for --seconds and does not overrun by a pass
        if (now + (now - pass_start) > t_end and len(walls) >= MIN_TIMED_PASSES) or \
                now - started > PASS_START_DEADLINE_S:
            break
    # per scenario, the median over passes; summed, a typical serial pass.
    # A stall that hits one scenario in one pass drops out instead of
    # shifting that whole pass.
    return {
        "wall_s": sum(statistics.median(column) for column in zip(*walls)),
        "cpu_s": sum(statistics.median(column) for column in zip(*cpus)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(runner: PassRunner, seconds: float, started: float) -> dict[str, float]:
    # the memory pass is the slowest part of a traced run, so it goes first
    # and the rounds after it fill what is left of --seconds
    probe = MemoryProbe()
    probe.install()
    try:
        runner.run_pass()
    finally:
        probe.uninstall()
    walls, traced_walls, snapshots = [], [], []
    t_end = started + seconds
    while True:
        round_start = time.perf_counter()
        walls.append(sum(runner.run_pass()[0]))
        trace = LayerTrace()
        trace.install()
        try:
            traced_walls.append(sum(runner.run_pass()[0]))
        finally:
            trace.uninstall()
        snapshots.append(trace.snapshot())
        # at least one round; another only if it is expected to fit
        now = time.perf_counter()
        if now + (now - round_start) > t_end or now - started > PASS_START_DEADLINE_S:
            break
    # counts repeat exactly from pass to pass; times are summarised by median
    layers = {key: statistics.median(s[key] for s in snapshots) if key.endswith("_s")
              else snapshots[0][key] for key in snapshots[0]}
    overhead = statistics.median(traced_walls) - statistics.median(walls)
    return layer_metrics(layers, probe.peak_bytes, overhead)


def _declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the launcher just before the spawn")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import conefix.cli

    if src not in Path(conefix.cli.__file__).resolve().parents:
        print(f"conefix was imported from {conefix.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    ops = WORKLOADS[args.workload]
    seed = program_seed(args.seed)
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    runner = PassRunner(conefix.cli, ops, seed, out_dir)
    setup_s = time.monotonic() - args.spawned_at

    started = time.perf_counter()
    try:
        if args.trace:
            values = _traced(runner, args.seconds, started)
        else:
            values = dict(_timed(runner, args.seconds, started), setup_s=setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in _declared(bool(args.trace))}
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
