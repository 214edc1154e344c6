"""Benchmark of the ``redei-berge`` command line, driven in-process.

    python3 perfbench/run.py --workload {compute,check-hamps,all} \\
        --seed N --seconds S --trace {0,1}

Each op is one ``redei_berge.cli.main(argv)`` call on inputs generated from
the seed (see ``workloads.py``; ``reference.json`` says what each workload
and metric is for).  The program is imported from ``src/`` of the checkout
that holds this file and from nowhere else.

``--trace 0`` runs three parts, each a set-up (fresh import, input
generation, warm-up) followed by a third of ``--seconds`` of ops in a
closed loop, one at a time.  ``setup_s`` is the median set-up.  Only the
``cli.main`` call is timed, and every output is checked afterwards by an
independent route.  A workload repeats a rotation of inputs (relabelled),
and the op timings are the best wall of each rotation slot over its
repeats.  ``--trace 1`` sets up once, runs untraced for half the time,
then replays the first rotation with spans recorded at the module
boundaries (see ``tracing.py``) and reports per-layer metrics per traced
op.  ``--workload all`` runs each workload in a fresh process.

Stdout carries a header line, a report line per workload, and as its last
line ``{"correct", "attempted", "failed", "metrics"}``.  The spans of a
traced run are written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import ModuleType

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Op, Outcome, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PACKAGE = "redei_berge"
SETUP_REPEATS = 3
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


class ProgramMissing(Exception):
    pass


def fresh_modules() -> dict[str, ModuleType]:
    """Import the program anew, with empty in-process caches; returns the
    layer modules by short name."""
    if not (SRC / PACKAGE / "cli.py").is_file():
        raise ProgramMissing(f"no {PACKAGE} source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == PACKAGE]:
        del sys.modules[name]
    gc.collect()  # free the old copy's caches before the new one fills, for a steady peak RSS
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
        except ModuleNotFoundError:
            if layer == "cli":
                raise
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"{PACKAGE} was imported from outside {SRC}")
    return modules


def run_op(modules: dict[str, ModuleType], argv: tuple[str, ...]) -> tuple[float, Outcome]:
    """Time one ``cli.main`` call, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = modules["cli"].main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a raising op is a failed op; the run goes on
            err.write(traceback.format_exc())
        wall = perf_counter() - start
    return wall, Outcome(rc, out.getvalue(), err.getvalue())


class Run:
    """The ops of one workload run and their checked results."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.workload = WORKLOADS[name]
        self.modules: dict[str, ModuleType] = {}
        self.pool: list[Op] = []
        self.checked = 0
        self.failures: list[str] = []

    def op(self, modules, op: Op, argv: tuple[str, ...] | None = None):
        wall, outcome = run_op(modules, argv or op.argv)
        self.checked += 1
        reason = check(op, outcome)
        if reason is not None:
            self.failures.append(f"{op.kind}: {reason}")
        return wall, outcome

    def set_up(self) -> float:
        """Fresh import, input generation and one untimed op per CLI
        subcommand, which fills the program's caches where it has them.
        Returns the seconds it took."""
        self.modules, self.pool = {}, []  # let the previous copy be freed
        start = perf_counter()
        self.modules = fresh_modules()
        self.pool = self.workload.pool(self.seed, OUT / "inputs" / self.name / str(self.seed))
        last = {op.argv[0]: op for op in self.pool}  # a run rarely reaches the pool's tail
        for op in last.values():
            self.op(self.modules, op)
        return perf_counter() - start

    def loop(self, seconds: float, start: int = 0) -> list[tuple[Op, float]]:
        """Closed loop: ops one after another, from pool position ``start``,
        until ``seconds`` have passed and at least one rotation has run.
        Returns (op, wall) pairs."""
        deadline = perf_counter() + seconds
        timed = []
        while len(timed) < self.workload.cycle or perf_counter() < deadline:
            op = self.pool[(start + len(timed)) % len(self.pool)]
            timed.append((op, self.op(self.modules, op)[0]))
        return timed


# ------------------------------------------------------------------ metrics


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024


def walls_by_slot(timed: list[tuple[Op, float]]) -> dict[int, list[float]]:
    slots: dict[int, list[float]] = {}
    for op, wall in timed:
        slots.setdefault(op.slot, []).append(wall)
    return dict(sorted(slots.items()))


def best_by_slot(timed: list[tuple[Op, float]]) -> dict[int, float]:
    """The fastest wall of each rotation slot over its repeats in the run.
    The host's speed drifts between regimes for seconds at a time, so the
    best of repeats of the same work is what follows the program."""
    return {slot: min(walls) for slot, walls in walls_by_slot(timed).items()}


def metric(name: str, value: float) -> dict:
    unit = {**REFERENCE["end_to_end"], **REFERENCE["per_layer"]}[name]["unit"]
    return {"value": value, "unit": unit}


def measure(run: Run, seconds: int) -> tuple[dict, dict]:
    """Set-ups spread over the run, each followed by its share of the
    timed loop, so that their median does not hang on one stretch of the
    host's speed."""
    setups, timed = [], []
    for _ in range(SETUP_REPEATS):
        setups.append(run.set_up())
        timed += run.loop(seconds / SETUP_REPEATS, start=len(timed))
    walls = walls_by_slot(timed)
    best = {slot: min(w) for slot, w in walls.items()}
    failure_ratio = len(run.failures) / run.checked
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(best) / sum(best.values()),
        "op_p50_s": statistics.median(best.values()),
        "op_tail_s": max(best.values()),
        "peak_rss_mb": peak_rss_mb(),
        "success_ratio": 1 - failure_ratio,
    }
    report = {
        "failure_ratio": {"value": failure_ratio, "unit": "ratio"},
        "ops": len(timed),
        "setup_runs_s": setups,
        "slots": [  # kind, repeats, best and median wall
            [run.pool[slot].kind, len(w), best[slot], statistics.median(w)]
            for slot, w in walls.items()
        ],
    }
    return {k: metric(k, metrics[k]) for k in REFERENCE["end_to_end"]}, report


def measure_traced(run: Run, seconds: int) -> tuple[dict, dict]:
    """Untraced ops for half the run, then the first rotation again with
    spans."""
    run.set_up()
    timed = run.loop(seconds * 0.5)
    base = best_by_slot(timed)
    first = run.pool[: run.workload.cycle]
    tracer = Tracer()
    tracer.install(run.modules)
    traced = []
    for index, op in enumerate(first):
        tracer.op = index
        traced.append((op, run.op(run.modules, op)[0]))
    tracer.write(OUT / f"trace-{run.name}-seed{run.seed}.json")
    values, absent = tracer.layer_metrics(len(first))
    values["trace.overhead_ratio"] = statistics.median(wall / base[op.slot] for op, wall in traced)
    report = {
        "traced_ops": len(first),
        "untraced_ops": len(timed),
        "absent": absent,
        "absent_targets": sorted(tracer.absent),
        "by_name": tracer.by_name(),
    }
    return {k: metric(k, values[k]) for k in REFERENCE["per_layer"]}, report


# --------------------------------------------------------------------- main


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def header(args: argparse.Namespace) -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "counts": {  # which counts are computed from n and which are counted
            name: {k: v for k, v in m.items() if k in ("computed", "counted")}
            for name, m in REFERENCE["per_layer"].items()
            if "computed" in m or "counted" in m
        },
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; the last line merges their results."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]  # fmt: skip
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    run = Run(args.workload, args.seed)
    try:
        measured = (measure_traced if args.trace else measure)(run, args.seconds)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics, report = measured
    print(json.dumps({"header": header(args)}))
    report["failures"] = run.failures[:5]
    print(json.dumps({"workload": args.workload, "metrics": metrics, **report}))
    result = {
        "correct": not run.failures,
        "attempted": run.checked,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
