"""zcolor benchmark: runs the ``zcolor`` CLI in-process in a closed loop.

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 10 --trace 0

One client calls ``zcolor.cli.main(argv)`` on generated PD and JSON files
and waits for each answer before sending the next op.  The seed draws the
random knot bases and the op order.  A run makes ``PASSES[workload]`` whole
passes over the workload's ops, so every run measures the same mix of ops;
the op mix, not ``--seconds``, sets how long a run lasts (``--seconds`` is
recorded with the result).  Every output is checked (see ``checks.py``); a
wrong output aborts the run with exit code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
with every public zcolor function wrapped in a span recorder and reports
the per-layer metrics; about 12 evenly spaced ops also run untraced, which
gives the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
describe the run; a copy of the full result, with the run's metadata, is
written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import WrongOutput, require  # noqa: E402
from tracing import (  # noqa: E402
    LAYERS, SpanRecorder, install, layer_metrics, per_layer_metrics, uninstall)
from workloads import PASSES, WHY, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
COLD_START_SAMPLES = 9
OVERHEAD_SAMPLES = 12  # ops per traced pass that also run untraced
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
TYPED_ERRORS = {"CableError", "ColoringError", "ConstructionError", "DiagramError",
                "NoApplicableMoveError", "NoDiffPathError", "RewriteError"}

END_TO_END = [("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"), ("cold_start_ms", "ms")]


class Tally:
    """Outcomes of the ops run so far."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds, successful ops only
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0  # time spent inside cli.main, every op
        self.emitted_moves = 0

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Tracer:
    """Installs the span recorder around single ops, so checks run untraced.

    Every ``stride``-th op also runs untraced just before its traced run;
    the overhead is the traced time of those ops over their untraced time,
    measured op by op because the machine's speed drifts.
    """

    def __init__(self, stride: int):
        self.stride = stride
        self.recorder = SpanRecorder()
        self.layers = {name: sys.modules[f"zcolor.{name}"] for name in LAYERS}
        self.holders = [m for name, m in sys.modules.items()
                        if name == "zcolor" or name.startswith("zcolor.")]
        self.untraced_s = 0.0
        self.traced_s = 0.0

    @contextlib.contextmanager
    def op(self, index: int):
        self.recorder.op = index
        undo = install(self.recorder, self.layers, self.holders)
        try:
            yield
        finally:
            uninstall(undo)


def call_cli(main, argv) -> tuple[int, str, float]:
    """Run one op; returns exit code, stdout and wall seconds.

    The garbage left by earlier ops and checks is collected first, so each op
    starts from a clean heap, as it would in its own process.
    """
    buf = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except Exception as err:  # an escaped exception is an untyped failure
        raise WrongOutput(f"{argv[0]} raised {type(err).__name__}: {err}") from err
    return rc, buf.getvalue(), time.perf_counter() - start


def judge(op, rc: int, out: str) -> int | None:
    """Check one op's output.  Returns the moves it emitted, or None when the
    op was refused with a typed domain error (exit 1)."""
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        raise WrongOutput(f"{op.command} printed no JSON document: {out[:200]!r}")
    if rc == 1:
        kind = doc.get("error", {}).get("type")
        require(kind in TYPED_ERRORS, f"{op.command} exit 1 with error type {kind!r}")
        return None
    require(rc == 0, f"{op.command} exited with {rc}: {out[:200]}")
    return op.check(doc)


def run_pass(main, jobs, tally: Tally, tracer: Tracer | None = None,
             after_job=None) -> None:
    """Every job once, in order.  A refused op ends its job.  ``after_job``
    is called once each job is done."""
    for job in jobs:
        for op in job:
            if tracer is None:
                rc, out, seconds = call_cli(main, op.argv)
            else:
                baseline = tally.attempted % tracer.stride == 0
                if baseline:
                    rc, out, untraced = call_cli(main, op.argv)
                    judge(op, rc, out)
                with tracer.op(tally.attempted):
                    rc, out, seconds = call_cli(main, op.argv)
                if baseline:
                    tracer.untraced_s += untraced
                    tracer.traced_s += seconds
            tally.attempted += 1
            tally.busy_s += seconds
            moves = judge(op, rc, out)
            if moves is None:
                tally.failed += 1
                break
            tally.latencies.append(seconds)
            tally.emitted_moves += moves
        if after_job is not None:
            after_job()


def smallest_op(jobs):
    """The first op of the first job, in definition order, whose first op
    has the smallest input."""
    return min((job[0] for job in jobs), key=lambda op: op.size)


class Setup:
    """A fresh import of zcolor, the workload's inputs and one warm-up op."""

    def __init__(self, workload: str, seed: int, work: Path):
        for name in [m for m in sys.modules if m == "zcolor" or m.startswith("zcolor.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("zcolor.cli")
        zc = importlib.import_module("zcolor")
        importlib.import_module("zcolor.generate")
        rng = random.Random(seed)
        work.mkdir(parents=True)
        self.work = work
        self.jobs = WORKLOADS[workload](zc, rng, work)
        # Chosen before the shuffle, so the seed does not change it.
        self.smallest = smallest_op(self.jobs)
        rng.shuffle(self.jobs)
        rc, out, _ = call_cli(self.cli.main, self.smallest.argv)
        require(judge(self.smallest, rc, out) is not None,
                f"warm-up op {self.smallest.argv} was refused")

    def main(self, argv):
        return self.cli.main(argv)  # looked up per call, so tracing wrappers apply


def cold_start_s(op, work: Path) -> float:
    """Wall time of a fresh ``python -m zcolor.cli`` process running ``op``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "zcolor.cli", *op.argv], cwd=work,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    require(judge(op, proc.returncode, proc.stdout) is not None,
            f"cold-start op {op.argv} was refused: {proc.stderr[-300:]}")
    return seconds


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it, or the maximum if there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def metadata(workload: str) -> dict:
    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "zcolor").rglob("*.py")):
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "workload": workload, "why": WHY[workload]}


def measure(workload: str, seed: int, work: Path) -> tuple[Tally, dict, dict]:
    setup_times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup = Setup(workload, seed, work / f"setup{i}")
        setup_times.append(time.perf_counter() - start)
    # Cold starts are sampled evenly between the jobs of the run, so they
    # see the same machine speed as the timed ops.
    stride = -(-len(setup.jobs) * PASSES[workload] // COLD_START_SAMPLES)
    jobs_done = itertools.count()
    cold: list[float] = []

    def sample_cold_start() -> None:
        if next(jobs_done) % stride == 0 and len(cold) < COLD_START_SAMPLES:
            cold.append(cold_start_s(setup.smallest, setup.work))

    tally = Tally()
    for _ in range(PASSES[workload]):
        run_pass(setup.main, setup.jobs, tally, after_job=sample_cold_start)
    require(tally.latencies != [], "no op succeeded")
    tail_value, tail_pct, beyond = tail(tally.latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(tally.latencies) / tally.busy_s,
        "op_p50_ms": statistics.median(tally.latencies) * 1000,
        "op_tail_ms": tail_value * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cold_start_ms": statistics.median(cold) * 1000,
    }
    detail = {"passes": PASSES[workload], "ok_ops": len(tally.latencies),
              "fail_ratio": tally.fail_ratio, "op_tail_percentile": tail_pct,
              "op_tail_samples_beyond": beyond, "busy_s": tally.busy_s,
              "setup_runs_s": setup_times}
    return tally, metrics, detail


def measure_traced(workload: str, seed: int, work: Path, spans_path: Path
                   ) -> tuple[Tally, dict, dict]:
    setup = Setup(workload, seed, work / "setup")
    n_ops = sum(len(job) for job in setup.jobs)
    tracer = Tracer(stride=-(-n_ops // OVERHEAD_SAMPLES))
    tally = Tally()
    run_pass(setup.main, setup.jobs, tally, tracer)
    spans = tracer.recorder.spans
    metrics = layer_metrics(spans, tally.emitted_moves, tally.fail_ratio,
                            tracer.traced_s / tracer.untraced_s)
    tracer.recorder.write(spans_path)
    detail = {"spans": len(spans), "spans_file": str(spans_path.relative_to(ROOT)),
              "traced_busy_s": tally.busy_s, "overhead_stride": tracer.stride,
              "overhead_untraced_s": tracer.untraced_s, "overhead_traced_s": tracer.traced_s}
    return tally, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "zcolor" / "cli.py").is_file():
        print(f"zcolor sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / ".work" / f"{stem}-{os.getpid()}"
    try:
        if args.trace:
            tally, values, detail = measure_traced(
                args.workload, args.seed, work, results / f"{stem}.spans.jsonl")
            units = dict(per_layer_metrics())
        else:
            tally, values, detail = measure(args.workload, args.seed, work)
            units = dict(END_TO_END)
    except WrongOutput as err:
        print(f"wrong output, run aborted: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": True, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    meta = metadata(args.workload)
    (results / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "seed": args.seed, "seconds": args.seconds, "detail": detail,
         **result}, indent=2) + "\n")
    print("# " + json.dumps(meta))
    print("# " + json.dumps(detail))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"# fail_ratio = {tally.fail_ratio:.6g} 1 ({tally.failed} of {tally.attempted} "
              "ops refused)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
