"""Fast tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert spec["paths"] == ["perfbench"]


def test_writhe_and_components_from_pd_text():
    assert checks.components_and_writhe(checks.pd_rows(TREFOIL)) == (1, -3)
    assert checks.components_and_writhe(checks.pd_rows("X[4,1,3,2] X[2,3,1,4]")) == (2, -2)


def test_cable_writhe_formula_and_lattice_vectors():
    import zcolor

    base = zcolor.parse_pd(TREFOIL)
    cabled = zcolor.parallel(base, zcolor.CableSpec(multiplicities=(4,)))
    rows = checks.pd_rows(zcolor.serialize_pd(cabled))
    checks.check_cable(rows, -3, 4, 4)
    with pytest.raises(checks.WrongOutput, match="cabling formula"):
        checks.check_cable(rows, -2, 4, 4)
    lattice = zcolor.diagram_lattice(zcolor.parse_pd(zcolor.serialize_pd(cabled)))
    for vector in lattice.edge_vectors():
        checks.check_coloring(rows, vector)


def test_corrupted_coloring_fails_the_relation_check():
    rows = checks.pd_rows(TREFOIL)
    with pytest.raises(checks.WrongOutput):
        checks.check_coloring(rows, {e: 0 for e in range(1, 7)} | {1: 1})
    with pytest.raises(checks.WrongOutput, match="not simple"):
        checks.check_simple(rows, {e: 0 for e in range(1, 7)})


def test_same_diagram_up_to_relabelling():
    rows = checks.pd_rows(TREFOIL)
    shift = {e: e % 6 + 1 for e in range(1, 7)}
    relabelled = [tuple(shift[e] for e in r) for r in reversed(rows)]
    assert checks.same_diagram(rows, relabelled)
    mirror = [(a, d, c, b) for a, b, c, d in rows]
    assert not checks.same_diagram(rows, mirror)


def test_slope_fit():
    assert tracing.fit_slope([(n, 3.0 * n ** 2) for n in (10, 20, 40)]) == pytest.approx(2.0)
    assert tracing.fit_slope([(10, 1.0), (10, 2.0)]) == 0.0


def _only(workload: str, pick, monkeypatch):
    """Restrict a workload to the jobs whose first op's argv satisfies pick."""
    make = workloads.WORKLOADS[workload]
    monkeypatch.setitem(run.WORKLOADS, workload, lambda zc, rng, work: [
        job for job in make(zc, rng, work) if pick(job[0].argv)])


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_corrupted_coloring_aborts_a_run(monkeypatch, capsys):
    _only("reduce", lambda argv: argv[2] == "4,4", monkeypatch)
    real = run.call_cli

    def corrupting(main, argv):
        rc, out, seconds = real(main, argv)
        if argv[0] == "color-parallel":
            doc = json.loads(out)
            arc = next(iter(doc["reduced_coloring"]))
            doc["reduced_coloring"][arc] += 1
            out = json.dumps(doc)
        return rc, out, seconds

    monkeypatch.setattr(run, "call_cli", corrupting)
    assert run.main(["--workload", "reduce", "--seed", "1", "--seconds", "0"]) == 1
    assert _last_line(capsys)["correct"] is False


def test_refused_op_counts_toward_fail_ratio(monkeypatch, tmp_path):
    import zcolor.cli
    import zcolor.generate

    jobs = [job for job in workloads.simplify_jobs(zcolor, random.Random(1), tmp_path)
            if "4" not in job[0].argv[1].split("chain-")[1]][:3]  # none refused
    refused = jobs[1][0].argv
    real = run.call_cli

    def refusing(main, argv):
        if argv == refused:
            return 1, json.dumps({"error": {"type": "RewriteError", "message": "x"}}), 0.01
        return real(main, argv)

    monkeypatch.setattr(run, "call_cli", refusing)
    tally = run.Tally()
    run.run_pass(zcolor.cli.main, jobs, tally)
    assert (tally.attempted, tally.failed, len(tally.latencies)) == (3, 1, 2)
    assert tally.fail_ratio == pytest.approx(1 / 3)


def test_simplify_output_of_another_diagram_is_wrong(tmp_path):
    import zcolor.cli
    import zcolor.generate

    ops = [job[0] for job in workloads.simplify_jobs(zcolor, random.Random(1), tmp_path)
           if "chain-12-" in job[0].argv[1] or "chain-123-" in job[0].argv[1]]
    docs = []
    for op in ops:
        rc, out, _ = run.call_cli(zcolor.cli.main, op.argv)
        docs.append(json.loads(out))
        assert run.judge(op, rc, out) is not None
    with pytest.raises(checks.WrongOutput):
        ops[0].check(docs[1])


@pytest.mark.parametrize("rc, error_type", [(1, "KeyError"), (2, "usage")])
def test_untyped_failures_are_wrong_outputs(rc, error_type):
    op = workloads.Op(["validate", "x.pd"], 1, lambda doc: 0)
    with pytest.raises(checks.WrongOutput):
        run.judge(op, rc, json.dumps({"error": {"type": error_type}}))


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys):
    _only("simplify", lambda argv: "chain-12-k1" in argv[1] or "chain-13-k1" in argv[1],
          monkeypatch)
    assert run.main(["--workload", "simplify", "--seed", "1", "--seconds", "0",
                     "--trace", "1"]) == 0
    result = _last_line(capsys)
    assert result["correct"] is True and result["attempted"] == 2
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in tracing.per_layer_metrics()]
    assert metrics["rewrite.to_simple_coloring.calls"]["value"] == 2
    assert metrics["cli.self_ms"]["value"] > 0
    assert metrics["algebra.self_ms"]["value"] == 0


def test_tracer_restores_the_package():
    import zcolor.cli
    import zcolor.moves

    original = zcolor.moves.apply_move
    tracer = run.Tracer(stride=1)
    with tracer.op(0):
        assert zcolor.moves.apply_move is not original
        zcolor.cli.main(["--pretty", "validate", str(ROOT / "src/zcolor/corpus/hopf.pd")])
    assert zcolor.moves.apply_move is original
    spans = tracer.recorder.spans
    assert spans[0][0] == "cli.main" and spans[0][1] == -1
    assert all(0 <= parent < i for i, (_, parent, *_) in enumerate(spans) if i)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reduce",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

