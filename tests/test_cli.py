import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import reference_coloring_faults, reference_lattice_json
from zcolor import algebra, diagram, jsonio, moves
from zcolor.cabling import CableSpec, parallel
from zcolor.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "src" / "zcolor" / "corpus"


def _src_env() -> dict:
    """The environment with this checkout's ``src/`` first on PYTHONPATH."""
    src = str(CORPUS.parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_invariants_trefoil(capsys):
    code, doc = run(capsys, "invariants", str(CORPUS / "trefoil.pd"))
    assert code == 0
    assert doc["writhe"] == -3
    assert doc["determinant"] == 3
    assert doc["components"] == 1
    assert doc["z_colorable"] is False
    assert doc["schema_version"] == 1


def test_validate_garbage_exits_2(tmp_path, capsys):
    bad = tmp_path / "garbage.txt"
    bad.write_text("this is not a pd file")
    code, doc = run(capsys, "validate", str(bad))
    assert code == 2
    assert doc["error"]["type"] == "syntax"
    assert "line" in doc["error"]


def test_validate_refuses_integers_pd_does_not_spell(tmp_path, capsys):
    """Each spelling ``parse_pd`` refuses is a syntax error at its token (exit 2)."""
    from test_diagram import BAD_INTEGERS

    for k, (text, line, column, message) in enumerate(BAD_INTEGERS):
        pd = tmp_path / f"bad{k}.pd"
        pd.write_text(text, encoding="utf-8")
        code, doc = run(capsys, "validate", str(pd))
        assert code == 2, text
        assert doc["error"] == {"type": "syntax", "line": line, "column": column,
                                "message": f"line {line}, column {column}: {message}"}


def test_validate_prints_a_failed_euler_check(tmp_path, capsys):
    pd = tmp_path / "no_embedding.pd"
    pd.write_text("X[1,2,3,4] X[2,3,1,4]\n")
    code, doc = run(capsys, "validate", str(pd))
    assert code == 0
    assert doc["valid"] is False
    assert doc["diagnostics"] == ["face count 2 violates Euler formula (V=2, E=4, pieces=1)"]


def test_missing_file_is_usage_error(capsys):
    code, doc = run(capsys, "invariants", "no-such-file.pd")
    assert code == 2
    assert doc["error"]["type"] == "usage"


def test_domain_error_exits_1(capsys):
    code, doc = run(capsys, "cable", "--two-parallel-untwisted",
                    str(CORPUS / "trefoil.pd"))
    assert code == 1
    assert "linking number" in doc["error"]["message"]


def test_fox_count(capsys):
    code, doc = run(capsys, "fox-count", str(CORPUS / "trefoil.pd"), "-n", "3")
    assert code == 0
    assert doc["count"] == 9


def test_cable_spec(capsys):
    code, doc = run(capsys, "cable", "--spec", "3,2", str(CORPUS / "hopf.pd"))
    assert code == 0
    assert doc["crossings"] == 12


@pytest.mark.parametrize("spec", ["0,1", "-1,2", "0"])
def test_cable_refuses_a_nonpositive_multiplicity(capsys, spec):
    """Positivity is checked before the count: ``0`` is one multiplicity for
    hopf's two components.  ``-1,2`` reads as the value of ``--spec``, not as
    an option, whether it follows ``--spec=`` or a space."""
    for command in ("cable", "color-parallel"):
        for spelling in ([f"--spec={spec}"], ["--spec", spec]):
            code, doc = run(capsys, command, *spelling, str(CORPUS / "hopf.pd"))
            assert code == 1, (command, spelling)
            assert doc["error"] == {"type": "CableError",
                                    "message": "multiplicities must be positive"}, spelling


def test_cli_import_loads_no_dataclasses_machinery():
    """A command's start-up imports neither ``dataclasses`` nor ``inspect``
    (with ``ast``, ``dis`` and ``tokenize`` behind it)."""
    script = ("import sys, zcolor.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_color_parallel_reduce(capsys):
    code, doc = run(capsys, "color-parallel", "--spec", "4,4", "--reduce",
                    str(CORPUS / "hopf.pd"))
    assert code == 0
    assert doc["palette"] == [-1, 0, 1, 2]
    assert doc["traces"]


def test_color_two_parallel_via_spec2(capsys):
    code, doc = run(capsys, "color-parallel", "--spec", "2", "--reduce",
                    str(CORPUS / "unknot_writhe0.pd"))
    assert code == 0
    assert doc["palette"] == [0, 1, 2, 3]


def test_verify_and_spectrum(tmp_path, capsys):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({str(e): 5 for e in range(1, 7)}))
    code, doc = run(capsys, "verify", str(CORPUS / "trefoil.pd"), str(coloring))
    assert code == 0
    assert doc["valid"] is True
    assert doc["d_m"] == 0
    assert doc["palette"] == [5]


def _reduced_hopf(tmp_path, capsys) -> tuple[Path, dict, Path]:
    """The emitted hopf (4,4) parallel, its deletion trace and its reduced PD."""
    code, doc = run(capsys, "color-parallel", "--spec", "4,4", "--reduce",
                    str(CORPUS / "hopf.pd"))
    assert code == 0 and len(doc["traces"]) == 1
    source, target = tmp_path / "h44.pd", tmp_path / "h44_reduced.pd"
    source.write_text(doc["pd"])
    target.write_text(doc["reduced_pd"])
    return source, doc["traces"][0], target


def test_replay_round_trip(tmp_path, capsys, count_calls):
    """``replay --check`` replays once, for the result and the locality check.

    Neither it nor ``color-parallel --reduce`` reads the Fox arc classes.
    """
    from zcolor.diagram import Diagram

    merges = count_calls(diagram, "_merge_over_pairs")
    source, trace, target = _reduced_hopf(tmp_path, capsys)
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(trace))
    applied = count_calls(moves, "apply_move")
    builds = count_calls(Diagram, "__init__")
    relabellings = count_calls(diagram, "_canonical_rows")
    code, doc = run(capsys, "replay", str(source), str(trace_file), "--check", str(target))
    assert code == 0
    assert doc["equivalent"] is True
    assert len(applied) == sum(len(stage["moves"]) for stage in trace["stages"]) > 0
    # the two parsed files and the one replayed result
    assert len(builds) == 3
    assert merges == []
    # the replay holds the target's rows, so no canonical relabelling runs
    assert relabellings == []


def test_replay_check_relabelled_target_is_equivalent(tmp_path, capsys, count_calls):
    """A target written with canonical labels misses the rows-and-signs
    match and is still found equivalent, by comparing both sides' canonical
    rows; the replayed ``Diagram`` is built once, for the output and the
    check alike."""
    from zcolor.diagram import Diagram

    source, trace, target = _reduced_hopf(tmp_path, capsys)
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(trace))
    relabelled = tmp_path / "relabelled.pd"
    relabelled.write_text(diagram.serialize_pd(diagram.parse_pd(target.read_text())))
    assert relabelled.read_text() != target.read_text()
    builds = count_calls(Diagram, "__init__")
    relabellings = count_calls(diagram, "_canonical_rows")
    code, doc = run(capsys, "replay", str(source), str(trace_file), "--check", str(relabelled))
    assert (code, doc["equivalent"], doc["reasons"]) == (0, True, [])
    # the two parsed files and the one replayed result
    assert len(builds) == 3
    assert len(relabellings) == 2


def test_corpus_runner(capsys):
    code, doc = run(capsys, "corpus", str(CORPUS))
    assert code == 0
    assert doc["failures"] == 0
    assert len(doc["entries"]) >= 7


def test_corpus_empty_dir(tmp_path, capsys):
    code, doc = run(capsys, "corpus", str(tmp_path))
    assert code == 0
    assert doc["entries"] == []


def test_corpus_detects_corruption(tmp_path, capsys):
    (tmp_path / "bad.pd").write_text("X[1,1,1,1]")
    code, doc = run(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert doc["failures"] == 1
    assert doc["entries"][0]["file"] == "bad.pd"


@pytest.mark.parametrize("sidecar, why", [
    ("{bad", "invalid JSON"),
    ('{"nope": 1}', "unknown invariants ['nope']"),
    ("[0]", "expected a JSON object"),
])
def test_corpus_reports_a_bad_sidecar(tmp_path, capsys, sidecar, why):
    (tmp_path / "hopf.pd").write_text((CORPUS / "hopf.pd").read_text())
    (tmp_path / "hopf.expected.json").write_text(sidecar)
    (tmp_path / "trefoil.pd").write_text((CORPUS / "trefoil.pd").read_text())
    code, doc = run(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert doc["failures"] == 1
    bad, good = doc["entries"]
    assert bad["file"] == "hopf.pd" and not bad["ok"]
    assert "hopf.expected.json" in bad["error"] and why in bad["error"]
    assert good["file"] == "trefoil.pd" and good["ok"]


def test_corpus_reports_a_mismatch(tmp_path, capsys):
    (tmp_path / "trefoil.pd").write_text((CORPUS / "trefoil.pd").read_text())
    expected = json.loads((CORPUS / "trefoil.expected.json").read_text())
    (tmp_path / "trefoil.expected.json").write_text(json.dumps({**expected, "determinant": 5}))
    code, doc = run(capsys, "corpus", str(tmp_path))
    assert (code, doc["failures"]) == (1, 1)
    [entry] = doc["entries"]
    assert entry["ok"] is False
    assert entry["mismatches"] == {"determinant": {"expected": 5, "got": 3}}


def test_minimize(capsys):
    code, doc = run(capsys, "minimize", "--bound", "2",
                    str(CORPUS / "split_unlink.pd"))
    assert code == 0
    assert doc["palette_size"] >= 2


def hopf_parallel_pd(tmp_path, n: int) -> str:
    """The (n, n) parallel of the Hopf link, written as a PD file."""
    from zcolor.cabling import CableSpec, parallel
    from zcolor.diagram import parse_pd, serialize_pd

    hopf = parse_pd((CORPUS / "hopf.pd").read_text())
    pd_file = tmp_path / f"hopf-{n}.pd"
    pd_file.write_text(serialize_pd(parallel(hopf, CableSpec(multiplicities=(n, n)))))
    return str(pd_file)


def test_minimize_runs_without_numpy(tmp_path):
    script = ("import sys; sys.modules['numpy'] = None\n"
              "from zcolor.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    done = subprocess.run(
        [sys.executable, "-c", script, "minimize", "--bound", "3", hopf_parallel_pd(tmp_path, 4)],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout)["palette_size"] == 4


@pytest.mark.parametrize("n, k", [(6, 9), (8, 13)])
def test_minimize_refuses_an_oversized_box(tmp_path, capsys, n, k):
    pd_file = hopf_parallel_pd(tmp_path, n)
    start = time.perf_counter()
    code, doc = run(capsys, "minimize", "--bound", "3", pd_file)
    assert time.perf_counter() - start < 5
    assert code == 1
    assert doc["error"]["type"] == "ColoringError"
    assert f"7^{k} = {7 ** k} vectors" in doc["error"]["message"]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["fox-count", "--help"]) == 0


def test_output_determinism(capsys):
    code1, doc1 = run(capsys, "invariants", str(CORPUS / "figure8.pd"))
    code2, doc2 = run(capsys, "invariants", str(CORPUS / "figure8.pd"))
    assert doc1 == doc2


def test_simplify_coloring_command(tmp_path, capsys):
    from zcolor.diagram import serialize_pd_raw
    from zcolor.generate import diff_chain

    d, g = diff_chain([2, 1])
    pd_file = tmp_path / "chain.pd"
    pd_file.write_text(serialize_pd_raw(d))
    coloring = tmp_path / "chain.json"
    coloring.write_text(json.dumps({str(e): c for e, c in g.items()}))
    code, doc = run(capsys, "simplify-coloring", str(pd_file), str(coloring))
    assert code == 0
    assert doc["simple"][0] is True
    assert doc["trace"]["stages"]


def test_a_rewriting_command_verifies_its_input_and_output_once(tmp_path, capsys, count_calls):
    """``simplify-coloring`` and ``color-parallel --reduce`` each run
    ``verify_coloring`` twice: on the input coloring and on the output's.
    ``simple`` is read off the output's diffs, not verified again."""
    from zcolor import coloring, parallel_coloring
    from zcolor.diagram import serialize_pd_raw
    from zcolor.generate import diff_chain

    d, g = diff_chain((3, 1, 2), 1)
    pd_file = tmp_path / "chain.pd"
    pd_file.write_text(serialize_pd_raw(d))
    coloring_file = tmp_path / "chain.json"
    coloring_file.write_text(json.dumps(jsonio.coloring_to_json(g)))
    calls = [count_calls(module, "verify_coloring") for module in (coloring, parallel_coloring)]
    for argv, key, want in (
            (["simplify-coloring", str(pd_file), str(coloring_file)], "simple", [True, 1]),
            (["color-parallel", "--spec", "4,4", "--reduce", str(CORPUS / "hopf.pd")],
             "palette", [-1, 0, 1, 2])):
        for counted in calls:
            counted.clear()
        code, doc = run(capsys, *argv)
        assert (code, doc[key]) == (0, want), argv
        assert sum(map(len, calls)) == 2, argv


def test_verify_checks_the_coloring_once(tmp_path, capsys, count_calls):
    """``verify`` runs ``verify_coloring`` once and reads the spectrum of
    the coloring it verified; an invalid coloring still prints
    ``"valid": false``, and a coloring that is not total still exits 1."""
    from zcolor import coloring

    code, doc = run(capsys, "color-parallel", "--spec", "4,4", str(CORPUS / "hopf.pd"))
    assert code == 0
    pd_file = tmp_path / "hopf-44.pd"
    pd_file.write_text(doc["pd"])
    gamma = jsonio.coloring_from_json(doc["coloring"])
    calls = count_calls(coloring, "verify_coloring")
    bad = dict(gamma)
    bad[min(bad)] += 1
    for name, g, want in (("valid", gamma, 0), ("invalid", bad, 0), ("partial", {1: 0}, 1)):
        calls.clear()
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(jsonio.coloring_to_json(g)))
        code, out = run(capsys, "verify", str(pd_file), str(path))
        assert (code, len(calls)) == (want, 1), name
        if name == "valid":
            assert out["valid"] is True and out["palette"] == doc["palette"]
            assert len(out["diffs"]) == 32
        elif name == "invalid":
            assert out == {"schema_version": 1, "valid": False}
        else:
            assert out["error"]["type"] == "ColoringError"


def test_colorability_emits_lattice(capsys):
    code, doc = run(capsys, "colorability", str(CORPUS / "trefoil.pd"))
    assert code == 0
    assert doc["kernel_rank"] == 1
    assert doc["lattice"]["rank"] == 1
    assert doc["z_colorable"] is False


def test_lattice_json_matches_the_reference_writer(corpus):
    """One key list per lattice writes what expanding and encoding each
    basis vector wrote, as objects and as ``dumps`` text."""
    lattices = [algebra.diagram_lattice(d) for d in corpus.values()]
    for name in ("figure8", "trefoil", "hopf"):
        base = corpus[name]
        for k in (2, 4):
            spec = CableSpec(multiplicities=(k,) * len(base.components))
            lattices.append(algebra.diagram_lattice(parallel(base, spec)))
    lattices += [algebra.diagram_lattice(diagram.parse_pd(text)) for text in ("", "X[1,1,2,2]")]
    safe = 2 ** 53 - 1
    lattices.append(algebra.ColoringLattice(
        basis=((1, -1, 0), (safe, -safe, 7), (safe + 1, -3, 0), (0, -2 ** 70, 5)),
        columns=(1, 4, 9),
        edge_class=((1, 1), (2, 9), (3, 4), (4, 4), (9, 9), (11, 1))))
    assert [lat.rank for lat in lattices[-3:]] == [0, 1, 4]
    for lat in lattices:
        got, want = jsonio.lattice_to_json(lat), reference_lattice_json(lat)
        assert got == want
        assert jsonio.dumps(got) == jsonio.dumps(want)
    encoded = jsonio.lattice_to_json(lattices[-1])["basis"]
    assert encoded[1]["1"] == safe and encoded[2]["1"] == str(safe + 1) and encoded[2]["2"] == 0
    assert encoded[3]["3"] == str(-2 ** 70) and encoded[3]["9"] == 5


def test_colorability_eliminates_once(capsys, count_calls):
    calls = count_calls(algebra, "_unit_pivots")
    merges = count_calls(diagram, "_merge_over_pairs")
    for name in ("trefoil", "figure8", "hopf", "split_unlink"):
        calls.clear()
        merges.clear()
        code, doc = run(capsys, "colorability", str(CORPUS / f"{name}.pd"))
        assert code == 0
        assert len(calls) == 1, name
        assert len(merges) <= 1, name


def test_invariants_eliminates_once(capsys, count_calls):
    calls = count_calls(algebra, "_unit_pivots")
    merges = count_calls(diagram, "_merge_over_pairs")
    # a split diagram's determinant is 0 without elimination
    for name, passes in (("trefoil", 1), ("figure8", 1), ("hopf", 1), ("split_unlink", 0)):
        calls.clear()
        merges.clear()
        code, _ = run(capsys, "invariants", str(CORPUS / f"{name}.pd"))
        assert code == 0
        assert len(calls) == passes, name
        assert len(merges) <= 1, name


def test_two_kink_writhe0_unknot_reduces_to_four_colors(tmp_path, capsys):
    """A writhe-0 unknot of two opposite kinks on one arc.

    Its 4-pass creates -1 and its -1 pass removes it; the palette is checked
    once, after both, so the reduction reaches {0,1,2,3}.  ``verify``
    accepts the reduced pair, and the two traces, run one after the other,
    replay to the reduced diagram.
    """
    pd = tmp_path / "two_kinks.pd"
    pd.write_text("% component: 1 2 3 4\nX[1,1,2,4] X[2,3,3,4]\n")
    code, doc = run(capsys, "color-parallel", "--spec", "2", "--reduce", str(pd))
    assert code == 0, doc
    assert doc["palette"] == [0, 1, 2, 3]
    assert len(doc["traces"]) == 2
    source, target = tmp_path / "raw.pd", tmp_path / "reduced.pd"
    coloring, trace = tmp_path / "reduced.json", tmp_path / "trace.json"
    source.write_text(doc["pd"])
    target.write_text(doc["reduced_pd"])
    coloring.write_text(json.dumps(doc["reduced_coloring"]))
    trace.write_text(json.dumps(
        {"schema_version": 1, "stages": [s for t in doc["traces"] for s in t["stages"]]}))
    code, out = run(capsys, "verify", str(target), str(coloring))
    assert (code, out["valid"], out["palette"]) == (0, True, [0, 1, 2, 3])
    code, out = run(capsys, "replay", str(source), str(trace), "--check", str(target))
    assert (code, out["equivalent"], out["reasons"]) == (0, True, [])


def test_colorability_omits_constant_witness(tmp_path, capsys):
    pd_file = tmp_path / "kink_and_loop.pd"
    pd_file.write_text("X[1,1,2,2]\n% loops: 1\n")
    code, doc = run(capsys, "colorability", str(pd_file))
    assert code == 0
    assert doc["z_colorable"] is True
    assert "witness" not in doc


TREFOIL = str(CORPUS / "trefoil.pd")
HOPF = str(CORPUS / "hopf.pd")
NOT_A_TRACE = {"schema_version": 1}
UNKNOWN_MOVE = {"stages": [{"moves": [{"kind": "R9", "disk": 0}], "disks": {}}]}
MISSING_CROSSING = {"stages": [{"moves": [{"kind": "R1-", "crossing": 99, "disk": 0}],
                                "disks": {}}]}


def _trace(move: dict, disk=0) -> dict:
    """A one-move trace document."""
    return {"stages": [{"moves": [dict(move, disk=disk)], "disks": {"0": [0]}}]}


@pytest.mark.parametrize("argv, document, code, error_type, names", [
    (["fox-count", "-n", "1", TREFOIL], None, 2, "usage", "-n 1"),
    (["fox-count", "-n", "0", TREFOIL], None, 2, "usage", "-n 0"),
    (["cable", "--spec", "a", TREFOIL], None, 2, "usage", "--spec"),
    (["color-parallel", "--spec", "x", TREFOIL], None, 2, "usage", "--spec"),
    (["verify", TREFOIL, "DOC"], {"a": 1}, 2, "usage", "doc.json"),
    (["verify", TREFOIL, "DOC"], [1, 2], 2, "usage", "doc.json"),
    (["replay", TREFOIL, "DOC"], NOT_A_TRACE, 2, "usage", "doc.json"),
    (["replay", TREFOIL, "DOC"], UNKNOWN_MOVE, 2, "usage", "doc.json"),
    (["replay", TREFOIL, "DOC"], MISSING_CROSSING, 1, "MoveError", "crossing"),
    (["verify", TREFOIL, "DOC"], {str(e): 1.5 for e in range(1, 7)}, 2, "usage", "doc.json"),
    (["fox-count", TREFOIL, "-n", "abc"], None, 2, "usage", "-n"),
    (["fox-count"], None, 2, "usage", "pd"),
    (["no-such-command", TREFOIL], None, 2, "usage", "no-such-command"),
    (["replay", TREFOIL, "DOC"], _trace({"kind": "R1+", "edge": 1.0, "sign": 1}), 2, "usage",
     "doc.json"),
    (["replay", TREFOIL, "DOC"], _trace({"kind": "R1+", "edge": 1, "sign": True}), 2, "usage",
     "doc.json"),
    (["replay", TREFOIL, "DOC"], _trace({"kind": "R1+", "edge": 1, "sign": 1, "over_first": "no"}),
     2, "usage", "doc.json"),
    (["replay", TREFOIL, "DOC"], _trace({"kind": "R1-", "crossing": [0]}), 2, "usage", "doc.json"),
    (["replay", TREFOIL, "DOC"], _trace({"kind": "R2+", "push": 1, "across": 4, "over": 1}),
     2, "usage", "doc.json"),
    (["replay", TREFOIL, "DOC"], _trace({"kind": "R2+", "push": 1, "across": 4, "over": True,
                                         "corner": [0]}), 2, "usage", "doc.json"),
    (["replay", TREFOIL, "DOC"], _trace({"kind": "R2-", "crossings": [0, "x"]}), 2, "usage",
     "doc.json"),
    (["replay", TREFOIL, "DOC"], _trace({"kind": "R3", "crossings": [0, 1]}), 2, "usage",
     "doc.json"),
    (["replay", TREFOIL, "DOC"], _trace({"kind": "R1-", "crossing": 0}, disk=0.5), 2, "usage",
     "doc.json"),
    (["verify", TREFOIL, "DOC"], {**{str(e): 0 for e in range(1, 7)}, "99": 7}, 1,
     "ColoringError", "[99]"),
    (["simplify-coloring", TREFOIL, "DOC"], {**{str(e): 0 for e in range(1, 7)}, "99": 7}, 1,
     "ColoringError", "[99]"),
    # coloring keys that int() reads but that are not arc labels as written:
    # "01" would merge with "1", and "1_0" would name arc 10
    (["verify", TREFOIL, "DOC"], {"1": 0, "01": 1, **{str(e): 0 for e in range(2, 7)}}, 2,
     "usage", "doc.json"),
    (["verify", TREFOIL, "DOC"], {**{str(e): 0 for e in range(1, 7)}, "1_0": 0}, 2, "usage",
     "doc.json"),
    (["verify", TREFOIL, "DOC"], {**{str(e): 0 for e in range(2, 7)}, " 1": 0}, 2, "usage",
     "doc.json"),
    (["verify", TREFOIL, "DOC"], {**{str(e): 0 for e in range(2, 7)}, "+1": 0}, 2, "usage",
     "doc.json"),
    (["simplify-coloring", TREFOIL, "DOC"], {**{str(e): 0 for e in range(1, 7)}, "0": 0}, 2,
     "usage", "doc.json"),
    # on hopf.pd (kernel rank 1) the library would refuse the rank before the bound
    (["minimize", "--bound", "0", HOPF], None, 2, "usage", "--bound 0"),
    (["minimize", "--bound", "-1", HOPF], None, 2, "usage", "--bound -1"),
    (["cable", "--spec", "2,2", "--two-parallel-untwisted", HOPF], None, 2, "usage",
     "not allowed with"),
    # colors that int() reads but that are not integers as written: the
    # trefoil would verify with palette [10]
    *[(["verify", TREFOIL, "DOC"], {str(e): color for e in range(1, 7)}, 2, "usage",
       "expected an integer") for color in ["1_0", " 10", "+10", "١٠", "010", "-0", ""]],
    # disk keys that int() reads as one id would merge their crossings
    *[(["replay", TREFOIL, "DOC"], {"stages": [{"moves": [], "disks": {a: [0], b: [1]}}]}, 2,
       "usage", "disk key") for a, b in [("1", "01"), ("0", "-0"), ("1", " 1"), ("1", "+1")]],
    # moves that parse but do not apply
    (["replay", TREFOIL, "DOC"], _trace({"kind": "R1+", "edge": 9, "sign": 1}), 1, "MoveError",
     "no such arc: 9"),
    (["replay", TREFOIL, "DOC"], _trace({"kind": "R1+", "edge": 1, "sign": 2}), 1, "MoveError",
     "kink sign must be +1 or -1"),
    (["corpus", str(CORPUS / "no-such-dir")], None, 2, "usage", "no such corpus directory"),
])
def test_bad_input_prints_one_json_error(tmp_path, capsys, argv, document, code, error_type,
                                         names):
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(json.dumps(document))
    argv = [str(doc_file) if a == "DOC" else a for a in argv]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["type"] == error_type
    assert names in error["message"]


def test_back_to_back_calls_share_no_option_state(capsys, count_calls):
    """``main`` reuses one parser; no option of one call reaches the next."""
    from zcolor import cli

    cli._parser.cache_clear()
    builds = count_calls(cli, "build_parser")
    unknot = str(CORPUS / "unknot_writhe0.pd")
    code, spec2 = run(capsys, "cable", "--spec", "2", unknot)
    assert code == 0
    code, untwisted = run(capsys, "cable", "--two-parallel-untwisted", unknot)
    assert (code, untwisted) == (0, spec2)
    # a leaked --spec or --two-parallel-untwisted would make this succeed
    code, doc = run(capsys, "cable", unknot)
    assert code == 2 and "needs --spec" in doc["error"]["message"]

    assert main(["--pretty", "invariants", TREFOIL]) == 0
    assert capsys.readouterr().out.count("\n") > 1
    assert main(["invariants", TREFOIL]) == 0
    assert capsys.readouterr().out.count("\n") == 1

    code, doc = run(capsys, "fox-count", TREFOIL, "-n", "3")
    assert (code, doc["count"]) == (0, 9)
    code, doc = run(capsys, "fox-count", TREFOIL, "-n", "abc")
    assert (code, doc["error"]["type"]) == (2, "usage")
    code, doc = run(capsys, "fox-count", TREFOIL)
    assert (code, doc["error"]["type"]) == (2, "usage")
    assert len(builds) == 1


@pytest.mark.parametrize("check", [None, "missing.pd", "target"])
def test_replay_failing_mid_trace_is_a_move_error(tmp_path, capsys, check):
    """A move that does not apply exits 1 before the target is read."""
    trace = {"stages": [{"moves": [
        {"kind": "R2+", "push": 1, "across": 4, "over": True, "disk": 0},
        {"kind": "R1-", "crossing": 0, "disk": 0},
    ], "disks": {"0": [0]}}]}
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(trace))
    argv = ["replay", TREFOIL, str(trace_file)]
    if check is not None:
        argv += ["--check", TREFOIL if check == "target" else str(tmp_path / check)]
    code, doc = run(capsys, *argv)
    assert code == 1
    assert doc["error"]["type"] == "MoveError"
    assert "not a removable kink" in doc["error"]["message"]


def test_replay_check_reports_the_reasons_of_verify_local_equivalence(tmp_path, capsys):
    """A non-local trace against a wrong target: every reason, in order."""
    from zcolor.diagram import parse_pd
    from zcolor.jsonio import trace_from_json
    from zcolor.moves import verify_local_equivalence

    source, trace, _ = _reduced_hopf(tmp_path, capsys)
    stage = trace["stages"][0]
    first, second = sorted(stage["disks"])[:2]
    stage["disks"][second] = stage["disks"][first]       # overlapping disks
    stage["disks"][first] = stage["disks"][first][:1]     # moves touch outside their disk
    stage["moves"][-1]["disk"] = 99                       # an unknown disk
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(trace))
    code, doc = run(capsys, "replay", str(source), str(trace_file), "--check", str(source))
    assert (code, doc["equivalent"]) == (0, False)
    d = parse_pd(source.read_text())
    report = verify_local_equivalence(d, d, trace_from_json(trace))
    assert doc["reasons"] == list(report.reasons)
    for kind in ("overlap", "outside disk", "unknown disk", "does not match"):
        assert any(kind in r for r in doc["reasons"]), kind


def test_a_trace_with_the_dropped_lean_forward_key_replays_the_same(tmp_path, capsys):
    """Older traces carry ``"lean_forward": true`` on every R2+ move, a key
    that no move read; ``replay`` ignores it."""
    source, trace, target = _reduced_hopf(tmp_path, capsys)
    pushes = [m for stage in trace["stages"] for m in stage["moves"] if m["kind"] == "R2+"]
    assert pushes and not any("lean_forward" in m for m in pushes)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    new.write_text(json.dumps(trace))
    for m in pushes:
        m["lean_forward"] = True
    old.write_text(json.dumps(trace))
    code, doc = run(capsys, "replay", str(source), str(new), "--check", str(target))
    assert (code, doc["equivalent"]) == (0, True)
    assert run(capsys, "replay", str(source), str(old), "--check", str(target)) == (code, doc)


def test_replay_text_keeps_a_two_arc_over_strand_direction(tmp_path, capsys):
    """The signs of a Hopf link whose over component has two arcs survive
    ``replay``'s emitted text, and its ``--check`` against that text."""
    from zcolor.diagram import parse_pd, writhe

    source = tmp_path / "source.pd"
    source.write_text("% component: 1 7 8 2\n% component: 3 6 5 4\n"
                      "X[8,3,2,4] X[2,6,1,3] X[7,4,8,5] X[1,6,7,5]\n")
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"schema_version": 1, "stages": [
        {"moves": [{"kind": "R2-", "crossings": [2, 3], "disk": 0}], "disks": {"0": [2, 3]}}]}))
    code, doc = run(capsys, "replay", str(source), str(trace))
    assert code == 0
    out = parse_pd(doc["pd"])
    assert list(out.signs.values()) == [1, 1] and writhe(out) == 2
    target = tmp_path / "target.pd"
    target.write_text(doc["pd"])
    code, doc = run(capsys, "replay", str(source), str(trace), "--check", str(target))
    assert (code, doc["equivalent"]) == (0, True)


def test_replay_check_refuses_a_two_arc_over_strand_run_backwards(tmp_path, capsys):
    """The same rows with the strand that passes under nothing reversed are
    the mirror-writhe diagram, and ``--check`` against it is not equivalent."""
    from zcolor.diagram import parse_pd, writhe

    source = tmp_path / "source.pd"
    source.write_text("% component: 1 7 8 2\n% component: 3 6 5 4\n"
                      "X[8,3,2,4] X[2,6,1,3] X[7,4,8,5] X[1,6,7,5]\n")
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"schema_version": 1, "stages": [
        {"moves": [{"kind": "R2-", "crossings": [2, 3], "disk": 0}], "disks": {"0": [2, 3]}}]}))
    target = tmp_path / "target.pd"
    target.write_text("% component: 1 2\n% component: 3 4\nX[1,3,2,4]\nX[2,4,1,3]\n")
    assert writhe(parse_pd(target.read_text())) == -2
    code, doc = run(capsys, "replay", str(source), str(trace), "--check", str(target))
    assert (code, doc["equivalent"]) == (0, False)
    assert doc["reasons"] == ["replayed diagram does not match the target"]


@pytest.mark.parametrize("color, palette", [("10", [10]), ("-10", [-10]), ("0", [0]),
                                            (10, [10])])
def test_verify_reads_integer_colors(tmp_path, capsys, color, palette):
    doc = tmp_path / "coloring.json"
    doc.write_text(json.dumps({str(e): color for e in range(1, 7)}))
    code, out = run(capsys, "verify", TREFOIL, str(doc))
    assert (code, out["valid"], out["palette"]) == (0, True, palette)


def test_corpus_reports_what_invariants_prints(capsys):
    code, report = run(capsys, "corpus", str(CORPUS))
    assert code == 0
    for entry in report["entries"]:
        code, doc = run(capsys, "invariants", str(CORPUS / entry["file"]))
        del doc["schema_version"]
        assert (code, doc) == (0, entry["invariants"]), entry["file"]


# -- emitted (pd, coloring) pairs, checked on the PD text alone -------------------

CABLES = [("hopf", "4,4"), ("trefoil", "4"), ("figure8", "4"), ("trefoil_writhe0", "2")]


@pytest.mark.parametrize("name, spec", CABLES)
def test_color_parallel_and_minimize_emit_pairs_that_verify(tmp_path, capsys, name, spec):
    """``color-parallel``, with and without ``--reduce``, and ``minimize
    --bound 3`` on the cable it emits: every (pd, coloring) pair satisfies
    each crossing relation of the emitted PD text."""
    base = str(CORPUS / f"{name}.pd")
    code, plain = run(capsys, "color-parallel", "--spec", spec, base)
    assert code == 0
    assert reference_coloring_faults(plain["pd"], plain["coloring"]) == []
    code, reduced = run(capsys, "color-parallel", "--spec", spec, "--reduce", base)
    assert code == 0
    assert reference_coloring_faults(reduced["pd"], reduced["coloring"]) == []
    assert reference_coloring_faults(reduced["reduced_pd"], reduced["reduced_coloring"]) == []
    cable = tmp_path / "cable.pd"
    cable.write_text(plain["pd"])
    code, best = run(capsys, "minimize", "--bound", "3", str(cable))
    assert code == 0
    assert reference_coloring_faults(plain["pd"], best["coloring"]) == []
    assert best["palette_size"] == len(set(best["coloring"].values()))


@pytest.mark.parametrize("pd_file", sorted(CORPUS.glob("*.pd")), ids=lambda p: p.stem)
def test_colorability_emits_colorings_that_verify(capsys, pd_file):
    """``colorability``'s witness and every lattice basis vector satisfy each
    crossing relation of the input PD text."""
    code, doc = run(capsys, "colorability", str(pd_file))
    assert code == 0
    text = pd_file.read_text()
    witness = [doc["witness"]] if "witness" in doc else []
    for gamma in doc["lattice"]["basis"] + witness:
        assert reference_coloring_faults(text, gamma) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: simplify-coloring writes its coloring on "
                          "the arcs of its result before the PD's relabelling")
def test_simplify_coloring_emits_pairs_that_verify(tmp_path, capsys):
    """``simplify-coloring`` on the inputs of ``tests/golden/simplify.json``:
    each emitted (pd, coloring) pair satisfies the emitted PD's relations."""
    from test_golden import simplify_inputs

    faults = {}
    for case, pd, gamma in simplify_inputs():
        (tmp_path / "in.pd").write_text(pd)
        (tmp_path / "in.json").write_text(json.dumps(gamma))
        code, doc = run(capsys, "simplify-coloring", str(tmp_path / "in.pd"),
                        str(tmp_path / "in.json"))
        if code == 0:
            faults[case] = reference_coloring_faults(doc["pd"], doc["coloring"])
    assert len(faults) == 20
    assert {case: f for case, f in faults.items() if f} == {}
