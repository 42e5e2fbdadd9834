"""Golden outputs: emitted PDs, colorings, traces and errors stay byte-identical.

Each case group recomputes its outputs and compares them, byte for byte,
with the JSON file of the same name under ``tests/golden/``.  To rewrite the
files after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and say in the change log why the outputs moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import seeded_rng
from zcolor import cli, generate
from zcolor.algebra import is_z_colorable
from zcolor.cabling import CableSpec, parallel
from zcolor.diagram import canonical, parse_pd, serialize_pd, serialize_pd_raw, writhe
from zcolor.jsonio import coloring_to_json, dumps, trace_from_json, trace_to_json
from zcolor.moves import replay_trace
from zcolor.parallel_coloring import color_parallel, delete_color_moves
from zcolor.rewrite import RewriteError, to_simple_coloring

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = Path(__file__).resolve().parent.parent / "src" / "zcolor" / "corpus"

# figure8 (8) is left out: its color-parallel op takes over ten seconds.
REDUCE_CASES = [("hopf", "4,4"), ("trefoil", "4"), ("figure8", "4"),
                ("trefoil_writhe0", "2"), ("hopf", "8,8")]


def _run(*argv: str) -> str:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


def reduce_outputs(work: Path) -> dict[str, str]:
    """color-parallel --reduce, then replay --check of its traces."""
    std = generate.standard_diagrams()
    out = {}
    for name, spec in REDUCE_CASES:
        tag = f"{name}-{spec}"
        base = work / f"{name}.pd"
        base.write_text(serialize_pd(std[name]))
        text = _run("color-parallel", "--spec", spec, str(base), "--reduce")
        out[f"{tag} color-parallel"] = text
        doc = json.loads(text.split("\n", 1)[1])
        (work / f"{tag}.pd").write_text(doc["pd"])
        (work / f"{tag}.reduced.pd").write_text(doc["reduced_pd"])
        stages = [s for trace in doc["traces"] for s in trace["stages"]]
        (work / f"{tag}.trace.json").write_text(
            json.dumps({"schema_version": 1, "stages": stages}))
        out[f"{tag} replay"] = _run("replay", str(work / f"{tag}.pd"),
                                    str(work / f"{tag}.trace.json"),
                                    "--check", str(work / f"{tag}.reduced.pd"))
    return out


def simplify_inputs():
    """(case, PD text, coloring) of every two-bight chain, with 0 and 1 kinks."""
    for kinks in (0, 1):
        for colors in itertools.product(range(1, 5), repeat=2):
            if len(set(colors)) == 1:
                continue
            d, gamma = generate.diff_chain(colors, kinks)
            canon, relabel = canonical(d)
            yield ("chain-" + "".join(map(str, colors)) + f"-k{kinks}",
                   serialize_pd_raw(canon), {str(relabel[e]): v for e, v in gamma.items()})


def simplify_outputs(work: Path) -> dict[str, str]:
    """simplify-coloring on every two-bight chain, with 0 and 1 kinks."""
    out = {}
    for case, pd, gamma in simplify_inputs():
        stem = work / case
        Path(f"{stem}.pd").write_text(pd)
        Path(f"{stem}.json").write_text(json.dumps(gamma))
        out[case] = _run("simplify-coloring", f"{stem}.pd", f"{stem}.json")
    return out


def diff_chain_grid():
    """(case, colors, kinks) of every non-constant chain of 2 or 3 bights colored 1..4."""
    for n in (2, 3):
        for colors in itertools.product(range(1, 5), repeat=n):
            if len(set(colors)) == 1:
                continue
            for kinks in (0, 1, 2):
                yield "chain-" + "".join(map(str, colors)) + f"-k{kinks}", colors, kinks


def _digest(diagram, gamma, traces_json) -> str:
    """sha256 of the raw PD, the coloring JSON and the traces' JSON."""
    text = "\n".join((serialize_pd_raw(diagram), dumps(coloring_to_json(gamma)),
                      dumps(traces_json)))
    return hashlib.sha256(text.encode()).hexdigest()


def diff_chain_outputs(work: Path) -> dict[str, str]:
    """to_simple_coloring on the 216 grid chains: sha256 of its outputs, or its refusal.

    The digest covers the raw PD (arc labels and crossing ids as emitted),
    the coloring JSON and the trace JSON.
    """
    out = {}
    for case, colors, kinks in diff_chain_grid():
        d, gamma = generate.diff_chain(colors, kinks)
        try:
            out_d, out_g, trace = to_simple_coloring(d, gamma)
        except RewriteError as err:
            out[case] = f"{type(err).__name__}: {err}"
            continue
        out[case] = _digest(out_d, out_g, trace_to_json(trace))
    return out


# Parallels whose Z-colorability witness takes 48 to 108 elimination stages.
WITNESS_CABLES = [("trefoil", (6,)), ("trefoil", (8,)), ("hopf", (8, 8))]


def witness_outputs(work: Path) -> dict[str, str]:
    """to_simple_coloring on the ``is_z_colorable`` witness of a few parallels.

    The digest covers the raw PD, the coloring JSON and the trace JSON, as
    for the chain grid, over runs of many more stages.
    """
    std = generate.standard_diagrams()
    out = {}
    for name, mult in WITNESS_CABLES:
        cabled = parallel(std[name], CableSpec(multiplicities=mult))
        _, witness = is_z_colorable(cabled)
        out_d, out_g, trace = to_simple_coloring(cabled, witness)
        out[f"{name} {mult}"] = _digest(out_d, out_g, trace_to_json(trace))
    return out


def _deleted(cabled, gamma, structure) -> str:
    """Digest of ``delete_color_moves``'s outputs, or its refusal."""
    try:
        cabled, gamma, traces = delete_color_moves(cabled, gamma, structure)
    except ValueError as err:
        return f"{type(err).__name__}: {err}"
    return _digest(cabled, gamma, [trace_to_json(t) for t in traces])


def deletion_outputs(work: Path) -> dict[str, str]:
    """delete_color_moves on 2-parallels and on even parallels of random knots.

    2-parallels: every writhe-0 knot among 1,500 seeded draws, colored by
    ``color_parallel``, then its 4 pass and -1 pass.  Even parallels:
    the (4), (6) and (8) parallels of 40 seeded knots, each with its
    3-deletion.  The seeds are explicit, so ``ZCOLOR_SEED`` does not move
    the cases.
    """
    out = {}
    rng = seeded_rng(7)
    for draw in range(1500):
        base = generate.random_knot_diagram(rng, n_ops=rng.randint(2, 8))
        if writhe(base) == 0:
            out[f"two-parallel draw {draw}"] = _deleted(*color_parallel(base, (2,)))
    rng = seeded_rng(21)
    bases = [generate.random_knot_diagram(rng, n_ops=1 + i % 6) for i in range(40)]
    for width in (4, 6, 8):
        for i, base in enumerate(bases):
            out[f"({width}) parallel base {i}"] = _deleted(*color_parallel(base, (width,)))
    return out


def random_knot_outputs(work: Path) -> dict[str, str]:
    return {f"seed {s} ops {n}": serialize_pd(generate.random_knot_diagram(random.Random(s), n))
            for s in range(10) for n in (3, 6)}


def twist_outputs(work: Path) -> dict[str, str]:
    cabled, gamma, _ = color_parallel(generate.standard_diagrams()["trefoil_writhe0"], (2,))
    return {"trefoil_writhe0 pd": serialize_pd_raw(cabled),
            "trefoil_writhe0 coloring": dumps(coloring_to_json(gamma))}


# Parallels for the algebra commands, cabled through the CLI.
ALGEBRA_CABLES = [("hopf", "4,4"), ("hopf", "6,6"), ("trefoil", "4"), ("trefoil", "6"),
                  ("figure8", "4"), ("trefoil_writhe0", "2")]
MINIMIZE_CABLES = [("hopf", "4,4"), ("trefoil", "4"), ("figure8", "4")]


def algebra_outputs(work: Path) -> dict[str, str]:
    """invariants, colorability, fox-count and minimize on the corpus and parallels."""
    out = {}
    for pd in sorted(CORPUS.glob("*.pd")):
        for argv in (["invariants"], ["colorability"],
                     ["fox-count", "-n", "3"], ["fox-count", "-n", "5"]):
            out[f"{pd.name} {' '.join(argv)}"] = _run(*argv, str(pd))
    for name, spec in ALGEBRA_CABLES:
        tag = f"{name}-{spec}"
        doc = json.loads(_run("cable", "--spec", spec, str(CORPUS / f"{name}.pd")).split("\n", 1)[1])
        cabled = work / f"{tag}.pd"
        cabled.write_text(doc["pd"])
        for argv in (["invariants"], ["colorability"], ["fox-count", "-n", "3"]):
            out[f"{tag} {' '.join(argv)}"] = _run(*argv, str(cabled))
        if (name, spec) in MINIMIZE_CABLES:
            out[f"{tag} minimize --bound 3"] = _run("minimize", "--bound", "3", str(cabled))
    return out


def validate_outputs(work: Path) -> dict[str, str]:
    return {pd.name: _run("validate", str(pd)) for pd in sorted(CORPUS.glob("*.pd"))}


GROUPS = {
    "algebra": algebra_outputs,
    "deletion": deletion_outputs,
    "diff_chains": diff_chain_outputs,
    "reduce": reduce_outputs,
    "simplify": simplify_outputs,
    "random_knots": random_knot_outputs,
    "twists": twist_outputs,
    "validate": validate_outputs,
    "witnesses": witness_outputs,
}


def _compute(group: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return GROUPS[group](Path(tmp))


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_golden(group):
    expected = json.loads((GOLDEN / f"{group}.json").read_text())
    got = _compute(group)
    assert sorted(got) == sorted(expected)
    for case in expected:
        assert got[case] == expected[case], f"{group}: {case} changed"


def test_simplify_traces_replay_onto_the_emitted_pd():
    expected = json.loads((GOLDEN / "simplify.json").read_text())
    replayed = 0
    for case, pd, _gamma in simplify_inputs():
        doc = json.loads(expected[case].split("\n", 1)[1])
        if "error" in doc:
            continue
        result = replay_trace(parse_pd(pd), trace_from_json(doc["trace"]))
        assert serialize_pd(result) == doc["pd"], case
        replayed += 1
    assert replayed == 20


def test_simplify_moves_are_named_not_tried(monkeypatch):
    """On the simplify golden inputs, no move the rewrite search makes is rejected.

    Every rewrite move goes through the run of ``parallel_coloring``, so
    that module's ``apply_move`` sees them all.
    """
    from zcolor import parallel_coloring, rewrite
    from zcolor.moves import MoveError

    applied, rejected = [], []
    apply = parallel_coloring.apply_move

    def recording(builder, move):
        applied.append(move)
        try:
            return apply(builder, move)
        except MoveError:
            rejected.append(move)
            raise

    monkeypatch.setattr(parallel_coloring, "apply_move", recording)
    simplified = 0
    for case, pd, gamma in simplify_inputs():
        try:
            rewrite.to_simple_coloring(parse_pd(pd), {int(e): v for e, v in gamma.items()})
            simplified += 1
        except rewrite.RewriteError:
            pass
        assert not rejected, (case, rejected[:3])
    assert simplified == 20
    assert applied


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for group in sorted(GROUPS):
        path = GOLDEN / f"{group}.json"
        path.write_text(json.dumps(_compute(group), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
