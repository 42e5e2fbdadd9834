"""The benchmark's workloads: generated inputs, CLI ops and their checks.

A workload is a list of jobs; a job is a list of ops that run in order,
because a later op reads files written from an earlier op's output (a
``replay`` reads the trace its ``color-parallel`` emitted).  Every op
carries a check that reads its JSON output and raises ``WrongOutput`` when
the answer is wrong; checks run outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    WrongOutput,
    check_cable,
    check_coloring,
    check_simple,
    components_and_writhe,
    parse_coloring,
    pd_rows,
    require,
    same_diagram,
)

WHY = {
    "reduce": "color-parallel --reduce and replay --check on parallels of 24 to 192 "
              "crossings: moves and parallel_coloring do the work, algebra is never called",
    "invariants": "invariants, colorability, fox-count and minimize on parallels, plus "
                  "validate on a 5,000-crossing cable: dense SNF in algebra, no moves",
    "simplify": "simplify-coloring on 72 small diff chains with kinks: rewrite search "
                "and move rollbacks on 6 to 9 crossings, where per-move cost matters",
}

RANDOM_BASE_CROSSINGS = 4


@dataclass
class Op:
    argv: list[str]
    size: int  # crossings of the diagram the op works on
    # Raises WrongOutput on a wrong answer; returns the number of moves in
    # the traces the output emits.  May write the inputs of the job's next op.
    check: Callable[[dict], int]

    @property
    def command(self) -> str:
        return self.argv[0]


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _random_base(zc, rng: random.Random):
    """A random knot diagram with a fixed crossing count, so seeds vary the
    knot but not the input size."""
    while True:
        d = zc.generate.random_knot_diagram(rng, n_ops=3)
        if len(d.crossings) == RANDOM_BASE_CROSSINGS:
            return d


def _bases(zc, rng: random.Random, work: Path) -> dict[str, tuple[str, int, int]]:
    """name -> (PD path, crossings, writhe) of each base diagram."""
    std = zc.generate.standard_diagrams()
    diagrams = {k: std[k] for k in ("hopf", "trefoil", "figure8", "trefoil_writhe0")}
    diagrams["random0"] = _random_base(zc, rng)
    diagrams["random1"] = _random_base(zc, rng)
    out = {}
    for name, d in diagrams.items():
        text = zc.diagram.serialize_pd(d)
        rows = pd_rows(text)
        out[name] = (_write(work / f"{name}.pd", text), len(rows),
                     components_and_writhe(rows)[1])
    return out


def _trace_moves(trace: dict) -> int:
    return sum(len(stage["moves"]) for stage in trace["stages"])


# -- reduce ------------------------------------------------------------------

# figure8 (8) is left out: its color-parallel op alone takes 10 s or more,
# and a reduce run makes four passes.
REDUCE_PARALLELS = [("hopf", (4, 4)), ("trefoil", (4,)), ("figure8", (4,)),
                    ("random0", (4,)), ("random1", (4,)), ("hopf", (8, 8)),
                    ("trefoil", (8,)), ("trefoil_writhe0", (2,))]


def reduce_jobs(zc, rng: random.Random, work: Path) -> list[list[Op]]:
    bases = _bases(zc, rng, work)
    jobs = []
    for name, spec in REDUCE_PARALLELS:
        pd, crossings, base_writhe = bases[name]
        n = spec[0]
        size = crossings * n * n
        tag = work / f"{name}-{n}"
        palette = [0, 1, 2, 3] if spec == (2,) else [-1, 0, 1, 2]

        def check_parallel(doc, n=n, strands=n * len(spec), base_writhe=base_writhe,
                           palette=palette, tag=tag):
            rows = pd_rows(doc["pd"])
            check_coloring(rows, parse_coloring(doc["coloring"]))
            if n % 2 == 0 and n >= 4:  # the 2-parallel carries extra full twists
                check_cable(rows, base_writhe, n, strands)
            reduced = parse_coloring(doc["reduced_coloring"])
            check_coloring(pd_rows(doc["reduced_pd"]), reduced)
            require(sorted(set(reduced.values())) == palette
                    and [int(v) for v in doc["palette"]] == palette,
                    f"reduced palette {doc['palette']} is not {palette}")
            require(len(doc["traces"]) >= 1, "no move trace emitted")
            stages = [s for trace in doc["traces"] for s in trace["stages"]]
            _write(Path(f"{tag}.pd"), doc["pd"])
            _write(Path(f"{tag}.reduced.pd"), doc["reduced_pd"])
            _write(Path(f"{tag}.trace.json"),
                   json.dumps({"schema_version": 1, "stages": stages}))
            return _trace_moves({"stages": stages})

        def check_replay(doc, tag=tag):
            require(doc["equivalent"] is True and doc["reasons"] == [],
                    f"replay is not equivalent: {doc['reasons']}")
            require(same_diagram(pd_rows(doc["pd"]),
                                 pd_rows(Path(f"{tag}.reduced.pd").read_text())),
                    "the trace does not replay to the reduced diagram")
            return 0

        jobs.append([
            Op(["color-parallel", "--spec", ",".join(map(str, spec)), pd, "--reduce"],
               size, check_parallel),
            Op(["replay", f"{tag}.pd", f"{tag}.trace.json", "--check", f"{tag}.reduced.pd"],
               size, check_replay),
        ])
    return jobs


# -- invariants --------------------------------------------------------------

INVARIANT_PARALLELS = [("hopf", (4, 4)), ("hopf", (6, 6)), ("hopf", (8, 8)),
                       ("trefoil", (4,)), ("trefoil", (6,)), ("trefoil", (8,)),
                       ("figure8", (4,)), ("figure8", (6,)), ("figure8", (8,)),
                       ("random0", (4,)), ("random1", (4,))]
MINIMIZE_ON = [("hopf", 4), ("trefoil", 4), ("figure8", 4)]
BIG_CABLE = 50  # cable --spec 50,50 on hopf: 5,000 crossings


def invariants_jobs(zc, rng: random.Random, work: Path) -> list[list[Op]]:
    bases = _bases(zc, rng, work)
    jobs = []
    files = {}
    for name, spec in INVARIANT_PARALLELS:
        base_pd, _, base_writhe = bases[name]
        base = zc.diagram.parse_pd(Path(base_pd).read_text())
        cabled = zc.cabling.parallel(base, zc.cabling.CableSpec(multiplicities=spec))
        n, strands = spec[0], spec[0] * len(spec)
        path = _write(work / f"{name}-{n}.pd", zc.diagram.serialize_pd(cabled))
        rows = pd_rows(Path(path).read_text())
        files[name, n] = (path, rows)

        def check_invariants(doc, rows=rows, n=n, strands=strands, w=base_writhe):
            check_cable(rows, w, n, strands)
            require(doc["writhe"] == n * n * w,
                    f"writhe {doc['writhe']} differs from the cabling formula {n * n * w}")
            require(doc["components"] == strands, f"{doc['components']} components")
            require(int(doc["determinant"]) == 0 and doc["z_colorable"] is True,
                    "a multi-strand parallel must have determinant 0 and be Z-colorable")
            return 0

        def check_colorability(doc, rows=rows):
            require(doc["z_colorable"] is True, "a multi-strand parallel is Z-colorable")
            basis = doc["lattice"]["basis"]
            require(doc["kernel_rank"] == doc["lattice"]["rank"] == len(basis) >= 2,
                    "kernel rank disagrees with the lattice basis")
            for vector in basis:
                check_coloring(rows, parse_coloring(vector))
            witness = parse_coloring(doc["witness"])
            check_coloring(rows, witness)
            require(len(set(witness.values())) > 1, "witness coloring is constant")
            return 0

        def check_fox(doc):
            count = int(doc["count"])
            require(count >= 9, f"fox count {count} below the colorable minimum 9")
            while count % 3 == 0:
                count //= 3
            require(count == 1, f"fox count {doc['count']} is not a power of 3")
            return 0

        size = len(rows)
        jobs += [[Op(["invariants", path], size, check_invariants)],
                 [Op(["colorability", path], size, check_colorability)],
                 [Op(["fox-count", path, "-n", "3"], size, check_fox)]]

    for name, n in MINIMIZE_ON:
        path, rows = files[name, n]

        def check_minimize(doc, rows=rows):
            gamma = parse_coloring(doc["coloring"])
            check_coloring(rows, gamma)
            values = sorted(set(gamma.values()))
            require(doc["palette_size"] == 4 and len(values) == 4
                    and [int(v) for v in doc["palette"]] == values,
                    f"minimize palette {doc['palette']} is not of size 4")
            return 0

        jobs.append([Op(["minimize", "--bound", "3", path], len(rows), check_minimize)])

    hopf_pd, hopf_crossings, hopf_writhe = bases["hopf"]
    big = work / "hopf-50.pd"
    big_size = hopf_crossings * BIG_CABLE * BIG_CABLE

    def check_cable_op(doc):
        rows = pd_rows(doc["pd"])
        require(doc["crossings"] == len(rows) == big_size
                and doc["components"] == 2 * BIG_CABLE, "cable has the wrong size")
        check_cable(rows, hopf_writhe, BIG_CABLE, 2 * BIG_CABLE)
        _write(big, doc["pd"])
        return 0

    def check_validate(doc):
        require(doc["valid"] is True and doc["diagnostics"] == []
                and doc["crossings"] == big_size and doc["components"] == 2 * BIG_CABLE
                and doc["free_loops"] == 0, f"validate reports {doc}")
        return 0

    jobs.append([Op(["cable", "--spec", f"{BIG_CABLE},{BIG_CABLE}", hopf_pd], big_size,
                    check_cable_op),
                 Op(["validate", str(big)], big_size, check_validate)])
    return jobs


# -- simplify ----------------------------------------------------------------


# One kink after each bight.  The kink-free half of the grid is left out to
# keep a run within the benchmark's time budget.
KINKS = 1


def diff_chain_grid():
    """Every bight coloring: 2 or 3 bights colored 1..4, not all equal.
    72 inputs."""
    for k in (2, 3):
        for colors in itertools.product(range(1, 5), repeat=k):
            if len(set(colors)) > 1:
                yield colors


def simplify_jobs(zc, rng: random.Random, work: Path) -> list[list[Op]]:
    jobs = []
    for colors in diff_chain_grid():
        d, gamma = zc.generate.diff_chain(colors, KINKS)
        canon, relabel = zc.diagram.canonical(d)
        stem = work / ("chain-" + "".join(map(str, colors)) + f"-k{KINKS}")
        pd = _write(Path(f"{stem}.pd"), zc.diagram.serialize_pd_raw(canon))
        coloring = _write(Path(f"{stem}.json"), json.dumps(
            {str(relabel[e]): v for e, v in gamma.items()}))

        def check_simplify(doc, pd=pd):
            # The emitted PD must be what the emitted trace makes of the input.
            source = zc.diagram.parse_pd(Path(pd).read_text())
            try:
                result = zc.moves.replay_trace(source, zc.jsonio.trace_from_json(doc["trace"]))
            except Exception as err:  # a trace that does not apply is a wrong output
                raise WrongOutput(f"emitted trace does not replay on the input: {err}")
            require(zc.diagram.serialize_pd(result) == doc["pd"],
                    "emitted PD is not the result of the emitted trace")
            # simplify-coloring emits the coloring on the rewritten diagram's
            # own arc labels but serializes the PD canonically relabelled;
            # carry the coloring across that relabelling before checking it.
            relabel = zc.diagram.canonical(result)[1]
            gamma = parse_coloring(doc["coloring"])
            require(set(gamma) == set(relabel), "coloring keys are not the result's arcs")
            rows = pd_rows(doc["pd"])
            d_simple = check_simple(rows, {relabel[e]: v for e, v in gamma.items()})
            require(doc["simple"] == [True, d_simple],
                    f"simple flag {doc['simple']} disagrees with the spectrum")
            return _trace_moves(doc["trace"])

        jobs.append([Op(["simplify-coloring", pd, coloring], len(canon.crossings),
                        check_simplify)])
    return jobs


WORKLOADS = {"reduce": reduce_jobs, "invariants": invariants_jobs,
             "simplify": simplify_jobs}
# Passes per run.  The reduce and invariants passes have only 16 and 38
# ops, so their runs make several passes: with ten samples beyond it, the
# tail then lies among the ops on 192 or more crossings.
PASSES = {"reduce": 4, "invariants": 2, "simplify": 1}
