"""The builder's local face queries and crossing signs against full rebuilds."""

import collections
import copy
import functools
import itertools
import random

import pytest

from conftest import (
    chained,
    occurrence_index,
    pd_signs,
    reference_bigon_arcs,
    reference_face_arcs,
    reference_faces,
    reference_head,
    reference_r3,
    seeded_rng,
    single_stage,
    trace_moves,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from zcolor import generate
from zcolor.cabling import CableSpec, TwistSite, cable, insert_full_twists, parallel
from zcolor.diagram import (
    Diagram,
    DiagramError,
    _corner_successors,
    _next_corner,
    canonical,
    crossing_graph_pieces,
    parse_pd,
    serialize_pd,
    serialize_pd_raw,
    validate,
    writhe,
)
from zcolor.generate import diff_chain, random_knot_diagram, standard_diagrams
from zcolor.moves import (
    R3,
    DiagramBuilder,
    MoveError,
    R1Insert,
    R1Remove,
    R2Insert,
    R2Remove,
    apply_move,
    replay_trace,
)
from zcolor.parallel_coloring import color_parallel, delete_color_moves
from zcolor.rewrite import to_simple_coloring


def euler_diagnostics(d: Diagram) -> list[str]:
    """The Euler line ``validate`` owes ``d``, from the reference face count."""
    f = len(reference_faces({x.cid: x.slots for x in d.crossings}))
    v, e = len(d.crossings), len(d.edges)
    pieces = len([p for p in crossing_graph_pieces(d) if p])
    if not d.crossings or v - e + f == 2 * pieces:
        return []
    return [f"face count {f} violates Euler formula (V={v}, E={e}, pieces={pieces})"]


def assert_face_count_is_reference(d: Diagram, name=None) -> None:
    """``validate``'s orbit count is the reference walk's face count: its
    Euler line names that count when the check fails, and the check passes
    only when that count satisfies it."""
    assert [m for m in validate(d) if "Euler" in m] == euler_diagnostics(d), name


def corner_pairs(builder: DiagramBuilder, face) -> tuple:
    """A builder face as ``(cid, slot)`` corners, as the reference walk names them."""
    return face if face is None else tuple(map(builder.corner_slot, face))


def occurrence_lists(d: DiagramBuilder | Diagram) -> dict:
    """The occurrence index of a builder or a diagram, each arc's list sorted."""
    return {e: sorted(places) for e, places in d._occ.items()}


def reference_positions(rows: dict) -> dict:
    """The reference occurrence index of ``rows``, as sorted positions ``4*cid + slot``."""
    return {e: sorted(4 * c + s for c, s in places)
            for e, places in occurrence_index(rows.items()).items()}


def assert_corner_successors_step_faces(d: Diagram, name=None) -> None:
    """``validate``'s successor list holds ``_next_corner`` at every corner."""
    nxt = _corner_successors(d._occ)
    rows = d.rows
    corners = [4 * c + s for c in rows for s in range(4)]
    assert [nxt[c] for c in corners] == [_next_corner(rows, d._occ, c) for c in corners], name


def check_builder(builder: DiagramBuilder) -> None:
    """Faces, arcs and incident crossings against the reference walk, and
    the occurrence index of the builder and of the diagram it builds
    against the reference index."""
    rows = dict(builder.rows)
    ref = reference_faces(rows)
    arcs = {f: reference_face_arcs(rows, f) for f in ref}
    index = occurrence_index(rows.items())
    for e in index:
        assert builder.incident(e) == sorted({cid for cid, _ in index[e]})
        faces = builder.faces_through(e)
        assert [corner_pairs(builder, f) for f in faces] == [f for f in ref if e in arcs[f]], e
        for f in faces:
            assert builder.face_arcs(f) == arcs[corner_pairs(builder, f)]
    built = builder.diagram()
    assert occurrence_lists(builder) == occurrence_lists(built) == reference_positions(rows)
    assert_face_count_is_reference(built)
    assert_corner_successors_step_faces(built)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8))
def test_random_diagram_faces_match_reference(seed, n_ops):
    d = random_knot_diagram(random.Random(seed), n_ops)
    assert_face_count_is_reference(d)
    assert_corner_successors_step_faces(d)
    check_builder(DiagramBuilder(d))


def test_corner_successors_step_faces_on_the_corpus(corpus):
    for name, d in corpus.items():
        assert_corner_successors_step_faces(d, name)


def test_orbit_count_on_every_two_crossing_table():
    """Every arrangement of the labels 1..4, each twice, over two rows that
    parses; most of them have no planar embedding."""
    parsed = failed = 0
    for labels in sorted(set(itertools.permutations((1, 1, 2, 2, 3, 3, 4, 4)))):
        try:
            d = parse_pd("X[%d,%d,%d,%d] X[%d,%d,%d,%d]" % labels)
        except DiagramError:
            continue
        assert_face_count_is_reference(d, labels)
        parsed += 1
        failed += bool(euler_diagnostics(d))
    assert (parsed, failed) == (1680, 1128)


def test_orbit_count_on_random_knots_and_parallels():
    rng = seeded_rng()
    std = standard_diagrams()
    checked = []
    for i in range(60):
        checked.append(random_knot_diagram(rng, n_ops=2 + i % 9))
    for name in ("hopf", "trefoil", "figure8", "split_unlink"):
        base = std[name]
        for k in (1, 2, 3):
            checked.append(parallel(base, CableSpec(multiplicities=(k,) * len(base.components))))
    cabled, structure = cable(std["trefoil"], CableSpec(multiplicities=(2,)))
    base_edge = min(e for e, _ in structure.copy_edges)
    checked.append(insert_full_twists(cabled, structure, [TwistSite(base_edge, 1)])[0])
    for d in checked:
        assert_face_count_is_reference(d, d)
        assert_corner_successors_step_faces(d, d)
        assert validate(d) == []


@functools.lru_cache(maxsize=None)
def recorded_run(name):
    """(source diagram, moves) of one delete_color_moves or to_simple_coloring run."""
    std = standard_diagrams()
    if name in ("hopf-4,4 delete 3", "trefoil_writhe0-2 delete 4, -1"):
        base, widths = {"hopf-4,4 delete 3": ("hopf", (4, 4)),
                        "trefoil_writhe0-2 delete 4, -1": ("trefoil_writhe0", (2,))}[name]
        colored = color_parallel(std[base], widths)
        return colored[0], trace_moves(chained(delete_color_moves(*colored)[2]))
    colors, kinks = {"chain-21-k1": ((2, 1), 1), "chain-31-k0": ((3, 1), 0),
                     "chain-421-k1": ((4, 2, 1), 1)}[name]
    d, gamma = diff_chain(colors, kinks)
    return d, trace_moves(to_simple_coloring(d, gamma)[2])


RUNS = ["hopf-4,4 delete 3", "trefoil_writhe0-2 delete 4, -1",
        "chain-21-k1", "chain-31-k0", "chain-421-k1"]


@settings(max_examples=len(RUNS), deadline=None)
@given(st.sampled_from(RUNS))
def test_faces_match_reference_after_every_move(name):
    source, moves = recorded_run(name)
    assert moves
    builder = DiagramBuilder(source)
    check_builder(builder)
    for move, _disk in moves:
        apply_move(builder, move)
        check_builder(builder)


def test_bigon_report_names_the_arcs_the_move_laid():
    """Every R2+ of the recorded runs reports (f_m, f_b, g_m, g_b): f_m and
    g_m join its two new crossings, over and under as the reference reads
    them (under and over when f is pushed under), and f_b and g_b sit where
    the old heads of f and g were."""
    pushes = collections.Counter()
    for name in RUNS:
        source, moves = recorded_run(name)
        builder = DiagramBuilder(source)
        for move, _disk in moves:
            if isinstance(move, R2Insert):
                heads = [reference_head(builder, e) for e in (move.push_edge, move.across_edge)]
            report = apply_move(builder, move)
            if not isinstance(move, R2Insert):
                continue
            f_m, f_b, g_m, g_b = report["arcs"]
            over, under = reference_bigon_arcs(builder.rows, *report["created"])
            assert (f_m, g_m) == ((over, under) if move.push_over else (under, over)), move
            assert [builder.rows[cid][slot] for cid, slot in heads] == [f_b, g_b], move
            pushes[move.push_over] += 1
    assert pushes[True] > 20 and pushes[False] > 20, pushes


def test_kink_report_names_the_loop_and_the_arc_after_it(monkeypatch):
    """Every R1+ that ``diff_chain`` makes reports its loop, which occurs
    twice in the new row, and the arc after the kink, which sits where the
    old head of the kinked arc was."""
    kinks = []

    def recorded(builder, move):
        head = reference_head(builder, move.edge)
        report = apply_move(builder, move)
        loop, after = report["arcs"]
        assert builder.rows[report["created"][0]].count(loop) == 2, (move, report)
        assert builder.rows[head[0]][head[1]] == after, (move, report)
        kinks.append(move.sign)
        return report

    monkeypatch.setattr(generate, "apply_move", recorded)
    for colors, kinks_between in (((2, 1), 1), ((3, 1), 2), ((4, 2, 1), 3)):
        diff_chain(colors, kinks_between)
    assert sorted(set(kinks)) == [-1, 1] and len(kinks) == 2 + 4 + 9


def checked_report(builder: DiagramBuilder, move) -> dict:
    """Apply ``move`` and check that its report names every row it changed.

    Each crossing whose row or sign differs before and after the move is in
    exactly one of ``created``, ``touched`` and ``relabelled``.  A
    relabelled row changed, keeps its sign, and differs only where the move
    replaced a label: an arc an R1+ or R2+ split, by a fresh label, or an
    arc an R1- or R2- merged away, by a label the diagram had.
    """
    rows, signs = dict(builder.rows), dict(builder.signs)
    labels = {e for row in rows.values() for e in row}
    report = apply_move(builder, move)
    changed = {cid for cid in rows.keys() | builder.rows.keys()
               if (rows.get(cid), signs.get(cid))
               != (builder.rows.get(cid), builder.signs.get(cid))}
    lists = (report["created"], report["touched"], report["relabelled"])
    for cid in changed:
        assert sum(cid in named for named in lists) == 1, (move, cid, report)
    removal = isinstance(move, (R1Remove, R2Remove))
    if removal:
        replaced = labels - {e for row in builder.rows.values() for e in row}
    else:
        replaced = {getattr(move, key) for key in ("edge", "push_edge", "across_edge")
                    if hasattr(move, key)}
    for cid in report["relabelled"]:
        assert cid in changed and builder.signs[cid] == signs[cid], (move, cid)
        for old, new in zip(rows[cid], builder.rows[cid]):
            if old != new:
                assert old in replaced and (new in labels) == removal, (move, cid, old, new)
    return report


def test_every_report_names_every_row_its_move_changed(corpus):
    """Every move of the recorded runs, and kinks and bigons laid and
    removed again on every arc and arc pair of the corpus diagrams, with the
    bigon laid and cancelled on ``unknot_writhe0`` and its two kinks then
    removed: ``checked_report`` holds after each."""
    kinds = collections.Counter()

    def check(builder, move) -> list[int]:
        report = checked_report(builder, move)
        kinds[move.kind, bool(report["relabelled"])] += 1
        return report["created"]

    for name in RUNS:
        source, moves = recorded_run(name)
        builder = DiagramBuilder(source)
        for move, _disk in moves:
            check(builder, move)
    for d in corpus.values():
        edges = sorted(d.edges)
        for edge, sign, over_first in itertools.product(edges, (1, -1), (False, True)):
            builder = DiagramBuilder(d)
            check(builder, R1Remove(*check(builder, R1Insert(edge, sign, over_first))))
        for f, g in itertools.permutations(edges, 2):
            for over in (True, False):
                builder = DiagramBuilder(d)
                try:
                    created = check(builder, R2Insert(f, g, over))
                except MoveError:
                    continue
                check(builder, R2Remove(*created))
    builder = DiagramBuilder(corpus["unknot_writhe0"])
    for move in (R2Remove(*check(builder, R2Insert(1, 3, True))), R1Remove(0), R1Remove(1)):
        check(builder, move)
    assert builder.rows == {} and builder.free_loops == 1
    assert {kind for kind, relabelled in kinds if relabelled} == {"R1+", "R1-", "R2+", "R2-"}
    assert kinds["R3", False] > 50 and ("R3", True) not in kinds, kinds


def diagram_signs(d: Diagram) -> dict[int, int]:
    return {x.cid: x.sign for x in d.crossings}


@pytest.mark.parametrize("name", RUNS)
def test_builder_signs_orient_its_diagram(name):
    """The builder's signs are the signs of the diagram it builds.

    Where every component passes under some crossing, the orientation is
    forced by the rows alone, so the signs ``parse_pd`` solves from them
    independently check the sign each move gave its new crossings.
    """
    source, moves = recorded_run(name)
    builder = DiagramBuilder(source)
    for move, _disk in moves:
        apply_move(builder, move)
        d = builder.diagram()
        assert diagram_signs(d) == builder.signs, move
        unders = {x.under_in for x in d.crossings}
        if all(unders.intersection(cyc) for cyc in d.components):
            cids = sorted(builder.rows)
            solved = pd_signs([builder.rows[c] for c in cids])
            assert dict(zip(cids, solved)) == builder.signs, move


def test_builder_signs_orient_an_over_only_two_arc_component():
    """A component of two arcs that passes under nothing has the same
    successor map either way round, so only the signs say how it runs, and
    in PD text only its header's order does."""
    source = parse_pd("% component: 1 7 8 2\n% component: 3 6 5 4\n"
                      "X[8,3,2,4] X[2,6,1,3] X[7,4,8,5] X[1,6,7,5]")
    move = R2Remove(2, 3)
    builder = DiagramBuilder(source)
    apply_move(builder, move)
    assert builder.signs == {0: 1, 1: 1}
    built = builder.diagram()
    replayed = replay_trace(source, single_stage([(move, 0)], {0: frozenset({2, 3})}))
    texts = [serialize_pd(built), serialize_pd_raw(built)]
    for d in (built, replayed, canonical(built)[0], *map(parse_pd, texts)):
        assert diagram_signs(d) == builder.signs
        assert writhe(d) == writhe(source) == 2


@pytest.mark.parametrize("name", RUNS)
def test_moves_keep_the_signs_of_crossings_they_do_not_touch(name):
    source, moves = recorded_run(name)
    builder = DiagramBuilder(source)
    before = diagram_signs(builder.diagram())
    for move, _disk in moves:
        info = apply_move(builder, move)
        after = diagram_signs(builder.diagram())
        for cid in after.keys() - set(info["touched"]) - set(info["created"]):
            assert after[cid] == before[cid], (move, cid)
        before = after


def reference_triangle(rows: dict, cids) -> tuple | None:
    """The triangle face through all three crossings with the smallest
    corner, read off the full face listing."""
    return next((f for f in reference_faces(rows)
                 if len(f) == 3 and {c for c, _ in f} == set(cids)), None)


def triangle_cases():
    std = standard_diagrams()
    yield "trefoil", DiagramBuilder(std["trefoil"])  # two triangles on one triple
    for name, spec in (("hopf", (4, 4)), ("trefoil", (3,)), ("figure8", (2,))):
        yield f"{name} {spec}", DiagramBuilder(parallel(std[name], CableSpec(spec)))
    rng = random.Random(23)
    for k in range(3):
        base = random_knot_diagram(rng, 2 + k)
        yield f"random {k} (3)", DiagramBuilder(parallel(base, CableSpec((3,))))
    for colors, kinks in (((2, 1), 1), ((3, 1), 0), ((4, 2, 1), 1)):
        yield f"chain {colors} k{kinks}", DiagramBuilder(diff_chain(colors, kinks)[0])
    for name in RUNS:  # states reached by recorded R2/R3 runs
        source, moves = recorded_run(name)
        builder = DiagramBuilder(source)
        for move, _disk in moves[:len(moves) // 2]:
            apply_move(builder, move)
        yield f"{name}, half way", builder


def probe_triples(rows: dict, faces, rng) -> list[tuple[int, int, int]]:
    """Every permutation of every triangle's crossings, 40 random triples
    (mostly not a triangle), and the first two crossings of each bigon or
    longer face with a random third."""
    triples = set()
    for f in faces:
        cids = {c for c, _ in f}
        if len(f) == 3 and len(cids) == 3:
            triples.update(itertools.permutations(sorted(cids)))
    for _ in range(40):
        triples.add(tuple(rng.sample(sorted(rows), 3)))
    for f in faces:
        cids = sorted({c for c, _ in f})
        if len(cids) >= 2 and len(f) != 3:
            third = rng.choice([c for c in rows if c not in cids[:2]])
            triples.add((cids[0], cids[1], third))
    return sorted(triples)


def test_bounded_triangle_search_matches_the_face_listing():
    rng = random.Random(29)
    triangles = misses = 0
    for name, builder in triangle_cases():
        rows = dict(builder.rows)
        faces = reference_faces(rows)
        for triple in probe_triples(rows, faces, rng):
            expected = reference_triangle(rows, triple)
            assert corner_pairs(builder, builder.triangle(triple)) == expected, (name, triple)
            triangles += expected is not None
            misses += expected is None
    assert triangles > 100 and misses > 100


def r3_outcome(apply, builder: DiagramBuilder, triple) -> tuple:
    """What one R3 does to a copy of ``builder``: the report, with its new
    triangle as a set of ``(cid, slot)`` corners, or the ``MoveError`` text,
    then the rows, signs and occurrence index."""
    builder = copy.deepcopy(builder)
    try:
        result = apply(builder, R3(triple))
        result["triangle"] = {c if isinstance(c, tuple) else builder.corner_slot(c)
                              for c in result["triangle"]}
    except MoveError as err:
        result = str(err)
    return result, builder.rows, builder.signs, occurrence_lists(builder)


def test_r3_from_slots_matches_the_reference():
    rng = seeded_rng()
    cases = list(triangle_cases())
    for k in range(3):
        base = random_knot_diagram(rng, 2 + k)
        cases.append((f"seeded random {k} (3)", DiagramBuilder(parallel(base, CableSpec((3,))))))
    outcomes = collections.Counter()
    for name, builder in cases:
        rows = dict(builder.rows)
        a, b = sorted(rows)[:2]
        unusable = [(a, a, b), (a, b, max(rows) + 1)]
        for triple in probe_triples(rows, reference_faces(rows), rng) + unusable:
            expected = r3_outcome(reference_r3, builder, triple)
            assert r3_outcome(apply_move, builder, triple) == expected, (name, triple)
            outcomes[expected[0] if isinstance(expected[0], str) else "applied"] += 1
    assert outcomes["applied"] > 100
    assert sum(n for text, n in outcomes.items() if "three distinct" in text) == 2 * len(cases)
    assert outcomes["triangle is not an R3 pattern (needs top/middle/bottom strands)"] > 10
    assert sum(n for text, n in outcomes.items() if "do not bound a triangle" in text) > 100
