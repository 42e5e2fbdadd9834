"""The builder's local face queries and crossing signs against full rebuilds."""

import collections
import copy
import functools
import itertools
import random

import pytest

from conftest import (
    occurrence_index,
    pd_signs,
    reference_face_arcs,
    reference_faces,
    reference_r3,
    seeded_rng,
    single_stage,
    trace_moves,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from zcolor.cabling import CableSpec, TwistSite, insert_full_twists, parallel
from zcolor.diagram import (
    Diagram,
    DiagramError,
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
    R2Remove,
    apply_move,
    replay_trace,
)
from zcolor.parallel_coloring import color_even_parallel, color_two_parallel, delete_color_moves
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


def occurrence_lists(builder: DiagramBuilder) -> dict:
    """The builder's occurrence index, each arc's list sorted."""
    return {e: sorted(places) for e, places in builder._occ.items()}


def check_builder(builder: DiagramBuilder) -> None:
    """Faces, arcs and incident crossings against the reference walk, and an
    occurrence index equal to the one a builder of the same rows makes."""
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
    assert occurrence_lists(builder) == occurrence_lists(DiagramBuilder(built))
    assert_face_count_is_reference(built)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8))
def test_random_diagram_faces_match_reference(seed, n_ops):
    d = random_knot_diagram(random.Random(seed), n_ops)
    assert_face_count_is_reference(d)
    check_builder(DiagramBuilder(d))


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
    cabled = parallel(std["trefoil"], CableSpec(multiplicities=(2,)))
    base_edge = min(e for e, _ in cabled.cable.copy_edges)
    checked.append(insert_full_twists(cabled, [TwistSite(base_edge, 1)]))
    for d in checked:
        assert_face_count_is_reference(d, d)
        assert validate(d) == []


@functools.lru_cache(maxsize=None)
def recorded_run(name):
    """(source diagram, moves) of one delete_color_moves or to_simple_coloring run."""
    std = standard_diagrams()
    if name == "hopf-4,4 delete 3":
        cabled = parallel(std["hopf"], CableSpec((4, 4)))
        d, _, trace = delete_color_moves(cabled, color_even_parallel(cabled), 3)
        return cabled, trace_moves(trace)
    if name == "trefoil_writhe0-2 delete 4, -1":
        cabled, gamma = color_two_parallel(std["trefoil_writhe0"])
        d, moves = cabled, []
        for target in (4, -1):
            if target in gamma.values():
                d, gamma, trace = delete_color_moves(d, gamma, target)
                moves += trace_moves(trace)
        return cabled, moves
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
    """What one R3 does to a copy of ``builder``: the result or the
    ``MoveError`` text, then the rows, signs and occurrence index."""
    builder = copy.deepcopy(builder)
    try:
        result = apply(builder, R3(triple))
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
