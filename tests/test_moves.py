import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    balanced_random_knot,
    isomorphic,
    pd_signs,
    reference_r1_remove,
    reference_r2_remove,
    seeded_rng,
    single_stage,
    solve_partial,
)
from zcolor import diagram, moves
from zcolor.cabling import CableSpec, cable
from zcolor.coloring import verify_coloring
from zcolor.diagram import Diagram, DiagramError, canonical, parse_pd, same_diagram, validate, writhe
from zcolor.generate import diff_chain, standard_diagrams
from zcolor.jsonio import dumps, trace_from_json, trace_to_json
from zcolor.moves import (
    DiagramBuilder,
    MoveError,
    MoveTrace,
    R1Insert,
    R1Remove,
    R2Insert,
    R2Remove,
    R3,
    apply_move,
    replay_trace,
    verify_local_equivalence,
)
from zcolor.parallel_coloring import color_parallel, delete_color_moves
from zcolor.rewrite import to_simple_coloring

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")


def structural(d):
    return [x for x in validate(d) if "canonical" not in x]


def test_r1_round_trips():
    for sign in (1, -1):
        for over_first in (False, True):
            b = DiagramBuilder(TREFOIL)
            info = apply_move(b, R1Insert(edge=1, sign=sign, over_first=over_first))
            d2 = b.diagram()
            assert structural(d2) == []
            assert writhe(d2) == writhe(TREFOIL) + sign
            apply_move(b, R1Remove(cid=info["created"][0]))
            assert same_diagram(b.diagram(), TREFOIL)


def test_r1_remove_isolated_kink_leaves_free_loop():
    b = DiagramBuilder(parse_pd("X[1,1,2,2]"))
    apply_move(b, R1Remove(cid=0))
    d = b.diagram()
    assert len(d.rows) == 0
    assert d.free_loops == 1


def test_r2_round_trips_everywhere():
    diagrams = [TREFOIL, parse_pd("X[4,1,3,2] X[2,3,1,4]"), parse_pd("X[1,1,2,2]")]
    count = 0
    for d in diagrams:
        n = len(d.edges)
        for f, g in itertools.permutations(range(1, n + 1), 2):
            for over in (True, False):
                b = DiagramBuilder(d)
                try:
                    info = apply_move(b, R2Insert(push_edge=f, across_edge=g,
                                                  push_over=over))
                except MoveError:
                    continue
                mid = b.diagram()
                assert structural(mid) == [], (f, g, over)
                assert writhe(mid) == writhe(d)
                c1, c2 = info["created"]
                apply_move(b, R2Remove(cid1=c1, cid2=c2))
                assert same_diagram(b.diagram(), d), (f, g, over)
                count += 1
    assert count > 40


def test_r2_self_push_rejected():
    b = DiagramBuilder(TREFOIL)
    with pytest.raises(MoveError):
        apply_move(b, R2Insert(push_edge=1, across_edge=1, push_over=True))


def test_r2_remove_refuses_what_is_not_a_bigon(corpus):
    """A missing crossing, two crossings that share one arc, and the clasp
    of a full twist, where each strand passes over once, are refused."""
    f8 = corpus["figure8"]
    assert set(f8.rows[0]) & set(f8.rows[2]) == {4}
    with pytest.raises(MoveError, match="no such crossing"):
        apply_move(DiagramBuilder(f8), R2Remove(cid1=0, cid2=99))
    with pytest.raises(MoveError, match="do not bound a bigon"):
        apply_move(DiagramBuilder(f8), R2Remove(cid1=0, cid2=2))
    cabled, structure = cable(corpus["unknot_writhe0"], CableSpec(multiplicities=(2,)))
    base_edge = min(e for e, _ in structure.copy_edges)
    f, g = (structure.copy_edges[(base_edge, k)] for k in (1, 2))
    for sign in (1, -1):
        b = DiagramBuilder(cabled)
        created, _ = b.insert_twist(f, g, sign)
        with pytest.raises(MoveError, match="bigon is clasped"):
            apply_move(b, R2Remove(*created))


def test_a_trace_that_does_not_replay_is_reported(corpus):
    """A move that does not apply ends the replay with a reason, not a raise."""
    f8 = corpus["figure8"]
    report = verify_local_equivalence(
        f8, f8, single_stage([(R1Remove(cid=0), 0)], {0: frozenset({0})}))
    assert report == (False, ("replay failed: crossing 0 is not a removable kink",))


def test_r3_requires_movable_pattern():
    # the alternating trefoil triangle has no top strand
    b = DiagramBuilder(TREFOIL)
    with pytest.raises(MoveError):
        apply_move(b, R3(cids=(0, 1, 2)))


def _r3_setup():
    b = DiagramBuilder(TREFOIL)
    apply_move(b, R2Insert(push_edge=6, across_edge=2, push_over=True))
    apply_move(b, R2Insert(push_edge=7, across_edge=5, push_over=False))
    return b


def test_r3_involution():
    b = _r3_setup()
    assert structural(b.diagram()) == []
    before = dict(b.rows)
    apply_move(b, R3(cids=(0, 4, 6)))
    after = b.diagram()
    assert structural(after) == []
    assert writhe(after) == writhe(TREFOIL)
    apply_move(b, R3(cids=(0, 4, 6)))
    assert dict(b.rows) == before


def test_moves_preserve_coloring_solvability():
    """Replaying a move and re-solving the pinned boundary keeps validity."""
    d = TREFOIL
    gamma = {e: 4 for e in d.edges}
    b = DiagramBuilder(d)
    info = apply_move(b, R2Insert(push_edge=1, across_edge=4, push_over=True))
    d2 = b.diagram()
    pins = {e: gamma[e] for e in d2.edges if e in gamma}
    completion = solve_partial(d2, pins)
    assert completion is not None
    assert verify_coloring(d2, completion)


def test_replay_empty_trace():
    empty = MoveTrace(stages=())
    assert same_diagram(replay_trace(TREFOIL, empty), TREFOIL)
    report = verify_local_equivalence(TREFOIL, TREFOIL, empty)
    assert report.ok


def test_replay_insert_then_remove():
    moves = [
        (R2Insert(push_edge=1, across_edge=4, push_over=True), 1),
        (R2Remove(cid1=3, cid2=4), 1),
    ]
    trace = single_stage(moves, {1: frozenset()})
    out = replay_trace(TREFOIL, trace)
    assert same_diagram(out, TREFOIL)
    report = verify_local_equivalence(TREFOIL, TREFOIL, trace)
    assert report.ok


def test_locality_violation_detected():
    moves = [(R3(cids=(0, 4, 6)), 1)]
    b = _r3_setup()
    start = b.diagram()
    b2 = _r3_setup()
    apply_move(b2, R3(cids=(0, 4, 6)))
    target = b2.diagram()
    # disk that does not contain the touched crossings
    trace = single_stage(moves, {1: frozenset({99})})
    report = verify_local_equivalence(start, target, trace)
    assert not report.ok
    assert any("outside disk" in r for r in report.reasons)
    # honest disk passes
    trace_ok = single_stage(moves, {1: frozenset({0, 4, 6})})
    assert verify_local_equivalence(start, target, trace_ok).ok


def test_overlapping_disks_detected():
    moves = [(R3(cids=(0, 4, 6)), 1)]
    b = _r3_setup()
    start = b.diagram()
    b2 = _r3_setup()
    apply_move(b2, R3(cids=(0, 4, 6)))
    target = b2.diagram()
    trace = single_stage(moves, {1: frozenset({0, 4, 6}), 2: frozenset({0})})
    report = verify_local_equivalence(start, target, trace)
    assert not report.ok
    assert any("overlap" in r for r in report.reasons)


def test_wrong_target_detected():
    moves = [(R2Insert(push_edge=1, across_edge=4, push_over=True), 1)]
    trace = single_stage(moves, {1: frozenset()})
    report = verify_local_equivalence(TREFOIL, TREFOIL, trace)
    assert not report.ok
    assert any("does not match" in r for r in report.reasons)


def test_move_engine_fuzz():
    """Random diagrams stay structurally sound under random R2 churn."""
    import random


    from zcolor.generate import random_knot_diagram

    rng = seeded_rng(13)
    for trial in range(12):
        d = random_knot_diagram(rng, n_ops=4)
        b = DiagramBuilder(d)
        stack = []
        for _ in range(6):
            edges = sorted({e for row in b.rows.values() for e in row})
            f, g = rng.sample(edges, 2)
            try:
                info = apply_move(b, R2Insert(push_edge=f, across_edge=g,
                                              push_over=rng.random() < 0.5))
            except MoveError:
                continue
            stack.append(info["created"])
            assert structural(b.diagram()) == []
        for c1, c2 in reversed(stack):
            apply_move(b, R2Remove(cid1=c1, cid2=c2))
        assert same_diagram(b.diagram(), d), trial


def test_clasp_writhe_changes_by_twice_the_new_crossings_sign():
    """A clasp whose first arc runs against the face walk is mirrored: -sign."""
    import random

    from zcolor.generate import random_knot_diagram

    rng = random.Random(44)
    kept_sign = []
    for _ in range(120):
        d = random_knot_diagram(rng, n_ops=3)
        b = DiagramBuilder(d)
        edges = sorted({e for row in b.rows.values() for e in row})
        f, g = rng.sample(edges, 2)
        sign = rng.choice((1, -1))
        try:
            cids, _ = b.insert_twist(f, g, sign)
        except MoveError:
            continue
        new = b.signs[cids[0]]
        assert b.signs[cids[1]] == new and new in (sign, -sign)
        # a knot passes under itself, so its rows alone fix the orientation
        cids = sorted(b.rows)
        solved = pd_signs([b.rows[c] for c in cids])
        assert dict(zip(cids, solved)) == b.signs
        assert sum(solved) - writhe(d) == 2 * new
        kept_sign.append(new == sign)
    assert len(kept_sign) >= 20 and any(kept_sign) and not all(kept_sign)


def recorded_traces():
    """(name, source, trace): a colour deletion, three simplifications, and
    an R2- that leaves a two-arc strand passing under nothing."""
    colored = color_parallel(standard_diagrams()["hopf"], (4, 4))
    yield "hopf (4,4) delete 3", colored[0], delete_color_moves(*colored)[2][0]
    for colors, kinks in (((2, 1), 1), ((3, 1), 0), ((4, 2, 1), 1)):
        d, g = diff_chain(colors, kinks)
        yield f"chain {colors} k{kinks}", d, to_simple_coloring(d, g)[2]
    source = parse_pd("% component: 1 7 8 2\n% component: 3 6 5 4\n"
                      "X[8,3,2,4] X[2,6,1,3] X[7,4,8,5] X[1,6,7,5]")
    yield "over-only strand", source, single_stage([(R2Remove(2, 3), 0)], {0: frozenset({2, 3})})


def test_trace_json_round_trips_every_move_kind():
    """Each of the five move kinds, with and without its optional fields,
    comes back from its JSON as the same record."""
    moves = [R1Insert(3, 1), R1Insert(4, -1, over_first=True), R1Remove(2), R2Insert(1, 4, True),
             R2Insert(1, 4, False, corner=(0, 2)), R2Remove(1, 3), R3((0, 4, 6))]
    assert {m.kind for m in moves} == {"R1+", "R1-", "R2+", "R2-", "R3"}
    trace = single_stage([(m, k % 2) for k, m in enumerate(moves)],
                         {0: frozenset({0, 4}), 1: frozenset({2})})
    back = trace_from_json(json.loads(dumps(trace_to_json(trace))))
    assert back == trace
    assert [type(m) for m, _ in back.stages[0].moves] == list(map(type, moves))


def rotated_copies(d: Diagram):
    """For each of 1, 2, 3 quarter turns, the first row whose slots turned
    that far, with its sign kept or flipped, still make a diagram."""
    for k in (1, 2, 3):
        for i, row in d.rows.items():
            turned = {**d.rows, i: row[k:] + row[:k]}
            for sign in (d.signs[i], -d.signs[i]):
                try:
                    yield f"row {i} turned {k}", Diagram(turned, {**d.signs, i: sign}, d.free_loops)
                    break
                except DiagramError:
                    continue
            else:
                continue
            break


def reversed_over_only_strands(d: Diagram):
    """The same rows with each strand that passes under nothing run the
    other way: the signs of the crossings it passes over flip."""
    unders = {r[0] for r in d.rows.values()}
    for cyc in d.components:
        if unders.isdisjoint(cyc):
            # both over slots lie on the over strand
            signs = {c: -d.signs[c] if r[1] in cyc else d.signs[c] for c, r in d.rows.items()}
            yield "strand reversed", Diagram(d.rows, signs, d.free_loops)


def canonical_signed_rows(d: Diagram) -> tuple:
    """The free loops and sorted signed rows of ``canonical(d)``."""
    canon = canonical(d)[0]
    return d.free_loops, sorted(zip(canon.rows.values(), canon.signs.values()))


def test_target_check_shortcut_keeps_the_same_diagram_verdict(count_calls):
    """The replay check compares the builder's rows and signs with the
    target's first; its verdict is still that of comparing the canonical
    diagrams' signed rows, and it relabels canonically only when the rows
    differ."""
    def by_cid(d: Diagram) -> dict:
        return {c: (r, d.signs[c]) for c, r in d.rows.items()}

    kinds = set()
    relabellings = count_calls(diagram, "_canonical_rows")
    for name, source, trace in recorded_traces():
        replayed = replay_trace(source, trace)
        targets = [("replayed", replayed), ("canonical", canonical(replayed)[0]),
                   *rotated_copies(replayed), *reversed_over_only_strands(replayed)]
        for label, target in targets:
            expected = canonical_signed_rows(replayed) == canonical_signed_rows(target)
            # reversing a strand flips the signs where it passes over: another writhe
            assert not (label == "strand reversed" and expected), name
            before = len(relabellings)
            report = verify_local_equivalence(source, target, trace)
            assert report.ok == expected, (name, label)
            assert (moves.TARGET_MISMATCH in report.reasons) != expected, (name, label)
            rows_differ = by_cid(target) != by_cid(replayed)
            # one canonical relabelling of each side, and none on equal rows
            assert len(relabellings) - before == 2 * rows_differ, (name, label)
            kinds.add((label.split()[0], expected, rows_differ))
    # the shortcut decides the replayed diagram; a relabelled copy, a turned
    # row and a reversed two-arc over strand (same rows, other signs, which
    # the canonical comparison refuses) are relabelled and compared
    assert kinds >= {("replayed", True, False), ("canonical", True, True),
                     ("row", False, True), ("strand", False, True)}


@pytest.mark.parametrize("corner", [(-1, 4), (1, -4), (0, 4), (2, -1), (99, 0)])
def test_r2_corner_must_name_a_slot_of_a_crossing(corner):
    """A corner whose slot is not 0..3, or whose crossing does not exist,
    names no face, though ``4*cid + slot`` may equal a real corner's:
    (-1, 4) and (1, -4) would read as (0, 0), where the move applies."""
    b = DiagramBuilder(TREFOIL)
    apply_move(b, R2Insert(push_edge=1, across_edge=4, push_over=True, corner=(0, 0)))
    with pytest.raises(MoveError, match="do not co-bound a face through corner"):
        apply_move(DiagramBuilder(TREFOIL),
                   R2Insert(push_edge=1, across_edge=4, push_over=True, corner=corner))


# sources: the corpus, and random knots brought to writhe 0 by kinks
MOVE_SOURCES = st.one_of(
    st.sampled_from(sorted(standard_diagrams().items())).map(lambda item: item[1]),
    st.builds(lambda seed, n_ops: balanced_random_knot(random.Random(seed), n_ops),
              st.integers(0, 2**32 - 1), st.integers(1, 4)),
)

# each move is a kind and two picks, resolved against the builder as it
# stands (``picked_move``), so that every drawn sequence names real arcs
MOVE_PICKS = st.lists(st.tuples(st.sampled_from(("R1+", "R1-", "R2+", "R2-", "R3")),
                                st.integers(0, 63), st.integers(0, 63), st.booleans()),
                      max_size=12)


def picked_move(b: DiagramBuilder, kind: str, i: int, j: int, flag: bool):
    """The move a pick names on ``b``: arcs and crossings by index in sorted
    order; an R2- or R3 at crossing i's 2-face or triangle j.  None where
    the builder has nothing to pick."""
    arcs = sorted({e for row in b.rows.values() for e in row})
    if kind == "R1+" and arcs:
        return R1Insert(edge=arcs[i % len(arcs)], sign=1 if flag else -1, over_first=j % 2 == 1)
    if kind == "R2+" and arcs:
        return R2Insert(push_edge=arcs[i % len(arcs)], across_edge=arcs[j % len(arcs)],
                        push_over=flag)
    cids = sorted(b.rows)
    if kind not in ("R1-", "R2-", "R3") or not cids:
        return None
    c = cids[i % len(cids)]
    if kind == "R1-":
        return R1Remove(cid=c)
    faces = {b.face(corner) for corner in range(4 * c, 4 * c + 4)}
    if kind == "R2-":
        partners = sorted({k >> 2 for f in faces if len(f) == 2 for k in f} - {c})
        return R2Remove(c, partners[j % len(partners)]) if partners else None
    triangles = sorted(f for f in faces if len({k >> 2 for k in f}) == len(f) == 3)
    return R3(cids=tuple(k >> 2 for k in triangles[j % len(triangles)])) if triangles else None


def removal_oracle(b: DiagramBuilder, move):
    """What the plain-row oracle makes of an R1- or R2- on ``b`` as it
    stands: rows, signs and free loops, or None where it refuses."""
    state = (dict(b.rows), dict(b.signs), b.free_loops)
    if isinstance(move, R1Remove):
        return reference_r1_remove(*state, move.cid)
    if isinstance(move, R2Remove):
        return reference_r2_remove(*state, move.cid1, move.cid2)
    return None


@settings(max_examples=300, deadline=None)
@given(MOVE_SOURCES, MOVE_PICKS)
@example(parse_pd("X[1,3,2,2] X[3,4,4,1]"), [("R1+", 1, 0, False), ("R2-", 0, 0, False)])
@example(parse_pd("X[3,1,4,4] X[2,1,3,2]"), [("R2-", 1, 0, False)])
def test_every_accepted_move_leaves_a_planar_map(source, picks):
    """After every move that applies, the builder's diagram builds, passes
    ``validate`` but for its labels, keeps the source's number of
    components, and the moves so far replay to it as one verified trace.
    An R1- or R2- applies exactly when the plain-row oracle of
    ``tests/conftest.py`` accepts it, and leaves the oracle's rows, signs
    and free loops, up to ``isomorphic``.  The examples are R2- moves whose
    bigon's two strands share outer arcs: a kink's loop runs out of the
    bigon and straight back in, and, in the second, each strand runs from
    the bigon back into the other, so that removing the bigon leaves one
    free loop."""
    b = DiagramBuilder(source)
    applied = []
    for pick in picks:
        move = picked_move(b, *pick)
        if move is None:
            continue
        expected = removal_oracle(b, move)
        try:
            apply_move(b, move)
        except MoveError:
            assert expected is None, (applied, move)
            continue
        applied.append((move, 1))
        d = b.diagram()
        if isinstance(move, (R1Remove, R2Remove)):
            assert expected is not None, applied
            rows, signs, loops = expected
            assert b.signs == signs, applied
            assert isomorphic(d, Diagram(rows, signs, loops)), applied
        assert structural(d) == [], applied
        assert d.num_components == source.num_components, applied
        trace = single_stage(applied, {1: frozenset(source.rows)})
        assert verify_local_equivalence(source, d, trace).ok, applied
