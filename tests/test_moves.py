import itertools

import pytest

from conftest import pd_signs, seeded_rng, solve_partial
from zcolor.coloring import verify_coloring
from zcolor.diagram import parse_pd, same_diagram, validate, writhe
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
    single_stage,
    verify_local_equivalence,
)

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
    assert len(d.crossings) == 0
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
