"""Eliminate maximal-diff crossings by verified local rewrites.

At a crossing the diff is the distance between the over color and either
under color.  Given a coloring whose diffs are not yet all equal, there is
a path from a maximal-diff crossing (diff D) to a crossing of smaller
positive diff d, running along arcs of one color z through 0-diff
crossings only (every arc meeting a 0-diff crossing carries its color).

The elimination drags a finger of an arc colored w = z +- d from the far
crossing along the path (over everything it meets, creating only d-diff
crossing pairs), pokes it over the under strand and under the over strand
of the target crossing, and slides the target across the finger with one
triangle move.  The slide sends the target's diff |a + b| to |a - b|:
with the right sign choices the D-diff crossing becomes a |D - 2d|-diff
crossing and the finger's pair under the over strand carries |D - d|, so
no new diff reaches D.  Iterating strictly reduces the maximum, ending in
a coloring whose positive diffs are all equal
(``tests/test_lemmas.py::test_elimination_grows_no_diff_outside_the_lemma``).

``to_simple_coloring`` is the module's one entry point and runs one loop:
each round searches the current diff paths and runs one stage, and a level
ends when its maximum D is gone.  The first round of a level tries only
the first path, which is stricter than the lemma and refuses some inputs
the lemma covers.  A simplification is one run
(``parallel_coloring._Run``, shared with color deletion): one move builder
for all its stages, with the coloring, each crossing's diff and the
crossings of each diff beside the rows.  Every move goes through the run
and re-derives only the arcs it changed (an R2 bigon's four new arcs, an
R3 triangle's three side arcs) by propagating the crossing relations over
the crossings that meet them; those crossings' relations are re-checked
and their diffs updated, so the coloring the finger routing reads is
current after every move.  A stage (one finger drag and slide) is accepted
only if its target lost the maximal diff and no diff outside {0, existing
below maximum, |D-d|, |D-2d|} grew.  Once, at the end of the run, the
whole coloring is verified on the emitted diagram and the whole trace is
replayed by ``verify_local_equivalence``.  A stage that fails after its
moves cannot be undone on the shared builder, so it refuses the whole run.
"""

from __future__ import annotations

import functools
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .coloring import Coloring
from .diagram import OVER_A, UNDER_IN, UNDER_OUT, Diagram, crossing_graph_pieces
from .moves import DiagramBuilder, MoveError, MoveTrace, R2Insert, R3
from .parallel_coloring import ConstructionError, _Run


class RewriteError(ValueError):
    pass


class NoDiffPathError(RewriteError):
    """A connected non-simple coloring without a usable path: noteworthy."""


class DiffPath(NamedTuple):
    """A route from a maximal-diff crossing to a smaller-diff crossing."""

    start: int                 # crossing id with diff d_m
    end: int                   # crossing id with diff d, 0 < d < d_m
    via: tuple[int, ...]       # arcs, all one color, through 0-diff crossings
    color: int                 # the shared arc color z


def _diff_paths(run: _Run) -> Iterator[DiffPath]:
    """The run's diff paths, shortest first, one length at a time.

    A search runs from each arc of each maximal-diff crossing, all in step,
    through 0-diff crossings: every search stops at the first length where
    it reaches a crossing of smaller positive diff, so each length's paths,
    sorted by (end, start, via), follow every shorter one, and a consumer
    that takes the first usable path never runs the longer levels.
    Incident crossings are read from the builder as the searches reach an
    arc, in ascending id order.  The generator reads the builder as it
    goes: it must not be resumed after a move.
    """
    rows, diffs, d_m = run.builder.rows, run.diffs, run.d_m
    incident = functools.cache(run.builder.incident)
    # (start, frontier of arc paths, arcs seen) per (start, first arc)
    searches = [(start, [(first,)], {first}) for start in sorted(run.at_diff[d_m])
                for first in sorted(set(rows[start]))]
    while searches:
        hits, misses = [], []
        for search in searches:
            start, frontier, _ = search
            n = len(hits)
            for path in frontier:
                for end in incident(path[-1]):
                    if 0 < diffs[end] < d_m:
                        hits.append((end, start, path))
            if len(hits) == n:
                misses.append(search)
        for end, start, via in sorted(hits):
            yield DiffPath(start=start, end=end, via=via, color=run.gamma[via[0]])
        searches = []
        for start, frontier, seen in misses:
            nxt = []
            for path in frontier:
                for cid in incident(path[-1]):
                    if diffs[cid] != 0:
                        continue
                    for e in set(rows[cid]):
                        if e not in seen:
                            seen.add(e)
                            nxt.append(path + (e,))
            if nxt:
                searches.append((start, nxt, seen))


# -- the elimination -----------------------------------------------------------


def _finger_candidates(builder: DiagramBuilder, gamma: Coloring, path: DiffPath,
                       d: int, allowed: set[int]) -> list[int]:
    """Arcs at the end crossing usable as the dragged finger.

    The finger's crossings along the corridor all carry diff |w - z|, so
    any arc whose gap to the path color is a permitted diff qualifies; the
    natural choice (gap d) sorts first.
    """
    z = path.color
    cands = []
    for arc in set(builder.rows[path.end]):
        if arc in path.via:
            continue
        gap = abs(gamma[arc] - z)
        if gap > 0 and gap in allowed:
            cands.append(arc)
    return sorted(cands, key=lambda a: (abs(abs(gamma[a] - z) - d), gamma[a]))


def _finger_variant(run: _Run, path: DiffPath, d: int, allowed: set[int]
                    ) -> Optional[tuple[int, int]]:
    """The first (finger arc, target under arc) whose slide keeps every diff allowed."""
    row = run.builder.rows[path.start]
    b = run.gamma[row[OVER_A]]
    for w_arc in _finger_candidates(run.builder, run.gamma, path, d, allowed):
        w = run.gamma[w_arc]
        # the slide turns the target's diff |b - u| into |b + u - 2w|
        for u_arc in dict.fromkeys((row[UNDER_IN], row[UNDER_OUT])):
            if abs(b + run.gamma[u_arc] - 2 * w) in allowed and abs(b - w) in allowed:
                return w_arc, u_arc
    return None


def _poke_face(builder: DiagramBuilder, tip: int):
    """The face the tongue tip currently points into (not its bigon face)."""
    faces = builder.faces_through(tip)
    if not faces:
        raise RewriteError(f"tip {tip} lies on no face")
    # the bigon face has exactly two corners and carries the tip twice or
    # alongside only the crossed arc; the poke face is the larger one
    return sorted(faces, key=len)[-1]


def _drag_and_slide(run: _Run, path: DiffPath, w_arc: int, u_arc: int,
                    allowed: set[int], d_m: int) -> None:
    """Route the finger by breadth-first search over faces.

    The tongue may cross only arcs carrying the path color (each crossing
    pair has diff |w - z|, already in the allowed set), until its face
    touches the target crossing next to the chosen under arc; there it
    crosses the under arc, then the over strand, and the triangle slide
    fires.  The moves go through the run, in a stage of their own, so the
    colors the routing reads are current after every push.
    """
    builder = run.builder
    before = {v: len(cids) for v, cids in run.at_diff.items()}
    run.open_stage()
    run.open_disk({path.start})
    row = builder.rows[path.start]
    u_slots = [i for i, e in enumerate(row) if e == u_arc and i in (0, 2)]
    goal_corners = {builder.corner(path.start, i) for s in u_slots for i in (s, (s - 1) % 4)}

    tip = w_arc
    cap = 4 * len(builder.rows) + 8
    for _step in range(cap):
        if tip == w_arc:
            near = builder.faces_through(tip)
        else:
            near = [_poke_face(builder, tip)]
        if any(set(f) & goal_corners for f in near):
            break
        cross_arc = _first_route_arc(builder, run.gamma, path.color, near, goal_corners)
        c1, c2 = run.apply(R2Insert(push_edge=tip, across_edge=cross_arc, push_over=True))
        tip = builder.bigon_arcs(c1, c2)[0]
    else:
        raise RewriteError("finger exceeded its step budget")

    # endgame: cross the under arc at the corner whose face holds the tip,
    # then the over arc the crossing leads to, and fire the triangle
    _endgame(run, path.start, u_slots, tip)

    if run.diffs[path.start] == d_m:
        raise RewriteError("slide left the target's diff unchanged")
    bad = {v for v in run.at_diff if v not in allowed and v != 0}
    if any(len(run.at_diff.get(v, ())) > before.get(v, 0) for v in bad | {d_m}):
        raise RewriteError("slide created diffs outside the allowed set")


def _first_route_arc(builder: DiagramBuilder, gamma: Coloring, z: int, near: list,
                     goal_corners: set[int]) -> int:
    """The first arc to cross on the tongue's route from the faces ``near``:
    a breadth-first search over faces, crossing only ``z``-colored arcs, to
    the first face with a corner in ``goal_corners``."""
    prev: dict = {}
    frontier = list(near)
    seen = set(frontier)
    while frontier:
        nxt = []
        for f in frontier:
            for e in builder.face_arcs(f):
                if gamma[e] != z:
                    continue
                for f2 in builder.faces_through(e):
                    if f2 in seen:
                        continue
                    prev[f2] = (f, e)
                    seen.add(f2)
                    if set(f2) & goal_corners:
                        while prev[f2][0] not in near:
                            f2 = prev[f2][0]
                        return prev[f2][1]
                    nxt.append(f2)
        frontier = nxt
    raise RewriteError("no corridor of path-colored arcs reaches the target")


def _endgame(run: _Run, target_cid: int, u_slots: list[int], tip: int) -> None:
    """Poke over the under arc, under the over strand, slide the target.

    The under arc at slot u of the target t runs between the faces of
    corners (t, u) and (t, u-1).  A tip in the face of (t, u) pokes across
    it into the face of (t, u-1), where the next poke goes under the over
    arc of slot u-1 through that corner; a tip in the face of (t, u-1)
    pokes into the face of (t, u) and under the over arc of slot u+1.  The
    first corner whose face carries the tip names both pokes, and the
    triangle is the one the target bounds with the first or with the
    second crossing of both bigons.  Arcs are re-read from the builder at
    push time, since routing may have split them.
    """
    builder = run.builder
    t = target_cid
    tip_corners = {c for f in builder.faces_through(tip) for c in f}
    poke = next(((u, u_corner, o_slot, o_corner) for u in u_slots
                 for u_corner, o_slot, o_corner in (((t, u), (u - 1) % 4, (t, (u - 1) % 4)),
                                                    ((t, (u - 1) % 4), (u + 1) % 4, (t, u)))
                 if builder.corner(*u_corner) in tip_corners), None)
    if poke is None:
        raise RewriteError(f"tip {tip} lies in no corner face of crossing {t}'s under arc")
    u, u_corner, o_slot, o_corner = poke
    cu1, cu2 = run.apply(R2Insert(push_edge=tip, across_edge=builder.rows[t][u],
                                  push_over=True, corner=u_corner))
    mid = builder.bigon_arcs(cu1, cu2)[0]
    co1, co2 = run.apply(R2Insert(push_edge=mid, across_edge=builder.rows[t][o_slot],
                                  push_over=False, corner=o_corner))
    pair = next(((cu, co) for cu, co in ((cu1, co1), (cu2, co2))
                 if builder.triangle((t, cu, co)) is not None), None)
    if pair is None:
        raise RewriteError("finger reached the target but no triangle formed")
    run.apply(R3(cids=(t, *pair)))


# -- full simplification ---------------------------------------------------------


def to_simple_coloring(diagram: Diagram, gamma: Coloring
                       ) -> tuple[Diagram, Coloring, MoveTrace]:
    """Eliminate maximal-diff crossings until every positive diff is one value.

    One loop runs one stage per round.  A level lasts while its maximum D
    is present; a stage grows no diff at or above D, so D strictly
    decreases from level to level and there are at most d_m(initial)
    levels, each with at most as many rounds as it starts with D-diff
    crossings.  Already-simple colorings return unchanged with an empty
    trace.  All stages share one run, which verifies the input coloring:
    one builder, one diagram build and one trace verification at the end.
    """
    run = _Run(diagram, gamma)
    if len(set(gamma.values())) <= 1:
        raise RewriteError("coloring is trivial; nothing to simplify")
    if len([p for p in crossing_graph_pieces(diagram) if p]) > 1:
        raise RewriteError("diagram must be connected")
    if sum(d > 0 for d in run.at_diff) == 1:
        return diagram, dict(gamma), MoveTrace(stages=())

    initial_dm, levels, d_m = run.d_m, 0, 0
    while sum(d > 0 for d in run.at_diff) > 1:
        if run.d_m != d_m:
            levels += 1
            if levels > initial_dm:
                raise RewriteError("simplification exceeded its loop bound")
            d_m = run.d_m
            budget = len(run.at_diff[d_m])
            allowed_new = {0} | {v for v in run.at_diff if v < d_m}
            rounds = 0
        rounds += 1
        if rounds > budget:
            raise RewriteError("elimination exceeded its loop bound")
        # round 1 of a level tries the first path only: stricter than the lemma
        candidates = islice(_diff_paths(run), 1) if rounds == 1 else _diff_paths(run)
        errors: list[str] = []
        for path in candidates:
            d = run.diffs[path.end]
            allowed = allowed_new | {abs(d_m - d), abs(d_m - 2 * d)}
            variant = _finger_variant(run, path, d, allowed)
            if variant is not None:
                break
            errors.append("no finger variant satisfies the diff postcondition")
        else:
            if not errors:
                raise NoDiffPathError("no path from a maximal-diff crossing through 0-diff "
                                      "crossings; noteworthy counter-instance")
            raise RewriteError(
                f"no candidate path eliminates a {d_m}-diff crossing "
                f"({errors[:2]})")
        try:
            _drag_and_slide(run, path, *variant, allowed, d_m)
        except (MoveError, RewriteError, ConstructionError) as err:
            raise RewriteError(
                f"round {rounds} at diff {d_m}: the stage at target crossing "
                f"{path.start} failed and the run is refused ({err})") from err
    try:
        return run.finish()
    except ConstructionError as err:
        raise RewriteError(str(err)) from err
