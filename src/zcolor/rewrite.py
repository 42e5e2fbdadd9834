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
a coloring whose positive diffs are all equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coloring import Coloring, ColoringError, diff_spectrum, is_simple, verify_coloring
from .diagram import Diagram, crossing_graph_pieces, face_steps
from .moves import (
    DiagramBuilder,
    MoveError,
    MoveTrace,
    R2Insert,
    R3,
    Stage,
    apply_move,
    verify_local_equivalence,
)
from .parallel_coloring import ConstructionError, propagate_coloring


class RewriteError(ValueError):
    pass


class NoDiffPathError(RewriteError):
    """A connected non-simple coloring without a usable path: noteworthy."""


@dataclass(frozen=True)
class DiffPath:
    """A route from a maximal-diff crossing to a smaller-diff crossing."""

    start: int                 # crossing id with diff d_m
    end: int                   # crossing id with diff d, 0 < d < d_m
    via: tuple[int, ...]       # arcs, all one color, through 0-diff crossings
    kind: tuple[str, str]      # strand role at each endpoint: "over"/"under"
    color: int                 # the shared arc color z


def _arc_role(diagram: Diagram, cid: int, arc: int) -> str:
    x = diagram.crossing(cid)
    if arc in (x.under_in, x.under_out):
        return "under"
    return "over"


def all_diff_paths(diagram: Diagram, gamma: Coloring) -> list[DiffPath]:
    """All shortest paths through 0-diff crossings, per start arc.

    From each arc of each maximal-diff crossing a breadth-first search runs
    through 0-diff crossings until it reaches arcs incident to crossings of
    smaller positive diff.  Results are ordered by path length, then end
    and start crossing ids, so the first entry is the canonical choice.
    """
    spec = diff_spectrum(diagram, gamma)
    d_m = spec.d_m
    smaller = {c for c, d in spec.diffs.items() if 0 < d < d_m}
    if not smaller:
        raise RewriteError("coloring has no smaller positive diff: nothing to route to")
    starts = [c for c, d in spec.diffs.items() if d == d_m]
    zero = {c for c, d in spec.diffs.items() if d == 0}

    incident: dict[int, list[int]] = {}
    for x in diagram.crossings:
        for e in set(x.slots):
            incident.setdefault(e, []).append(x.cid)

    found: list[DiffPath] = []
    for start in sorted(starts):
        x0 = diagram.crossing(start)
        for first in sorted(set(x0.slots)):
            frontier = [(first,)]
            seen = {first}
            while frontier:
                hits = []
                for path in frontier:
                    arc = path[-1]
                    for cid in incident[arc]:
                        if cid in smaller:
                            hits.append((cid, path))
                if hits:
                    for end, via in sorted(hits):
                        found.append(DiffPath(
                            start=start, end=end, via=tuple(via),
                            kind=(_arc_role(diagram, start, via[0]),
                                  _arc_role(diagram, end, via[-1])),
                            color=gamma[via[0]],
                        ))
                    break
                nxt = []
                for path in frontier:
                    arc = path[-1]
                    for cid in incident[arc]:
                        if cid not in zero:
                            continue
                        for e in set(diagram.crossing(cid).slots):
                            if e not in seen:
                                seen.add(e)
                                nxt.append(path + (e,))
                frontier = nxt
    found.sort(key=lambda p: (len(p.via), p.end, p.start, p.via))
    return found


def find_diff_path(diagram: Diagram, gamma: Coloring) -> Optional[DiffPath]:
    """The canonical path: shortest, then lowest end-crossing id."""
    paths = all_diff_paths(diagram, gamma)
    return paths[0] if paths else None


# -- the elimination -----------------------------------------------------------


def _finger_candidates(diagram: Diagram, gamma: Coloring, path: DiffPath,
                       d: int, allowed: set[int]) -> list[int]:
    """Arcs at the end crossing usable as the dragged finger.

    The finger's crossings along the corridor all carry diff |w - z|, so
    any arc whose gap to the path color is a permitted diff qualifies; the
    natural choice (gap d) sorts first.
    """
    x1 = diagram.crossing(path.end)
    z = path.color
    cands = []
    for arc in set(x1.slots):
        if arc in path.via:
            continue
        gap = abs(gamma[arc] - z)
        if gap > 0 and gap in allowed:
            cands.append(arc)
    return sorted(cands, key=lambda a: (abs(abs(gamma[a] - z) - d), gamma[a]))


def eliminate_max_diff(diagram: Diagram, gamma: Coloring, path: DiffPath
                       ) -> tuple[Diagram, Coloring, MoveTrace]:
    """Remove every maximal-diff crossing; returns the rewritten pair.

    The supplied path seeds the first elimination; paths for the remaining
    maximal-diff crossings are found internally.  Each round is verified:
    the coloring stays valid, the round's target loses its maximal diff,
    and every new diff lies in {0, existing below maximum, |D-d|, |D-2d|}.
    """
    spec = diff_spectrum(diagram, gamma)
    d_m = spec.d_m
    if spec.diffs.get(path.start) != d_m:
        raise RewriteError("path does not start at a maximal-diff crossing")
    budget = spec.histogram.get(d_m, 0)
    allowed_new: set[int] = {0} | {v for v in spec.histogram if v < d_m}
    stages: list[Stage] = []
    cur_d, cur_g = diagram, dict(gamma)
    cur_path: Optional[DiffPath] = path
    rounds = 0
    while True:
        spec = diff_spectrum(cur_d, cur_g)
        if d_m not in spec.histogram:
            break
        rounds += 1
        if rounds > budget:
            raise RewriteError("elimination exceeded its loop bound")
        candidates = [cur_path] if cur_path is not None else \
            all_diff_paths(cur_d, cur_g)
        if not candidates:
            raise NoDiffPathError(
                "no path from a maximal-diff crossing through 0-diff crossings; "
                "noteworthy counter-instance")
        done = None
        errors: list[str] = []
        for cand in candidates:
            d = spec.diffs[cand.end]
            allowed = allowed_new | {abs(d_m - d), abs(d_m - 2 * d)}
            try:
                done = _eliminate_one(cur_d, cur_g, cand, d_m, d, allowed)
                break
            except RewriteError as err:
                errors.append(str(err))
        if done is None:
            raise RewriteError(
                f"no candidate path eliminates a {d_m}-diff crossing "
                f"({errors[:2]})")
        new_d, new_g, stage = done
        stages.append(stage)
        cur_d, cur_g = new_d, new_g
        cur_path = None
    trace = MoveTrace(stages=tuple(stages))
    report = verify_local_equivalence(diagram, cur_d, trace)
    if not report.ok:
        raise RewriteError(f"trace verification failed: {report.reasons}")
    return cur_d, cur_g, trace


def _eliminate_one(diagram: Diagram, gamma: Coloring, path: DiffPath,
                   d_m: int, d: int, allowed: set[int]
                   ) -> tuple[Diagram, Coloring, Stage]:
    """One verified finger-drag-and-slide; tries the bounded variant space."""
    x0 = diagram.crossing(path.start)
    b = gamma[x0.over_in]
    errors = []
    for w_arc in _finger_candidates(diagram, gamma, path, d, allowed):
        w = gamma[w_arc]
        # the slide turns the target's diff |b - u| into |b + u - 2w|
        for u_arc in dict.fromkeys((x0.under_in, x0.under_out)):
            u = gamma[u_arc]
            new_diff = abs(b + u - 2 * w)
            pair_diff = abs(b - w)
            if new_diff not in allowed or pair_diff not in allowed:
                continue
            try:
                return _drag_and_slide(diagram, gamma, path, w_arc, u_arc,
                                       allowed, d_m)
            except (MoveError, RewriteError, ConstructionError) as err:
                errors.append(str(err))
    raise RewriteError(
        "no finger variant satisfies the diff postcondition"
        + (f" (tried: {errors[:3]})" if errors else ""))


def _poke_face(builder: DiagramBuilder, tip: int):
    """The face the tongue tip currently points into (not its bigon face)."""
    faces = builder.faces_through(tip)
    if not faces:
        raise RewriteError(f"tip {tip} lies on no face")
    # the bigon face has exactly two corners and carries the tip twice or
    # alongside only the crossed arc; the poke face is the larger one
    return sorted(faces, key=len)[-1]


def _drag_and_slide(diagram: Diagram, gamma: Coloring, path: DiffPath,
                    w_arc: int, u_arc: int, allowed: set[int], d_m: int
                    ) -> tuple[Diagram, Coloring, Stage]:
    """Route the finger by breadth-first search over faces.

    The tongue may cross only arcs carrying the path color (each crossing
    pair has diff |w - z|, already in the allowed set), until its face
    touches the target crossing next to the chosen under arc; there it
    crosses the under arc, then the over strand, and the triangle slide
    fires.
    """
    builder = DiagramBuilder(diagram)
    moves: list = []
    disk = 1
    z = path.color
    ext = dict(gamma)
    x0 = diagram.crossing(path.start)
    u_slots = [i for i, e in enumerate(x0.slots) if e == u_arc and i in (0, 2)]
    goal_corners = set()
    for s in u_slots:
        goal_corners.add((path.start, s))
        goal_corners.add((path.start, (s - 1) % 4))

    tip = w_arc
    w = gamma[w_arc]
    cap = 4 * len(diagram.crossings) + 8
    for _step in range(cap):
        if tip == w_arc:
            near = builder.faces_through(tip)
        else:
            near = [_poke_face(builder, tip)]
        if any(set(f) & goal_corners for f in near):
            break
        # dual BFS crossing only z-colored arcs, each to the face beyond it
        prev: dict = {}
        frontier = list(near)
        seen = set(frontier)
        goal_face = None
        while frontier and goal_face is None:
            nxt = []
            for f in frontier:
                for e, _ in face_steps(builder.rows, f):
                    if ext.get(e) != z:
                        continue
                    for f2 in builder.faces_through(e):
                        if f2 in seen:
                            continue
                        prev[f2] = (f, e)
                        seen.add(f2)
                        if set(f2) & goal_corners:
                            goal_face = f2
                            break
                        nxt.append(f2)
                    if goal_face:
                        break
                if goal_face:
                    break
            frontier = nxt
        if goal_face is None:
            raise RewriteError("no corridor of path-colored arcs reaches the target")
        # first arc to cross on the route
        step_face = goal_face
        while prev.get(step_face, (None, None))[0] not in near:
            step_face = prev[step_face][0]
        cross_arc = prev[step_face][1]
        mv = R2Insert(push_edge=tip, across_edge=cross_arc, push_over=True)
        info = apply_move(builder, mv)
        moves.append((mv, disk))
        c1, c2 = info["created"]
        _record_push_colors(builder, ext, c1, c2, w)
        tip = builder.bigon_arcs(c1, c2)[0]
    else:
        raise RewriteError("finger exceeded its step budget")

    # endgame: cross the under arc at the corner whose face holds the tip,
    # then the over arc the crossing leads to, and fire the triangle
    _endgame(builder, moves, disk, path.start, u_slots, tip)

    result = builder.diagram()
    new_gamma = _recolor_after_slide(result, diagram, gamma, moves)
    new_spec = diff_spectrum(result, new_gamma)
    if new_spec.diffs.get(path.start) == d_m:
        raise RewriteError("slide left the target's diff unchanged")
    bad = {v for v in new_spec.histogram if v not in allowed and v != 0}
    old_spec = diff_spectrum(diagram, gamma)
    if any(new_spec.histogram.get(v, 0) > old_spec.histogram.get(v, 0)
           for v in bad | {d_m}):
        raise RewriteError("slide created diffs outside the allowed set")
    stage = Stage(moves=tuple(moves), disks={disk: frozenset({path.start})})
    return result, new_gamma, stage


def _record_push_colors(builder: DiagramBuilder, ext: Coloring,
                        c1: int, c2: int, w: int) -> None:
    """Track colors over a fresh over-push bigon for the corridor test.

    The tongue keeps w on its new pieces; the crossed strand's far piece
    keeps its old color and its middle becomes 2w - old.  Final colors are
    recomputed by propagation; this only keeps crossability decisions
    accurate while routing.
    """
    r1, r2 = builder.rows[c1], builder.rows[c2]
    shared = set(r1) & set(r2)
    for row in (r1, r2):
        over_pair = [row[1], row[3]]
        for e in over_pair:
            ext.setdefault(e, w)
    for row in (r1, r2):
        u_in, u_out = row[0], row[2]
        known = [e for e in (u_in, u_out) if e in ext]
        if known:
            g_old = ext[known[0]]
            for e in (u_in, u_out):
                if e not in ext:
                    ext[e] = (2 * w - g_old) if e in shared else g_old


def _endgame(builder: DiagramBuilder, moves: list, disk: int,
             target_cid: int, u_slots: list[int], tip: int) -> None:
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
    t = target_cid
    tip_corners = {c for f in builder.faces_through(tip) for c in f}
    poke = next(((u, u_corner, o_slot, o_corner) for u in u_slots
                 for u_corner, o_slot, o_corner in (((t, u), (u - 1) % 4, (t, (u - 1) % 4)),
                                                    ((t, (u - 1) % 4), (u + 1) % 4, (t, u)))
                 if u_corner in tip_corners), None)
    if poke is None:
        raise RewriteError(f"tip {tip} lies in no corner face of crossing {t}'s under arc")
    u, u_corner, o_slot, o_corner = poke
    mv1 = R2Insert(push_edge=tip, across_edge=builder.rows[t][u],
                   push_over=True, corner=u_corner)
    cu1, cu2 = apply_move(builder, mv1)["created"]
    moves.append((mv1, disk))
    mid = builder.bigon_arcs(cu1, cu2)[0]
    mv2 = R2Insert(push_edge=mid, across_edge=builder.rows[t][o_slot],
                   push_over=False, corner=o_corner)
    co1, co2 = apply_move(builder, mv2)["created"]
    moves.append((mv2, disk))
    pair = next(((cu, co) for cu, co in ((cu1, co1), (cu2, co2))
                 if builder.triangle((t, cu, co)) is not None), None)
    if pair is None:
        raise RewriteError("finger reached the target but no triangle formed")
    mv3 = R3(cids=(t, *pair))
    apply_move(builder, mv3)
    moves.append((mv3, disk))


def _recolor_after_slide(result: Diagram, source: Diagram, gamma: Coloring,
                         moves: list) -> Coloring:
    """Re-propagate after the slide; only the triangle's inner arcs move.

    A triangle move recolors exactly its three side arcs; every surviving
    arc outside the triangle keeps its color and the tongue's new arcs are
    derived by propagation.
    """
    touched_cids = set()
    for mv, _ in moves:
        if isinstance(mv, R3):
            touched_cids.update(mv.cids)
    count: dict[int, int] = {}
    for cid in touched_cids:
        for e in result.crossing(cid).slots:
            count[e] = count.get(e, 0) + 1
    loose = {e for e, k in count.items() if k >= 2}
    pinned = {e: gamma[e] for e in result.edges if e in gamma and e not in loose}
    return propagate_coloring(result, pinned)


# -- full simplification ---------------------------------------------------------


def to_simple_coloring(diagram: Diagram, gamma: Coloring
                       ) -> tuple[Diagram, Coloring, MoveTrace]:
    """Iterate eliminations until every positive diff is one fixed value.

    The maximum diff strictly decreases each round, so the loop runs at
    most d_m(initial) times; already-simple colorings return unchanged with
    an empty trace.
    """
    if not verify_coloring(diagram, gamma):
        raise ColoringError("not a valid coloring")
    if len(set(gamma.values())) <= 1:
        raise RewriteError("coloring is trivial; nothing to simplify")
    if len([p for p in crossing_graph_pieces(diagram) if p]) > 1:
        raise RewriteError("diagram must be connected")
    simple, _ = is_simple(diagram, gamma)
    if simple:
        return diagram, dict(gamma), MoveTrace(stages=())

    initial_dm = diff_spectrum(diagram, gamma).d_m
    stages: list[Stage] = []
    cur_d, cur_g = diagram, dict(gamma)
    rounds = 0
    while True:
        simple, _ = is_simple(cur_d, cur_g)
        if simple:
            break
        rounds += 1
        if rounds > initial_dm:
            raise RewriteError("simplification exceeded its loop bound")
        path = find_diff_path(cur_d, cur_g)
        if path is None:
            raise NoDiffPathError(
                "no path from a maximal-diff crossing through 0-diff crossings; "
                "noteworthy counter-instance")
        new_d, new_g, trace = eliminate_max_diff(cur_d, cur_g, path)
        stages.extend(trace.stages)
        cur_d, cur_g = new_d, new_g
    trace = MoveTrace(stages=tuple(stages))
    report = verify_local_equivalence(diagram, cur_d, trace)
    if not report.ok:
        raise RewriteError(f"trace verification failed: {report.reasons}")
    return cur_d, cur_g, trace
