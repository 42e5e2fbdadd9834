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
each round reads the current diff paths and runs one stage, and a level
ends when its maximum D is gone.  The first round of a level tries only
the first path, which is stricter than the lemma and refuses some inputs
the lemma covers.  A simplification is one run (``_Simplification``, a
``parallel_coloring._Run``, shared with color deletion, that also keeps
each crossing's diff and the crossings of each diff): one move builder
for all its stages.  Every move goes through the run, which recolors the
arcs it changed by the crossing rule and re-diffs the rows it created or
rewrote, as the move's report names them, so what the finger routing
reads is current after every move.  The path searches are kept on the
run between the rounds of a level: after a stage only those that read a
row the stage created, rewrote or relabelled are redone.  A
path whose finger verdict failed is dropped from its search's hits, so it
is not tried again until its search is redone: the verdict reads only
crossings the search read, and the level's allowed diffs.  A stage (one
finger drag and slide) is accepted only if its target lost the maximal
diff and no diff outside {0, existing below maximum, |D-d|, |D-2d|}
grew.  Once, at the end of the run, the whole coloring is verified
on the emitted diagram and the whole trace is replayed by
``verify_local_equivalence``.  A stage that fails after its moves cannot
be undone on the shared builder, so it refuses the whole run.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .coloring import Coloring
from .diagram import OVER_A, UNDER_IN, UNDER_OUT, Diagram, crossing_graph_pieces
from .moves import DiagramBuilder, Move, MoveError, MoveTrace, R2Insert, R3
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


class _Simplification(_Run):
    """A run that keeps crossing diffs, and path searches between rounds.

    ``diffs`` maps each crossing to its diff and ``at_diff`` each diff to
    its crossings; ``apply`` re-diffs the rows a move created or touched
    and adds all three lists of its report to ``changed``.
    ``searches`` maps each (start, first arc) to its ``_Search`` for the
    maximal diff ``level``.  ``hits`` holds the hits of all of them, each
    (length, end, start, via), sorted; ``pending`` is a heap of the
    (length, key) of the searches with no hit yet that can still grow; and
    ``readers`` maps each crossing to the searches that read its row or
    diff.  ``_diff_paths`` keeps them current.
    """

    def __init__(self, diagram: Diagram, gamma: Coloring):
        super().__init__(diagram, gamma)
        self.diffs: dict[int, int] = {}
        self.at_diff: dict[int, set[int]] = {}
        self.set_diffs(self.builder.rows)
        self.changed: set[int] = set()
        self.level: Optional[int] = None
        self.searches: dict[tuple[int, int], _Search] = {}
        self.hits: list[tuple[int, int, int, tuple[int, ...]]] = []
        self.pending: list[tuple[int, tuple[int, int]]] = []
        self.readers: dict[int, list[_Search]] = {}

    @property
    def d_m(self) -> int:
        return max(self.at_diff, default=0)

    def set_diffs(self, cids) -> None:
        rows, gamma, diffs, at_diff = self.builder.rows, self.gamma, self.diffs, self.at_diff
        for cid in cids:
            row = rows[cid]
            d, old = abs(gamma[row[OVER_A]] - gamma[row[UNDER_IN]]), diffs.get(cid)
            if old != d:
                if old is not None:
                    at_diff[old].discard(cid)
                    if not at_diff[old]:
                        del at_diff[old]
                diffs[cid] = d
                at_diff.setdefault(d, set()).add(cid)

    def apply(self, move: Move) -> dict:
        report = super().apply(move)
        self.set_diffs(report["created"] + report["touched"])
        self.changed.update(report["created"], report["touched"], report["relabelled"])
        return report


class _Search:
    """One (start, first arc) search of ``_diff_paths``, kept between rounds.

    At its current ``length`` in arcs it holds ``hits``, the (length, end,
    start, via) of its arc paths that end at a crossing of positive diff
    below the maximum, and ``steps``, the (via, crossing) of those that end
    at a 0-diff crossing, which the next length grows through; ``seen``
    holds the arcs its paths reached.  It stops at its first hits.
    """

    __slots__ = ("key", "length", "seen", "hits", "steps")

    def __init__(self, start: int, first: int):
        self.key = (start, first)
        self.length, self.seen, self.hits, self.steps = 0, {first}, [], []


def _diff_paths(run: _Simplification) -> Iterator[DiffPath]:
    """The run's diff paths, shortest first, one length at a time.

    A search runs from each arc of each maximal-diff crossing through 0-diff
    crossings and stops at the first length where it reaches a crossing of
    smaller positive diff.  Paths come sorted by (length, end, start, via),
    and a search grows to a length only once every shorter path has been
    taken, so a consumer that takes the first usable path never runs the
    longer lengths.

    The searches are kept on the run between the rounds of a level, and
    every crossing a search reads, a row or a diff, lists it in the run's
    ``readers``.  A search is redone only when a move created, rewrote or
    relabelled one of them (the run's ``changed``), which covers a start
    that lost the maximum; all start over when the maximum changes.  A hit
    the consumer drops from ``hits`` and from its search, as
    ``to_simple_coloring`` does with a path whose finger verdict failed,
    stays out until its search is redone.  So every round yields what a
    fresh search would, less the dropped hits, and a search read again
    with no move between yields the same.  Incident crossings are read
    from the builder as the searches reach an arc, in ascending id order.
    The generator reads the builder as it goes: it must not be resumed
    after a move.
    """
    rows, diffs, d_m = run.builder.rows, run.diffs, run.d_m
    searches, hits, pending, readers = run.searches, run.hits, run.pending, run.readers
    if run.level != d_m:
        run.level = d_m
        for kept in (searches, hits, pending, readers):
            kept.clear()
        starts = set(run.at_diff[d_m])
    else:
        starts = {cid for cid in run.changed if diffs[cid] == d_m}
        for cid in run.changed:
            for search in readers.pop(cid, ()):
                if searches.get(search.key) is search:
                    del searches[search.key]
                    for hit in search.hits:
                        del hits[bisect_left(hits, hit)]
                    if diffs[search.key[0]] == d_m:
                        starts.add(search.key[0])
    run.changed.clear()
    incident: dict[int, list[int]] = {}

    def reach(search: _Search, paths: list[tuple[int, ...]]) -> None:
        """Read the crossings at the ends of ``paths``, one arc longer."""
        length, start = search.length + 1, search.key[0]
        found, steps = [], []
        for path in paths:
            cids = incident.get(path[-1])
            if cids is None:
                cids = incident[path[-1]] = run.builder.incident(path[-1])
            for cid in cids:
                readers.setdefault(cid, []).append(search)
                d = diffs[cid]
                if d == 0:
                    steps.append((path, cid))
                elif d < d_m:
                    found.append((length, cid, start, path))
        search.length, search.hits, search.steps = length, found, steps
        for hit in found:
            insort(hits, hit)
        if steps and not found:
            heappush(pending, (length, search.key))

    for start in starts:
        for first in set(rows[start]):
            if (start, first) not in searches:
                search = searches[start, first] = _Search(start, first)
                reach(search, [(first,)])
    i = 0
    while True:
        if pending and (i == len(hits) or hits[i][0] > pending[0][0]):
            # no hit of this length or shorter is left: grow the shortest search
            length, key = heappop(pending)
            search = searches.get(key)
            if search is not None and search.length == length and not search.hits:
                paths, seen = [], search.seen
                for path, cid in search.steps:
                    for e in set(rows[cid]):
                        if e not in seen:
                            seen.add(e)
                            paths.append(path + (e,))
                reach(search, paths)
            continue
        if i == len(hits):
            return
        hit = hits[i]
        _, end, start, via = hit
        yield DiffPath(start=start, end=end, via=via, color=run.gamma[via[0]])
        if i < len(hits) and hits[i] is hit:  # the consumer may have dropped it
            i += 1


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


def _drag_and_slide(run: _Simplification, path: DiffPath, w_arc: int, u_arc: int,
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
        faces = builder.faces_through(tip)
        # past the first push the tip points into the larger face, not its bigon
        near = faces if tip == w_arc else sorted(faces, key=len)[-1:]
        if any(set(f) & goal_corners for f in near):
            break
        cross_arc = _first_route_arc(builder, run.gamma, path.color, near, goal_corners)
        tip = run.apply(R2Insert(push_edge=tip, across_edge=cross_arc, push_over=True))["arcs"][0]
    else:
        raise RewriteError("finger exceeded its step budget")

    # endgame: cross the under arc at the corner whose face holds the tip,
    # then the over arc the crossing leads to, and fire the triangle
    _endgame(run, path.start, u_slots, tip, faces)

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


def _endgame(run: _Run, target_cid: int, u_slots: list[int], tip: int,
             tip_faces: list[tuple[int, ...]]) -> None:
    """Poke over the under arc, under the over strand, slide the target.

    The under arc at slot u of the target t runs between the faces of
    corners (t, u) and (t, u-1).  A tip in the face of (t, u) pokes across
    it into the face of (t, u-1), where the next poke goes under the over
    arc of slot u-1 through that corner; a tip in the face of (t, u-1)
    pokes into the face of (t, u) and under the over arc of slot u+1.  The
    first corner whose face carries the tip names both pokes, and the
    triangle is the one the target bounds with the first or with the
    second crossing of both bigons.  Arcs are re-read from the builder at
    push time, since routing may have split them.  ``tip_faces`` are the
    faces through the tip, as the routing last read them.
    """
    builder = run.builder
    t = target_cid
    tip_corners = {c for f in tip_faces for c in f}
    poke = next(((u, u_corner, o_slot, o_corner) for u in u_slots
                 for u_corner, o_slot, o_corner in (((t, u), (u - 1) % 4, (t, (u - 1) % 4)),
                                                    ((t, (u - 1) % 4), (u + 1) % 4, (t, u)))
                 if builder.corner(*u_corner) in tip_corners), None)
    if poke is None:
        raise RewriteError(f"tip {tip} lies in no corner face of crossing {t}'s under arc")
    u, u_corner, o_slot, o_corner = poke
    under = run.apply(R2Insert(push_edge=tip, across_edge=builder.rows[t][u],
                               push_over=True, corner=u_corner))
    over = run.apply(R2Insert(push_edge=under["arcs"][0], across_edge=builder.rows[t][o_slot],
                              push_over=False, corner=o_corner))
    pair = next(((cu, co) for cu, co in zip(under["created"], over["created"])
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
    run = _Simplification(diagram, gamma)
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
            # the verdict holds until the path's search is redone
            hit = (len(path.via), path.end, path.start, path.via)
            del run.hits[bisect_left(run.hits, hit)]
            run.searches[path.start, path.via[0]].hits.remove(hit)
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
