"""Reidemeister moves on PD diagrams, with replayable verified traces.

Moves are purely combinatorial edits of the crossing rows.  Each move names
its location by current arc/crossing ids; replaying a trace re-executes the
edits with deterministic id allocation, so a trace can be checked by
replaying it and comparing the result with the claimed target.

``DiagramBuilder`` carries a ``Diagram``'s rows, signs and free loops and
a copy of its occurrence index.  A move sets the signs of the crossings it
creates and leaves every other sign alone, so no move rebuilds a
``Diagram``, and ``same_diagram`` compares a builder as it stands.

``apply_move`` reports the rows each move changed and what it built: the
new arcs of a kink or a bigon, and the corners of an R3's new triangle
(``c ^ 2``, each old corner with its slot moved by two).

Locality is tracked through disks: a disk is declared as a set of crossing
ids of the stage's source diagram, moves are tagged with a disk, and every
crossing a move modifies or removes must belong to the disk or have been
created by an earlier move of the same disk.  Disks of one stage must be
pairwise disjoint; a multi-stage trace chains independently-disked stages.
``apply_trace`` is the one replay loop: it checks locality as it applies
the moves, so a check of a trace replays it once.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Optional

from .diagram import (
    OVER_A,
    OVER_B,
    UNDER_IN,
    UNDER_OUT,
    Diagram,
    _next_corner,
    _union_roots,
    over_in_slot,
    same_diagram,
)


class MoveError(ValueError):
    """Raised when a move's location is not applicable."""


# -- move records ------------------------------------------------------------


class R1Insert(NamedTuple):
    kind = "R1+"
    edge: int
    sign: int
    over_first: bool = False


class R1Remove(NamedTuple):
    kind = "R1-"
    cid: int


class R2Insert(NamedTuple):
    """Push ``push_edge`` across ``across_edge`` inside a shared face."""

    kind = "R2+"
    push_edge: int
    across_edge: int
    push_over: bool
    corner: Optional[tuple[int, int]] = None


class R2Remove(NamedTuple):
    kind = "R2-"
    cid1: int
    cid2: int


class R3(NamedTuple):
    kind = "R3"
    cids: tuple[int, int, int]


Move = R1Insert | R1Remove | R2Insert | R2Remove | R3


class Stage(NamedTuple):
    moves: tuple[tuple[Move, int], ...]          # (move, disk id)
    disks: dict[int, frozenset[int]]             # disk id -> source crossing ids


class MoveTrace(NamedTuple):
    """A sequence of stages, each a disk-localized batch of moves."""

    stages: tuple[Stage, ...]


# -- mutable builder ---------------------------------------------------------


class DiagramBuilder:
    """Mutable planar map used while applying moves.

    ``rows`` maps crossing ids to slot quadruples and ``signs`` to crossing
    signs, both in one order, as ``Diagram`` stores them: a new crossing's
    id is above every earlier one.  Both are read-only outside this class;
    the mutators below are their only writers and keep the arc-occurrence
    index current, so face queries walk only the faces they need.

    Slots, corners and the index are encoded as in ``zcolor.diagram``: slot
    s of crossing c is the position ``4*c + s``, and so is the corner after
    it.  A face is the tuple of its corners in walk order, from the
    smallest; integers order like ``(cid, slot)`` pairs, so faces order as
    their pair spellings would.  Callers convert with ``corner`` and
    ``corner_slot`` and read crossings off arcs with ``incident``.
    """

    def __init__(self, diagram: Diagram):
        self.rows: dict[int, tuple[int, int, int, int]] = dict(diagram.rows)
        self.signs: dict[int, int] = dict(diagram.signs)
        self._occ: dict[int, list[int]] = {e: places.copy() for e, places in diagram._occ.items()}
        self.free_loops = diagram.free_loops
        self.next_cid = max(self.rows, default=-1) + 1
        self.next_edge = max(self._occ, default=0) + 1

    def diagram(self) -> Diagram:
        """A new ``Diagram`` of the current rows with the builder's signs,
        which ``Diagram`` checks are consistent, and a copy of its index."""
        return Diagram(self.rows.values(), self.signs.values(), self.free_loops,
                       cids=list(self.rows), _occ={e: p.copy() for e, p in self._occ.items()})

    # -- mutators -------------------------------------------------------------

    def _unindex(self, edge: int, p: int) -> None:
        places = self._occ[edge]
        places.remove(p)
        if not places:
            del self._occ[edge]

    def _replace(self, p: int, new_edge: int) -> int:
        cid, slot = p >> 2, p & 3
        row = list(self.rows[cid])
        self._unindex(row[slot], p)
        self._occ.setdefault(new_edge, []).append(p)
        row[slot] = new_edge
        self.rows[cid] = tuple(row)
        return cid

    def set_row(self, cid: int, row: tuple[int, int, int, int]) -> None:
        """Write a whole row of an existing crossing; its sign stays."""
        occ = self._occ
        p = 4 * cid
        for old, new in zip(self.rows[cid], row):
            if old != new:  # ``_unindex``, inline: every R3 writes three rows
                places = occ[old]
                places.remove(p)
                if not places:
                    del occ[old]
                occ.setdefault(new, []).append(p)
            p += 1
        self.rows[cid] = tuple(row)

    def replace_head(self, edge: int, new_edge: int) -> int:
        """Write ``new_edge`` where ``edge`` ends; returns that crossing."""
        return self._replace(self._head(edge), new_edge)

    def rename_arc(self, old: int, new: int, skip=()) -> list[int]:
        """Write ``new`` for ``old`` outside the crossings ``skip``; returns those written."""
        places = [p for p in self._occ.get(old, ()) if p >> 2 not in skip]
        return list(dict.fromkeys([self._replace(p, new) for p in places]))

    def add_crossing(self, row: tuple[int, int, int, int], sign: int) -> int:
        cid = self.next_cid
        self.next_cid += 1
        self.rows[cid] = row
        self.signs[cid] = sign
        for p, e in enumerate(row, 4 * cid):
            self._occ.setdefault(e, []).append(p)
        return cid

    def remove_crossing(self, cid: int):
        del self.signs[cid]
        for p, e in enumerate(self.rows.pop(cid), 4 * cid):
            self._unindex(e, p)

    def fresh_edge(self) -> int:
        e = self.next_edge
        self.next_edge += 1
        return e

    # -- queries ----------------------------------------------------------------

    def incident(self, arc: int) -> list[int]:
        """The crossings ``arc`` meets, in ascending id order."""
        places = self._occ.get(arc, ())
        if len(places) == 2:  # every arc between moves
            a, b = places[0] >> 2, places[1] >> 2
            return [a] if a == b else [a, b] if a < b else [b, a]
        return sorted({p >> 2 for p in places})

    def corner(self, cid: int, slot: int) -> Optional[int]:
        """The corner after ``slot`` of crossing ``cid``; None if there is no such slot."""
        return 4 * cid + slot if cid in self.rows and 0 <= slot < 4 else None

    @staticmethod
    def corner_slot(corner: int) -> tuple[int, int]:
        """``(cid, slot)`` of a corner: it sits counterclockwise after that slot."""
        return divmod(corner, 4)

    def is_head(self, cid: int, slot: int) -> bool:
        """Does the edge at this slot terminate here (point into the crossing)?"""
        return slot == UNDER_IN or slot == over_in_slot(self.signs[cid])

    def _head(self, edge: int) -> int:
        """The position where ``edge`` ends."""
        for p in self._occ[edge]:
            if self.is_head(p >> 2, p & 3):
                return p
        raise MoveError(f"arc {edge} has no head")

    def face(self, corner: int) -> tuple[int, ...]:
        """The face through ``corner``, from its smallest corner."""
        rows, occ = self.rows, self._occ
        walk = [corner]
        c = _next_corner(rows, occ, corner)
        while c != corner:
            walk.append(c)
            c = _next_corner(rows, occ, c)
        return _from_smallest(walk)

    def faces_through(self, arc: int) -> list[tuple[int, ...]]:
        """The at most two faces whose boundary runs along ``arc``.

        They are the faces of the corners that leave along the arc's
        occurrences (the corner before each), listed by smallest corner as
        the full face listing orders them.
        """
        faces: list[tuple[int, ...]] = []
        for p in self._occ.get(arc, ()):
            c = p - 1 if p & 3 else p + 3
            if not any(c in f for f in faces):
                faces.append(self.face(c))
        return sorted(faces)

    def face_arcs(self, face) -> list[int]:
        """The arcs the corners of ``face`` leave along, in walk order."""
        rows = self.rows
        return [rows[c >> 2][(c + 1) & 3] for c in face]

    def _walks_forward(self, face, arcs: list[int], arc: int) -> bool:
        """Does the face walk's first step along ``arc`` follow the strand?

        ``arcs`` is the face's ``face_arcs``; leaving from the arc's tail
        occurrence means walking with the strand direction.
        """
        c = face[arcs.index(arc)]
        return not self.is_head(c >> 2, (c + 1) & 3)

    def triangle(self, cids: tuple[int, int, int]) -> Optional[tuple[int, ...]]:
        """The first triangle face, by smallest corner, with a corner at each crossing.

        Every such face has a corner at the first crossing, so only three
        steps from each of that crossing's four corners are walked.
        """
        want = set(cids)
        rows, occ = self.rows, self._occ
        found = []
        for start in range(4 * cids[0], 4 * cids[0] + 4):
            second = _next_corner(rows, occ, start)
            if second >> 2 not in want:
                continue
            third = _next_corner(rows, occ, second)
            walk = [start, second, third]
            if _next_corner(rows, occ, third) == start and {c >> 2 for c in walk} == want:
                found.append(_from_smallest(walk))
        return min(found, default=None)

    def insert_twist(self, f: int, g: int, sign: int) -> tuple[list[int], tuple[int, int]]:
        """Clasp two co-face parallel arcs with a two-crossing full twist:
        the R2 bigon of ``f`` pushed over ``g`` (``sign`` > 0) or under it,
        with its second crossing changed.

        Requires the arcs to run parallel along a shared face; raises
        MoveError otherwise.  Both new crossings get ``sign`` if ``f`` runs
        with the face walk, as cable twists do, else ``-sign`` (mirrored
        layout); the writhe changes by twice that.  Returns the two new
        crossing ids and the arcs that continue ``f`` and ``g`` past the twist.
        """
        if f == g:
            raise MoveError("clasp needs two distinct arcs")
        for face in self.faces_through(f):
            arcs = self.face_arcs(face)
            if g in arcs:
                f_fwd = self._walks_forward(face, arcs, f)
                if f_fwd != self._walks_forward(face, arcs, g):  # strands parallel across the face
                    break
        else:
            raise MoveError(f"arcs {f} and {g} do not run parallel along a face")
        report = _insert_bigon(self, f, g, f_fwd, True, sign > 0)
        (c1, c2), (_, f_b, _, g_b) = report["created"], report["arcs"]
        # the crossing change: the incoming over arc moves to slot 0, the sign flips
        row, s = self.rows[c2], self.signs[c2]
        k = over_in_slot(s)
        self.set_row(c2, row[k:] + row[:k])
        self.signs[c2] = -s
        return [c1, c2], (f_b, g_b)


def _from_smallest(walk: list[int]) -> tuple[int, ...]:
    """A closed corner walk, rotated to start at its smallest corner."""
    k = walk.index(min(walk))
    return tuple(walk[k:] + walk[:k])


# -- move application ---------------------------------------------------------


def apply_move(builder: DiagramBuilder, move: Move) -> dict:
    """Apply one move and report the rows it changed and what it built.

    Each crossing whose row or sign changed is in one list: ``created``;
    ``touched``, the rows an R3 rewrote and an R1- or R2- removed; or
    ``relabelled``, rows changed by arc labels only: the heads of the arcs
    an R1+ or R2+ splits, the rows of the arc an R1- or R2- merges away.
    An R1+ adds ``arcs``: the kink's loop and the arc after it.  An R2+ of
    push arc f across arc g adds ``arcs``: (f_m, f_b, g_m, g_b), the
    middles of f and g between the two new crossings, then the arcs that
    continue them past the bigon.  An R3 adds ``triangle``: the corners of
    the new triangle face, each the old corner with its slot moved by two
    (``c ^ 2``), because at every corner both sides move to the opposite
    slot of their strand.
    """
    if isinstance(move, R1Insert):
        return _apply_r1_insert(builder, move)
    if isinstance(move, R1Remove):
        return _apply_r1_remove(builder, move)
    if isinstance(move, R2Insert):
        return _apply_r2_insert(builder, move)
    if isinstance(move, R2Remove):
        return _apply_r2_remove(builder, move)
    if isinstance(move, R3):
        return _apply_r3(builder, move)
    raise MoveError(f"unknown move {move!r}")


def _apply_r1_insert(builder: DiagramBuilder, mv: R1Insert) -> dict:
    if not builder.incident(mv.edge):
        raise MoveError(f"no such arc: {mv.edge}")
    if mv.sign not in (1, -1):
        raise MoveError("kink sign must be +1 or -1")
    e_a = mv.edge
    loop = builder.fresh_edge()
    e_b = builder.fresh_edge()
    head = builder.replace_head(e_a, e_b)
    if not mv.over_first:
        row = (e_a, e_b, loop, loop) if mv.sign > 0 else (e_a, loop, loop, e_b)
    else:
        row = (loop, loop, e_b, e_a) if mv.sign > 0 else (loop, e_a, e_b, loop)
    cid = builder.add_crossing(row, mv.sign)
    return {"created": [cid], "touched": [], "relabelled": [head], "arcs": [loop, e_b]}


def _apply_r1_remove(builder: DiagramBuilder, mv: R1Remove) -> dict:
    row = builder.rows.get(mv.cid)
    if row is None:
        raise MoveError(f"no such crossing: {mv.cid}")
    loop = None
    for e in row:
        if row.count(e) == 2:
            pairs = [s for s, x in enumerate(row) if x == e]
            # a kink loop occupies one under slot and one over slot
            if (pairs[0] in (UNDER_IN, UNDER_OUT)) != (pairs[1] in (UNDER_IN, UNDER_OUT)):
                loop = e
                break
    if loop is None:
        raise MoveError(f"crossing {mv.cid} is not a removable kink")
    e_a, e_b = [e for e in row if e != loop]
    builder.remove_crossing(mv.cid)
    if e_a == e_b:
        # isolated kink on its own circle
        if not builder.incident(e_a):
            builder.free_loops += 1
        return {"created": [], "touched": [mv.cid], "relabelled": []}
    keep, drop = min(e_a, e_b), max(e_a, e_b)
    return {"created": [], "touched": [mv.cid], "relabelled": builder.rename_arc(drop, keep)}


def _locate_r2_face(builder: DiagramBuilder, mv: R2Insert):
    """The first face, by smallest corner, along both arcs (and the corner),
    and its ``face_arcs``."""
    if mv.corner is None:
        faces = builder.faces_through(mv.push_edge)
    else:
        corner = builder.corner(*mv.corner)
        faces = [] if corner is None else [builder.face(corner)]
    for face in faces:
        arcs = builder.face_arcs(face)
        if mv.push_edge in arcs and mv.across_edge in arcs:
            return face, arcs
    raise MoveError(
        f"arcs {mv.push_edge} and {mv.across_edge} do not co-bound a face"
        + (f" through corner {mv.corner}" if mv.corner else ""))


def _apply_r2_insert(builder: DiagramBuilder, mv: R2Insert) -> dict:
    """Insert the bigon of ``push_edge`` poked across ``across_edge``."""
    f, g = mv.push_edge, mv.across_edge
    if f == g:
        raise MoveError("cannot push an arc across itself")
    face, arcs = _locate_r2_face(builder, mv)
    f_fwd, g_fwd = (builder._walks_forward(face, arcs, e) for e in (f, g))
    return _insert_bigon(builder, f, g, f_fwd, f_fwd != g_fwd, mv.push_over)


def _insert_bigon(builder: DiagramBuilder, f: int, g: int, f_fwd: bool, parallel: bool,
                  push_over: bool) -> dict:
    """Lay the R2 bigon of ``f`` pushed over (or under) ``g``; returns its
    report: its crossings, in the order ``f`` runs through them, the heads
    of ``f`` and ``g``, and its new arcs (f_m, f_b, g_m, g_b): the middles
    of ``f`` and ``g`` between the crossings and their arcs past the bigon.

    The face walk keeps its interior on the walker's right, so the walk
    direction of each arc relative to its strand direction (``f_fwd`` for
    ``f``) decides whether the two strands run parallel or antiparallel
    across the face; the slot quadruples below are the four layouts.
    """
    f_m, f_b = builder.fresh_edge(), builder.fresh_edge()
    g_m, g_b = builder.fresh_edge(), builder.fresh_edge()
    heads = dict.fromkeys((builder.replace_head(f, f_b), builder.replace_head(g, g_b)))
    f_a, g_a = f, g

    if push_over:
        if parallel:
            first = (g_a, f_m, g_m, f_a)
            second = (g_m, f_m, g_b, f_b)
        else:
            first = (g_m, f_a, g_b, f_m)
            second = (g_a, f_b, g_m, f_m)
    else:
        if parallel:
            first = (f_a, g_a, f_m, g_m)
            second = (f_m, g_b, f_b, g_m)
        else:
            first = (f_a, g_b, f_m, g_m)
            second = (f_m, g_a, f_b, g_m)
    if not f_fwd:
        # the face lies on the push strand's left: mirrored picture,
        # which exchanges the two over slots of both new crossings
        first = (first[0], first[3], first[2], first[1])
        second = (second[0], second[3], second[2], second[1])
    # the over strand enters ``first`` at slot OVER_B exactly when it is positive
    over_in = f_a if push_over else (g_a if parallel else g_m)
    sign = 1 if first[OVER_B] == over_in else -1
    return {"created": [builder.add_crossing(first, sign), builder.add_crossing(second, -sign)],
            "touched": [], "relabelled": list(heads), "arcs": [f_m, f_b, g_m, g_b]}


def _apply_r2_remove(builder: DiagramBuilder, mv: R2Remove) -> dict:
    r1 = builder.rows.get(mv.cid1)
    r2 = builder.rows.get(mv.cid2)
    if r1 is None or r2 is None:
        raise MoveError("no such crossing")
    shared = set(r1) & set(r2)
    inner = [e for e in shared
             if sum(x == e for x in r1) == 1 and sum(x == e for x in r2) == 1]
    if len(inner) != 2:
        raise MoveError(f"crossings {mv.cid1},{mv.cid2} do not bound a bigon")

    def is_under(s):
        return s in (UNDER_IN, UNDER_OUT)

    # one inner edge is under at both crossings, the other over at both
    unders = [e for e in inner if is_under(r1.index(e)) and is_under(r2.index(e))]
    overs = [e for e in inner if not is_under(r1.index(e)) and not is_under(r2.index(e))]
    if len(unders) != 1 or len(overs) != 1:
        raise MoveError("bigon is clasped (same strand not over at both crossings)")
    if builder.signs[mv.cid1] + builder.signs[mv.cid2] != 0:
        raise MoveError("bigon crossings do not have opposite signs")

    def strand_edges(row, e):
        s = row.index(e)
        if is_under(s):
            return (row[UNDER_IN], row[UNDER_OUT])
        return (row[OVER_A], row[OVER_B])

    # each strand's two outer arcs become one arc; the strands' outer arcs
    # may share an arc (one strand leaves the bigon and runs straight back
    # in as the other), so the merge is transitive
    outer = []
    for mid in inner:
        a1, b1 = strand_edges(r1, mid)
        a2, b2 = strand_edges(r2, mid)
        outer.append((a1 if b1 == mid else b1, a2 if b2 == mid else b2))
    keep = _union_roots(chain.from_iterable(outer), outer)
    renamed = []
    for arc, root in keep.items():
        if arc != root:
            renamed += builder.rename_arc(arc, root, skip=(mv.cid1, mv.cid2))
    builder.remove_crossing(mv.cid1)
    builder.remove_crossing(mv.cid2)
    # a merged arc that meets no crossing closed up through the bigon alone
    builder.free_loops += sum(not builder.incident(root) for root in set(keep.values()))
    return {"created": [], "touched": [mv.cid1, mv.cid2],
            "relabelled": list(dict.fromkeys(renamed))}


def _apply_r3(builder: DiagramBuilder, mv: R3) -> dict:
    """Slide one strand across the triangle of three crossings.

    Corner ``(c, i)`` of the triangle face meets its two sides at slots
    ``i`` and ``i+1``, so side k runs from slot ``i_k+1`` of the k-th corner's
    crossing to slot ``i_{k+1}`` of the next one.  After the move each
    strand passes its two crossings in the opposite order: at the crossing
    it left along the side it now arrives along it, and the other way round,
    so at both ends the side moves to the opposite slot of its strand and
    the strand's far arc takes the side's old slot.  Signs do not change.
    """
    cids = tuple(mv.cids)
    if len(set(cids)) != 3 or any(c not in builder.rows for c in cids):
        raise MoveError(f"R3 needs three distinct crossings, got {cids}")
    triangle = builder.triangle(cids)
    if triangle is None:
        raise MoveError(f"crossings {cids} do not bound a triangle face")
    # a side is under where its slot is even, so corners whose slots all
    # share a parity make every side under at one end and over at the other
    corners = [builder.corner_slot(c) for c in triangle]
    if len({i % 2 for _, i in corners}) == 1:
        raise MoveError("triangle is not an R3 pattern (needs top/middle/bottom strands)")
    rows = builder.rows
    new_rows = {c: list(rows[c]) for c in cids}
    for k, (c, i) in enumerate(corners):
        ends = (c, (i + 1) % 4), corners[(k + 1) % 3]
        # the side leaves its strand's first crossing and enters the second
        (c1, s1), (c2, s2) = ends if not builder.is_head(*ends[0]) else ends[::-1]
        side = rows[c1][s1]
        new_rows[c1][s1], new_rows[c1][(s1 + 2) % 4] = rows[c2][(s2 + 2) % 4], side
        new_rows[c2][s2], new_rows[c2][(s2 + 2) % 4] = rows[c1][(s1 + 2) % 4], side
    for cid in cids:
        builder.set_row(cid, new_rows[cid])
    return {"created": [], "touched": list(cids), "relabelled": [],
            "triangle": [c ^ 2 for c in triangle]}


# -- replay and verification ---------------------------------------------------


TARGET_MISMATCH = "replayed diagram does not match the target"


def apply_trace(builder: DiagramBuilder, trace: MoveTrace, reasons: list[str]) -> None:
    """Apply every move of ``trace`` to ``builder``, recording locality faults.

    Appends to ``reasons`` each pair of overlapping disks of a stage, each
    move naming an unknown disk, and each crossing a move modifies or
    removes that is neither in the move's disk nor created earlier by the
    same disk, read off the report's ``touched`` and ``created`` only: a
    relabel is not a geometric change and may lie outside the disk.  Raises
    MoveError at the first move that does not apply; the faults found
    before it stay in ``reasons``.
    """
    for si, stage in enumerate(trace.stages):
        ids = sorted(stage.disks)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if stage.disks[a] & stage.disks[b]:
                    reasons.append(f"stage {si}: disks {a} and {b} overlap")
        owned: dict[int, set[int]] = {k: set(v) for k, v in stage.disks.items()}
        for move, disk in stage.moves:
            if disk not in owned:
                reasons.append(f"stage {si}: move {move} names unknown disk {disk}")
                owned[disk] = set()
            info = apply_move(builder, move)
            for cid in info["touched"]:
                if cid not in owned[disk]:
                    reasons.append(
                        f"stage {si}: move {move} touched crossing {cid} outside disk {disk}")
            owned[disk].update(info["created"])


def replay_trace(diagram: Diagram, trace: MoveTrace) -> Diagram:
    """Re-execute every move; deterministic, raises MoveError on bad locations."""
    builder = DiagramBuilder(diagram)
    apply_trace(builder, trace, [])
    return builder.diagram()


class EquivalenceReport(NamedTuple):
    ok: bool
    reasons: tuple[str, ...] = ()


def verify_local_equivalence(source: Diagram, target: Diagram, trace: MoveTrace) -> EquivalenceReport:
    """Check disk disjointness, per-move locality, and end-diagram equality.

    Locality is crossing-based: every crossing a move modifies or removes
    (``touched``; a relabel is no geometric change and may leave the disk)
    must be in the move's declared disk or created earlier by the same
    disk.  Disks are checked for pairwise disjointness within each stage;
    stages are independent localizations applied in sequence.  The end
    diagram must equal the target (``same_diagram``, on the builder, so
    no ``Diagram`` is built).
    """
    reasons: list[str] = []
    builder = DiagramBuilder(source)
    try:
        apply_trace(builder, trace, reasons)
    except MoveError as err:
        return EquivalenceReport(False, tuple(reasons + [f"replay failed: {err}"]))
    if not same_diagram(builder, target):
        reasons.append(TARGET_MISMATCH)
    return EquivalenceReport(ok=not reasons, reasons=tuple(reasons))
