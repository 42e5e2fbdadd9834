"""Oriented link diagrams in planar-diagram (PD) notation.

A diagram is a set of crossings, each a counterclockwise quadruple of arc
labels starting from the incoming under-arc.  Slot 0 is the incoming
under-arc, slot 2 the outgoing under-arc; slots 1 and 3 carry the over
strand, and the crossing sign says which one is incoming (incoming
over-arc at slot 3 means sign +1).  PD text does not carry the signs: for
it the orientation is solved from the rows (``_orient``).  Writers that
already hold every sign (the move builder, cabling, relabelling) pass them
in, and the orientation they imply is checked, not solved.

Arc labels are the PD edge labels 1..2n.  The arcs of Fox/integer coloring
theory (maximal overpasses) are the equivalence classes of edge labels
under merging the two over-slots of every crossing; see ``arc_classes``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Optional, Sequence


class PDSyntaxError(ValueError):
    """Raised on malformed PD text.  Carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DiagramError(ValueError):
    """Raised when crossing data violates a structural invariant."""


UNDER_IN, OVER_A, UNDER_OUT, OVER_B = 0, 1, 2, 3


@dataclass(frozen=True)
class Crossing:
    """One crossing: slot quadruple (ccw from incoming under-arc) and sign."""

    cid: int
    slots: tuple[int, int, int, int]
    sign: int

    @property
    def under_in(self) -> int:
        return self.slots[UNDER_IN]

    @property
    def under_out(self) -> int:
        return self.slots[UNDER_OUT]

    @property
    def over_in(self) -> int:
        return self.slots[OVER_B] if self.sign > 0 else self.slots[OVER_A]

    @property
    def over_out(self) -> int:
        return self.slots[OVER_A] if self.sign > 0 else self.slots[OVER_B]

    @property
    def over_pair(self) -> tuple[int, int]:
        return (self.slots[OVER_A], self.slots[OVER_B])


class Diagram:
    """A validated oriented link diagram.

    Immutable after construction; all operations on diagrams are pure
    functions returning new values.  ``cable`` holds optional construction
    metadata attached by the cabling module; it does not participate in
    equality or serialization.  ``signs``, one per row, give the
    orientation directly; without them it is solved from the rows, pinned
    by ``orientation_hints`` where given.
    """

    def __init__(
        self,
        rows: Sequence[tuple[int, int, int, int]],
        free_loops: int = 0,
        orientation_hints: Optional[Sequence[Sequence[int]]] = None,
        cable=None,
        cids: Optional[Sequence[int]] = None,
        signs: Optional[Sequence[int]] = None,
    ):
        if free_loops < 0:
            raise DiagramError("free loop count must be non-negative")
        rows = [tuple(map(int, r)) for r in rows]
        for r in rows:
            if len(r) != 4 or any(x <= 0 for x in r):
                raise DiagramError(f"crossing {r} is not a quadruple of positive labels")
        if cids is None:
            cids = list(range(len(rows)))
        if len(set(cids)) != len(rows):
            raise DiagramError("crossing ids must be distinct")

        self.free_loops = free_loops
        self.cable = cable
        counts = Counter(chain.from_iterable(rows))
        for e, k in counts.items():
            if k != 2:
                raise DiagramError(f"arc {e} appears {k} times; every arc must appear exactly twice")

        if signs is None:
            heads = _orient(rows, occurrence_index(enumerate(rows)), orientation_hints)
            signs = [1 if heads[(i, OVER_B)] else -1 for i in range(len(rows))]
        self._succ = _successors(rows, signs, len(counts))
        if orientation_hints:
            for cyc in orientation_hints:
                cyc = list(cyc)
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    if self._succ.get(a) != b:
                        raise DiagramError(
                            f"orientation header contradicts the diagram: "
                            f"arc {a} is not followed by arc {b}")
        self.crossings: tuple[Crossing, ...] = tuple(
            Crossing(cid=c, slots=r, sign=s) for c, r, s in zip(cids, rows, signs)
        )
        self._by_cid = {x.cid: x for x in self.crossings}
        self.components: tuple[tuple[int, ...], ...] = strand_cycles(self._succ)

    @cached_property
    def _arc_class(self) -> dict[int, int]:
        return _merge_over_pairs([x.slots for x in self.crossings])

    # -- basic views ------------------------------------------------------

    @property
    def edges(self) -> tuple[int, ...]:
        return tuple(sorted(self._succ))

    @property
    def num_components(self) -> int:
        return len(self.components) + self.free_loops

    def crossing(self, cid: int) -> Crossing:
        return self._by_cid[cid]

    def successor(self, edge: int) -> int:
        return self._succ[edge]

    def arc_classes(self) -> dict[int, int]:
        """Map each edge to the representative of its Fox arc.

        Two edges belong to one Fox arc when they are the over-slot pair of
        some crossing: the over strand runs through unbroken.
        """
        return dict(self._arc_class)

    def arc_class_reps(self) -> tuple[int, ...]:
        return tuple(sorted(set(self._arc_class.values())))

    # -- faces ------------------------------------------------------------

    def faces(self) -> list[tuple[tuple[int, int], ...]]:
        """Every face as a corner orbit, ordered by smallest corner."""
        rows = {x.cid: x.slots for x in self.crossings}
        return face_listing(rows, occurrence_index(rows.items()))

    # -- invariants --------------------------------------------------------

    def __repr__(self):
        return f"Diagram({len(self.crossings)} crossings, {self.num_components} components)"


def occurrence_index(rows) -> dict[int, list[tuple[int, int]]]:
    """Arc -> its ``(cid, slot)`` occurrences, from ``(cid, slots)`` pairs."""
    occ: dict[int, list[tuple[int, int]]] = {}
    for cid, r in rows:
        for s, e in enumerate(r):
            occ.setdefault(e, []).append((cid, s))
    return occ


# -- faces (rotation-system combinatorics) -----------------------------------
#
# ``rows`` maps crossing ids to slot quadruples and ``occ`` is its
# occurrence index.  A corner ``(X, i)`` sits counterclockwise after slot
# ``i``; the face boundary leaves it along the arc at slot ``i+1`` and
# arrives at that arc's far occurrence ``(Y, j)``, the next corner.


def _leave(rows, corner) -> tuple[int, tuple[int, int]]:
    """The arc a corner leaves along, and the occurrence it leaves from."""
    cid, i = corner
    s = (i + 1) % 4
    return rows[cid][s], (cid, s)


def _next_corner(rows, occ, corner) -> tuple[int, int]:
    """The corner a face walk reaches from ``corner`` in one step."""
    e, here = _leave(rows, corner)
    a, b = occ[e]
    return b if a == here else a


def _from_smallest(walk) -> tuple[tuple[int, int], ...]:
    """A closed corner walk, rotated to start at its smallest corner."""
    k = walk.index(min(walk))
    return tuple(walk[k:] + walk[:k])


def face_walk(rows, occ, corner) -> tuple[tuple[int, int], ...]:
    """The face through ``corner``, rotated to start at its smallest corner."""
    walk = [corner]
    while (nxt := _next_corner(rows, occ, walk[-1])) != corner:
        walk.append(nxt)
    return _from_smallest(walk)


def triangle_face(rows, occ, cids) -> Optional[tuple[tuple[int, int], ...]]:
    """The first triangle face, by smallest corner, with a corner at each
    of three crossings.

    Every such face has a corner at the first crossing, so only three
    steps from each of that crossing's four corners are walked.
    """
    found = []
    for i in range(4):
        walk = [(cids[0], i)]
        for _ in range(2):
            walk.append(_next_corner(rows, occ, walk[-1]))
        if _next_corner(rows, occ, walk[-1]) == walk[0] and {c for c, _ in walk} == set(cids):
            found.append(_from_smallest(walk))
    return min(found, default=None)


def face_listing(rows, occ) -> list[tuple[tuple[int, int], ...]]:
    """All faces, each walked from its smallest corner, in that corner's order."""
    seen: set[tuple[int, int]] = set()
    faces = []
    for cid in sorted(rows):
        for i in range(4):
            if (cid, i) not in seen:
                face = face_walk(rows, occ, (cid, i))
                seen.update(face)
                faces.append(face)
    return faces


def face_steps(rows, face) -> list[tuple[int, tuple[int, int]]]:
    """(arc, departing occurrence) for each corner of ``face``, in walk order."""
    return [_leave(rows, corner) for corner in face]


INCONSISTENT = "orientation inconsistency: no consistent strand orientation exists"


def _orient(rows, occ, hints) -> dict[tuple[int, int], bool]:
    """Decide, for every slot occurrence, whether the edge ends (head) there.

    Under slots are forced: slot 0 is a head, slot 2 a tail.  Over slots are
    solved by propagation: every edge has exactly one head and one tail, and
    every crossing has exactly one incoming over-slot.  Orientation hints
    (explicit component cycles) and, as a last resort, a label-succession
    heuristic settle strands that never pass under anything.
    """
    heads: dict[tuple[int, int], bool] = {}
    for i, r in enumerate(rows):
        heads[(i, UNDER_IN)] = True
        heads[(i, UNDER_OUT)] = False

    forced: dict[int, list] = {e: [] for e in occ}

    def set_role(place, is_head):
        if place in heads:
            if heads[place] != is_head:
                raise DiagramError(INCONSISTENT)
            return []
        heads[place] = is_head
        return [place]

    # seed from hints: succ(x) = y pins x's over-slot roles where x, y share a crossing
    hint_succ = {}
    if hints:
        for cyc in hints:
            cyc = list(cyc)
            for k, e in enumerate(cyc):
                hint_succ[e] = cyc[(k + 1) % len(cyc)]

    work = list(heads.keys())
    for i, r in enumerate(rows):
        x, y = r[OVER_A], r[OVER_B]
        fwd = hint_succ.get(x) == y and x != y
        bwd = hint_succ.get(y) == x and x != y
        if fwd and not bwd:
            work += set_role((i, OVER_A), True) + set_role((i, OVER_B), False)
        elif bwd and not fwd:
            work += set_role((i, OVER_B), True) + set_role((i, OVER_A), False)

    def propagate(work):
        while work:
            place = work.pop()
            i, s = place
            is_head = heads[place]
            # within the crossing: the over pair has one head, one tail
            if s in (OVER_A, OVER_B):
                other = (i, OVER_B if s == OVER_A else OVER_A)
                work += set_role(other, not is_head)
            # across the edge: the other occurrence has the opposite role
            e = rows[i][s]
            for place2 in occ[e]:
                if place2 != place:
                    work += set_role(place2, not is_head)
            # an edge occurring twice in the same slot position of one
            # crossing (a kink loop) is covered by the pair rule above

    propagate(work)

    # strands that never dive under anything: orient by label succession
    for i, r in enumerate(rows):
        if (i, OVER_A) in heads:
            continue
        x, y = r[OVER_A], r[OVER_B]
        if y == x + 1:
            head_slot = OVER_A
        elif x == y + 1:
            head_slot = OVER_B
        else:
            head_slot = OVER_A if x < y else OVER_B
        propagate(set_role((i, head_slot), True))

    return heads


def _successors(rows, signs, n_arcs: int) -> dict[int, int]:
    """Arc -> the arc after it along its strand, read off the signs.

    Each row's incoming arcs are its under slot 0 and, by its sign, over
    slot 3 (+1) or 1 (-1).  Raises unless every one of the ``n_arcs`` arcs
    is incoming exactly once, so has exactly one head and one tail; a sign
    other than +1 or -1 gives its row no incoming over-arc.
    """
    succ = {}
    for r, sign in zip(rows, signs):
        succ[r[UNDER_IN]] = r[UNDER_OUT]
        if sign == 1:
            succ[r[OVER_B]] = r[OVER_A]
        elif sign == -1:
            succ[r[OVER_A]] = r[OVER_B]
    if len(succ) != n_arcs:
        raise DiagramError(INCONSISTENT)
    return succ


def strand_cycles(succ: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of an arc successor map, each from its smallest arc."""
    seen = set()
    out = []
    for start in sorted(succ):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = succ[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = succ[cur]
        out.append(tuple(cyc))
    return tuple(out)


def _merge_over_pairs(rows) -> dict[int, int]:
    parent: dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in rows:
        for e in r:
            parent.setdefault(e, e)
    for r in rows:
        a, b = find(r[OVER_A]), find(r[OVER_B])
        if a != b:
            parent[max(a, b)] = min(a, b)
    return {e: find(e) for e in parent}


# -- measures --------------------------------------------------------------


def writhe(diagram: Diagram) -> int:
    """Sum of crossing signs."""
    return sum(x.sign for x in diagram.crossings)


def linking_number(diagram: Diagram, i: int, j: int) -> int:
    """Half the signed count of crossings between components i and j."""
    n = diagram.num_components
    if not (0 <= i < n and 0 <= j < n):
        raise DiagramError(f"component index out of range (have {n} components)")
    if i == j:
        raise DiagramError("linking number requires two distinct components")
    n_cycles = len(diagram.components)
    if i >= n_cycles or j >= n_cycles:
        return 0  # free loops share no crossings
    comp = {}
    for k, cyc in enumerate(diagram.components):
        for e in cyc:
            comp[e] = k
    total = 0
    for x in diagram.crossings:
        cu = comp[x.under_in]
        co = comp[x.over_in]
        if {cu, co} == {i, j}:
            total += x.sign
    if total % 2:
        raise DiagramError("inter-component crossing count is odd; diagram is inconsistent")
    return total // 2


def components(diagram: Diagram) -> tuple[tuple[int, ...], ...]:
    """The partition of arcs into cyclically ordered strand traversals."""
    return diagram.components


def crossing_graph_pieces(diagram: Diagram) -> list[set[int]]:
    """Connected pieces of the diagram: components glued along crossings.

    Free loops each count as their own piece (returned as empty sets after
    the labelled pieces).
    """
    n = len(diagram.components)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comp = {}
    for k, cyc in enumerate(diagram.components):
        for e in cyc:
            comp[e] = k
    for x in diagram.crossings:
        a, b = find(comp[x.under_in]), find(comp[x.over_in])
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups: dict[int, set[int]] = {}
    for k in range(n):
        groups.setdefault(find(k), set()).add(k)
    pieces = [set().union(*(set(diagram.components[k]) for k in g)) for g in
              (groups[r] for r in sorted(groups))]
    pieces += [set() for _ in range(diagram.free_loops)]
    return pieces


def is_connected(diagram: Diagram) -> bool:
    return len(crossing_graph_pieces(diagram)) <= 1


# -- validation ------------------------------------------------------------


def validate(diagram: Diagram) -> list[str]:
    """Re-check every structural invariant; diagnostics are data, not errors."""
    diags: list[str] = []
    occ: dict[int, int] = {}
    for x in diagram.crossings:
        for e in x.slots:
            occ[e] = occ.get(e, 0) + 1
    for e, k in occ.items():
        if k != 2:
            diags.append(f"arc {e} appears {k} times (expected 2)")
    n = len(diagram.crossings)
    if occ and set(occ) != set(range(1, 2 * n + 1)):
        diags.append(f"arc labels are not canonical 1..{2 * n}")
    seen = set()
    for cyc in diagram.components:
        for e in cyc:
            if e in seen:
                diags.append(f"arc {e} visited twice in component traversal")
            seen.add(e)
    if seen != set(occ):
        diags.append("component traversal does not cover every arc")
    for x in diagram.crossings:
        recomputed = 1 if x.over_in == x.slots[OVER_B] else -1
        if recomputed != x.sign:
            diags.append(f"crossing {x.cid}: stored sign disagrees with traversal")
    # planar Euler count, per connected piece of the crossing graph
    if diagram.crossings:
        pieces = [p for p in crossing_graph_pieces(diagram) if p]
        v = len(diagram.crossings)
        e = len(diagram.edges)
        f = len(diagram.faces())
        if v - e + f != 2 * len(pieces):
            diags.append(f"face count {f} violates Euler formula (V={v}, E={e}, pieces={len(pieces)})")
    return diags


# -- PD text ----------------------------------------------------------------

_TERM = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]")


def parse_pd(text: str) -> Diagram:
    """Parse PD text into a validated diagram.

    Grammar: whitespace-separated ``X[a,b,c,d]`` terms, ``#`` comments,
    optional ``% component: a1 a2 ...`` headers pinning orientation, and
    ``% loops: k`` recording crossing-free circles.
    """
    rows: list[tuple[int, int, int, int]] = []
    hints: list[list[int]] = []
    loops = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            body = stripped[1:].strip()
            if body.startswith("component:"):
                try:
                    hints.append([int(t) for t in body[len("component:"):].split()])
                except ValueError:
                    raise PDSyntaxError("bad component header", ln, line.index("%") + 1)
            elif body.startswith("loops:"):
                try:
                    loops = int(body[len("loops:"):].strip())
                except ValueError:
                    raise PDSyntaxError("bad loops header", ln, line.index("%") + 1)
            else:
                raise PDSyntaxError(f"unknown header {body.split(':')[0]!r}", ln, line.index("%") + 1)
            continue
        col = 0
        for tok in line.split():
            col = line.index(tok, col)
            m = _TERM.fullmatch(tok)
            if not m:
                raise PDSyntaxError(f"expected X[a,b,c,d], got {tok!r}", ln, col + 1)
            rows.append(tuple(int(g) for g in m.groups()))
            col += len(tok)
    if rows:
        labels = {e for r in rows for e in r}
        if labels != set(range(1, 2 * len(rows) + 1)):
            raise DiagramError(
                f"arc labels must be exactly 1..{2 * len(rows)}; got {sorted(labels)}")
    return Diagram(rows, free_loops=loops, orientation_hints=hints or None)


def serialize_pd(diagram: Diagram) -> str:
    """Canonical PD text: relabelled 1..2n, crossings sorted, headers emitted.

    The text of ``canonical(diagram)``, written from the canonical map
    without building that diagram: each component's labels run on from the
    previous component's, starting at its smallest arc.
    """
    lines = [f"% loops: {diagram.free_loops}"] if diagram.free_loops else []
    start = 1
    for cyc in sorted(diagram.components, key=min):
        lines.append("% component: " + " ".join(map(str, range(start, start + len(cyc)))))
        start += len(cyc)
    lines += ["X[%d,%d,%d,%d]" % row for row in _canonical_rows(diagram)]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_pd_raw(diagram: Diagram) -> str:
    """Verbatim PD text: arcs as-is, crossings in id order.

    Parsing the output reproduces the diagram with identical arc labels and
    crossing ids, so recorded move traces stay valid across the round trip.
    Requires the label set to be 1..2n, which every constructed diagram in
    this package maintains.
    """
    lines = []
    if diagram.free_loops:
        lines.append(f"% loops: {diagram.free_loops}")
    for cyc in diagram.components:
        lines.append("% component: " + " ".join(str(e) for e in cyc))
    for x in sorted(diagram.crossings, key=lambda x: x.cid):
        a, b, c, d = x.slots
        lines.append(f"X[{a},{b},{c},{d}]")
    return "\n".join(lines) + ("\n" if lines else "")


def relabel(diagram: Diagram, mapping: dict[int, int]) -> Diagram:
    """Apply an arc-label bijection; preserves structure and metadata."""
    rows = [tuple(mapping[e] for e in x.slots) for x in diagram.crossings]
    cable = diagram.cable.relabel(mapping) if diagram.cable is not None else None
    return Diagram(rows, free_loops=diagram.free_loops, cable=cable,
                   cids=[x.cid for x in diagram.crossings],
                   signs=[x.sign for x in diagram.crossings])


def _canonical_map(diagram: Diagram) -> dict[int, int]:
    """Arc labels 1..2n along each component traversal (see ``canonical``)."""
    mapping: dict[int, int] = {}
    for cyc in sorted(diagram.components, key=min):
        k = cyc.index(min(cyc))
        for e in cyc[k:] + cyc[:k]:
            mapping[e] = len(mapping) + 1
    return mapping


def _canonical_rows(diagram: Diagram) -> list[tuple[int, ...]]:
    """The sorted crossing rows of ``canonical(diagram)``, without building it."""
    mapping = _canonical_map(diagram)
    return sorted(tuple(mapping[e] for e in x.slots) for x in diagram.crossings)


def canonical(diagram: Diagram) -> tuple[Diagram, dict[int, int]]:
    """Relabel arcs 1..2n along each component traversal.

    Components are ordered by their smallest current label and each is
    started at that label, so the output is deterministic for a given
    diagram and succession becomes n -> n+1 within components.
    """
    mapping = _canonical_map(diagram)
    if not mapping:
        return diagram, {}
    return relabel(diagram, mapping), mapping


def same_diagram(d1: Diagram, d2: Diagram) -> bool:
    """Equality after canonical relabelling (not full PD isomorphism)."""
    return d1.free_loops == d2.free_loops and _canonical_rows(d1) == _canonical_rows(d2)


def isomorphic(d1: Diagram, d2: Diagram) -> bool:
    """Full PD-isomorphism test by traversal-start search; small diagrams only."""
    if d1.free_loops != d2.free_loops:
        return False
    if len(d1.crossings) != len(d2.crossings):
        return False
    if sorted(map(len, d1.components)) != sorted(map(len, d2.components)):
        return False
    target = _canonical_rows(d2)

    def signatures(d: Diagram):
        comps = d.components
        if not comps:
            yield []
            return
        # all rotations of each component, components in every min-label order
        # (components are few in practice; orders explored lazily)
        import itertools
        for perm in itertools.permutations(range(len(comps))):
            rotations = []
            for ci in perm:
                cyc = comps[ci]
                rotations.append([cyc[k:] + cyc[:k] for k in range(len(cyc))])
            for choice in itertools.product(*rotations):
                mapping = {}
                nxt = 1
                for rot in choice:
                    for e in rot:
                        mapping[e] = nxt
                        nxt += 1
                yield sorted(tuple(mapping[e] for e in x.slots) for x in d.crossings)

    return any(sig == target for sig in signatures(d1))
