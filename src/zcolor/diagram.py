"""Oriented link diagrams in planar-diagram (PD) notation.

A diagram is a set of crossings, each a counterclockwise quadruple of arc
labels starting from the incoming under-arc.  Slot 0 is the incoming
under-arc, slot 2 the outgoing under-arc; slots 1 and 3 carry the over
strand, and the crossing sign says which one is incoming (incoming
over-arc at slot 3 means sign +1).  Every ``Diagram`` is built from its
signs, and checks only that they orient each arc one way.  PD text does
not carry the signs, so ``parse_pd`` is the one place that solves them,
from the rows and the ``% component:`` headers (``_solve_signs``).

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


class Diagram:
    """A validated oriented link diagram.

    Immutable after construction; all operations on diagrams are pure
    functions returning new values.  ``cable`` holds optional construction
    metadata attached by the cabling module; it does not participate in
    equality or serialization.  ``signs``, one per row, give the
    orientation: each row's incoming arcs are its slot 0 and, by its sign,
    slot 3 (+1) or slot 1 (-1).  Signs that do not make every arc incoming
    exactly once are refused.
    """

    def __init__(
        self,
        rows: Sequence[tuple[int, int, int, int]],
        signs: Sequence[int],
        free_loops: int = 0,
        cable=None,
        cids: Optional[Sequence[int]] = None,
    ):
        if free_loops < 0:
            raise DiagramError("free loop count must be non-negative")
        rows = [tuple(map(int, r)) for r in rows]
        labels = list(chain.from_iterable(rows))
        if min(labels, default=1) <= 0 or not set(map(len, rows)) <= {4}:
            bad = next(r for r in rows if len(r) != 4 or any(x <= 0 for x in r))
            raise DiagramError(f"crossing {bad} is not a quadruple of positive labels")
        if cids is None:
            cids = range(len(rows))
        elif len(set(cids)) != len(rows):
            raise DiagramError("crossing ids must be distinct")

        self.free_loops = free_loops
        self.cable = cable
        counts = Counter(labels)
        if not set(counts.values()) <= {2}:
            e, k = next((e, k) for e, k in counts.items() if k != 2)
            raise DiagramError(f"arc {e} appears {k} times; every arc must appear exactly twice")

        self._succ = _successors(rows, signs, len(counts))
        self.crossings: tuple[Crossing, ...] = tuple(map(Crossing, cids, rows, signs))
        self._by_cid = dict(zip(cids, self.crossings))
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

    def arc_classes(self) -> dict[int, int]:
        """Map each edge to the representative of its Fox arc.

        Two edges belong to one Fox arc when they are the over-slot pair of
        some crossing: the over strand runs through unbroken.
        """
        return dict(self._arc_class)

    def arc_class_reps(self) -> tuple[int, ...]:
        return tuple(sorted(set(self._arc_class.values())))

    # -- faces ------------------------------------------------------------

    def _next_corners(self) -> list[int]:
        """Corner ``4*k + i`` (after slot i of row k) -> the next corner of
        its face.

        The corner leaves along the arc at slot i+1 and arrives at the
        arc's far occurrence (row k', slot s'), which is corner ``4*k' + s'``.
        """
        far = _far_occurrences([x.slots for x in self.crossings])
        return [far[c + 1 if c & 3 != 3 else c - 3] for c in range(len(far))]

    # -- invariants --------------------------------------------------------

    def __repr__(self):
        return f"Diagram({len(self.crossings)} crossings, {self.num_components} components)"


def _far_occurrences(rows) -> Optional[list[int]]:
    """Slot ``4*k + s`` (slot s of row k) -> the slot of the same arc's
    other occurrence, in one pass over the rows; None unless every arc
    occurs exactly twice."""
    labels = list(chain.from_iterable(rows))
    if 2 * len(set(labels)) != len(labels):
        return None
    far = [0] * len(labels)
    first: dict[int, int] = {}
    for p, e in enumerate(labels):
        q = first.pop(e, None)
        if q is None:
            first[e] = p
        else:
            far[p] = q
            far[q] = p
    return None if first else far


INCONSISTENT = "orientation inconsistency: no consistent strand orientation exists"


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


# -- validation ------------------------------------------------------------


def validate(diagram: Diagram) -> list[str]:
    """Re-check every structural invariant; diagnostics are data, not errors."""
    diags: list[str] = []
    occ = Counter(chain.from_iterable(x.slots for x in diagram.crossings))
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
        f = _orbit_count(diagram._next_corners())
        if v - e + f != 2 * len(pieces):
            diags.append(f"face count {f} violates Euler formula (V={v}, E={e}, pieces={len(pieces)})")
    return diags


def _orbit_count(nxt: list[int]) -> int:
    """The number of cycles of the permutation ``nxt``."""
    seen = bytearray(len(nxt))
    count = 0
    for start in range(len(nxt)):
        if not seen[start]:
            count += 1
            c = start
            while not seen[c]:
                seen[c] = 1
                c = nxt[c]
    return count


# -- PD text ----------------------------------------------------------------

# Integers have one spelling: ASCII digits, no sign, no leading zero.
_LABEL = "[1-9][0-9]*"
_TERM = re.compile(rf"X\[({_LABEL}),({_LABEL}),({_LABEL}),({_LABEL})\]")
_ARC = re.compile(_LABEL)
_COUNT = re.compile(f"0|{_LABEL}")


def _header_integers(line: str, pattern, header: str, ln: int) -> list[int]:
    """The whitespace-separated integers after a header line's colon, each
    spelled as ``pattern`` allows; a PDSyntaxError names the first that is not."""
    col = line.index(":") + 1
    tokens = line[col:].split()
    if all(map(pattern.fullmatch, tokens)):
        return list(map(int, tokens))
    for tok in tokens:
        col = line.index(tok, col)
        if not pattern.fullmatch(tok):
            raise PDSyntaxError(f"bad {header} header: got {tok!r}", ln, col + 1)
        col += len(tok)


def parse_pd(text: str) -> Diagram:
    """Parse PD text into a validated diagram.

    Grammar: whitespace-separated ``X[a,b,c,d]`` terms, ``#`` comments,
    optional ``% component: a1 a2 ...`` headers, and ``% loops: k``
    recording crossing-free circles.  A header must list a strand's arcs
    in the order they run, and it sets the direction of a strand that
    passes under nothing; a two-arc header of such a strand lists first
    the arc that ends at the earlier of its two rows.  Arc labels are
    written ``[1-9][0-9]*`` and the loop count ``0|[1-9][0-9]*``, in ASCII
    digits; any other spelling is a PDSyntaxError at its token.  The signs
    are solved here (``_solve_signs``) and nowhere else.
    """
    rows: list[tuple[int, int, int, int]] = []
    headers: list[list[int]] = []
    loops = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            body = stripped[1:].strip()
            if body.startswith("component:"):
                headers.append(_header_integers(line, _ARC, "component", ln))
            elif body.startswith("loops:"):
                count = _header_integers(line, _COUNT, "loops", ln)
                if len(count) != 1:
                    raise PDSyntaxError("bad loops header", ln, line.index("%") + 1)
                loops = count[0]
            else:
                raise PDSyntaxError(f"unknown header {body.split(':')[0]!r}", ln, line.index("%") + 1)
            continue
        col = 0
        for tok in line.split():
            col = line.index(tok, col)
            m = _TERM.fullmatch(tok)
            if not m:
                raise PDSyntaxError(f"expected X[a,b,c,d], got {tok!r}", ln, col + 1)
            rows.append(tuple(map(int, m.groups())))
            col += len(tok)
    if rows:
        labels = set(chain.from_iterable(rows))
        if labels != set(range(1, 2 * len(rows) + 1)):
            raise DiagramError(
                f"arc labels must be exactly 1..{2 * len(rows)}; got {sorted(labels)}")
    d = Diagram(rows, _solve_signs(rows, headers), free_loops=loops)
    for cyc in headers:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if d._succ.get(a) != b:
                raise DiagramError(f"orientation header contradicts the diagram: "
                                   f"arc {a} is not followed by arc {b}")
    return d


def _solve_signs(rows, headers) -> list[int]:
    """The crossing signs that PD rows and their component headers imply.

    A strand that passes under something is walked in from each under
    passage: an arc arrives at slot 0 and the next leaves from slot 2, and
    an arc that arrives at an over slot makes its row's sign (+1 at slot
    3).  A strand that passes under nothing is walked from its first row,
    entered by the arc its header says ends there (for a two-arc header,
    the first arc) or, with no such header, by the smaller label.  A walk
    stops where the rows contradict it, and ``Diagram`` refuses the signs.
    """
    far = _far_occurrences(rows)
    signs = [0] * len(rows)
    if far is None:
        return signs  # Diagram refuses the arc counts
    walked = [False] * len(rows)

    def walk(c, s):
        while s != UNDER_OUT:
            if s == UNDER_IN:
                if walked[c]:
                    return
                walked[c] = True
                s = UNDER_OUT
            else:
                if signs[c]:
                    return
                signs[c] = 1 if s == OVER_B else -1
                s = 4 - s
            c, s = divmod(far[4 * c + s], 4)

    for c in range(len(rows)):
        if not walked[c]:
            walk(c, UNDER_IN)
    follows = {}
    for cyc in headers:
        follows.update(zip(cyc, cyc[1:] if len(cyc) == 2 else cyc[1:] + cyc[:1]))
    for c, r in enumerate(rows):
        if not signs[c]:
            x, y = r[OVER_A], r[OVER_B]
            fwd, bwd = follows.get(x) == y, follows.get(y) == x
            walk(c, OVER_A if (fwd and not bwd) or (fwd == bwd and x < y) else OVER_B)
    return signs


def serialize_pd(diagram: Diagram) -> str:
    """Canonical PD text: relabelled 1..2n, crossings sorted, headers emitted.

    The text of ``canonical(diagram)``, written from the canonical map
    without building that diagram: each component's labels run on from the
    previous component's, starting at its smallest arc.  Headers are
    written as ``_header_cycles`` orders them.
    """
    mapping = _canonical_map(diagram)
    lines = [f"% loops: {diagram.free_loops}"] if diagram.free_loops else []
    for cyc in _header_cycles(diagram, lambda x: [mapping[e] for e in x.slots]):
        lines.append("% component: " + " ".join(str(mapping[e]) for e in cyc))
    lines += ["X[%d,%d,%d,%d]" % row for row in _canonical_rows(diagram, mapping)]
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
    for cyc in _header_cycles(diagram, lambda x: x.cid):
        lines.append("% component: " + " ".join(str(e) for e in cyc))
    for x in sorted(diagram.crossings, key=lambda x: x.cid):
        a, b, c, d = x.slots
        lines.append(f"X[{a},{b},{c},{d}]")
    return "\n".join(lines) + ("\n" if lines else "")


def _header_cycles(diagram: Diagram, row_key) -> list[tuple[int, ...]]:
    """Each component cycle as its ``% component:`` header lists it.

    Two arcs read the same cycle either way round.  For a strand of two
    arcs that passes under nothing, the rows do not say which way it runs
    either, so its header starts at the arc that ends at the earlier of
    its two rows, ordered by ``row_key``; ``parse_pd`` reads it that way.
    """
    ends = None
    cycles = []
    for cyc in diagram.components:
        if len(cyc) == 2:
            if ends is None:
                ends = {x.over_in: x for x in diagram.crossings}
            a, b = cyc
            if a in ends and b in ends and row_key(ends[b]) < row_key(ends[a]):
                cyc = (b, a)
        cycles.append(cyc)
    return cycles


def relabel(diagram: Diagram, mapping: dict[int, int]) -> Diagram:
    """Apply an arc-label bijection; preserves structure and metadata."""
    rows = [tuple(mapping[e] for e in x.slots) for x in diagram.crossings]
    cable = diagram.cable.relabel(mapping) if diagram.cable is not None else None
    return Diagram(rows, [x.sign for x in diagram.crossings], free_loops=diagram.free_loops,
                   cable=cable, cids=[x.cid for x in diagram.crossings])


def _canonical_map(diagram: Diagram) -> dict[int, int]:
    """Arc labels 1..2n along each component traversal (see ``canonical``)."""
    mapping: dict[int, int] = {}
    for cyc in sorted(diagram.components, key=min):
        k = cyc.index(min(cyc))
        for e in cyc[k:] + cyc[:k]:
            mapping[e] = len(mapping) + 1
    return mapping


def _canonical_rows(diagram: Diagram, mapping=None) -> list[tuple[int, ...]]:
    """The sorted crossing rows of ``canonical(diagram)``, without building it."""
    mapping = mapping or _canonical_map(diagram)
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
    """Equality after canonical relabelling, signs included (not full PD isomorphism).

    Rows alone do not fix the direction of a strand that passes under
    nothing; the signs of the crossings it passes over do.
    """
    def signed_rows(d: Diagram) -> list:
        mapping = _canonical_map(d)
        return sorted((tuple(mapping[e] for e in x.slots), x.sign) for x in d.crossings)

    return d1.free_loops == d2.free_loops and signed_rows(d1) == signed_rows(d2)
