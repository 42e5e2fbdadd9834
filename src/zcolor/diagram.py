"""Oriented link diagrams in planar-diagram (PD) notation.

A diagram is a set of crossings, each a counterclockwise quadruple of arc
labels starting from the incoming under-arc.  Slot 0 is the incoming
under-arc, slot 2 the outgoing under-arc; slots 1 and 3 carry the over
strand, and the crossing sign says which one is incoming: slot 3 at sign
+1, else slot 1.  ``over_in_slot`` is the one place that rule is written.
Every ``Diagram`` is built from its signs, and checks only that they
orient each arc one way.  PD text does not carry the signs, so
``parse_pd`` is the one place that solves them, from the rows and the
``% component:`` headers (``_solve_signs``).

PD text has one reader and one writer.  ``parse_pd`` checks every term
with one regular-expression match and converts the labels with one
``map(int, ...)``; a bad token is named where that match stops, unless a
bad header on an earlier line comes first.  ``serialize_pd`` and
``serialize_pd_raw`` differ only in the labels and the row order they
hand to one writer, ``_write_pd``, which orders a two-arc header by the
text positions of its rows.

The planar map is encoded here and nowhere else, in one representation,
the one the move builder (``zcolor.moves``) keeps: two dicts keyed by
crossing id, ``rows`` (slots) and ``signs`` (sign), with the same keys and
no shared order, so every reader looks a sign up by its crossing's id.
There are no crossing records; ``Diagram.crossings`` is ``rows`` under
another name, kept only because the benchmark harness sizes diagrams by
``len(d.crossings)``.  Slot s of crossing c is the position ``4*c + s``,
and so is the corner counterclockwise after it.  ``occurrences`` maps each
arc to the positions of its two occurrences; ``parse_pd`` builds it once
for the sign walk and for ``Diagram``, which keeps it.  ``_next_corner`` is
the one face step, and ``validate``'s Euler count lays it out for every
corner at once.  ``Diagram`` keeps the maps it is given; the builder copies
a diagram's maps and index in and its own out, because both go on being
used: a colored-parallel run replays its trace from the untouched source,
and a builder may keep moving after it built a diagram.  ``same_diagram``
reads only ``rows``, ``signs`` and ``free_loops``, so it compares either.

Arc labels are the PD edge labels 1..2n.  The arcs of Fox/integer coloring
theory (maximal overpasses) are the equivalence classes of edge labels
under merging the two over-slots of every crossing; see
``Diagram.arc_classes``.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property
from itertools import chain
from operator import ne
from typing import Optional


class PDSyntaxError(ValueError):
    """Raised on malformed PD text.  Carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DiagramError(ValueError):
    """Raised when crossing data violates a structural invariant."""


UNDER_IN, OVER_A, UNDER_OUT, OVER_B = 0, 1, 2, 3


def over_in_slot(sign: int) -> int:
    """The slot of a crossing's incoming over-arc: slot 3 at sign +1, else
    slot 1.  Its outgoing over-arc sits at the other over slot, ``^ 2``."""
    return OVER_B if sign > 0 else OVER_A


class Diagram:
    """A validated oriented link diagram.

    Immutable after construction; all operations on diagrams are pure
    functions returning new values.  ``rows`` and ``signs`` map each
    crossing id to its slots and its sign; signs keyed by other ids than
    the rows are refused.  The signs give the orientation: each row's
    incoming arcs are its slot 0 and its ``over_in_slot``.  Signs that do
    not make every arc incoming exactly once are refused.
    """

    def __init__(self, rows: dict[int, tuple[int, int, int, int]], signs: dict[int, int],
                 free_loops: int = 0, *, _occ: Optional[dict[int, list[int]]] = None):
        if free_loops < 0:
            raise DiagramError("free loop count must be non-negative")
        labels = list(chain.from_iterable(rows.values()))
        if not ({tuple}.issuperset(map(type, rows.values())) and {int}.issuperset(map(type, labels))):
            rows = {c: tuple(map(int, r)) for c, r in rows.items()}
            labels = list(chain.from_iterable(rows.values()))
        if min(labels, default=1) <= 0 or not set(map(len, rows.values())) <= {4}:
            bad = next(r for r in rows.values() if len(r) != 4 or any(x <= 0 for x in r))
            raise DiagramError(f"crossing {bad} is not a quadruple of positive labels")
        if signs.keys() != rows.keys():
            raise DiagramError("signs must be keyed by exactly the crossing ids of the rows")

        self.free_loops = free_loops
        # ``parse_pd`` and the move builder hand over the index of these rows
        occ = occurrences(rows) if _occ is None else _occ
        if occ is None or not {2}.issuperset(map(len, occ.values())):
            e, k = next((e, k) for e, k in Counter(labels).items() if k != 2)
            raise DiagramError(f"arc {e} appears {k} times; every arc must appear exactly twice")
        self._occ = occ

        self._succ = _successors(rows, signs)
        self.rows: dict[int, tuple[int, int, int, int]] = rows
        self.signs: dict[int, int] = signs
        self.components: tuple[tuple[int, ...], ...] = strand_cycles(self._succ)

    @property
    def crossings(self) -> dict[int, tuple[int, int, int, int]]:
        """``rows``, for the benchmark harness, which reads ``len(d.crossings)``
        (``perfbench/workloads.py``, ``tracing._size``) until it reads ``len(d.rows)``."""
        return self.rows

    @cached_property
    def arc_classes(self) -> dict[int, int]:
        """Each edge -> the smallest edge of its Fox arc.

        Two edges belong to one Fox arc when they are the over-slot pair of
        some crossing: the over strand runs through unbroken.  Read-only.
        """
        return _merge_over_pairs(self.rows.values())

    # -- basic views ------------------------------------------------------

    @property
    def edges(self) -> tuple[int, ...]:
        return tuple(sorted(self._succ))

    @property
    def num_components(self) -> int:
        return len(self.components) + self.free_loops

    def __repr__(self):
        return f"Diagram({len(self.rows)} crossings, {self.num_components} components)"


# -- the planar map ----------------------------------------------------------


def occurrences(rows: dict[int, tuple[int, int, int, int]]) -> Optional[dict[int, list[int]]]:
    """Arc -> the positions ``4*cid + slot`` of its occurrences in ``rows``
    (crossing id -> slots); None unless every arc occurs exactly twice."""
    occ: dict[int, list[int]] = {}
    for c, r in rows.items():
        p = 4 * c
        for e in r:
            occ.setdefault(e, []).append(p)
            p += 1
    return occ if {2}.issuperset(map(len, occ.values())) else None


def _next_corner(rows, occ: dict[int, list[int]], c: int) -> int:
    """The corner a face walk reaches from corner ``c`` of ``rows`` (crossing
    id -> slots) and their ``occurrences``: it leaves along the arc at the
    next slot (slot 0 after slot 3) and arrives at that arc's other
    occurrence, whose position is the next corner."""
    p = c - 3 if c & 3 == 3 else c + 1
    a, b = occ[rows[p >> 2][p & 3]]
    return b if a == p else a


def _corner_successors(occ: dict[int, list[int]]) -> list[int]:
    """``_next_corner`` at every corner at once, as one list indexed by
    corner; entries at positions of no crossing are 0."""
    far = [0] * (max(chain.from_iterable(occ.values()), default=-1) + 1)
    for a, b in occ.values():
        far[a] = b
        far[b] = a
    nxt = far[1:] + far[:1]
    nxt[3::4] = far[0::4]
    return nxt


INCONSISTENT = "orientation inconsistency: no consistent strand orientation exists"


def _successors(rows: dict, signs: dict) -> dict[int, int]:
    """Arc -> the arc after it along its strand, read off the signs.

    Each row's incoming arcs are its under slot 0 and its ``over_in_slot``.
    Raises unless every arc, two per row, is incoming exactly once, so has
    exactly one head and one tail; a sign other than +1 or -1 gives its row
    no incoming over-arc.
    """
    succ = {}
    for c, r in rows.items():
        succ[r[UNDER_IN]] = r[UNDER_OUT]
        sign = signs[c]
        if sign in (1, -1):
            k = over_in_slot(sign)
            succ[r[k]] = r[k ^ 2]
    if len(succ) != 2 * len(rows):
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
    """Edge -> the smallest edge of its Fox arc: a row's over slots are one arc."""
    return _union_roots(chain.from_iterable(rows), ((r[OVER_A], r[OVER_B]) for r in rows))


def _union_roots(nodes, pairs) -> dict:
    """Each of ``nodes``, in first-seen order, -> the smallest node of its
    class, where each of ``pairs`` joins two classes."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return {x: find(x) for x in parent}


# -- measures --------------------------------------------------------------


def writhe(diagram: Diagram) -> int:
    """Sum of crossing signs."""
    return sum(diagram.signs.values())


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
    comp = {e: k for k, cyc in enumerate(diagram.components) for e in cyc}
    # slot 1 lies on the over strand whatever the sign
    total = 0
    for cid, r in diagram.rows.items():
        if {comp[r[UNDER_IN]], comp[r[OVER_A]]} == {i, j}:
            total += diagram.signs[cid]
    if total % 2:
        raise DiagramError("inter-component crossing count is odd; diagram is inconsistent")
    return total // 2


def crossing_graph_pieces(diagram: Diagram) -> list[set[int]]:
    """Connected pieces of the diagram: components glued along crossings.

    Free loops each count as their own piece (returned as empty sets after
    the labelled pieces).
    """
    groups: dict[int, set[int]] = {}
    for cyc, root in zip(diagram.components, _piece_roots(diagram)):
        groups.setdefault(root, set()).update(cyc)
    pieces = [groups[r] for r in sorted(groups)]
    pieces += [set() for _ in range(diagram.free_loops)]
    return pieces


def _piece_roots(diagram: Diagram) -> list[int]:
    """Component k -> the smallest component of its connected piece.

    A crossing glues its under strand's component to its over strand's,
    which slot 1 lies on whatever the sign.
    """
    comp = {e: k for k, cyc in enumerate(diagram.components) for e in cyc}
    pairs = ((comp[r[UNDER_IN]], comp[r[OVER_A]]) for r in diagram.rows.values())
    return list(_union_roots(range(len(diagram.components)), pairs).values())


# -- validation ------------------------------------------------------------


def validate(diagram: Diagram) -> list[str]:
    """Re-check every structural invariant; diagnostics are data, not errors.

    Three checks: every arc occurs twice in the rows, which are read afresh,
    not through the occurrence index the diagram was built with; the labels
    are 1..2n; and the Euler count, whose face walk reads that index, holds
    per connected piece.  The strand cycles are not re-walked: ``Diagram``
    refuses signs unless every arc is incoming exactly once, so where every
    arc occurs twice the successor map is a permutation and its cycles
    partition the arcs.  The signs are not re-checked: they are the
    orientation, and a diagram holds no other data to check them against.
    """
    diags: list[str] = []
    occ = Counter(chain.from_iterable(diagram.rows.values()))
    for e, k in occ.items():
        if k != 2:
            diags.append(f"arc {e} appears {k} times (expected 2)")
    v = len(diagram.rows)
    if occ and set(occ) != set(range(1, 2 * v + 1)):
        diags.append(f"arc labels are not canonical 1..{2 * v}")
    # planar Euler count, per connected piece of the crossing graph
    if v:
        pieces = len(set(_piece_roots(diagram)))
        e = len(diagram.edges)
        f = _orbit_count(_corner_successors(diagram._occ), chain.from_iterable(diagram._occ.values()))
        if v - e + f != 2 * pieces:
            diags.append(f"face count {f} violates Euler formula (V={v}, E={e}, pieces={pieces})")
    return diags


def _orbit_count(nxt: list[int], corners) -> int:
    """The number of cycles of the permutation ``nxt`` through ``corners``."""
    seen = bytearray(len(nxt))
    count = 0
    for start in corners:
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
# whitespace-separated terms, as ``str.split`` cuts tokens: a match stops
# at the first token that is not a term
_TERMS = re.compile(rf"\s*(?:X\[{_LABEL},{_LABEL},{_LABEL},{_LABEL}\](?:\s+|\Z))*")
_ARC = re.compile(_LABEL)
_COUNT = re.compile(f"0|{_LABEL}")
_COMPONENT_LINE = re.compile(rf"\s*%\s*component:\s*(?:{_LABEL}(?:\s+{_LABEL})*)?\s*")
_LOOPS_LINE = re.compile(rf"\s*%\s*loops:\s*(0|{_LABEL})\s*")


def parse_pd(text: str) -> Diagram:
    """Parse PD text into a validated diagram.

    Grammar: whitespace-separated ``X[a,b,c,d]`` terms, ``#`` comments,
    optional ``% component: a1 a2 ...`` headers, and ``% loops: k``
    recording crossing-free circles.  A header must list a strand's arcs
    in the order they run, and it sets the direction of a strand that
    passes under nothing; a two-arc header of such a strand lists first
    the arc that ends at the earlier of its two rows.  Arc labels are
    written ``[1-9][0-9]*`` and the loop count ``0|[1-9][0-9]*``, in ASCII
    digits; any other spelling is a PDSyntaxError at its token, and of
    several bad tokens or headers, the first in the text is named.  The signs
    are solved here (``_solve_signs``) and nowhere else, from the one
    arc-occurrence index (``occurrences``) that the built ``Diagram`` keeps.
    """
    labels, headers, loops = _read_pd(text)
    it = iter(labels)
    rows = dict(enumerate(zip(it, it, it, it)))
    occ = occurrences(rows)
    n = 2 * len(rows)
    # positive labels, each occurring twice and none above 2n, are 1..2n
    if rows and (occ is None or max(labels) != n) and set(labels) != set(range(1, n + 1)):
        raise DiagramError(f"arc labels must be exactly 1..{n}; got {sorted(set(labels))}")
    signs = dict(enumerate(_solve_signs(labels, headers, occ)))
    d = Diagram(rows, signs, free_loops=loops, _occ=occ)
    for cyc in headers:
        nxt = cyc[1:] + cyc[:1]
        wrong = list(map(ne, map(d._succ.get, cyc), nxt))
        if any(wrong):
            k = wrong.index(True)
            raise DiagramError(f"orientation header contradicts the diagram: "
                               f"arc {cyc[k]} is not followed by arc {nxt[k]}")
    return d


def _read_pd(text: str) -> tuple[list[int], list[list[int]], int]:
    """The labels of PD text's terms, row after row, its component headers
    and its loop count.

    Comments are cut, and each ``%`` line is set aside for an empty line.
    One match reads the terms on the other lines, and where it stops is
    the first token that is not a term.  The header lines before that
    token's line are matched whole, in order, so the first bad token or
    header in the text is named.  One ``map(int, ...)`` reads the labels.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    # header lines: their first non-blank character is "%"
    marked = [(ln, x) for ln, x in enumerate(lines) if "%" in x and x.lstrip()[0] == "%"]
    for ln, _ in marked:
        lines[ln] = ""
    terms = "\n".join(lines)
    stop = _TERMS.match(terms).end()
    bad_ln = terms.count("\n", 0, stop) if stop < len(terms) else len(lines)
    headers: list[list[int]] = []
    loops = 0
    for ln, line in marked:
        if ln >= bad_ln:
            break
        if _COMPONENT_LINE.fullmatch(line):
            headers.append(list(map(int, line[line.index(":") + 1:].split())))
        elif m := _LOOPS_LINE.fullmatch(line):
            loops = int(m[1])
        else:
            raise _header_error(line, ln + 1)
    if stop < len(terms):
        column = stop - terms.rfind("\n", 0, stop)
        raise PDSyntaxError(f"expected X[a,b,c,d], got {terms[stop:].split(None, 1)[0]!r}",
                            bad_ln + 1, column)
    labels = terms.replace("X[", " ").replace(",", " ").replace("]", " ").split()
    return list(map(int, labels)), headers, loops


def _header_error(line: str, ln: int) -> PDSyntaxError:
    """The PDSyntaxError of a ``%`` line that neither header pattern
    matches: an unknown header, the first integer that is not spelled as
    the header spells it, or else a loops header without one count."""
    at = line.index("%") + 1
    name = line[at:].strip()
    for header, pattern in (("component", _ARC), ("loops", _COUNT)):
        if name.startswith(header + ":"):
            col = line.index(":") + 1
            for tok in line[col:].split():
                col = line.index(tok, col)
                if not pattern.fullmatch(tok):
                    return PDSyntaxError(f"bad {header} header: got {tok!r}", ln, col + 1)
                col += len(tok)
            return PDSyntaxError("bad loops header", ln, at)
    return PDSyntaxError(f"unknown header {name.split(':')[0]!r}", ln, at)


def _solve_signs(labels: list[int], headers, occ: Optional[dict[int, list[int]]]) -> list[int]:
    """The crossing signs that PD rows (``labels``, row after row) and their
    component headers imply.

    A strand that passes under something is walked in from each under
    passage: an arc arrives at slot 0 and the next leaves from slot 2, and
    an arc that arrives at an over slot makes its row's sign (+1 at slot
    3).  A strand that passes under nothing is walked from its first row,
    entered by the arc its header says ends there (for a two-arc header,
    the first arc) or, with no such header, by the smaller label.  A walk
    stops where the rows contradict it, and ``Diagram`` refuses the signs.
    The walk steps through ``occ``, the rows' ``occurrences`` index.
    """
    n = len(labels) // 4
    signs = [0] * n
    if occ is None:
        return signs  # Diagram refuses the arc counts
    walked = [False] * n

    def walk(p):
        """Walk on from slot ``p``, where the strand enters a row."""
        while True:
            c, s = p >> 2, p & 3
            if s == UNDER_IN:
                if walked[c]:
                    return
                walked[c] = True
            elif s == UNDER_OUT or signs[c]:
                return
            else:
                signs[c] = 1 if s == OVER_B else -1
            p ^= 2  # leave by the opposite slot: 0 -> 2, 1 <-> 3
            a, b = occ[labels[p]]
            p = b if a == p else a

    for c in range(n):
        if not walked[c]:
            walk(4 * c + UNDER_IN)
    follows = {}
    for cyc in headers:
        follows.update(zip(cyc, cyc[1:] if len(cyc) == 2 else cyc[1:] + cyc[:1]))
    for c in range(n):
        if not signs[c]:
            x, y = labels[4 * c + OVER_A], labels[4 * c + OVER_B]
            fwd, bwd = follows.get(x) == y, follows.get(y) == x
            walk(4 * c + (OVER_A if (fwd and not bwd) or (fwd == bwd and x < y) else OVER_B))
    return signs


def serialize_pd(diagram: Diagram) -> str:
    """Canonical PD text: relabelled 1..2n, crossings sorted, headers emitted.

    The text of ``canonical(diagram)``, written from the canonical map
    without building that diagram: each component's labels run on from the
    previous component's, starting at its smallest arc.
    """
    new = _canonical_map(diagram.components).__getitem__
    labels = map(new, chain.from_iterable(diagram.rows.values()))
    return _write_pd(diagram.free_loops, [tuple(map(new, cyc)) for cyc in diagram.components],
                     sorted(zip(labels, labels, labels, labels)),
                     ((tuple(map(new, r)), diagram.signs[c]) for c, r in diagram.rows.items()))


def serialize_pd_raw(diagram: Diagram) -> str:
    """Verbatim PD text: arcs as-is, crossings in id order.

    Parsing the output reproduces the diagram with identical arc labels and
    crossing ids, so recorded move traces stay valid across the round trip.
    Requires the label set to be 1..2n, which every constructed diagram in
    this package maintains.
    """
    cids = sorted(diagram.rows)
    rows = list(map(diagram.rows.__getitem__, cids))
    return _write_pd(diagram.free_loops, diagram.components, rows,
                     zip(rows, map(diagram.signs.__getitem__, cids)))


def _write_pd(free_loops: int, cycles, rows: list, signs) -> str:
    """PD text: a ``% loops:`` header, one ``% component:`` header per
    strand cycle in ``cycles``, and ``rows`` in text order.

    A header of two arcs reads the same cycle either way round.  For a
    strand of two arcs that passes under nothing, the rows do not say which
    way it runs either, so its header starts at the arc that ends at the
    earlier of its two rows in the text; ``parse_pd`` reads it that way.
    That takes the signs: ``signs`` yields each row, in the text's labels,
    with its sign, and is read only when some cycle has two arcs.
    """
    lines = [f"% loops: {free_loops}"] if free_loops else []
    ends = None
    for cyc in cycles:
        if len(cyc) == 2:
            if ends is None:  # each row's incoming over-arc -> the row's text position
                sign = dict(signs)
                ends = {r[over_in_slot(sign[r])]: i for i, r in enumerate(rows)}
            a, b = cyc
            if a in ends and b in ends and ends[b] < ends[a]:
                cyc = (b, a)
        lines.append("% component: " + " ".join(map(str, cyc)))
    lines += map("X[%d,%d,%d,%d]".__mod__, rows)
    return "\n".join(lines) + ("\n" if lines else "")


def relabel(diagram: Diagram, mapping: dict[int, int]) -> Diagram:
    """Apply an arc-label bijection; keeps crossing ids, signs and free loops."""
    rows = {c: tuple(mapping[e] for e in r) for c, r in diagram.rows.items()}
    return Diagram(rows, diagram.signs, free_loops=diagram.free_loops,
                   _occ={mapping[e]: places for e, places in diagram._occ.items()})


def _canonical_map(components) -> dict[int, int]:
    """Arc labels 1..2n along each of the component cycles (see ``canonical``)."""
    order: list[int] = []
    for cyc in sorted(components, key=min):
        k = cyc.index(min(cyc))
        order += cyc[k:] + cyc[:k]
    return dict(zip(order, range(1, len(order) + 1)))


def canonical(diagram: Diagram) -> tuple[Diagram, dict[int, int]]:
    """Relabel arcs 1..2n along each component traversal.

    Components are ordered by their smallest current label and each is
    started at that label, so the output is deterministic for a given
    diagram and succession becomes n -> n+1 within components.
    """
    mapping = _canonical_map(diagram.components)
    if not mapping:
        return diagram, {}
    return relabel(diagram, mapping), mapping


def same_diagram(a, b) -> bool:
    """Equality after canonical relabelling, signs included (not full PD isomorphism).

    ``a`` and ``b`` are each a ``Diagram`` or a move builder: only their
    ``rows``, ``signs`` and ``free_loops`` are read.  The same rows and
    signs under the same crossing ids decide at once; otherwise the
    canonically relabelled signed rows are compared.  Rows alone do not fix
    the direction of a strand that passes under nothing; the signs of the
    crossings it passes over do.
    """
    if a.free_loops != b.free_loops:
        return False
    return (a.rows == b.rows and a.signs == b.signs) or _canonical_rows(a) == _canonical_rows(b)


def _canonical_rows(d) -> list[tuple[tuple[int, ...], int]]:
    """The signed rows of ``d``'s rows and signs, relabelled as ``canonical``
    relabels them, sorted."""
    new = _canonical_map(strand_cycles(_successors(d.rows, d.signs))).__getitem__
    return sorted((tuple(map(new, r)), d.signs[c]) for c, r in d.rows.items())
