"""Output checkers that read PD text and colorings directly.

None of these call zcolor: they re-derive what they need from the PD text
(arc occurrences, strand orientation, crossing signs), so a bug in zcolor's
own verifier cannot hide a wrong answer.  PD convention: ``X[a,b,c,d]``
lists arcs counterclockwise from the incoming under-arc ``a``; ``c`` is the
outgoing under-arc and ``b``/``d`` are the over-arcs.  A crossing is
positive when its incoming over-arc sits in slot 3 (``d``).
"""

from __future__ import annotations

import re

_TERM = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]")


class WrongOutput(Exception):
    """An op produced an answer that is not correct."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


def pd_rows(text: str) -> list[tuple[int, int, int, int]]:
    """The crossing rows of PD text; headers and comments are skipped."""
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("%"):
            continue
        rows.extend(tuple(int(g) for g in m.groups()) for m in _TERM.finditer(line))
    labels = sorted(e for r in rows for e in r)
    require(labels == sorted(list(range(1, 2 * len(rows) + 1)) * 2),
            "PD arcs are not exactly 1..2n, each used twice")
    return rows


def check_coloring(rows, gamma: dict[int, int]) -> None:
    """Every crossing: the over-arcs agree and 2*over = under_in + under_out."""
    arcs = {e for r in rows for e in r}
    require(set(gamma) == arcs, "coloring does not cover exactly the diagram's arcs")
    for a, b, c, d in rows:
        require(gamma[b] == gamma[d], f"over-arcs {b},{d} differ in color")
        require(2 * gamma[b] == gamma[a] + gamma[c],
                f"crossing relation fails at X[{a},{b},{c},{d}]")


def parse_coloring(doc: dict) -> dict[int, int]:
    return {int(e): int(v) for e, v in doc.items()}


def check_simple(rows, gamma: dict[int, int]) -> int:
    """A simple coloring: non-trivial, every positive crossing diff equal.

    Returns that diff.
    """
    check_coloring(rows, gamma)
    diffs = {abs(gamma[b] - gamma[a]) for a, b, _, _ in rows}
    positive = diffs - {0}
    require(len(positive) == 1, f"diff spectrum {sorted(diffs)} is not simple")
    return positive.pop()


def _strand_walks(rows):
    """Each component as a cyclic list of passages (row, slot_in, slot_out)."""
    occ: dict[int, list[tuple[int, int]]] = {}
    for i, r in enumerate(rows):
        for s, e in enumerate(r):
            occ.setdefault(e, []).append((i, s))
    seen = set()
    walks = []
    for i in range(len(rows)):
        for s in range(4):
            if (i, s) in seen:
                continue
            walk = []
            cur = (i, s)
            while cur not in seen:
                ci, cs = cur
                out = (ci, (cs + 2) % 4)
                seen.add(cur)
                seen.add(out)
                walk.append((ci, cs, out[1]))
                cur = next(p for p in occ[rows[ci][out[1]]] if p != out)
            walks.append(walk)
    return walks


def components_and_writhe(rows) -> tuple[int, int]:
    """Component count and writhe, orienting each strand by its under-passages.

    Every component must pass under some crossing; over-only components are
    refused because the PD text alone does not orient them.
    """
    sign = [0] * len(rows)
    walks = _strand_walks(rows)
    for walk in walks:
        unders = {s_in for i, s_in, _ in walk if s_in in (0, 2)}
        require(len(unders) == 1, "strand orientation is ambiguous or inconsistent")
        forward = unders == {0}
        for i, s_in, _ in walk:
            if s_in in (1, 3):
                incoming = s_in if forward else (s_in + 2) % 4
                sign[i] = 1 if incoming == 3 else -1
    return len(walks), sum(sign)


def check_cable(rows, base_writhe: int, n: int, strands: int) -> None:
    """A uniform n-parallel: n strands per base component, writhe n^2 * w."""
    comps, w = components_and_writhe(rows)
    require(comps == strands, f"parallel has {comps} components, expected {strands}")
    require(w == n * n * base_writhe,
            f"parallel writhe {w} differs from the cabling formula {n * n * base_writhe}")


def _occurrences(rows) -> dict[int, list[tuple[int, int]]]:
    occ: dict[int, list[tuple[int, int]]] = {}
    for i, r in enumerate(rows):
        for s, e in enumerate(r):
            occ.setdefault(e, []).append((i, s))
    return occ


def same_diagram(rows_a, rows_b) -> bool:
    """Whether two PD codes are the same diagram up to relabelling arcs and
    reordering crossings.

    Each connected piece of ``rows_a`` is matched to some unmatched piece of
    ``rows_b`` by growing a crossing map from one seed crossing: a crossing's
    slots fix its neighbours, so one seed decides the whole piece.
    """
    if len(rows_a) != len(rows_b):
        return False
    occ_a, occ_b = _occurrences(rows_a), _occurrences(rows_b)

    def other(occ, e, at):
        return next(p for p in occ[e] if p != at)

    def grow(seed_a, seed_b, taken_b) -> dict[int, int] | None:
        cmap, arcs, image = {seed_a: seed_b}, {}, {seed_b}
        stack = [seed_a]
        while stack:
            a = stack.pop()
            b = cmap[a]
            for s in range(4):
                ea, eb = rows_a[a][s], rows_b[b][s]
                if arcs.setdefault(ea, eb) != eb:
                    return None
                na, ns = other(occ_a, ea, (a, s))
                nb, ms = other(occ_b, eb, (b, s))
                if ns != ms:
                    return None
                if na in cmap:
                    if cmap[na] != nb:
                        return None
                elif nb in image or nb in taken_b:
                    return None
                else:
                    cmap[na] = nb
                    image.add(nb)
                    stack.append(na)
        return cmap if len(set(arcs.values())) == len(arcs) else None

    matched: dict[int, int] = {}
    taken_b: set[int] = set()
    for seed in range(len(rows_a)):
        if seed in matched:
            continue
        for cand in range(len(rows_b)):
            if cand in taken_b:
                continue
            piece = grow(seed, cand, taken_b)
            if piece is not None:
                matched.update(piece)
                taken_b.update(piece.values())
                break
        else:
            return False
    return True
