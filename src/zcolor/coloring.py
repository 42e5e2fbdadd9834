"""Verify colorings, classify crossings by diff, search for small palettes.

A coloring is a total map from arc labels to integers.  At a crossing with
over color b (slots 1 and 3) and under colors a, c (slots 0 and 2),
validity means 2b = a + c and that the two over slots agree, since they
are one Fox arc.  Neither pair's order matters, so no check reads a sign.
The diff of a crossing is |b - a| = |b - c|; the equality is forced
algebraically.
"""

from __future__ import annotations

from operator import add, neg
from typing import NamedTuple, Optional

from .algebra import ColoringLattice, _solve_hermite
from .diagram import Diagram

Coloring = dict[int, int]

# The most coefficient vectors ``minimize_palette_on_diagram`` scans.
MAX_BOX_VECTORS = 10 ** 6


class ColoringError(ValueError):
    """Raised when a coloring is not usable (not total, not valid, ...)."""


class DiffSpectrum(NamedTuple):
    diffs: dict[int, int]       # crossing id -> diff
    histogram: dict[int, int]   # diff -> count
    d_m: int                    # maximum diff, 0 for (per-piece) trivial colorings


def _require_total(diagram: Diagram, gamma: Coloring) -> None:
    """Refuse a coloring that misses an arc of the diagram or names one it
    does not have."""
    edges = diagram.edges
    missing = [e for e in edges if e not in gamma]
    if missing:
        raise ColoringError(f"coloring is not total: arcs {missing} unassigned")
    if len(gamma) != len(edges):
        unknown = sorted(set(gamma) - set(edges))
        raise ColoringError(f"coloring names arcs {unknown} the diagram does not have")


def verify_coloring(diagram: Diagram, gamma: Coloring) -> bool:
    """True iff every crossing relation holds exactly (over Z)."""
    _require_total(diagram, gamma)
    for x in diagram.crossings:
        a, b, c, d = x.slots
        if gamma[b] != gamma[d] or 2 * gamma[b] != gamma[a] + gamma[c]:
            return False
    return True


def diff_spectrum(diagram: Diagram, gamma: Coloring) -> DiffSpectrum:
    if not verify_coloring(diagram, gamma):
        raise ColoringError("not a valid coloring")
    diffs = {}
    hist: dict[int, int] = {}
    for x in diagram.crossings:
        a, b, _, _ = x.slots
        d = abs(gamma[b] - gamma[a])
        diffs[x.cid] = d
        hist[d] = hist.get(d, 0) + 1
    return DiffSpectrum(diffs=diffs, histogram=hist, d_m=max(hist) if hist else 0)


def is_simple(diagram: Diagram, gamma: Coloring) -> tuple[bool, Optional[int]]:
    """Detect a simple coloring: all diffs equal to 0 or one fixed d > 0.

    Trivial colorings are rejected: simplicity is a property of non-trivial
    colorings only.
    """
    spec = diff_spectrum(diagram, gamma)
    support = sorted(d for d in spec.histogram if d > 0)
    if not support:
        return False, None
    if len(support) == 1:
        return True, support[0]
    return False, None


def palette(gamma: Coloring) -> tuple[set[int], int]:
    values = set(gamma.values())
    return values, len(values)


def minimize_palette_on_diagram(lattice: ColoringLattice, coeff_bound: int) -> Coloring:
    """Exhaustive palette minimization over a bounded coefficient box.

    Scans every non-trivial integer combination of the lattice basis with
    coefficients in [-coeff_bound, coeff_bound] and returns one minimizing
    the palette size; ties resolve to the lexicographically smallest value
    vector.  Adding a constant never changes a palette, so whenever the
    all-ones vector can be split off the basis its coefficient is fixed to
    zero; every palette realized in the full box is still realized.  A box
    of more than ``MAX_BOX_VECTORS`` vectors is refused before scanning.
    """
    if lattice.rank < 2:
        raise ColoringError("palette search needs kernel rank >= 2")
    if coeff_bound < 1:
        raise ColoringError("coefficient bound must be positive")

    basis = [list(v) for v in lattice.basis]
    scan = _split_off_ones(basis)
    span, k = 2 * coeff_bound + 1, len(scan)
    if span ** k > MAX_BOX_VECTORS:
        raise ColoringError(
            f"coefficient box of {span}^{k} = {span ** k} vectors exceeds "
            f"the limit of {MAX_BOX_VECTORS}")
    best = _scan_box(scan, coeff_bound)
    if best is None:
        raise ColoringError("no non-trivial combination in the searched box")
    return lattice.expand(tuple(best))


def _split_off_ones(basis: list[list[int]]) -> list[list[int]]:
    """Drop one basis vector in favor of all-ones when a unit coefficient allows it.

    The lattice basis is in Hermite form, so forward substitution reads
    off the coefficients of all-ones, unique since the basis is independent.
    """
    coeffs = _solve_hermite(basis, [1] * len(basis[0])) or []
    for idx, coeff in enumerate(coeffs):
        if abs(coeff) == 1:
            return basis[:idx] + basis[idx + 1:]
    return basis


def _scan_box(basis: list[list[int]], bound: int) -> Optional[list[int]]:
    """Smallest-palette vector over the coefficient box, by exact scan.

    Among the non-constant vectors ``sum(a[t] * basis[t])`` with every
    ``|a[t]| <= bound``, returns one with the fewest distinct values, ties
    going to the lexicographically smallest vector; None if every such
    vector is constant.  Two invariants let it visit less than the box:

    - half box: ``v`` and ``-v`` have the same palette and the box is
      symmetric, so the first coefficient runs over ``[0, bound]`` and each
      vector stands for the smaller of ``v`` and ``-v``;
    - prune: once row t is chosen, the columns where rows t+1..k-1 are all
      zero are settled, since no later coefficient moves them, so a prefix
      whose settled columns already carry more distinct values than the
      best palette so far is skipped.  The settled columns of each level
      are found once per scan.  The test is strict, so prefixes that can
      only tie are still visited.
    """
    k, c = len(basis), len(basis[0])
    multiples = [[[a * x for x in row] for a in range(-bound, bound + 1)]
                 for row in basis]
    multiples[0] = multiples[0][bound:]
    last = basis[-1]
    fixed_cols = [j for j in range(c) if last[j] == 0]
    moving_cols = [j for j in range(c) if last[j] != 0]
    settled = []  # settled[t]: the columns where rows t+1..k-1 are all zero
    zero = fixed_cols
    for row in reversed(basis[:-1]):
        settled.append(zero)
        zero = [j for j in zero if row[j] == 0]
    settled.reverse()
    last_steps = [(step, [step[j] for j in moving_cols]) for step in multiples[-1]]
    best_size, best = c + 1, None

    def visit(t: int, prefix: list[int]) -> None:
        nonlocal best_size, best
        if t < k - 1:
            cols = settled[t]
            for step in multiples[t]:
                vals = list(map(add, prefix, step))
                if len({vals[j] for j in cols}) <= best_size:
                    visit(t + 1, vals)
            return
        fixed = {prefix[j] for j in fixed_cols}
        moving = [prefix[j] for j in moving_cols]
        for step, moving_step in last_steps:
            size = len(fixed.union(map(add, moving, moving_step)))
            if 1 < size <= best_size:
                vals = list(map(add, prefix, step))
                cand = min(vals, list(map(neg, vals)))
                if size < best_size or cand < best:
                    best_size, best = size, cand

    visit(0, [0] * c)
    return best
