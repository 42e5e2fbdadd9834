"""Verify colorings, classify crossings by diff, search for small palettes.

A coloring is a total map from arc labels to integers.  At a crossing with
over color b and under colors a, c, validity means 2b = a + c (and the two
over-slot arcs agree, since they are one Fox arc).  The diff of a crossing
is |b - a| = |b - c|; the equality is forced algebraically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import ColoringLattice, solve_integer
from .diagram import Diagram

Coloring = dict[int, int]

# The most coefficient vectors ``minimize_palette_on_diagram`` scans.
MAX_BOX_VECTORS = 10 ** 6


class ColoringError(ValueError):
    """Raised when a coloring is not usable (not total, not valid, ...)."""


@dataclass(frozen=True)
class DiffSpectrum:
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
        if gamma[x.over_in] != gamma[x.over_out]:
            return False
        if 2 * gamma[x.over_in] != gamma[x.under_in] + gamma[x.under_out]:
            return False
    return True


def diff_spectrum(diagram: Diagram, gamma: Coloring) -> DiffSpectrum:
    if not verify_coloring(diagram, gamma):
        raise ColoringError("not a valid coloring")
    diffs = {}
    hist: dict[int, int] = {}
    for x in diagram.crossings:
        b = gamma[x.over_in]
        d1 = abs(b - gamma[x.under_in])
        d2 = abs(b - gamma[x.under_out])
        assert d1 == d2, "2b = a + c forces |b-a| = |b-c|"
        diffs[x.cid] = d1
        hist[d1] = hist.get(d1, 0) + 1
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

    The basis is independent, so all-ones has at most one coefficient vector.
    """
    k, c = len(basis), len(basis[0])
    A = [[basis[t][j] for t in range(k)] for j in range(c)]
    coeffs = solve_integer(A, [1] * c, k) or []
    for idx, coeff in enumerate(coeffs):
        if abs(coeff) == 1:
            return basis[:idx] + basis[idx + 1:]
    return basis


def _scan_box(basis: list[list[int]], bound: int) -> Optional[list[int]]:
    """Smallest-palette vector over the coefficient box, by vectorized scan."""
    import numpy as np

    k = len(basis)
    c = len(basis[0])
    B = np.asarray(basis, dtype=np.int64)
    span = 2 * bound + 1
    total = span ** k
    limit = int(np.abs(B).sum() * bound) + 1
    if limit >= 2 ** 60:
        raise ColoringError("coefficient box too large for exact int64 scan")

    best_size = None
    best_vec: Optional[list[int]] = None
    chunk = max(1, min(total, 200_000 // max(c, 1) + 1))
    coeffs = np.arange(span, dtype=np.int64) - bound
    idx = 0
    while idx < total:
        hi = min(idx + chunk, total)
        ids = np.arange(idx, hi, dtype=np.int64)
        T = np.empty((hi - idx, k), dtype=np.int64)
        rem = ids
        for t in range(k - 1, -1, -1):
            T[:, t] = coeffs[rem % span]
            rem = rem // span
        vals = T @ B
        sorted_vals = np.sort(vals, axis=1)
        sizes = 1 + (np.diff(sorted_vals, axis=1) != 0).sum(axis=1)
        nontrivial = sizes > 1
        if nontrivial.any():
            sub_sizes = np.where(nontrivial, sizes, c + 2)
            j = int(np.argmin(sub_sizes))
            size = int(sub_sizes[j])
            if best_size is None or size < best_size:
                # rescan this chunk for all minima to apply the total tie-break
                best_size = size
                best_vec = None
            if size == best_size:
                for jj in np.nonzero(sub_sizes == best_size)[0]:
                    cand = [int(v) for v in vals[jj]]
                    if best_vec is None or cand < best_vec:
                        best_vec = cand
        idx = hi
    return best_vec
