"""Parallels (cables) of diagrams in the blackboard framing.

Every arc of component i becomes n_i parallel arcs, and every crossing
becomes a grid of n_over * n_under crossings, all with the sign of the
original.  Copies are indexed 1..n left-to-right relative to the strand
direction, so copy k closes up onto copy k and the parallel of a knot has
exactly n components.  Kinks contribute twists: the two components of a
2-parallel have linking number equal to the writhe of the base diagram,
which is why the untwisted 2-parallel demands writhe 0.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .diagram import Diagram, linking_number, writhe
from .moves import DiagramBuilder


class CableError(ValueError):
    pass


class TwistSite(NamedTuple):
    """A full-twist insertion point on the copies 1 and 2 of a base arc."""

    base_edge: int
    sign: int


class CableSpec(NamedTuple):
    """One multiplicity per component; ``parallel`` refuses any below 1."""

    multiplicities: tuple[int, ...]


class Region(NamedTuple):
    """The grid of crossings a single base crossing expands into.

    ``grid[r][s]`` is the crossing id met by under-strand copy r + 1 at its
    s-th overpass.
    """

    base_sign: int
    grid: list[list[int]]


class CableStructure(NamedTuple):
    """How a cabled diagram was built, returned beside it by ``cable``."""

    multiplicities: tuple[int, ...]
    regions: dict[int, Region]
    copy_edges: dict[tuple[int, int], int]   # (base edge, copy) -> entry arc id


def cable(diagram: Diagram, spec: CableSpec) -> tuple[Diagram, CableStructure]:
    """The (n_1,...,n_c)-parallel of a diagram and how it was built.

    Crossing count is the sum over base crossings of n_over * n_under; all
    grid crossings inherit the base sign and orientation.  The structure
    names the grid each base crossing became and the entry arc of every
    copy of every base arc, for the coloring constructions.
    """
    mult = spec.multiplicities
    if any(n < 1 for n in mult):
        raise CableError("multiplicities must be positive")
    if len(mult) != diagram.num_components:
        raise CableError(
            f"need {diagram.num_components} multiplicities, got {len(mult)}")
    n_cycles = len(diagram.components)
    comp_of: dict[int, int] = {}
    for k, cyc in enumerate(diagram.components):
        for e in cyc:
            comp_of[e] = k

    next_edge = 1

    def fresh():
        nonlocal next_edge
        e = next_edge
        next_edge += 1
        return e

    # entry arcs: copy k of base edge e spans between consecutive grids
    copy_edges: dict[tuple[int, int], int] = {}
    for cyc in diagram.components:
        for e in cyc:
            for k in range(1, mult[comp_of[e]] + 1):
                copy_edges[(e, k)] = fresh()

    rows: list[tuple[int, int, int, int]] = []   # crossing id = row index
    signs: list[int] = []
    regions: dict[int, Region] = {}

    for x in diagram.crossings:
        q = mult[comp_of[x.under_in]]   # under cable width
        p = mult[comp_of[x.over_in]]    # over cable width
        # interior arc names
        under_seg = {}
        for k in range(1, q + 1):
            segs = [copy_edges[(x.under_in, k)]]
            segs += [fresh() for _ in range(p - 1)]
            segs.append(copy_edges[(x.under_out, k)])
            under_seg[k] = segs
        over_seg = {}
        for l in range(1, p + 1):
            segs = [copy_edges[(x.over_in, l)]]
            segs += [fresh() for _ in range(q - 1)]
            segs.append(copy_edges[(x.over_out, l)])
            over_seg[l] = segs

        # under copy k travels "north"; over copies are met in reversed
        # index order at positive crossings and in index order at negative
        # ones. Over copy l meets the under copies in index order when the
        # base crossing is positive, reversed otherwise.
        met_over = list(range(p, 0, -1)) if x.sign > 0 else list(range(1, p + 1))
        grid = []
        for k in range(1, q + 1):
            t = k - 1 if x.sign > 0 else q - k  # each over copy's step count so far
            o_in = [over_seg[l][t] for l in met_over]
            o_out = [over_seg[l][t + 1] for l in met_over]
            u = under_seg[k]
            # row s of the under copy: (u_in, slot 1, u_out, slot 3)
            if x.sign > 0:
                rows_k = zip(u[:-1], o_out, u[1:], o_in)
            else:
                rows_k = zip(u[:-1], o_in, u[1:], o_out)
            grid.append(list(range(len(rows), len(rows) + p)))
            rows.extend(rows_k)
        signs += [x.sign] * (p * q)
        regions[x.cid] = Region(base_sign=x.sign, grid=grid)

    free = sum(mult[n_cycles:])
    structure = CableStructure(multiplicities=mult, regions=regions, copy_edges=copy_edges)
    return Diagram(rows, signs, free_loops=free), structure


def parallel(diagram: Diagram, spec: CableSpec) -> Diagram:
    """The (n_1,...,n_c)-parallel of a diagram, without its structure."""
    return cable(diagram, spec)[0]


def two_parallel_untwisted(diagram: Diagram) -> Diagram:
    """2-parallel of a knot diagram with writhe 0 (so linking number 0)."""
    if len(diagram.components) != 1 or diagram.free_loops:
        raise CableError("untwisted 2-parallel needs a one-component knot diagram")
    w = writhe(diagram)
    if w != 0:
        raise CableError(
            f"2-parallel would have linking number {w}; a writhe-0 diagram is required")
    out = parallel(diagram, CableSpec(multiplicities=(2,)))
    if linking_number(out, 0, 1) != 0:
        raise CableError("internal: untwisted parallel has nonzero linking number")
    return out


def insert_full_twists(cabled: Diagram, structure: CableStructure,
                       sites: Sequence[TwistSite]) -> tuple[Diagram, CableStructure]:
    """Insert a 2-crossing full twist at each site in turn, on one move builder.

    A site is named by base-diagram arc and found through ``structure``, the
    cabled diagram's.  A positive full twist has two positive crossings (left
    copy passing over first); each site adds exactly 2 crossings.  Returns
    the twisted diagram, on which copies 1 and 2 of a site's arc continue
    past the twist on new arcs, and its structure.  One ``Diagram`` is built
    (none when there is no site).
    """
    if not sites:
        return cabled, structure
    builder = DiagramBuilder(cabled)
    copy_edges = dict(structure.copy_edges)
    for site in sites:
        if site.sign not in (1, -1):
            raise CableError("twist sign must be +1 or -1")
        key1, key2 = (site.base_edge, 1), (site.base_edge, 2)
        if key1 not in copy_edges or key2 not in copy_edges:
            raise CableError(f"no parallel pair for base arc {site.base_edge}")
        _, (left_out, right_out) = builder.insert_twist(
            copy_edges[key1], copy_edges[key2], site.sign)
        # downstream of the twist the pair continues on the new arc ids
        copy_edges[key1], copy_edges[key2] = left_out, right_out
    return builder.diagram(), structure._replace(copy_edges=copy_edges)
