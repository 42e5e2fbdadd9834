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

from dataclasses import dataclass, field
from typing import Sequence

from .diagram import Diagram, linking_number, writhe
from .moves import DiagramBuilder


class CableError(ValueError):
    pass


@dataclass(frozen=True)
class TwistSite:
    """A full-twist insertion point: a base arc, a copy pair, and a sign."""

    base_edge: int
    sign: int
    pair: tuple[int, int] = (1, 2)


@dataclass(frozen=True)
class CableSpec:
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if any(n < 1 for n in self.multiplicities):
            raise CableError("multiplicities must be positive")


@dataclass
class Region:
    """The grid of crossings a single base crossing expands into.

    ``grid[r][s]`` is the crossing id met by under-strand copy-row r at its
    s-th overpass; ``over_copy_at_step[s]`` and ``under_copy_at_row[r]``
    translate grid coordinates back to cable copy indices.
    """

    base_cid: int
    base_sign: int
    grid: list[list[int]]
    under_copy_at_row: list[int]
    over_copy_at_step: list[int]


@dataclass
class CableStructure:
    """Construction metadata kept alongside a cabled diagram."""

    multiplicities: tuple[int, ...]
    base_components: int
    regions: dict[int, Region]
    copy_edges: dict[tuple[int, int], int]   # (base edge, copy) -> entry arc id
    twists: list[tuple[TwistSite, list[int]]] = field(default_factory=list)

    def relabel(self, mapping: dict[int, int]) -> "CableStructure":
        return CableStructure(
            multiplicities=self.multiplicities,
            base_components=self.base_components,
            regions=self.regions,
            copy_edges={k: mapping[e] for k, e in self.copy_edges.items()},
            twists=self.twists,
        )


def parallel(diagram: Diagram, spec: CableSpec) -> Diagram:
    """The (n_1,...,n_c)-parallel of a diagram.

    Crossing count is the sum over base crossings of n_over * n_under; all
    grid crossings inherit the base sign and orientation.  The result
    carries a CableStructure for the coloring constructions.
    """
    mult = spec.multiplicities
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

    rows: list[tuple[int, int, int, int]] = []
    cids: list[int] = []
    signs: list[int] = []
    regions: dict[int, Region] = {}
    next_cid = 0

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
        grid = [[0] * p for _ in range(q)]
        under_rows = list(range(1, q + 1))
        for ki, k in enumerate(under_rows):
            for s in range(p):
                l = met_over[s]
                t = k - 1 if x.sign > 0 else q - k  # over copy's step count so far
                u_in = under_seg[k][s]
                u_out = under_seg[k][s + 1]
                o_in = over_seg[l][t]
                o_out = over_seg[l][t + 1]
                if x.sign > 0:
                    row = (u_in, o_out, u_out, o_in)
                else:
                    row = (u_in, o_in, u_out, o_out)
                rows.append(row)
                cids.append(next_cid)
                signs.append(x.sign)
                grid[ki][s] = next_cid
                next_cid += 1
        regions[x.cid] = Region(
            base_cid=x.cid,
            base_sign=x.sign,
            grid=grid,
            under_copy_at_row=under_rows,
            over_copy_at_step=met_over,
        )

    free = sum(mult[n_cycles:])
    structure = CableStructure(
        multiplicities=mult,
        base_components=diagram.num_components,
        regions=regions,
        copy_edges=copy_edges,
    )
    out = Diagram(rows, free_loops=free, cable=structure, cids=cids, signs=signs)
    expected = sum(mult[comp_of[x.over_in]] * mult[comp_of[x.under_in]]
                   for x in diagram.crossings)
    if len(out.crossings) != expected:
        raise CableError("internal: grid expansion lost crossings")
    return out


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


def insert_full_twist(cabled: Diagram, base_edge: int, sign: int,
                      pair: tuple[int, int] = (1, 2)) -> Diagram:
    """Insert a 2-crossing full twist on a parallel arc pair.

    The site is named by base-diagram arc (plus the copy pair), so it
    survives relabelling of the cabled diagram.  A positive full twist has
    two positive crossings (left copy passing over first); crossing count
    grows by exactly 2.
    """
    return insert_full_twists(cabled, [TwistSite(base_edge=base_edge, sign=sign, pair=pair)])


def insert_full_twists(cabled: Diagram, sites: Sequence[TwistSite]) -> Diagram:
    """Insert a full twist at each site in turn, on one move builder.

    The same diagram, arc labels and crossing ids as one
    ``insert_full_twist`` call per site, with one ``Diagram`` built (none
    when there is no site).
    """
    st: CableStructure = cabled.cable
    if st is None:
        raise CableError("diagram carries no cable structure")
    if not sites:
        return cabled
    builder = DiagramBuilder(cabled)
    copy_edges = dict(st.copy_edges)
    twists = list(st.twists)
    for site in sites:
        if site.sign not in (1, -1):
            raise CableError("twist sign must be +1 or -1")
        key1, key2 = ((site.base_edge, k) for k in site.pair)
        if key1 not in copy_edges or key2 not in copy_edges:
            raise CableError(f"no parallel pair for base arc {site.base_edge}")
        cids, (left_out, right_out) = builder.insert_twist(
            copy_edges[key1], copy_edges[key2], site.sign)
        # downstream of the twist the pair continues on the new arc ids
        copy_edges[key1], copy_edges[key2] = left_out, right_out
        twists.append((site, cids))
    return builder.diagram(cable=CableStructure(
        multiplicities=st.multiplicities,
        base_components=st.base_components,
        regions=st.regions,
        copy_edges=copy_edges,
        twists=twists,
    ))


def linking_equals_writhe(diagram: Diagram) -> tuple[int, int, bool]:
    """Writhe of a knot diagram vs the linking number of its 2-parallel.

    These agree for every diagram: each base crossing contributes exactly
    two inter-component grid crossings carrying its sign.
    """
    if len(diagram.components) != 1 or diagram.free_loops:
        raise CableError("needs a one-component knot diagram")
    w = writhe(diagram)
    cable = parallel(diagram, CableSpec(multiplicities=(2,)))
    lk = linking_number(cable, 0, 1)
    return w, lk, w == lk
