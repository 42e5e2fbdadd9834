"""Small-palette colorings of parallels, and verified color deletion.

Even parallels (all multiplicities even, at least 4) are colored by a fixed
boundary pattern: in every parallel family of k arcs the middle two copies
get 1 and the rest 0.  Under strands crossing a cable telescope back to
their entering color, so the pattern closes up globally; region interiors
use colors -1..3 (width divisible by 4) or -1..2 (width 2 mod 4).

Untwisted 2-parallels of writhe-0 knot diagrams are colored in pairs
(a, a+1): passing under a cable shifts a pair by -2*sign, so along the
strand the pair state alternates between (0,1) and (2,3) provided the
underpass signs alternate; full twists are inserted between same-sign
underpasses to restore the alternation.  The raw palette is inside
-1..4 and two deletion passes (4 then -1) reach exactly {0,1,2,3}.

Deletions are verified local rewrites built from R2/R3 moves: conjugating
a crossing region by a canceling twist pair toggles the over state, a
bigon of one over line pushed across the region exchanges which line is
met first, and rerouting a 0-line past the middle 1-pair fixes the parity
that produces color 3.  A deletion pass is one run (``_Run``, shared with
``rewrite``): a move builder with the coloring beside it, through which
every move goes.  Each move re-derives only the arcs it changed (an R2
bigon's four new arcs, an R3 triangle's three side arcs) by propagating
over the crossings that meet them, so the coloring is current after every
move.  Once, at the end, the run builds the result, verifies its coloring
and replays its trace, after the pass has checked its palette; failures
raise, never degrade.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .cabling import CableSpec, CableStructure, Region, TwistSite, insert_full_twists, parallel
from .coloring import Coloring, ColoringError, diff_spectrum, palette, verify_coloring
from .diagram import OVER_A, UNDER_IN, Crossing, Diagram, crossing_graph_pieces, writhe
from .moves import (
    DiagramBuilder,
    Move,
    MoveError,
    MoveTrace,
    R2Insert,
    R3,
    Stage,
    apply_move,
    verify_local_equivalence,
)


class ConstructionError(ValueError):
    pass


class NoApplicableMoveError(ValueError):
    """No move in the library can remove the requested color."""


# -- boundary patterns -------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPattern:
    """Colors of one parallel family outside the crossing regions."""

    colors: tuple[int, ...]

    @staticmethod
    def standard(k: int) -> "BoundaryPattern":
        if k < 2 or k % 2:
            raise ConstructionError("pattern width must be even and at least 2")
        colors = [0] * k
        colors[k // 2 - 1] = 1
        colors[k // 2] = 1
        return BoundaryPattern(colors=tuple(colors))


# -- relation propagation ------------------------------------------------------


def propagate_coloring(crossings: Sequence[Crossing], seeds: Coloring) -> Coloring:
    """Extend seed arc colors over ``crossings`` by their relations.

    Fixpoint propagation in all directions.  Raises on contradiction or if
    the seeds do not determine every arc of the crossings; arcs elsewhere
    are neither read nor checked.
    """
    return _propagate([(x.over_in, x.over_out, x.under_in, x.under_out, x.cid)
                       for x in crossings], seeds)


def _propagate(quads: list[tuple[int, int, int, int, int]], seeds: Coloring) -> Coloring:
    """``propagate_coloring`` on (over_in, over_out, under_in, under_out, cid) quads.

    Each step colors an arc that has no color yet; the closing check of
    every relation catches contradictions.
    """
    gamma = {e: int(v) for e, v in seeds.items()}
    changed = True
    while changed:
        changed = False
        for oi, oo, ui, uo, cid in quads:
            if oi in gamma:
                if oo not in gamma:
                    gamma[oo] = gamma[oi]
                    changed = True
            elif oo in gamma:
                gamma[oi] = gamma[oo]
                changed = True
            if oi in gamma:
                o = gamma[oi]
                if ui in gamma:
                    if uo not in gamma:
                        gamma[uo] = 2 * o - gamma[ui]
                        changed = True
                elif uo in gamma:
                    gamma[ui] = 2 * o - gamma[uo]
                    changed = True
            elif ui in gamma and uo in gamma:
                s = gamma[ui] + gamma[uo]
                if s % 2:
                    raise ConstructionError(f"propagation conflict at crossing {cid}")
                gamma[oi] = s // 2
                changed = True
    missing = sorted({e for q in quads for e in q[:4] if e not in gamma})
    if missing:
        raise ConstructionError(f"seeds do not determine arcs {missing[:8]}")
    for oi, oo, ui, uo, cid in quads:
        if gamma[oi] != gamma[oo] or 2 * gamma[oi] != gamma[ui] + gamma[uo]:
            raise ConstructionError(f"propagation conflict at crossing {cid}")
    return gamma


def _rederive(builder: DiagramBuilder, gamma: Coloring, unknown: set[int]) -> list[int]:
    """Re-derive the ``unknown`` arcs of ``gamma`` on the builder's rows.

    Propagates over every crossing that meets an unknown arc, seeded by
    those crossings' other arcs, and writes the unknown arcs into ``gamma``.
    Returns the swept crossings, in id order; all their relations hold.
    """
    rows, signs = builder.rows, builder.signs
    cids = sorted({cid for e in unknown for cid in builder.incident(e)})
    quads = []
    for cid in cids:
        ui, oa, uo, ob = rows[cid]  # the over strand enters at OVER_B when positive
        quads.append((ob, oa, ui, uo, cid) if signs[cid] > 0 else (oa, ob, ui, uo, cid))
    local = _propagate(quads, {e: gamma[e] for q in quads for e in q[:4] if e not in unknown})
    for e in unknown:
        gamma[e] = local[e]
    return cids


class _Run:
    """A move builder with its coloring, each crossing's diff and the stages.

    ``gamma`` colors the builder's arcs, ``diffs`` maps each crossing to its
    diff, ``histogram`` counts the crossings of each diff and ``at_diff``
    holds them.  ``apply`` is the only way a rewrite applies a move, and it
    keeps all four current after every move.  The rewrites apply only R2
    bigons and R3 slides, which remove no arc and no crossing, so ``gamma``
    colors exactly the builder's arcs.  The input coloring is verified once,
    by ``diff_spectrum``, which refuses an invalid one.
    """

    def __init__(self, diagram: Diagram, gamma: Coloring):
        spec = diff_spectrum(diagram, gamma)
        self.source = diagram
        self.builder = DiagramBuilder(diagram)
        self.gamma = {e: gamma[e] for e in diagram.edges}
        self.diffs: dict[int, int] = {}
        self.histogram: dict[int, int] = {}
        self.at_diff: dict[int, set[int]] = {}
        for cid, d in spec.diffs.items():
            self.set_diff(cid, d)
        # (moves, disks) of each stage; moves go into the last disk of the last stage
        self.stages: list[tuple[list[tuple[Move, int]], dict[int, frozenset[int]]]] = []

    @property
    def d_m(self) -> int:
        return max(self.histogram, default=0)

    def set_diff(self, cid: int, d: int) -> None:
        old = self.diffs.get(cid)
        if old == d:
            return
        if old is not None:
            self.histogram[old] -= 1
            self.at_diff[old].discard(cid)
            if not self.histogram[old]:
                del self.histogram[old]
                del self.at_diff[old]
        self.diffs[cid] = d
        self.histogram[d] = self.histogram.get(d, 0) + 1
        self.at_diff.setdefault(d, set()).add(cid)

    def open_stage(self) -> None:
        self.stages.append(([], {}))

    def open_disk(self, cids) -> None:
        """Open the stage's next disk, over the source crossings ``cids``;
        disk ids run from 1 within a stage."""
        disks = self.stages[-1][1]
        disks[len(disks) + 1] = frozenset(cids)

    def apply(self, move: Move) -> list[int]:
        """Apply ``move`` in the open disk and re-derive the arcs it changed.

        An R2 bigon changes its four new arcs, an R3 triangle its three side
        arcs (the arcs met twice among its crossings); every other arc keeps
        its color, and colors are unique once those are fixed.  The
        crossings ``_rederive`` sweeps get their diffs updated.  Returns the
        crossings the move created.
        """
        builder = self.builder
        first_edge = builder.next_edge
        created = apply_move(builder, move)["created"]
        moves, disks = self.stages[-1]
        moves.append((move, len(disks)))
        if isinstance(move, R3):
            count = Counter(e for cid in move.cids for e in builder.rows[cid])
            changed = {e for e, k in count.items() if k >= 2}
        else:
            changed = set(range(first_edge, builder.next_edge))
        gamma = self.gamma
        for cid in _rederive(builder, gamma, changed):
            row = builder.rows[cid]
            self.set_diff(cid, abs(gamma[row[OVER_A]] - gamma[row[UNDER_IN]]))
        return created

    def finish(self, cable: Optional[CableStructure] = None
               ) -> tuple[Diagram, Coloring, MoveTrace]:
        """The run's one diagram build, coloring check and trace replay.

        Raises ConstructionError naming the check that failed.
        """
        result = self.builder.diagram(cable=cable)
        gamma = {e: self.gamma[e] for e in result.edges}
        if not verify_coloring(result, gamma):
            raise ConstructionError("rewritten coloring does not verify")
        trace = MoveTrace(stages=tuple(Stage(moves=tuple(moves), disks=disks)
                                       for moves, disks in self.stages))
        report = verify_local_equivalence(self.source, result, trace)
        if not report.ok:
            raise ConstructionError(f"trace verification failed: {report.reasons}")
        return result, gamma, trace


# -- even parallels ------------------------------------------------------------


def color_even_parallel(cabled: Diagram) -> Coloring:
    """The explicit coloring of an even parallel with all widths >= 4.

    Every parallel family carries the standard boundary pattern; region
    interiors follow by propagation and exits telescope back to the
    entering colors, so the assignment is globally consistent.  The palette
    is inside {-1,0,1,2,3}, and inside {-1,0,1,2} when every width is
    2 mod 4.
    """
    st: CableStructure = cabled.cable
    if st is None:
        raise ConstructionError("diagram carries no cable structure")
    mult = st.multiplicities
    if any(n % 2 or n < 4 for n in mult):
        raise ConstructionError("all multiplicities must be even and at least 4")
    if len(crossing_graph_pieces(cabled)) > 1:
        raise ConstructionError("base diagram must be non-split")

    width: dict[int, int] = {}
    for base_edge, copy in st.copy_edges:
        width[base_edge] = max(width.get(base_edge, 0), copy)
    patterns = {n: BoundaryPattern.standard(n) for n in set(mult)}
    seeds = {arc: patterns[width[base_edge]].colors[copy - 1]
             for (base_edge, copy), arc in st.copy_edges.items()}
    gamma = propagate_coloring(cabled.crossings, seeds)
    if not verify_coloring(cabled, gamma):
        raise ConstructionError("internal: even-parallel coloring failed verification")
    values, _ = palette(gamma)
    allowed = {-1, 0, 1, 2, 3} if any(n % 4 == 0 for n in mult) else {-1, 0, 1, 2}
    if not values <= allowed:
        raise ConstructionError(f"internal: palette {sorted(values)} exceeds {sorted(allowed)}")
    return gamma


# -- 2-parallel construction -----------------------------------------------------


def plan_drift_twists(diagram: Diagram) -> list[tuple[int, int]]:
    """(base arc, twist sign) sites between consecutive same-sign underpasses.

    Walking the knot, a pair coloring exits an underpass in the state the
    opposite-sign underpass expects; between two same-sign underpasses one
    full twist restores the state.  A writhe-0 diagram has as many positive
    as negative crossings, so the inserted twists balance.
    """
    if len(diagram.components) != 1 or diagram.free_loops:
        raise ConstructionError("twist planning needs a one-component knot diagram")
    under_at = {x.under_in: x for x in diagram.crossings}
    unders = [under_at[e] for e in diagram.components[0] if e in under_at]
    plan = []
    for i, x in enumerate(unders):
        nxt = unders[(i + 1) % len(unders)]
        if x.sign == nxt.sign:
            # after a positive underpass the pair sits at state 0 and the
            # next positive underpass wants 2: raise with a negative twist;
            # mirrored for negative underpasses
            plan.append((x.under_out, -1 if x.sign > 0 else 1))
    return plan


def _underpass_states(diagram: Diagram, plan: list[tuple[int, int]]) -> dict[int, int]:
    """Pair state (0 or 2) at the start of every base arc, before twists.

    Anchored at the first underpass (a positive crossing wants state 2, a
    negative one state 0) and simulated forward: each underpass shifts the
    state by -2*sign, each planned twist toggles it.  The walk must close
    up; an unbalanced twist plan raises.
    """
    cyc = diagram.components[0]
    n = len(cyc)
    twist_edges = {e: s for e, s in plan}
    under_sign = {x.under_in: x.sign for x in diagram.crossings}

    anchor = None
    for idx, e in enumerate(cyc):
        if e in under_sign:
            anchor = (idx, 2 if under_sign[e] > 0 else 0)
            break
    if anchor is None:
        return {e: 0 for e in cyc}
    idx0, st = anchor
    order = [cyc[(idx0 + i) % n] for i in range(n)]
    state_at: dict[int, int] = {}
    cur = st
    for e in order:
        state_at[e] = cur
        if e in twist_edges:
            cur = cur - 2 * twist_edges[e]  # a positive twist lowers the state
        if e in under_sign:
            cur = cur - 2 * under_sign[e]
    if cur != state_at[order[0]]:
        raise ConstructionError("pair states do not close up; twist plan is unbalanced")
    return state_at


def color_two_parallel(diagram: Diagram) -> tuple[Diagram, Coloring]:
    """Colored 2-parallel of a writhe-0 knot diagram.

    Builds the 2-parallel with drift-balancing full twists and colors each
    parallel pair (a, a+1) with a in {0, 2}; region and twist interiors
    follow by propagation.  The palette is inside {-1,0,1,2,3,4}; the two
    deletion passes of ``delete_color_moves`` then reach exactly {0,1,2,3}.
    """
    if len(diagram.components) != 1 or diagram.free_loops:
        raise ConstructionError("needs a one-component knot diagram")
    w = writhe(diagram)
    if w != 0:
        raise ConstructionError(f"writhe is {w}; the construction needs writhe 0")
    plan = plan_drift_twists(diagram)
    states = _underpass_states(diagram, plan)

    cabled = parallel(diagram, CableSpec(multiplicities=(2,)))
    pre_twist_arcs = cabled.cable.copy_edges
    cabled = insert_full_twists(cabled, [TwistSite(base_edge=e, sign=sign) for e, sign in plan])

    seeds: Coloring = {}
    for e in diagram.components[0]:
        state = states[e]
        seeds[pre_twist_arcs[(e, 1)]] = state
        seeds[pre_twist_arcs[(e, 2)]] = state + 1
    gamma = propagate_coloring(cabled.crossings, seeds)
    if not verify_coloring(cabled, gamma):
        raise ConstructionError("internal: 2-parallel coloring failed verification")
    values, _ = palette(gamma)
    if not values <= {-1, 0, 1, 2, 3, 4}:
        raise ConstructionError(f"internal: palette {sorted(values)} exceeds -1..4")
    return cabled, gamma


# -- region geometry helpers -----------------------------------------------------


def _over_travel_rows(region: Region) -> list[int]:
    q = len(region.grid)
    return list(range(q)) if region.base_sign > 0 else list(range(q - 1, -1, -1))


def _over_entry(builder: DiagramBuilder, region: Region, step: int) -> int:
    """The arc on which the over line at ``step`` enters the region."""
    return builder.crossing(region.grid[_over_travel_rows(region)[0]][step]).over_in


def _region_interior_arcs(diagram: Diagram | DiagramBuilder, region: Region) -> set[int]:
    count = Counter(e for row in region.grid for c in row for e in diagram.crossing(c).slots)
    return {e for e, k in count.items() if k == 2}


def _region_met_colors(run: _Run, region: Region) -> list[int]:
    """Over-line colors in the order the under strands meet them."""
    return [run.gamma[_over_entry(run.builder, region, s)] for s in range(len(region.grid[0]))]


def _find_corner(builder: DiagramBuilder, e1: int, e2: int,
                 prefer_cids: set[int]) -> Optional[tuple[int, int]]:
    for face in builder.faces_through(e1):
        if e2 in builder.face_arcs(face):
            for corner in face:
                cid, slot = builder.corner_slot(corner)
                if cid in prefer_cids:
                    return (cid, slot)
    return None


def _push_bigon(run: _Run, region: Region, push_step: int, across_step: int,
                push_over: bool) -> list[int]:
    """An R2 bigon west of the region: one over line pushed across another.

    The bigon sits in the face the two lines' entry arcs share at the
    region's first-met row.  Returns the two new crossings in the order the
    pushed line runs through them.
    """
    push = _over_entry(run.builder, region, push_step)
    across = _over_entry(run.builder, region, across_step)
    row = region.grid[_over_travel_rows(region)[0]]
    corner = _find_corner(run.builder, push, across, {row[push_step], row[across_step]})
    return run.apply(R2Insert(push_edge=push, across_edge=across, push_over=push_over,
                              corner=corner))


def _slide_east(run: _Run, slider: int, region: Region, steps: tuple[int, int]) -> None:
    """R3 ``slider``, where the over lines at ``steps`` cross, across every row."""
    for r in _over_travel_rows(region):
        row = region.grid[r]
        try:
            run.apply(R3(cids=(slider, row[min(steps)], row[max(steps)])))
        except MoveError as err:
            raise NoApplicableMoveError(
                f"cannot slide crossing {slider} across under row {r}: {err}") from err


# -- the rewrite library ----------------------------------------------------------


def _rewrite_swap_first_met(run: _Run, region: Region, clean_step: int,
                            other_step: int) -> None:
    """Exchange which over line is met first, spanning the whole region.

    Pushes the desired-first line over its partner (an R2 bigon west of the
    region) and slides the far crossing east across every under strand; the
    partner is recolored to 2f - g between the bigon crossings.
    """
    far = _push_bigon(run, region, clean_step, other_step, True)[1]
    _slide_east(run, far, region, (clean_step, other_step))


def _rewrite_toggle_over_state(run: _Run, region: Region, flip_second: bool) -> None:
    """Conjugate the region by a canceling full-twist pair on its over cable.

    Two nested R2 bigons west of the region build twist+inverse; the two
    crossings nearest the region slide east across the under strands,
    leaving one full twist before the region and its inverse after.
    ``flip_second`` selects the handedness of the twist pair.
    """
    x_step, y_step = (1, 0) if flip_second else (0, 1)
    o1, o2 = _push_bigon(run, region, x_step, y_step, True)
    # inside the bigon: the mid segments are the over strand's new middle
    # (arc between o1 and o2) and the crossed strand's middle
    x_mid, y_mid = run.builder.bigon_arcs(o1, o2)
    i2 = run.apply(R2Insert(push_edge=y_mid, across_edge=x_mid, push_over=True))[1]
    # east pair = the far crossings of each insert
    _slide_east(run, o2, region, (0, 1))
    _slide_east(run, i2, region, (0, 1))


def _rewrite_reroute_line(run: _Run, region: Region, mover_step: int,
                          over_steps: tuple[int, int]) -> None:
    """Send the over line at ``mover_step`` around the two lines after it.

    Two spanning bigons (mover under each 1-line) move the line's passage
    across the region from before the pair to after it; the mover dips to
    color 2 at each crossing and carries its own color through the middle.
    """
    for target_step in over_steps:
        far = _push_bigon(run, region, mover_step, target_step, False)[1]
        _slide_east(run, far, region, (mover_step, target_step))


# -- delete_color_moves -----------------------------------------------------------


def delete_color_moves(cabled: Diagram, gamma: Coloring, target: int
                       ) -> tuple[Diagram, Coloring, MoveTrace]:
    """Remove one color from a parallel coloring by verified local moves.

    Every region whose interior uses the target color is rewritten inside
    its own disk of one stage, on one run for the whole pass; each move
    re-derives the colors it changes.  Once, at the end, the palette is
    checked (target gone, no new colors), the result built, its coloring
    verified and the trace replayed.  Raises NoApplicableMoveError when the
    move library has no rewrite for the configuration.
    """
    st: CableStructure = cabled.cable
    if st is None:
        raise NoApplicableMoveError("no cable structure: move library does not apply")
    run = _Run(cabled, gamma)
    values, _ = palette(gamma)
    if target not in values:
        raise ColoringError(f"color {target} is not in the palette")

    run.open_stage()
    disks = run.stages[-1][1]
    for base_cid in sorted(st.regions):
        region = st.regions[base_cid]
        if target in {run.gamma[e] for e in _region_interior_arcs(run.builder, region)}:
            run.open_disk(c for row in region.grid for c in row)
            _rewrite_region(run, region, target)
    if not disks:
        raise NoApplicableMoveError(
            f"color {target} does not appear in any rewritable region interior")

    new_values, _ = palette(run.gamma)
    if target in new_values:
        raise NoApplicableMoveError(f"rewrite did not eliminate color {target}")
    if not new_values <= values - {target}:
        raise NoApplicableMoveError(
            f"rewrite introduced unexpected colors {sorted(new_values - values)}")
    try:
        return run.finish(cable=st)
    except ConstructionError as err:
        raise NoApplicableMoveError(str(err)) from err


def _rewrite_region(run: _Run, region: Region, target: int) -> None:
    q = len(region.grid)
    p = len(region.grid[0])
    met = _region_met_colors(run, region)

    if p == q == 2:
        u_state = min(run.gamma[run.builder.crossing(row[0]).under_in] for row in region.grid)
        y_state = min(met)
        if target == 4:
            if y_state != 2:
                raise NoApplicableMoveError("color-4 interior without a (2,3) over pair")
            _toggle_verified(run, region, y_state)
            return
        if target == -1:
            if y_state == 2:
                raise NoApplicableMoveError("expected a toggled (0,1) over pair")
            clean_color = 2 if u_state == 2 else 1
            if u_state == 2:
                met = _toggle_verified(run, region, y_state)
            if clean_color not in met:
                raise NoApplicableMoveError("no clean line to bring first")
            clean_step = met.index(clean_color)
            _rewrite_swap_first_met(run, region, clean_step, 1 - clean_step)
            return
        raise NoApplicableMoveError(f"no 2-parallel rewrite deletes color {target}")

    if target == 3 and p % 4 == 0:
        # the 0-line met immediately before the middle 1-pair detours to
        # just after it, making the zero-prefix even for the 1-strands
        ones = [s for s, c in enumerate(met) if c == 1]
        if len(ones) != 2 or ones[1] != ones[0] + 1:
            raise NoApplicableMoveError("over pattern lacks an adjacent 1-pair")
        mover = ones[0] - 1
        if mover < 0 or met[mover] != 0:
            raise NoApplicableMoveError("no 0-line before the 1-pair")
        _rewrite_reroute_line(run, region, mover, (ones[0], ones[1]))
        return
    raise NoApplicableMoveError(f"no rewrite available for color {target} here")


def _toggle_verified(run: _Run, region: Region, y_state: int) -> list[int]:
    """Toggle the over pair between states 0 and 2; returns the met colors after.

    The pair meets a full twist before the region and its inverse after it
    (``_rewrite_toggle_over_state``).  A twist of sign s shifts a pair's
    state by -2s, so state 2 needs a positive twist to drop to 0 and state
    0 a negative one to rise to 2.  The twist's sign is fixed by which line
    is pushed over the other and by the side each line lies on of their
    travel direction; the under strands cross the over lines from the side
    the region's sign gives, so that sign fixes the sides.  Pushing line 0
    over line 1 gives sign -base_sign, line 1 over line 0 gives +base_sign:
    flip exactly when base_sign * (y_state - 1) > 0.  The met colors after
    must stay in 0..3; a wrong handedness would drive the pair to (4,5) or
    (-2,-1).
    """
    _rewrite_toggle_over_state(run, region, region.base_sign * (y_state - 1) > 0)
    met_now = _region_met_colors(run, region)
    if not all(0 <= c <= 3 for c in met_now):
        raise NoApplicableMoveError(f"toggle drove the pair to {met_now}")
    return met_now
