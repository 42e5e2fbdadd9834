"""Small-palette colorings of parallels, and verified color deletion.

``color_parallel(diagram, widths)`` builds the parallel and colors it by
one of three rules, which the widths choose.  Each seeds the entry arcs of
the copies and propagates over the cable's rows (``propagate_coloring``),
whose closing check verifies the coloring.

- Every width even and at least 4: in every parallel family of k arcs the
  middle two copies get 1 and the rest 0.  Under strands crossing a cable
  telescope back to their entering color, so the pattern closes up
  globally; region interiors use colors -1..3 (width divisible by 4) or
  -1..2 (every width 2 mod 4).
- Width 2 on a writhe-0 knot diagram: each parallel pair is colored
  (a, a+1).  Passing under a cable shifts a pair by -2*sign, so along the
  strand the pair state alternates between (0,1) and (2,3) provided the
  underpass signs alternate; full twists are inserted between same-sign
  underpasses to restore the alternation.  So a pair enters a positive
  underpass in state 2 and a negative one in state 0, and leaves in the
  other; the copies of each base arc are seeded with the state their next
  underpass wants, or with 2 minus it ahead of a twist, which toggles the
  state.  The raw palette is inside -1..4.
- Two or more components, every width even and some width 2: every copy
  of the first component gets 1 and every copy of the others 2.  An even
  cable of constant color c sends an under strand of color u out as u,
  through interior arcs 2c - u, so the palette is inside {0,1,2,3} and
  every diff is 0 or 1.

Odd widths, split bases and 2-parallels of links or of knot diagrams with
nonzero writhe are refused.

``delete_color_moves`` reduces the palette to four colors by verified
local rewrites built from R2/R3 moves, in passes the widths choose: 3 on
the first rule, 4 then -1 on the second, none on the third.  The 4-pass
may bring in -1 and the -1 pass removes it: together they reach exactly
{0,1,2,3}, checked once per reduction
(``tests/test_lemmas.py::test_deletion_reaches_four_colors``).
Every rewrite is one span of a crossing region (``_span``): an R2 bigon
pushes one over line across another west of the region and R3 slides its
far crossing east across every under row, which exchanges which of the two
lines the under strands meet first.  The -1 pass brings a clean line
first; the 3-pass moves the 0-line met just before the middle 1-pair to
just after it, one span under each 1-line, which fixes the parity that
produces color 3.  A twisted span nests a second bigon in the first and
slides both far crossings, conjugating the region by a full twist and its
inverse: that toggles the over pair's state.  A reduction runs all its
passes on one ``_Run``, shared with ``rewrite``: a move builder with the
coloring beside it, through which every move goes.  Each move recolors
only the arcs it changed, by the crossing rule and without propagation: an
R2 bigon's four new arcs from the colors of its two arcs, an R3 triangle's
three sides from the outer arcs across from them at the new triangle's
corners, arcs and corners as the move reports them.  So the coloring is
current after every move.  Once, at the end, it checks the palette, builds
the result, verifies its coloring and replays its trace; failures raise,
never degrade.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .cabling import CableSpec, CableStructure, Region, TwistSite, cable, insert_full_twists
from .coloring import Coloring, ColoringError, palette, verify_coloring
from .diagram import Diagram, crossing_graph_pieces, writhe
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


# -- relation propagation ------------------------------------------------------


def propagate_coloring(rows: dict[int, tuple[int, int, int, int]], seeds: Coloring) -> Coloring:
    """Extend seed colors over ``rows`` (crossing id -> slots) by their relations.

    Fixpoint propagation in all directions: each step colors an arc that
    has no color yet, and the closing check of every relation catches
    contradictions.  Raises if the seeds do not determine every arc of the
    rows; arcs elsewhere are neither read nor checked.
    """
    gamma = {e: int(v) for e, v in seeds.items()}
    changed = True
    while changed:
        changed = False
        for cid, (ui, oa, uo, ob) in rows.items():
            if oa in gamma:
                if ob not in gamma:
                    gamma[ob] = gamma[oa]
                    changed = True
            elif ob in gamma:
                gamma[oa] = gamma[ob]
                changed = True
            if oa in gamma:
                o = gamma[oa]
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
                gamma[oa] = s // 2
                changed = True
    missing = sorted({e for row in rows.values() for e in row if e not in gamma})
    if missing:
        raise ConstructionError(f"seeds do not determine arcs {missing[:8]}")
    for cid, (ui, oa, uo, ob) in rows.items():
        if gamma[oa] != gamma[ob] or 2 * gamma[oa] != gamma[ui] + gamma[uo]:
            raise ConstructionError(f"propagation conflict at crossing {cid}")
    return gamma


class _Run:
    """A move builder with its coloring, the stages and their certificate.

    ``apply`` is the only way a rewrite applies a move; it recolors by the
    crossing rule from the move's report.  The rewrites apply only R2
    bigons and R3 slides, which remove no arc, so ``gamma`` colors exactly
    the builder's arcs.  The input is verified here, the output by ``finish``.
    """

    def __init__(self, diagram: Diagram, gamma: Coloring):
        if not verify_coloring(diagram, gamma):
            raise ColoringError("not a valid coloring")
        self.source = diagram
        self.builder = DiagramBuilder(diagram)
        self.gamma = {e: gamma[e] for e in diagram.edges}
        # (moves, disks) of each stage; moves go into the last disk of the last stage
        self.stages: list[tuple[list[tuple[Move, int]], dict[int, frozenset[int]]]] = []

    def open_stage(self) -> None:
        self.stages.append(([], {}))

    def open_disk(self, cids) -> None:
        """Open the stage's next disk, over the source crossings ``cids``;
        disk ids run from 1 within a stage."""
        disks = self.stages[-1][1]
        disks[len(disks) + 1] = frozenset(cids)

    def apply(self, move: Move) -> dict:
        """Apply ``move`` in the open disk and recolor by the crossing rule.

        An R2 bigon of ``push_edge`` (color a) pushed over ``across_edge``
        (color b) gives the new arcs f_m, f_b, g_m, g_b the move reports the
        colors (a, a, 2a - b, b), and pushed under (2b - a, a, b, b).  An R3
        recolors the sides of its reported triangle (``_slide_colors``).
        Every other arc keeps its color.  Returns the report.
        """
        report = apply_move(self.builder, move)
        moves, disks = self.stages[-1]
        moves.append((move, len(disks)))
        if isinstance(move, R3):
            self.gamma.update(self._slide_colors(move.cids, report["triangle"]))
        else:
            a, b = self.gamma[move.push_edge], self.gamma[move.across_edge]
            colors = (a, a, 2 * a - b, b) if move.push_over else (2 * b - a, a, b, b)
            self.gamma.update(zip(report["arcs"], colors))
        return report

    def _slide_colors(self, cids: tuple[int, int, int], triangle: list[int]) -> dict[int, int]:
        """The colors of an R3's three sides, read on the ``triangle`` it reported.

        Corner (c, i) of the triangle meets two sides at slots i and i + 1,
        one over and one under; across from them sit outer arcs, whose
        colors the move keeps.  The over side takes the outer over color o,
        the under side 2o minus the outer under color.  Each side is read at
        both of its corners, and the readings agree exactly when the three
        crossings' relations hold; raises ConstructionError otherwise.
        """
        builder, gamma = self.builder, self.gamma
        colors: dict[int, int] = {}
        for corner in triangle:
            cid, i = builder.corner_slot(corner)
            row = builder.rows[cid]
            over, under = (i, (i + 1) % 4) if i % 2 else ((i + 1) % 4, i)
            o = gamma[row[over ^ 2]]
            for e, reading in ((row[over], o), (row[under], 2 * o - gamma[row[under ^ 2]])):
                if colors.setdefault(e, reading) != reading:
                    raise ConstructionError(
                        f"R3 on {cids}: side arc {e} reads {colors[e]} and {reading}")
        return colors

    def finish(self) -> tuple[Diagram, Coloring, MoveTrace]:
        """The run's one diagram build, coloring check and trace replay.

        Raises ConstructionError naming the check that failed.
        """
        result = self.builder.diagram()
        gamma = {e: self.gamma[e] for e in result.edges}
        if not verify_coloring(result, gamma):
            raise ConstructionError("rewritten coloring does not verify")
        trace = MoveTrace(stages=tuple(Stage(moves=tuple(moves), disks=disks)
                                       for moves, disks in self.stages))
        report = verify_local_equivalence(self.source, result, trace)
        if not report.ok:
            raise ConstructionError(f"trace verification failed: {report.reasons}")
        return result, gamma, trace


# -- colored parallels ---------------------------------------------------------


def color_parallel(diagram: Diagram, multiplicities: Sequence[int]
                   ) -> tuple[Diagram, Coloring, CableStructure]:
    """The parallel of ``diagram`` with widths ``multiplicities``, colored
    by the rule the widths choose (see the module docstring).

    Returns the cabled diagram, its coloring and its structure, which
    ``delete_color_moves`` takes.  Raises CableError for widths the base
    cannot take, ConstructionError for odd widths, split bases and a
    2-parallel of anything but a writhe-0 knot diagram.
    """
    mult = tuple(multiplicities)
    if mult == (2,):
        return _color_two_parallel(diagram)
    cabled, st = cable(diagram, CableSpec(multiplicities=mult))
    if any(n % 2 for n in mult):
        raise ConstructionError("all multiplicities must be even")
    if len(crossing_graph_pieces(cabled)) > 1:
        raise ConstructionError("base diagram must be non-split")

    # the colors of each component's copies 1..n where they enter a grid
    if 2 in mult:
        entering = [[1 if k == 0 else 2] * n for k, n in enumerate(mult)]
        allowed = {0, 1, 2, 3}
    else:
        entering = [[int(c in (n // 2, n // 2 + 1)) for c in range(1, n + 1)] for n in mult]
        allowed = {-1, 0, 1, 2, 3} if any(n % 4 == 0 for n in mult) else {-1, 0, 1, 2}
    seeds = {st.copy_edges[e, c]: color
             for colors, cyc in zip(entering, diagram.components)
             for e in cyc for c, color in enumerate(colors, 1)}
    gamma = propagate_coloring(cabled.rows, seeds)
    values, _ = palette(gamma)
    if not values <= allowed:
        raise ConstructionError(f"internal: palette {sorted(values)} exceeds {sorted(allowed)}")
    return cabled, gamma, st


# -- 2-parallel construction -----------------------------------------------------


def plan_drift_twists(diagram: Diagram) -> list[TwistSite]:
    """Twist sites between consecutive same-sign underpasses.

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
            plan.append(TwistSite(base_edge=x.under_out, sign=-1 if x.sign > 0 else 1))
    return plan


def _color_two_parallel(diagram: Diagram) -> tuple[Diagram, Coloring, CableStructure]:
    """Colored 2-parallel of a writhe-0 knot diagram, and its structure.

    Builds the 2-parallel with drift-balancing full twists and colors each
    parallel pair (a, a+1) with a in {0, 2}; region and twist interiors
    follow by propagation.  The palette is inside {-1,0,1,2,3,4};
    ``delete_color_moves`` then runs the 4 and -1 passes, which together
    reach exactly {0,1,2,3}, and checks that palette once, after both.

    A base arc's copies are seeded with the state its next underpass
    wants (2 before a positive one, 0 before a negative one); on a twist
    arc the seeded copies lie before the twist, which toggles the state,
    so they get 2 minus that.  Propagation's closing check is the
    coloring's verification.
    """
    if len(diagram.components) != 1 or diagram.free_loops:
        raise ConstructionError("needs a one-component knot diagram")
    w = writhe(diagram)
    if w != 0:
        raise ConstructionError(f"writhe is {w}; the construction needs writhe 0")
    sites = plan_drift_twists(diagram)
    cabled, st = cable(diagram, CableSpec(multiplicities=(2,)))
    pre_twist_arcs = st.copy_edges
    cabled, st = insert_full_twists(cabled, st, sites)

    twisted = {site.base_edge for site in sites}
    wants = {x.under_in: 2 if x.sign > 0 else 0 for x in diagram.crossings}
    cyc = diagram.components[0]
    # walked backward, ``want`` is the next underpass's; the last arc's
    # next underpass is the first one
    want = next(wants[e] for e in cyc if e in wants)
    seeds: Coloring = {}
    for e in reversed(cyc):
        want = wants.get(e, want)
        state = 2 - want if e in twisted else want
        seeds[pre_twist_arcs[(e, 1)]] = state
        seeds[pre_twist_arcs[(e, 2)]] = state + 1
    gamma = propagate_coloring(cabled.rows, seeds)
    values, _ = palette(gamma)
    if not values <= {-1, 0, 1, 2, 3, 4}:
        raise ConstructionError(f"internal: palette {sorted(values)} exceeds -1..4")
    return cabled, gamma, st


# -- region geometry helpers -----------------------------------------------------


def _over_travel_rows(region: Region) -> list[int]:
    q = len(region.grid)
    return list(range(q)) if region.base_sign > 0 else list(range(q - 1, -1, -1))


def _region_interior_arcs(builder: DiagramBuilder, region: Region) -> set[int]:
    count = Counter(e for row in region.grid for c in row for e in builder.rows[c])
    return {e for e, k in count.items() if k == 2}


def _region_met_colors(run: _Run, region: Region) -> list[int]:
    """Over-line colors in the order the under strands meet them."""
    first = region.grid[_over_travel_rows(region)[0]]
    return [run.gamma[run.builder.crossing(c).over_in] for c in first]


# -- the span rewrite -------------------------------------------------------------


def _span(run: _Run, region: Region, push_step: int, across_step: int, push_over: bool,
          twist: bool = False) -> None:
    """Exchange which of two over lines the region's under strands meet first.

    Pushes the over line at ``push_step`` over (or under) the one at
    ``across_step``: an R2 bigon in the face their entry arcs share at the
    first-met row, west of the region.  With ``twist``, a second bigon
    nested in the first pushes the crossed line back over the pushed one.
    Then each far crossing, the outer bigon's before the nested one's,
    slides east by R3 across every under row in over-travel order; a
    twisted span so leaves a full twist before the region and its inverse
    after it.
    """
    builder, travel = run.builder, _over_travel_rows(region)
    ends = region.grid[travel[0]][push_step], region.grid[travel[0]][across_step]
    push, across = (builder.crossing(c).over_in for c in ends)
    corner = next((builder.corner_slot(c) for face in builder.faces_through(push)
                   if across in builder.face_arcs(face) for c in face if c >> 2 in ends), None)
    report = run.apply(R2Insert(push_edge=push, across_edge=across, push_over=push_over,
                                corner=corner))
    sliders = [report["created"][1]]
    if twist:
        # inside the bigon: the pushed line's new middle and the crossed line's
        pushed_mid, _, crossed_mid, _ = report["arcs"]
        sliders.append(run.apply(R2Insert(push_edge=crossed_mid, across_edge=pushed_mid,
                                          push_over=push_over))["created"][1])
    lo, hi = sorted((push_step, across_step))
    for slider in sliders:
        for r in travel:
            try:
                run.apply(R3(cids=(slider, region.grid[r][lo], region.grid[r][hi])))
            except MoveError as err:
                raise NoApplicableMoveError(
                    f"cannot slide crossing {slider} across under row {r}: {err}") from err


# -- delete_color_moves -----------------------------------------------------------


def delete_color_moves(cabled: Diagram, gamma: Coloring, structure: CableStructure
                       ) -> tuple[Diagram, Coloring, list[MoveTrace]]:
    """Reduce a parallel's coloring to four colors by verified local moves.

    ``structure`` is the cable's, as ``color_parallel`` returns it; its
    widths set the passes: 4 then -1 on a 2-parallel, none when some width
    of a link is 2, 3 otherwise.  All go on one run; each pass whose color
    is present is one stage, with one disk per rewritten region.  The
    palette is checked once per reduction, not per pass: exactly {0,1,2,3}
    on a 2-parallel, the input's without the passes' colors otherwise.
    Then the result is built, its coloring verified and the trace replayed,
    once.  Returns a one-stage trace per pass run (none, and the input,
    when no pass runs).  Raises NoApplicableMoveError when no rewrite
    applies or the palette is wrong.
    """
    run = _Run(cabled, gamma)
    mult = structure.multiplicities
    passes = (4, -1) if mult == (2,) else () if 2 in mult else (3,)
    want = {0, 1, 2, 3} if mult == (2,) else set(run.gamma.values()) - set(passes)
    for target in passes:
        if target in run.gamma.values():
            _delete_color(run, structure.regions, target)
    reached = set(run.gamma.values())
    if reached != want:
        raise NoApplicableMoveError(
            f"deletion reached palette {sorted(reached)}, not {sorted(want)}")
    if not run.stages:
        return cabled, gamma, []
    try:
        result, out, trace = run.finish()
    except ConstructionError as err:
        raise NoApplicableMoveError(str(err)) from err
    return result, out, [MoveTrace(stages=(stage,)) for stage in trace.stages]


def _delete_color(run: _Run, regions: dict[int, Region], target: int) -> None:
    """One deletion pass: a stage that rewrites, each in its own disk, the
    ``regions`` whose interior carries ``target``."""
    run.open_stage()
    for _, region in sorted(regions.items()):
        if target in {run.gamma[e] for e in _region_interior_arcs(run.builder, region)}:
            run.open_disk(c for row in region.grid for c in row)
            _rewrite_region(run, region, target)
    if not run.stages[-1][1]:
        raise NoApplicableMoveError(
            f"color {target} does not appear in any rewritable region interior")


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
            _span(run, region, clean_step, 1 - clean_step, True)
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
        for one in ones:
            _span(run, region, mover, one, False)
        return
    raise NoApplicableMoveError(f"no rewrite available for color {target} here")


def _toggle_verified(run: _Run, region: Region, y_state: int) -> list[int]:
    """Toggle the over pair between states 0 and 2; returns the met colors after.

    The pair meets a full twist before the region and its inverse after it
    (a twisted ``_span``).  A twist of sign s shifts a pair's state by -2s,
    so state 2 needs a positive twist to drop to 0 and state 0 a negative
    one to rise to 2.  The twist's sign is fixed by which line is pushed
    over the other and by the side each line lies on of their travel
    direction; the under strands cross the over lines from the side the
    region's sign gives, so that sign fixes the sides.  Pushing line 0 over
    line 1 gives sign -base_sign, line 1 over line 0 gives +base_sign: flip
    exactly when base_sign * (y_state - 1) > 0.  The met colors after must
    stay in 0..3; a wrong handedness would drive the pair to (4,5) or (-2,-1).
    """
    x_step, y_step = (1, 0) if region.base_sign * (y_state - 1) > 0 else (0, 1)
    _span(run, region, x_step, y_step, True, twist=True)
    met_now = _region_met_colors(run, region)
    if not all(0 <= c <= 3 for c in met_now):
        raise NoApplicableMoveError(f"toggle drove the pair to {met_now}")
    return met_now
