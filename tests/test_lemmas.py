"""Lemmas that ``src/`` docstrings state, checked as properties on inputs
beyond the golden grids.

A property checks the lemma's conclusion as stated; a refusal on an input
that meets its hypotheses fails it, unless the property's docstring names
the recorded refusal class it still accepts.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, note, settings
from hypothesis import strategies as st

from conftest import balanced_random_knot, chained, reference_coloring_faults
from zcolor import parallel_coloring as pc
from zcolor.algebra import determinant, is_z_colorable
from zcolor.cabling import CableSpec, parallel
from zcolor.coloring import is_simple, palette, verify_coloring
from zcolor.diagram import parse_pd, serialize_pd, serialize_pd_raw
from zcolor.generate import diff_chain
from zcolor.moves import R3, verify_local_equivalence
from zcolor.jsonio import coloring_to_json
from zcolor.parallel_coloring import color_parallel, delete_color_moves
from zcolor.rewrite import RewriteError, to_simple_coloring

# writhe-0 knot diagrams of up to 14 crossings
WRITHE0_KNOTS = st.builds(
    lambda seed, n_ops: balanced_random_knot(random.Random(seed), n_ops),
    st.integers(0, 2**32 - 1), st.integers(0, 6),
).filter(lambda d: len(d.crossings) <= 14)

# writhe-0 knot diagrams from 2 to 8 random operations
TOGGLE_KNOTS = st.builds(
    lambda seed, n_ops: balanced_random_knot(random.Random(seed), n_ops),
    st.integers(0, 2**32 - 1), st.integers(2, 8),
)

# writhe-0 knot diagrams from 2 to 10 random operations
SEEDED_KNOTS = st.builds(
    lambda seed, n_ops: balanced_random_knot(random.Random(seed), n_ops),
    st.integers(0, 2**32 - 1), st.integers(2, 10),
)

# non-constant diff chains: 2-4 bights colored 1..6, 0-2 kinks after each
DIFF_CHAINS = st.tuples(
    st.lists(st.integers(1, 6), min_size=2, max_size=4).filter(lambda c: len(set(c)) > 1),
    st.integers(0, 2),
)

TWO_KINK_UNKNOT = parse_pd("% component: 1 2 3 4\nX[1,1,2,4] X[2,3,3,4]\n")
HOPF = parse_pd("X[4,1,3,2] X[2,3,1,4]")

# links: hopf, or a diff chain of 2-4 bights colored 1..4 with 0-2 kinks
# after each, whose bights are components of their own
LINKS = st.one_of(
    st.just(HOPF),
    st.builds(lambda colors, kinks: diff_chain(colors, kinks)[0],
              st.lists(st.integers(1, 4), min_size=2, max_size=4), st.integers(0, 2)),
)


@st.composite
def even_link_parallels(draw):
    """A link and a multiplicity from {4, 6} for each of its components."""
    link = draw(LINKS)
    widths = draw(st.lists(st.sampled_from((4, 6)), min_size=len(link.components),
                           max_size=len(link.components)))
    return link, tuple(widths)


@st.composite
def width_two_link_parallels(draw):
    """A link and a multiplicity from {2, 4, 6} for each of its components,
    at least one of them 2."""
    link = draw(LINKS)
    widths = draw(st.lists(st.sampled_from((2, 4, 6)), min_size=len(link.components),
                           max_size=len(link.components)).filter(lambda w: 2 in w))
    return link, tuple(widths)


@settings(max_examples=100, deadline=None)
@given(WRITHE0_KNOTS)
@example(TWO_KINK_UNKNOT)
def test_deletion_reaches_four_colors(base):
    """``parallel_coloring``: on the 2-parallel of a writhe-0 knot, the 4
    and -1 passes together reach exactly {0,1,2,3}, with a simple coloring
    of diff 1 that verifies and traces that replay to the result."""
    note(serialize_pd(base))
    cabled, gamma, structure = color_parallel(base, (2,))
    reduced, coloring, traces = delete_color_moves(cabled, gamma, structure)
    assert palette(coloring)[0] == {0, 1, 2, 3}
    assert is_simple(reduced, coloring) == (True, 1)
    assert verify_coloring(reduced, coloring)
    report = verify_local_equivalence(cabled, reduced, chained(traces))
    assert report.ok, report.reasons


@settings(max_examples=200, deadline=None)
@given(SEEDED_KNOTS)
@example(TWO_KINK_UNKNOT)
def test_two_parallel_pairs_enter_in_a_seeded_state(base):
    """``parallel_coloring._color_two_parallel``: on the 2-parallel of a
    writhe-0 knot, every parallel pair the structure names, twist arcs
    included, is colored (s, s+1) with s in {0, 2}; the palette is inside
    -1..4; and the coloring has no fault under the reference reader."""
    note(serialize_pd(base))
    cabled, gamma, structure = color_parallel(base, (2,))
    for e in {e for e, _ in structure.copy_edges}:
        s = gamma[structure.copy_edges[e, 1]]
        assert s in (0, 2) and gamma[structure.copy_edges[e, 2]] == s + 1, e
    assert palette(gamma)[0] <= set(range(-1, 5))
    assert reference_coloring_faults(serialize_pd_raw(cabled), coloring_to_json(gamma)) == []


@settings(max_examples=100, deadline=None)
@given(TOGGLE_KNOTS)
@example(TWO_KINK_UNKNOT)
def test_a_twisted_span_toggles_the_over_pair(base):
    """``parallel_coloring._toggle_verified``: on the 2-parallel of a
    writhe-0 knot, every region that a twisted span conjugates has its over
    pair met as {y, y+1} before, with y in {0, 2}, and as {2-y, 3-y} after:
    the handedness read off ``base_sign * (y_state - 1)`` moves the pair
    to the other state, never to (4,5) or (-2,-1).  A refusal fails it."""
    note(serialize_pd(base))
    span, toggles = pc._span, []

    def recording(run, region, push_step, across_step, push_over, twist=False):
        before = pc._region_met_colors(run, region)
        span(run, region, push_step, across_step, push_over, twist)
        if twist:
            toggles.append((before, pc._region_met_colors(run, region)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pc, "_span", recording)
        delete_color_moves(*color_parallel(base, (2,)))
    note(f"{len(toggles)} toggles")
    for before, after in toggles:
        y = min(before)
        assert y in (0, 2) and sorted(before) == [y, y + 1], before
        assert sorted(after) == [2 - y, 3 - y], (before, after)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(DIFF_CHAINS)
@example(((3, 1, 2), 1))
@example(((2, 6, 1), 2))  # at D = 4, a finger slide unchecked for its diffs grows 6 and 8
@example(((4, 1), 0))     # refused at D = 2: no finger variant keeps the diffs allowed
def test_elimination_grows_no_diff_outside_the_lemma(stage_recorder, chain):
    """``rewrite``: every stage grows no diff outside {0, existing below D,
    |D-d|, |D-2d|} and removes its target's D, every level removes D, and D
    strictly decreases from level to level (``StageRecorder.check_lemma``);
    the result is a simple coloring that verifies, with a trace that
    replays to it, or a ``RewriteError``.

    It stops short of "ends simple": the first round of each level tries
    only the first diff path, which refuses inputs that the lemma covers
    (ROADMAP item 5(b)).  The recorder is reset by each ``simplify``, so
    the function-scoped fixture serves every example.
    """
    colors, kinks = chain
    d, g = diff_chain(colors, kinks)
    try:
        out_d, out_g, trace = stage_recorder.simplify(d, g)
    except RewriteError as err:
        note(f"refused: {err}")
        stage_recorder.check_lemma(finished=False)
        return
    stage_recorder.check_lemma()
    assert is_simple(out_d, out_g)[0]
    assert verify_coloring(out_d, out_g)
    report = verify_local_equivalence(d, out_d, trace)
    assert report.ok, report.reasons


@settings(max_examples=100, deadline=None)
@given(even_link_parallels())
@example((HOPF, (4, 6)))
def test_even_parallels_of_links_are_four_colored(case):
    """The paper's parallel theorem at even multiplicities, on links: a
    parallel whose multiplicities, one per component, are even and at least
    4 has determinant 0, and ``color_parallel`` colors it, checked by
    ``verify_coloring``, inside -1..3, and inside -1..2 when every width is
    2 mod 4.  Widths with a 2 are the next property's; four colors with no
    move at these widths is open (ROADMAP item 21, step 2)."""
    link, widths = case
    note(f"{serialize_pd(link)} {widths}")
    cabled, gamma, _ = color_parallel(link, widths)
    assert determinant(cabled) == 0
    assert verify_coloring(cabled, gamma)
    allowed = set(range(-1, 4)) if any(n % 4 == 0 for n in widths) else set(range(-1, 3))
    assert palette(gamma)[0] <= allowed


@settings(max_examples=60, deadline=None)
@given(width_two_link_parallels())
@example((HOPF, (2, 2)))
@example((HOPF, (2, 6)))
def test_width_two_parallels_of_links_are_four_colored(case):
    """``parallel_coloring``'s third rule: a parallel of a link whose
    widths are even, one of them 2, has determinant 0, and
    ``color_parallel`` colors it, every copy of the first component 1 and
    of the others 2 where they enter, with a simple coloring of diff 1
    that verifies, read both by ``verify_coloring`` and by the reference
    reader.  Its palette is exactly {0,1,2,3} on hopf and inside it on
    diff chains, so ``delete_color_moves`` runs no pass and returns its
    input with no trace."""
    link, widths = case
    note(f"{serialize_pd(link)} {widths}")
    cabled, gamma, structure = color_parallel(link, widths)
    assert determinant(cabled) == 0
    assert verify_coloring(cabled, gamma)
    assert reference_coloring_faults(serialize_pd_raw(cabled), coloring_to_json(gamma)) == []
    assert is_simple(cabled, gamma) == (True, 1)
    if link is HOPF:
        assert palette(gamma)[0] == {0, 1, 2, 3}
    else:
        assert palette(gamma)[0] <= {0, 1, 2, 3}
    reduced, coloring, traces = delete_color_moves(cabled, gamma, structure)
    assert reduced is cabled and coloring is gamma and traces == []


def test_crossing_rule_recoloring_matches_propagation(corpus, monkeypatch):
    """``parallel_coloring._Run.apply``: after every move, the run's
    coloring is what propagation gives when every arc but those the move
    reports (an R2 bigon's four new arcs, the three sides of an R3
    triangle) keeps its color from before the move.  Covers the deletion
    passes on the corpus parallels and simplification of diff chains and
    of the trefoil (6) witness: bigons pushed over and under, and R3
    slides."""
    apply = pc._Run.apply
    kinds = Counter()

    def checking(run, move):
        before = dict(run.gamma)
        report = apply(run, move)
        builder = run.builder
        if isinstance(move, R3):
            corners = map(builder.corner_slot, report["triangle"])
            fresh = {builder.rows[cid][j % 4] for cid, i in corners for j in (i, i + 1)}
        else:
            fresh = set(report["arcs"])
        seeds = {e: before[e] for e in run.gamma if e not in fresh}
        assert pc.propagate_coloring(builder.rows, seeds) == run.gamma, move
        kinds[move.kind, getattr(move, "push_over", None)] += 1
        return report

    monkeypatch.setattr(pc._Run, "apply", checking)
    for name, widths in (("hopf", (4, 4)), ("trefoil", (4,)), ("figure8", (4,)),
                         ("unknot_writhe0", (2,)), ("trefoil_writhe0", (2,))):
        delete_color_moves(*color_parallel(corpus[name], widths))
    for colors, kinks in (((2, 1), 1), ((3, 1, 2), 1), ((4, 2, 1), 1), ((2, 6, 1), 2)):
        to_simple_coloring(*diff_chain(colors, kinks))
    cabled = parallel(corpus["trefoil"], CableSpec(multiplicities=(6,)))
    to_simple_coloring(cabled, is_z_colorable(cabled)[1])
    assert set(kinds) == {("R2+", True), ("R2+", False), ("R3", None)}, kinds
