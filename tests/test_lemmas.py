"""Lemmas that ``src/`` docstrings state, checked as properties on inputs
beyond the golden grids.

A property checks the lemma's conclusion as stated; a refusal on an input
that meets its hypotheses fails it, unless the property's docstring names
the recorded refusal class it still accepts.
"""

import random

from hypothesis import HealthCheck, example, given, note, settings
from hypothesis import strategies as st

from conftest import balanced_random_knot, chained
from zcolor.coloring import is_simple, palette, verify_coloring
from zcolor.diagram import parse_pd, serialize_pd
from zcolor.generate import diff_chain
from zcolor.moves import verify_local_equivalence
from zcolor.parallel_coloring import color_two_parallel, delete_color_moves
from zcolor.rewrite import RewriteError

# writhe-0 knot diagrams of up to 14 crossings
WRITHE0_KNOTS = st.builds(
    lambda seed, n_ops: balanced_random_knot(random.Random(seed), n_ops),
    st.integers(0, 2**32 - 1), st.integers(0, 6),
).filter(lambda d: len(d.crossings) <= 14)

# non-constant diff chains: 2-4 bights colored 1..6, 0-2 kinks after each
DIFF_CHAINS = st.tuples(
    st.lists(st.integers(1, 6), min_size=2, max_size=4).filter(lambda c: len(set(c)) > 1),
    st.integers(0, 2),
)

TWO_KINK_UNKNOT = parse_pd("% component: 1 2 3 4\nX[1,1,2,4] X[2,3,3,4]\n")


@settings(max_examples=100, deadline=None)
@given(WRITHE0_KNOTS)
@example(TWO_KINK_UNKNOT)
def test_deletion_reaches_four_colors(base):
    """``parallel_coloring``: on the 2-parallel of a writhe-0 knot, the 4
    and -1 passes together reach exactly {0,1,2,3}, with a simple coloring
    of diff 1 that verifies and traces that replay to the result."""
    note(serialize_pd(base))
    cabled, gamma = color_two_parallel(base)
    reduced, coloring, traces = delete_color_moves(cabled, gamma)
    assert palette(coloring)[0] == {0, 1, 2, 3}
    assert is_simple(reduced, coloring) == (True, 1)
    assert verify_coloring(reduced, coloring)
    report = verify_local_equivalence(cabled, reduced, chained(traces))
    assert report.ok, report.reasons


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
