"""Lemmas that ``src/`` docstrings state, checked as properties on inputs
beyond the golden grids.

A property checks the lemma's conclusion as stated; a refusal on an input
that meets its hypotheses fails it.
"""

import random

from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from conftest import balanced_random_knot, chained
from zcolor.coloring import is_simple, palette, verify_coloring
from zcolor.diagram import parse_pd, serialize_pd
from zcolor.moves import verify_local_equivalence
from zcolor.parallel_coloring import color_two_parallel, delete_color_moves

# writhe-0 knot diagrams of up to 14 crossings
WRITHE0_KNOTS = st.builds(
    lambda seed, n_ops: balanced_random_knot(random.Random(seed), n_ops),
    st.integers(0, 2**32 - 1), st.integers(0, 6),
).filter(lambda d: len(d.crossings) <= 14)

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
