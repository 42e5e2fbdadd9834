"""Scaling gates on counts of work, not on the clock.

Wall time moves with the machine; counts of the work a run does are exact.
Each test runs a fixed ladder of growing inputs and bounds the log-log
slope of a count against the input size.
"""

import math

from zcolor import moves, parallel_coloring, rewrite
from zcolor.algebra import is_z_colorable
from zcolor.cabling import CableSpec, parallel
from zcolor.generate import diff_chain
from zcolor.moves import DiagramBuilder
from zcolor.parallel_coloring import color_parallel, delete_color_moves


def loglog_slope(points) -> float:
    """The least-squares slope of log(count) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(count) for _, count in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def test_path_search_grows_with_the_stages(corpus, count_calls):
    """Simplifying the trefoil (6), (8), (10) and (12) witnesses (108 to 432
    crossings, 48 to 300 stages): ``DiagramBuilder.incident`` lookups, which
    only the path searches make, plus path searches opened or redone grow
    with slope at most 1.45 against the crossings (549 to 3,945, slope
    1.42); stages alone grow with slope 1.32.  A search kept between the
    rounds of a level costs nothing until a move changes what it read;
    searching afresh every round gave slope 2.59."""
    lookups = count_calls(DiagramBuilder, "incident")
    searches = count_calls(rewrite._Search, "__init__")
    points = []
    for n in (6, 8, 10, 12):
        cabled = parallel(corpus["trefoil"], CableSpec(multiplicities=(n,)))
        witness = is_z_colorable(cabled)[1]
        lookups.clear()
        searches.clear()
        rewrite.to_simple_coloring(cabled, witness)
        points.append((len(cabled.crossings), len(lookups) + len(searches)))
    assert loglog_slope(points) <= 1.45, points


def test_finger_verdicts_grow_with_the_stages(count_calls):
    """Simplifying the [k, 2k - 1] chains with one kink, k = 5 to 8 (154 to
    2,206 stages): ``_finger_variant`` calls grow with slope at most 1.1
    against the stages.  A path whose verdict failed is not tried again
    until its search is redone; trying every kept path again each round
    gave slope 1.85."""
    verdicts = count_calls(rewrite, "_finger_variant")
    points = []
    for k in (5, 6, 7, 8):
        verdicts.clear()
        stages = rewrite.to_simple_coloring(*diff_chain((k, 2 * k - 1), 1))[2].stages
        points.append((len(stages), len(verdicts)))
    assert loglog_slope(points) <= 1.1, points


def test_deletion_walks_a_bounded_face_per_move(corpus, count_calls):
    """Deleting color 3 from the (4), (8) and (12) parallels of figure8 (64
    to 576 crossings, 40 to 104 moves): face-walk steps
    (``moves._next_corner`` calls) grow with slope at most 1.1 against the
    ``apply_move`` calls (646 to 1,672 steps, 16.1 per move at every width,
    slope 1.00).  Each move walks only the faces along the arcs it names."""
    steps = count_calls(moves, "_next_corner")
    applied = count_calls(parallel_coloring, "apply_move")
    points = []
    for w in (4, 8, 12):
        colored = color_parallel(corpus["figure8"], (w,))
        steps.clear()
        applied.clear()
        delete_color_moves(*colored)
        points.append((len(applied), len(steps)))
    assert loglog_slope(points) <= 1.1, points
