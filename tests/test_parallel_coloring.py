import re

import pytest

from conftest import (
    balanced_random_knot,
    chained,
    checked_diffs,
    propagate_region,
    seeded_rng,
    standard_pattern,
)
from zcolor import parallel_coloring as pc
from zcolor.cabling import CableError, CableSpec, parallel
from zcolor.coloring import is_simple, palette, verify_coloring
from zcolor.diagram import Diagram, parse_pd, validate
from zcolor.moves import verify_local_equivalence
from zcolor.parallel_coloring import (
    ConstructionError,
    NoApplicableMoveError,
    color_parallel,
    delete_color_moves,
    plan_drift_twists,
)

HOPF = parse_pd("X[4,1,3,2] X[2,3,1,4]")
TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
SPLIT = parse_pd("X[1,1,2,2] X[3,3,4,4]")


def structural(d):
    return [x for x in validate(d) if "canonical" not in x]


# -- patterns and propagation ---------------------------------------------------


def test_boundary_pattern():
    """The copies of every base arc enter its grid in the standard pattern
    of their component's width."""
    assert standard_pattern(4) == (0, 1, 1, 0)
    assert standard_pattern(6) == (0, 0, 1, 1, 0, 0)
    for mult in ((4, 4), (6, 6), (4, 6), (8, 4)):
        _, gamma, st = color_parallel(HOPF, mult)
        for k, cyc in enumerate(HOPF.components):
            for e in cyc:
                entering = tuple(gamma[st.copy_edges[e, c]] for c in range(1, mult[k] + 1))
                assert entering == standard_pattern(mult[k]), (mult, e)


def test_propagate_region_examples():
    assert propagate_region((0, 1, 1, 0), 0).interior == ((0, 2, 0, 0),)
    assert propagate_region((0, 1, 1, 0), 1).interior == ((-1, 3, -1, 1),)
    rc = propagate_region((0, 0, 1, 1, 0, 0), 1)
    assert rc.interior == ((-1, 1, 1, 1, -1, 1),)
    assert rc.under_out == (1,)


def test_telescoping_all_patterns():
    for k in (4, 6, 8, 10):
        over = standard_pattern(k)
        for u in range(-10, 11):
            assert propagate_region(over, u).under_out == (u,)


def test_region_palettes_match_construction():
    vals_4m = set()
    for u in (0, 1):
        vals_4m |= set(propagate_region((0, 1, 1, 0), u).interior[0]) | {u}
    assert vals_4m == {-1, 0, 1, 2, 3}
    vals_4m2 = set()
    for u in (0, 1):
        vals_4m2 |= set(propagate_region((0, 0, 1, 1, 0, 0), u).interior[0]) | {u}
    assert vals_4m2 == {-1, 0, 1, 2}


# -- even parallels ----------------------------------------------------------------


@pytest.mark.parametrize("mult,allowed", [
    ((4, 4), {-1, 0, 1, 2, 3}),
    ((6, 6), {-1, 0, 1, 2}),
    ((4, 6), {-1, 0, 1, 2, 3}),
])
def test_color_even_parallel_hopf(mult, allowed):
    cabled, gamma, _ = color_parallel(HOPF, mult)
    assert verify_coloring(cabled, gamma)
    values, _ = palette(gamma)
    assert values <= allowed
    assert len(values) > 1


def test_color_even_parallel_trefoil4():
    cabled, gamma, _ = color_parallel(TREFOIL, (4,))
    assert verify_coloring(cabled, gamma)
    assert palette(gamma)[0] <= {-1, 0, 1, 2, 3}


def test_even_parallel_rejects_split_base():
    """A split base is refused by the split check, at widths with a 2 as
    at widths of at least 4."""
    for mult in ((4, 4), (2, 2), (2, 4)):
        with pytest.raises(ConstructionError, match="^base diagram must be non-split$"):
            color_parallel(SPLIT, mult)


@pytest.mark.parametrize("base,mult,error,message", [
    pytest.param(TREFOIL, (3,), ConstructionError,
                 "all multiplicities must be even", id="trefoil-3"),
    pytest.param(TREFOIL, (2,), ConstructionError,
                 "writhe is -3; the construction needs writhe 0", id="trefoil-2"),
    pytest.param(TREFOIL, (4, 4), CableError, "need 1 multiplicities, got 2", id="trefoil-4,4"),
    pytest.param(HOPF, (4,), CableError, "need 2 multiplicities, got 1", id="hopf-4"),
    pytest.param(HOPF, (2,), ConstructionError, "needs a one-component knot diagram",
                 id="hopf-2"),
    pytest.param(HOPF, (2, 3), ConstructionError,
                 "all multiplicities must be even", id="hopf-2,3"),
    pytest.param(HOPF, (0, 2), CableError, "multiplicities must be positive", id="hopf-0,2"),
    pytest.param(SPLIT, (4, 4), ConstructionError, "base diagram must be non-split",
                 id="split-4,4"),
])
def test_color_parallel_refusals(base, mult, error, message):
    """Widths the base cannot take, odd widths, a 2-parallel of a link or
    of a knot of nonzero writhe, and a split base, each refused with its
    own exception type and message."""
    with pytest.raises(error) as info:
        color_parallel(base, mult)
    assert type(info.value) is error and str(info.value) == message


def test_delete_color_3():
    cabled, gamma, st = color_parallel(HOPF, (4, 4))
    out_d, out_g, traces = delete_color_moves(cabled, gamma, st)
    assert verify_coloring(out_d, out_g)
    assert palette(out_g)[0] == {-1, 0, 1, 2}
    assert is_simple(out_d, out_g) == (True, 1)
    assert len(traces) == 1
    assert verify_local_equivalence(cabled, out_d, traces[0]).ok
    assert structural(out_d) == []


def test_a_width_2_mod_4_parallel_runs_no_pass():
    """Its coloring lacks 3, so it comes back as it was, with no trace."""
    cabled, gamma, st = color_parallel(HOPF, (6, 6))
    out_d, out_g, traces = delete_color_moves(cabled, gamma, st)
    assert out_d is cabled and out_g is gamma and traces == []


def test_a_width_4_parallel_refuses_colors_without_a_rewrite(corpus):
    """The figure8 (4) coloring uses -1..3; the move library has a rewrite
    for its color-3 regions only, and a pass refuses every other color by
    name."""
    cabled, gamma, st = color_parallel(corpus["figure8"], (4,))
    assert palette(gamma)[0] == {-1, 0, 1, 2, 3}
    for target in (2, 0, -1, 1):
        with pytest.raises(NoApplicableMoveError,
                           match=f"^no rewrite available for color {target} here$"):
            pc._delete_color(pc._Run(cabled, gamma), st.regions, target)


def test_a_reduction_that_misses_its_palette_is_refused(corpus, monkeypatch, count_calls):
    """The palette is checked once, after every pass and before the one
    build; passes that leave a color behind are refused, naming the palette
    they reached and the one they had to reach."""
    monkeypatch.setattr(pc, "_rewrite_region", lambda run, region, target: None)
    colored = [color_parallel(HOPF, (4, 4)), color_parallel(corpus["unknot_writhe0"], (2,))]
    builds = count_calls(Diagram, "__init__")
    for (d, gamma, st), want in zip(colored, ([-1, 0, 1, 2], [0, 1, 2, 3])):
        reached = sorted(set(gamma.values()))
        with pytest.raises(NoApplicableMoveError,
                           match=rf"^deletion reached palette {re.escape(str(reached))}, "
                                 rf"not {re.escape(str(want))}$"):
            delete_color_moves(d, gamma, st)
    assert builds == []


# -- 2-parallels --------------------------------------------------------------------


def test_plan_drift_twists_balanced(corpus):
    d = corpus["unknot_writhe0"]
    assert plan_drift_twists(d) == []  # signs alternate
    t0 = corpus["trefoil_writhe0"]
    plan = plan_drift_twists(t0)
    assert sum(s for _, s in plan) == 0


def test_color_two_parallel_unknot(corpus):
    cabled, gamma, _ = color_parallel(corpus["unknot_writhe0"], (2,))
    assert verify_coloring(cabled, gamma)
    assert palette(gamma)[0] <= {-1, 0, 1, 2, 3, 4}


def test_color_two_parallel_rejects_nonzero_writhe():
    with pytest.raises(ConstructionError):
        color_parallel(TREFOIL, (2,))


def test_two_parallel_reduction_pipeline(corpus):
    for name in ("unknot_writhe0", "trefoil_writhe0"):
        cabled, gamma, st = color_parallel(corpus[name], (2,))
        cur_d, cur_g, traces = delete_color_moves(cabled, gamma, st)
        assert verify_local_equivalence(cabled, cur_d, chained(traces)).ok, name
        assert palette(cur_g)[0] == {0, 1, 2, 3}, name
        assert is_simple(cur_d, cur_g) == (True, 1), name
        assert structural(cur_d) == [], name


def test_deletion_traces_have_disjoint_disks():
    _, _, traces = delete_color_moves(*color_parallel(HOPF, (4, 4)))
    for stage in chained(traces).stages:
        ids = sorted(stage.disks)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                assert not (stage.disks[a] & stage.disks[b])


def test_two_parallel_pipeline_on_random_writhe0_diagrams():
    """The full pipeline holds on arbitrary writhe-0 bases, twists included."""

    rng = seeded_rng(7)
    for trial in range(8):
        base = balanced_random_knot(rng, n_ops=2 + trial % 5)
        cabled, gamma, st = color_parallel(base, (2,))
        assert verify_coloring(cabled, gamma), trial
        assert palette(gamma)[0] <= {-1, 0, 1, 2, 3, 4}, trial
        cur_d, cur_g, traces = delete_color_moves(cabled, gamma, st)
        assert verify_local_equivalence(cabled, cur_d, chained(traces)).ok, trial
        assert palette(cur_g)[0] == {0, 1, 2, 3}, trial
        assert is_simple(cur_d, cur_g) == (True, 1), trial


def test_two_parallel_with_same_sign_adjacent_underpasses():
    """Regression: consecutive same-sign underpasses need drift twists with
    the raising/lowering sense matched to the crossing sign."""
    base = parse_pd("X[7,1,8,8] X[3,4,4,5] X[1,2,2,3] X[6,6,7,5]")
    plan = plan_drift_twists(base)
    assert len(plan) == 2
    assert sum(s for _, s in plan) == 0
    cabled, gamma, st = color_parallel(base, (2,))
    assert verify_coloring(cabled, gamma)
    assert palette(gamma)[0] <= {-1, 0, 1, 2, 3, 4}
    cur_d, cur_g, _ = delete_color_moves(cabled, gamma, st)
    assert palette(cur_g)[0] == {0, 1, 2, 3}
    assert is_simple(cur_d, cur_g) == (True, 1)


def test_even_parallel_pipeline_on_random_bases():
    """Boundary-pattern coloring and 3-deletion hold for arbitrary bases."""
    from zcolor.generate import random_knot_diagram

    rng = seeded_rng(21)
    for trial in range(6):
        base = random_knot_diagram(rng, n_ops=1 + trial % 4)
        cabled, gamma, st = color_parallel(base, (4,))
        assert verify_coloring(cabled, gamma), trial
        cur_d, cur_g, traces = delete_color_moves(cabled, gamma, st)
        assert verify_local_equivalence(cabled, cur_d, chained(traces)).ok, trial
        assert palette(cur_g)[0] == {-1, 0, 1, 2}, trial
        assert is_simple(cur_d, cur_g) == (True, 1), trial


def _toggle_bases(corpus):
    """Writhe-0 bases whose 2-parallels toggle regions in both deletion passes."""

    rng = seeded_rng(7)
    bases = [corpus["unknot_writhe0"], corpus["trefoil_writhe0"]]
    return bases + [balanced_random_knot(rng, n_ops=2 + trial % 5) for trial in range(8)]


def test_each_toggled_region_is_conjugated_once(corpus, monkeypatch):
    """The twist handedness is read from the region, never found by retrying.

    Over the 2-parallel reduce cases and the random writhe-0 bases above,
    every deletion pass (one stage of the reduction's run) conjugates each
    region it toggles exactly once, and the 4-pass toggles exactly the
    regions whose interior carries 4.
    """
    span = pc._span
    toggles = []

    def recording(run, region, push_step, across_step, push_over, twist=False):
        if twist:
            toggles.append((len(run.stages), region))
        return span(run, region, push_step, across_step, push_over, twist)

    monkeypatch.setattr(pc, "_span", recording)
    toggled = 0
    for i, base in enumerate(_toggle_bases(corpus)):
        cabled, gamma, st = color_parallel(base, (2,))
        regions = st.regions
        carrying_4 = {cid for cid, region in regions.items()
                      if 4 in {gamma[e] for e in pc._region_interior_arcs(cabled, region)}}
        toggles.clear()
        _, out_g, traces = delete_color_moves(cabled, gamma, st)
        base_cid = {id(region): cid for cid, region in regions.items()}
        targets = [4, -1] if 4 in gamma.values() else [-1]
        for stage, target in enumerate(targets[:len(traces)], 1):
            calls = [base_cid[id(region)] for at, region in toggles if at == stage]
            assert len(calls) == len(set(calls)), (i, target, calls)
            assert target != 4 or set(calls) == carrying_4, (i, calls)
            toggled += len(calls)
        assert palette(out_g)[0] == {0, 1, 2, 3}, i
    assert toggled > 0


def test_a_reduction_builds_one_diagram_and_verifies_once(corpus, count_calls):
    """Regions are recolored on the move builder, never on a built diagram.

    A reduction builds its result once, however many passes it runs and
    regions it rewrites; the trace check compares the replay with it row
    by row and builds none.  The input and output colorings are verified
    once each, and the whole trace once.
    """
    import zcolor.coloring as coloring

    colored = [color_parallel(base, (2,)) for base in _toggle_bases(corpus)]
    builds = count_calls(Diagram, "__init__")
    verifications = count_calls(pc, "verify_local_equivalence")
    colorings = count_calls(coloring, "verify_coloring")
    outputs = count_calls(pc, "verify_coloring")
    most_regions = both_passes = 0
    for i, (cabled, gamma, st) in enumerate(colored):
        for calls in (builds, verifications, colorings, outputs):
            calls.clear()
        _, _, traces = delete_color_moves(cabled, gamma, st)
        assert len(builds) == 1, (i, len(builds))
        assert len(verifications) == 1, i
        assert len(colorings) + len(outputs) == 2 and outputs[0][0] is cabled, i
        both_passes += len(traces) == 2
        most_regions = max([most_regions] + [len(t.stages[0].disks) for t in traces])
    assert most_regions >= 3 and both_passes >= 1


def test_the_run_keeps_the_coloring_current_after_every_move(corpus, monkeypatch):
    """After every move a run applies, its coloring colors exactly the
    builder's arcs and satisfies every crossing relation of the builder's
    rows, read by the independent ``checked_diffs``.  On a simplification
    run the diffs and per-diff crossings are those rows' too; a deletion
    run keeps none.

    Covers a 3-deletion, whose reroute pushes lines under, both passes of a
    toggled 2-parallel, two diff chains and the trefoil (6) witness: bigons
    pushed over and under, and R3 slides.
    """
    from zcolor import rewrite
    from zcolor.algebra import is_z_colorable
    from zcolor.generate import diff_chain
    from zcolor.rewrite import to_simple_coloring

    kinds, rediffed, spans = [], [], []
    apply, rediff, span = pc._Run.apply, rewrite._Simplification.apply, pc._span

    def checking(run, move):
        report = apply(run, move)
        rows = run.builder.rows
        assert set(run.gamma) == {e for row in rows.values() for e in row}, move
        checked_diffs(rows, run.gamma)
        kinds.append((move.kind, getattr(move, "push_over", None)))
        return report

    def checking_diffs(run, move):
        report = rediff(run, move)
        diffs = checked_diffs(run.builder.rows, run.gamma)
        assert run.diffs == diffs, move
        assert run.at_diff == {v: {c for c, e in diffs.items() if e == v}
                               for v in set(diffs.values())}, move
        rediffed.append(move)
        return report

    def recording(run, region, push_step, across_step, push_over, twist=False):
        spans.append((push_over, twist))
        return span(run, region, push_step, across_step, push_over, twist)

    monkeypatch.setattr(pc._Run, "apply", checking)
    monkeypatch.setattr(rewrite._Simplification, "apply", checking_diffs)
    monkeypatch.setattr(pc, "_span", recording)
    delete_color_moves(*color_parallel(corpus["hopf"], (4, 4)))
    # a reroute spans with the mover pushed under, a toggle with a twist
    assert any(not over for over, _ in spans) and ("R2+", False) in kinds
    assert len(delete_color_moves(*color_parallel(corpus["unknot_writhe0"], (2,)))[2]) == 2
    assert any(twist for _, twist in spans)
    for colors, kinks in (((2, 1), 1), ((4, 2, 1), 1)):
        to_simple_coloring(*diff_chain(colors, kinks))
    cabled = parallel(corpus["trefoil"], CableSpec(multiplicities=(6,)))
    to_simple_coloring(cabled, is_z_colorable(cabled)[1])
    assert set(kinds) == {("R2+", True), ("R2+", False), ("R3", None)}
    assert len(kinds) > 200 and len(rediffed) > 100


def test_a_two_parallel_builds_two_diagrams_however_many_twists(count_calls):
    """The parallel and its twisted form: every drift twist goes on one builder."""
    rng = seeded_rng(11)
    bases = [balanced_random_knot(rng, n_ops=3 + trial) for trial in range(6)]
    builds = count_calls(Diagram, "__init__")
    most_twists = 0
    for i, base in enumerate(bases):
        builds.clear()
        cabled, _, _ = color_parallel(base, (2,))
        twists = (len(cabled.rows) - 4 * len(base.rows)) // 2
        most_twists = max(most_twists, twists)
        assert len(builds) <= 2, (i, twists, len(builds))
    assert most_twists >= 4
