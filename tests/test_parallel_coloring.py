import re

import pytest

from conftest import balanced_random_knot, chained, checked_diffs, propagate_region, seeded_rng
from zcolor import parallel_coloring as pc
from zcolor.cabling import CableSpec, parallel
from zcolor.coloring import is_simple, palette, verify_coloring
from zcolor.diagram import parse_pd, validate
from zcolor.moves import verify_local_equivalence
from zcolor.parallel_coloring import (
    BoundaryPattern,
    ConstructionError,
    NoApplicableMoveError,
    color_even_parallel,
    color_two_parallel,
    delete_color_moves,
    plan_drift_twists,
)

HOPF = parse_pd("X[4,1,3,2] X[2,3,1,4]")
TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")


def structural(d):
    return [x for x in validate(d) if "canonical" not in x]


# -- patterns and propagation ---------------------------------------------------


def test_boundary_pattern():
    p = BoundaryPattern.standard(4)
    assert p.colors == (0, 1, 1, 0)
    p6 = BoundaryPattern.standard(6)
    assert p6.colors == (0, 0, 1, 1, 0, 0)
    with pytest.raises(ConstructionError):
        BoundaryPattern.standard(3)


def test_propagate_region_examples():
    assert propagate_region((0, 1, 1, 0), 0).interior == ((0, 2, 0, 0),)
    assert propagate_region((0, 1, 1, 0), 1).interior == ((-1, 3, -1, 1),)
    rc = propagate_region((0, 0, 1, 1, 0, 0), 1)
    assert rc.interior == ((-1, 1, 1, 1, -1, 1),)
    assert rc.under_out == (1,)


def test_telescoping_all_patterns():
    for k in (4, 6, 8, 10):
        over = BoundaryPattern.standard(k).colors
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
    cabled = parallel(HOPF, CableSpec(multiplicities=mult))
    gamma = color_even_parallel(cabled)
    assert verify_coloring(cabled, gamma)
    values, _ = palette(gamma)
    assert values <= allowed
    assert len(values) > 1


def test_color_even_parallel_trefoil4():
    cabled = parallel(TREFOIL, CableSpec(multiplicities=(4,)))
    gamma = color_even_parallel(cabled)
    assert verify_coloring(cabled, gamma)
    assert palette(gamma)[0] <= {-1, 0, 1, 2, 3}


def test_even_parallel_rejects_odd_or_small():
    with pytest.raises(ConstructionError):
        color_even_parallel(parallel(TREFOIL, CableSpec(multiplicities=(3,))))
    with pytest.raises(ConstructionError):
        color_even_parallel(parallel(TREFOIL, CableSpec(multiplicities=(2,))))


def test_even_parallel_rejects_split_base():
    split = parse_pd("X[1,1,2,2] X[3,3,4,4]")
    cabled = parallel(split, CableSpec(multiplicities=(4, 4)))
    with pytest.raises(ConstructionError):
        color_even_parallel(cabled)


def test_canonical_relabels_the_cable_structure(corpus):
    """canonical() carries copy_edges through the relabelling."""
    from zcolor.diagram import canonical

    cabled = parallel(corpus["figure8"], CableSpec((4,)))
    canon, mapping = canonical(cabled)
    assert canon.cable.copy_edges == {k: mapping[e] for k, e in cabled.cable.copy_edges.items()}
    gamma = color_even_parallel(canon)
    assert verify_coloring(canon, gamma)
    assert gamma == {mapping[e]: c for e, c in color_even_parallel(cabled).items()}


def test_delete_color_3():
    cabled = parallel(HOPF, CableSpec(multiplicities=(4, 4)))
    gamma = color_even_parallel(cabled)
    out_d, out_g, traces = delete_color_moves(cabled, gamma)
    assert verify_coloring(out_d, out_g)
    assert palette(out_g)[0] == {-1, 0, 1, 2}
    assert is_simple(out_d, out_g) == (True, 1)
    assert len(traces) == 1
    assert verify_local_equivalence(cabled, out_d, traces[0]).ok
    assert structural(out_d) == []


def test_a_width_2_mod_4_parallel_runs_no_pass():
    """Its coloring lacks 3, so it comes back as it was, with no trace."""
    cabled = parallel(HOPF, CableSpec(multiplicities=(6, 6)))
    gamma = color_even_parallel(cabled)
    out_d, out_g, traces = delete_color_moves(cabled, gamma)
    assert out_d is cabled and out_g is gamma and traces == []


def test_a_width_4_parallel_refuses_colors_without_a_rewrite(corpus):
    """The figure8 (4) coloring uses -1..3; the move library has a rewrite
    for its color-3 regions only, and a pass refuses every other color by
    name."""
    cabled = parallel(corpus["figure8"], CableSpec(multiplicities=(4,)))
    gamma = color_even_parallel(cabled)
    assert palette(gamma)[0] == {-1, 0, 1, 2, 3}
    for target in (2, 0, -1, 1):
        with pytest.raises(NoApplicableMoveError,
                           match=f"^no rewrite available for color {target} here$"):
            pc._delete_color(pc._Run(cabled, gamma), target)


def test_a_reduction_that_misses_its_palette_is_refused(corpus, monkeypatch, count_calls):
    """The palette is checked once, after every pass and before the one
    build; passes that leave a color behind are refused, naming the palette
    they reached and the one they had to reach."""
    from zcolor.diagram import Diagram

    monkeypatch.setattr(pc, "_rewrite_region", lambda run, region, target: None)
    cabled = parallel(HOPF, CableSpec(multiplicities=(4, 4)))
    two = color_two_parallel(corpus["unknot_writhe0"])
    builds = count_calls(Diagram, "__init__")
    for (d, gamma), want in (((cabled, color_even_parallel(cabled)), [-1, 0, 1, 2]),
                             (two, [0, 1, 2, 3])):
        reached = sorted(set(gamma.values()))
        with pytest.raises(NoApplicableMoveError,
                           match=rf"^deletion reached palette {re.escape(str(reached))}, "
                                 rf"not {re.escape(str(want))}$"):
            delete_color_moves(d, gamma)
    assert builds == []


def test_delete_without_structure_is_explicit():
    """The passes are read off the cable, so a diagram without one is
    refused before any pass runs."""
    gamma = {e: 0 for e in TREFOIL.edges}
    with pytest.raises(NoApplicableMoveError,
                       match="^no cable structure: move library does not apply$"):
        delete_color_moves(TREFOIL, gamma)


# -- 2-parallels --------------------------------------------------------------------


def test_plan_drift_twists_balanced(corpus):
    d = corpus["unknot_writhe0"]
    assert plan_drift_twists(d) == []  # signs alternate
    t0 = corpus["trefoil_writhe0"]
    plan = plan_drift_twists(t0)
    assert sum(s for _, s in plan) == 0


def test_color_two_parallel_unknot(corpus):
    cabled, gamma = color_two_parallel(corpus["unknot_writhe0"])
    assert verify_coloring(cabled, gamma)
    assert palette(gamma)[0] <= {-1, 0, 1, 2, 3, 4}


def test_color_two_parallel_rejects_nonzero_writhe():
    with pytest.raises(ConstructionError):
        color_two_parallel(TREFOIL)


def test_two_parallel_reduction_pipeline(corpus):
    for name in ("unknot_writhe0", "trefoil_writhe0"):
        cabled, gamma = color_two_parallel(corpus[name])
        cur_d, cur_g, traces = delete_color_moves(cabled, gamma)
        assert verify_local_equivalence(cabled, cur_d, chained(traces)).ok, name
        assert palette(cur_g)[0] == {0, 1, 2, 3}, name
        assert is_simple(cur_d, cur_g) == (True, 1), name
        assert structural(cur_d) == [], name


def test_deletion_traces_have_disjoint_disks():
    cabled = parallel(HOPF, CableSpec(multiplicities=(4, 4)))
    gamma = color_even_parallel(cabled)
    _, _, traces = delete_color_moves(cabled, gamma)
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
        cabled, gamma = color_two_parallel(base)
        assert verify_coloring(cabled, gamma), trial
        assert palette(gamma)[0] <= {-1, 0, 1, 2, 3, 4}, trial
        cur_d, cur_g, traces = delete_color_moves(cabled, gamma)
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
    cabled, gamma = color_two_parallel(base)
    assert verify_coloring(cabled, gamma)
    assert palette(gamma)[0] <= {-1, 0, 1, 2, 3, 4}
    cur_d, cur_g, _ = delete_color_moves(cabled, gamma)
    assert palette(cur_g)[0] == {0, 1, 2, 3}
    assert is_simple(cur_d, cur_g) == (True, 1)


def test_even_parallel_pipeline_on_random_bases():
    """Boundary-pattern coloring and 3-deletion hold for arbitrary bases."""
    from zcolor.generate import random_knot_diagram

    rng = seeded_rng(21)
    for trial in range(6):
        base = random_knot_diagram(rng, n_ops=1 + trial % 4)
        cabled = parallel(base, CableSpec(multiplicities=(4,)))
        gamma = color_even_parallel(cabled)
        assert verify_coloring(cabled, gamma), trial
        cur_d, cur_g, traces = delete_color_moves(cabled, gamma)
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
    toggle = pc._rewrite_toggle_over_state
    toggles = []

    def recording(run, region, flip_second):
        toggles.append((len(run.stages), region))
        return toggle(run, region, flip_second)

    monkeypatch.setattr(pc, "_rewrite_toggle_over_state", recording)
    toggled = 0
    for i, base in enumerate(_toggle_bases(corpus)):
        cabled, gamma = color_two_parallel(base)
        regions = cabled.cable.regions
        carrying_4 = {cid for cid, region in regions.items()
                      if 4 in {gamma[e] for e in pc._region_interior_arcs(cabled, region)}}
        toggles.clear()
        _, out_g, traces = delete_color_moves(cabled, gamma)
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
    from zcolor.diagram import Diagram

    colored = [color_two_parallel(base) for base in _toggle_bases(corpus)]
    builds = count_calls(Diagram, "__init__")
    verifications = count_calls(pc, "verify_local_equivalence")
    colorings = count_calls(coloring, "verify_coloring")
    outputs = count_calls(pc, "verify_coloring")
    most_regions = both_passes = 0
    for i, (cabled, gamma) in enumerate(colored):
        for calls in (builds, verifications, colorings, outputs):
            calls.clear()
        _, _, traces = delete_color_moves(cabled, gamma)
        assert len(builds) == 1, (i, len(builds))
        assert len(verifications) == 1, i
        assert len(colorings) + len(outputs) == 2 and outputs[0][0] is cabled, i
        both_passes += len(traces) == 2
        most_regions = max([most_regions] + [len(t.stages[0].disks) for t in traces])
    assert most_regions >= 3 and both_passes >= 1


def test_the_run_keeps_the_coloring_current_after_every_move(corpus, monkeypatch, count_calls):
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

    kinds, rediffed = [], []
    apply, rediff = pc._Run.apply, rewrite._Simplification.apply

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

    monkeypatch.setattr(pc._Run, "apply", checking)
    monkeypatch.setattr(rewrite._Simplification, "apply", checking_diffs)
    toggles = count_calls(pc, "_rewrite_toggle_over_state")
    reroutes = count_calls(pc, "_rewrite_reroute_line")
    hopf = parallel(corpus["hopf"], CableSpec(multiplicities=(4, 4)))
    delete_color_moves(hopf, color_even_parallel(hopf))
    assert reroutes and ("R2+", False) in kinds
    assert len(delete_color_moves(*color_two_parallel(corpus["unknot_writhe0"]))[2]) == 2
    assert toggles
    for colors, kinks in (((2, 1), 1), ((4, 2, 1), 1)):
        to_simple_coloring(*diff_chain(colors, kinks))
    cabled = parallel(corpus["trefoil"], CableSpec(multiplicities=(6,)))
    to_simple_coloring(cabled, is_z_colorable(cabled)[1])
    assert set(kinds) == {("R2+", True), ("R2+", False), ("R3", None)}
    assert len(kinds) > 200 and len(rediffed) > 100


def test_a_two_parallel_builds_two_diagrams_however_many_twists(count_calls):
    """The parallel and its twisted form: every drift twist goes on one builder."""
    from zcolor.diagram import Diagram

    rng = seeded_rng(11)
    bases = [balanced_random_knot(rng, n_ops=3 + trial) for trial in range(6)]
    builds = count_calls(Diagram, "__init__")
    most_twists = 0
    for i, base in enumerate(bases):
        builds.clear()
        cabled, _ = color_two_parallel(base)
        twists = (len(cabled.crossings) - 4 * len(base.crossings)) // 2
        most_twists = max(most_twists, twists)
        assert len(builds) <= 2, (i, twists, len(builds))
    assert most_twists >= 4
