"""Acceptance suite: one test per criterion, exact tolerances, printed verdicts.

Every expected value here is either computed by an independent brute-force
oracle in this file/conftest or verified arithmetic; nothing is tuned to
the implementation under test.
"""

import time

import pytest

from conftest import (
    brute_force_fox_count,
    chained,
    linking_equals_writhe,
    propagate_region,
    reduced_determinant,
    seeded_rng,
    standard_pattern,
)
from zcolor.algebra import (
    coloring_matrix,
    determinant,
    diagram_lattice,
    fox_coloring_count,
    is_z_colorable,
)
from zcolor.cabling import CableSpec, parallel, two_parallel_untwisted
from zcolor.coloring import (
    diff_spectrum,
    is_simple,
    minimize_palette_on_diagram,
    palette,
    verify_coloring,
)
from zcolor.diagram import writhe
from zcolor.generate import diff_chain, random_knot_diagram, standard_diagrams
from zcolor.moves import verify_local_equivalence
from zcolor.parallel_coloring import ConstructionError, color_parallel, delete_color_moves


def report(criterion: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return standard_diagrams()


def test_criterion_1_fox_oracle_equivalence(corpus):
    """SNF counts equal brute-force enumeration, <=4 crossings, 2<=n<=7."""
    t0 = time.time()
    checked = 0
    for name, d in corpus.items():
        if len(d.rows) > 4:
            continue
        for n in range(2, 8):
            snf = fox_coloring_count(d, n)
            brute = brute_force_fox_count(d, n)
            assert snf == brute, (name, n, snf, brute)
            checked += 1
    assert fox_coloring_count(corpus["trefoil"], 3) == 9
    assert fox_coloring_count(corpus["hopf"], 2) == 4
    elapsed = time.time() - t0
    report("criterion 1: fox count oracle equivalence", elapsed < 60 and checked >= 36,
           f"{checked} (diagram, n) pairs in {elapsed:.1f}s")


def test_criterion_2_determinants(corpus):
    """Classical determinants; invariance under deleted row/column choice."""
    expected = {"unknot_kink": 1, "hopf": 2, "trefoil": 3, "figure8": 5}
    for name, det in expected.items():
        assert determinant(corpus[name]) == det, name
    for name in expected:
        M = coloring_matrix(corpus[name])
        r, c = M.shape
        choices = {reduced_determinant(M, i, j) for i in range(r) for j in range(c)}
        assert choices == {expected[name]}, name
    report("criterion 2: determinants and deletion invariance", True,
           "unknot 1, hopf 2, trefoil 3, figure8 5; all deletions agree")


def test_criterion_3_linking_equals_writhe(corpus):
    """lk(2-parallel) = writhe, corpus plus >=100 random diagrams, exact."""
    t0 = time.time()
    count = 0
    for name, d in corpus.items():
        if len(d.components) != 1 or d.free_loops:
            continue
        w, lk, equal = linking_equals_writhe(d)
        assert equal, (name, w, lk)
        count += 1
    rng = seeded_rng()
    for i in range(110):
        d = random_knot_diagram(rng, n_ops=3 + i % 6)
        w, lk, equal = linking_equals_writhe(d)
        assert equal, (i, w, lk)
        count += 1
    elapsed = time.time() - t0
    report("criterion 3: linking number equals writhe", count >= 110 and elapsed < 60,
           f"{count} diagrams, zero tolerance, {elapsed:.1f}s")


def test_criterion_4_even_parallel_construction(corpus):
    """Even parallels: valid colorings, claimed palettes, 4-color reduction."""
    t0 = time.time()
    cases = [
        ("hopf (4,4)", corpus["hopf"], (4, 4), {-1, 0, 1, 2, 3}),
        ("hopf (6,6)", corpus["hopf"], (6, 6), {-1, 0, 1, 2}),
        ("trefoil 4-parallel", corpus["trefoil"], (4,), {-1, 0, 1, 2, 3}),
    ]
    for label, base, widths, allowed in cases:
        cabled, gamma, structure = color_parallel(base, widths)
        assert verify_coloring(cabled, gamma), label
        values, _ = palette(gamma)
        assert values <= allowed, (label, sorted(values))
        cur_d, cur_g, traces = delete_color_moves(cabled, gamma, structure)
        rep = verify_local_equivalence(cabled, cur_d, chained(traces))
        assert rep.ok, (label, rep.reasons)
        final_values, size = palette(cur_g)
        assert size == 4, (label, sorted(final_values))
        assert is_simple(cur_d, cur_g) == (True, 1), label
        assert verify_coloring(cur_d, cur_g), label
    elapsed = time.time() - t0
    report("criterion 4: even-parallel colorings reduce to 4 colors",
           elapsed < 60, f"3 parallels, palettes verified, {elapsed:.1f}s")


def test_criterion_5_two_parallel_construction(corpus):
    """2-parallel pipeline: palette in -1..4, reduced to exactly 0..3."""
    for name in ("unknot_writhe0", "trefoil_writhe0"):
        base = corpus[name]
        cabled, gamma, structure = color_parallel(base, (2,))
        assert verify_coloring(cabled, gamma), name
        values, _ = palette(gamma)
        assert values <= {-1, 0, 1, 2, 3, 4}, (name, sorted(values))
        cur_d, cur_g, traces = delete_color_moves(cabled, gamma, structure)
        assert verify_local_equivalence(cabled, cur_d, chained(traces)).ok, name
        assert palette(cur_g)[0] == {0, 1, 2, 3}, (name, sorted(palette(cur_g)[0]))
        assert is_simple(cur_d, cur_g) == (True, 1), name
    with pytest.raises(ConstructionError):
        color_parallel(corpus["trefoil"], (2,))
    report("criterion 5: 2-parallel colorings reduce to {0,1,2,3}", True,
           "writhe-0 unknot and trefoil; nonzero writhe rejected")


def test_criterion_6_rewriting_to_simple(stage_recorder):
    """>=5 synthetic diagrams with max diff 2..4 simplify within bounds."""
    t0 = time.time()
    cases = [([2, 1], 0), ([2, 1], 1), ([3, 1], 0), ([3, 2], 1),
             ([4, 3], 2), ([4, 2], 1)]
    for colors, kinks in cases:
        d, g = diff_chain(colors, kinks)
        d_m = diff_spectrum(d, g).d_m
        assert d_m in (2, 3, 4)
        out_d, out_g, trace = stage_recorder.simplify(d, g)
        # stage- and level-wise checks: every stage's target loses D and every
        # grown diff is 0, an existing smaller one, |D-d| or |D-2d|; each
        # level leaves no D and only such diffs; D strictly decreases, at
        # most d_m levels; every crossing relation holds before every stage
        levels = stage_recorder.check_lemma()
        assert levels[0] == d_m and len(levels) <= d_m, (colors, kinks, levels)
        assert verify_coloring(out_d, out_g), (colors, kinks)
        assert verify_local_equivalence(d, out_d, trace).ok, (colors, kinks)
        assert is_simple(out_d, out_g)[0], (colors, kinks)
    elapsed = time.time() - t0
    report("criterion 6: max-diff elimination to simple colorings",
           len(cases) >= 5 and elapsed < 120,
           f"{len(cases)} synthetic diagrams, d_m in 2..4, {elapsed:.1f}s")


def test_criterion_7_four_color_floor(corpus):
    """Bounded search: 4-color colorings found where constructed, never <=3."""
    t0 = time.time()
    searchable = {}
    searchable["hopf44"] = (
        parallel(corpus["hopf"], CableSpec(multiplicities=(4, 4))), True)
    searchable["trefoil4"] = (
        parallel(corpus["trefoil"], CableSpec(multiplicities=(4,))), True)
    searchable["unknot_w0_2par"] = (
        two_parallel_untwisted(corpus["unknot_writhe0"]), False)
    searchable["trefoil_w0_2par"] = (
        two_parallel_untwisted(corpus["trefoil_writhe0"]), False)
    for name in ("unknot_writhe0", "trefoil_writhe0"):
        reduced, _, _ = delete_color_moves(*color_parallel(corpus[name], (2,)))
        searchable[name + "_reduced"] = (reduced, True)

    for name, (d, four_expected) in searchable.items():
        colorable, _ = is_z_colorable(d)
        assert colorable, name
        lat = diagram_lattice(d)
        best = minimize_palette_on_diagram(lat, 3)
        _, size = palette(best)
        assert size >= 4, (name, size)  # never 3 or fewer
        if four_expected:
            assert size == 4, (name, size)
    elapsed = time.time() - t0
    report("criterion 7: four-color floor under bounded search",
           elapsed < 300, f"{len(searchable)} diagrams, bound 3, {elapsed:.1f}s")


def test_criterion_8_telescoping():
    """under_out = under_in for every pattern width 4..10, inputs -10..10."""
    checked = 0
    for k in (4, 6, 8, 10):
        over = standard_pattern(k)
        for u in range(-10, 11):
            rc = propagate_region(over, u)
            assert rc.under_out == (u,), (k, u)
            checked += 1
    report("criterion 8: telescoping invariant", checked == 84,
           f"{checked} (width, input) pairs, exact")


def test_criterion_9_parallel_theorem(corpus):
    """Even parallels of knots: determinant 0 unless a 2-parallel links.

    The paper: an even parallel is Z-colorable unless it is a 2-parallel
    with non-zero linking number.  For a knot diagram, the two strands of
    its blackboard 2-parallel link as often as the diagram writhes
    (criterion 3), so the 2-parallel has determinant 0 exactly when the
    writhe is 0, and then ``color_parallel`` colors it; the 4- and
    6-parallels have determinant 0 whatever the writhe, and
    ``color_parallel`` colors them.  Corpus knots plus 60 seeded
    random knots.
    """
    t0 = time.time()
    knots = [(name, d) for name, d in corpus.items()
             if len(d.components) == 1 and not d.free_loops]
    rng = seeded_rng()
    knots += [(f"random {i}", random_knot_diagram(rng, n_ops=3 + i % 6)) for i in range(60)]
    untwisted = 0
    for name, d in knots:
        w = writhe(d)
        det = determinant(parallel(d, CableSpec(multiplicities=(2,))))
        assert (det == 0) == (w == 0), (name, w, det)
        if w == 0:
            cabled, gamma, _ = color_parallel(d, (2,))
            assert verify_coloring(cabled, gamma), name
            untwisted += 1
        for k in (4, 6):
            cabled, gamma, _ = color_parallel(d, (k,))
            assert determinant(cabled) == 0, (name, k)
            assert verify_coloring(cabled, gamma), (name, k)
    elapsed = time.time() - t0
    report("criterion 9: even parallels are Z-colorable unless a 2-parallel links",
           untwisted >= 2 and elapsed < 5,
           f"{len(knots)} knots, {untwisted} of writhe 0, {elapsed:.1f}s")
