import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import propagate_region, reference_scan_box
from zcolor.algebra import diagram_lattice, is_z_colorable
from zcolor.cabling import CableSpec, parallel
from zcolor.coloring import (
    ColoringError,
    _scan_box,
    diff_spectrum,
    is_simple,
    minimize_palette_on_diagram,
    palette,
    verify_coloring,
)
from zcolor.diagram import parse_pd

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")


def test_constant_colorings_always_valid(corpus):
    for d in corpus.values():
        assert verify_coloring(d, {e: 5 for e in d.edges})


def test_three_color_patterns_fail_over_z():
    cls = TREFOIL.arc_classes()
    reps = sorted(set(cls.values()))
    for perm in itertools.permutations([0, 1, 2]):
        val = dict(zip(reps, perm))
        gamma = {e: val[cls[e]] for e in TREFOIL.edges}
        assert not verify_coloring(TREFOIL, gamma)


def test_partial_coloring_is_an_error_not_false():
    with pytest.raises(ColoringError):
        verify_coloring(TREFOIL, {1: 0})


def test_spectrum_constant():
    spec = diff_spectrum(TREFOIL, {e: 7 for e in TREFOIL.edges})
    assert spec.histogram == {0: 3}
    assert spec.d_m == 0


def test_spectrum_rejects_invalid():
    with pytest.raises(ColoringError):
        diff_spectrum(TREFOIL, {e: e for e in TREFOIL.edges})


def test_spectrum_region_example():
    # an under strand entering 1 beneath the block (0,1,1,0) has diffs 1,2,2,1
    rc = propagate_region((0, 1, 1, 0), 1)
    assert rc.interior == ((-1, 3, -1, 1),)
    chain = (1,) + rc.interior[0]
    diffs = [abs(o - u) for o, u in zip((0, 1, 1, 0), chain)]
    assert diffs == [1, 2, 2, 1]


def test_is_simple_on_histograms():
    split = parse_pd("X[1,1,2,2] X[3,3,4,4]")
    gamma = is_z_colorable(split)[1]
    # constant-per-piece: every diff 0, not simple (needs a positive d)
    assert is_simple(split, gamma) == (False, None)
    assert len(set(gamma.values())) > 1


def test_palette():
    values, size = palette({1: 7, 2: 7})
    assert values == {7} and size == 1


def test_palette_affine_invariance(corpus):
    d = corpus["split_unlink"]
    gamma = is_z_colorable(d)[1]
    base = diff_spectrum(d, gamma)
    for a, b in ((1, 3), (-1, 0), (2, -5)):
        shifted = {e: a * c + b for e, c in gamma.items()}
        assert verify_coloring(d, shifted)
        spec = diff_spectrum(d, shifted)
        assert palette(shifted)[1] == palette(gamma)[1]
        assert spec.d_m == abs(a) * base.d_m


@settings(max_examples=30, deadline=None)
@given(st.integers(-20, 20), st.integers(1, 5))
def test_translation_and_scaling_on_lattice_elements(shift, scale):
    d = parse_pd("X[1,1,2,2] X[3,3,4,4]")
    gamma = {1: 0, 2: 0, 3: 1, 4: 1}
    g2 = {e: scale * c + shift for e, c in gamma.items()}
    assert verify_coloring(d, g2)
    assert palette(g2)[1] == palette(gamma)[1]


def test_minimize_requires_rank_two():
    with pytest.raises(ColoringError):
        minimize_palette_on_diagram(diagram_lattice(TREFOIL), 2)


def test_minimize_refuses_a_bound_below_one():
    lat = diagram_lattice(parse_pd("X[1,1,2,2] X[3,3,4,4]"))
    for bound in (0, -1):
        with pytest.raises(ColoringError, match="bound must be positive"):
            minimize_palette_on_diagram(lat, bound)


@st.composite
def scan_boxes(draw):
    """A basis of 1-4 rows over 1-8 columns and a bound of 1-3.

    Entries are zero about half the time, so the last row often fixes
    columns the prune reads; a row may repeat an earlier one up to sign
    or a factor 2, so many vectors tie on the best palette.
    """
    width = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if rows and draw(st.booleans()):
            factor = draw(st.sampled_from([-2, -1, 1, 2]))
            rows.append([factor * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
    return rows, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(scan_boxes())
def test_scan_box_matches_the_full_box(box):
    basis, bound = box
    assert _scan_box(basis, bound) == reference_scan_box(basis, bound)


def test_minimize_on_hopf44():
    h = parse_pd("X[4,1,3,2] X[2,3,1,4]")
    h44 = parallel(h, CableSpec(multiplicities=(4, 4)))
    lat = diagram_lattice(h44)
    assert lat.rank >= 2
    best = minimize_palette_on_diagram(lat, 3)
    values, size = palette(best)
    assert verify_coloring(h44, best)
    assert size == 4
    # translating by a constant never changes a palette
    shifted = {e: c + 3 for e, c in best.items()}
    assert palette(shifted)[1] == size
