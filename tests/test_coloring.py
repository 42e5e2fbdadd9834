import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oriented_diffs,
    oriented_relations_hold,
    propagate_region,
    reference_scan_box,
    seeded_rng,
)
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
from zcolor.generate import random_knot_diagram
from zcolor.parallel_coloring import ConstructionError, color_parallel, propagate_coloring

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")


def test_constant_colorings_always_valid(corpus):
    for d in corpus.values():
        assert verify_coloring(d, {e: 5 for e in d.edges})


def test_three_color_patterns_fail_over_z():
    cls = TREFOIL.arc_classes
    reps = sorted(set(cls.values()))
    for perm in itertools.permutations([0, 1, 2]):
        val = dict(zip(reps, perm))
        gamma = {e: val[cls[e]] for e in TREFOIL.edges}
        assert not verify_coloring(TREFOIL, gamma)


def _colorings_to_check(corpus, rng):
    """(name, diagram, coloring) on the corpus, random knots and parallels:
    each diagram's lattice basis colorings and one random combination of
    them, the parallels' constructed colorings, and each of those with one
    arc's color raised by 1."""
    diagrams = list(corpus.items())
    diagrams += [(f"random knot {i}", random_knot_diagram(rng, n_ops=2 + i % 7))
                 for i in range(40)]
    for name in ("hopf", "trefoil", "figure8"):
        base = corpus[name]
        spec = CableSpec(multiplicities=(2,) * len(base.components))
        diagrams.append((f"{name} (2)", parallel(base, spec)))
    built = {}
    for name, widths in (("hopf", (4, 4)), ("unknot_writhe0", (2,))):
        label = f"{name} ({','.join(map(str, widths))})"
        d, built[label], _ = color_parallel(corpus[name], widths)
        diagrams.append((label, d))
    for name, d in diagrams:
        lat = diagram_lattice(d)
        gammas = lat.edge_vectors()
        coeffs = [rng.randint(-2, 2) for _ in gammas]
        gammas.append({e: sum(k * g[e] for k, g in zip(coeffs, gammas)) for e in d.edges})
        if name in built:
            gammas.append(built[name])
        for gamma in gammas:
            yield name, d, gamma
            if d.edges:
                bumped = dict(gamma)
                bumped[rng.choice(d.edges)] += 1
                yield name, d, bumped


def test_sign_free_checks_match_the_oriented_reference(corpus):
    """``verify_coloring``, ``diff_spectrum`` and ``propagate_coloring`` read
    slots and no sign; they agree with the relations read through each
    crossing's incoming and outgoing arcs (``conftest.oriented``)."""
    rng = seeded_rng()
    valid = invalid = nontrivial = 0
    for name, d, gamma in _colorings_to_check(corpus, rng):
        if oriented_relations_hold(d, gamma):
            valid += 1
            assert verify_coloring(d, gamma), name
            diffs = oriented_diffs(d, gamma)
            assert diff_spectrum(d, gamma).diffs == diffs, name
            nontrivial += any(diffs.values())
            if d.rows:
                # an over arc follows from its partner, or from 2b = a + c
                dropped = d.rows[rng.choice(list(d.rows))][1]
                seeds = {e: v for e, v in gamma.items() if e != dropped}
                assert propagate_coloring(d.rows, seeds) == gamma, name
        else:
            invalid += 1
            assert not verify_coloring(d, gamma), name
            with pytest.raises(ColoringError):
                diff_spectrum(d, gamma)
            with pytest.raises(ConstructionError, match="propagation conflict"):
                propagate_coloring(d.rows, gamma)
    assert valid > 100 and invalid > 100 and nontrivial >= 10, (valid, invalid, nontrivial)


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
    """A basis of 1-5 rows over 1-8 columns and a bound of 1-3 (1 for five
    rows).

    Entries are zero about half the time, and each column is zero in every
    row after a drawn one, so the prune finds settled columns at every
    level; a row may repeat an earlier one up to sign or a factor 2 (on
    the columns it still reaches), so many vectors tie on the best palette.
    """
    width, k = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    last = draw(st.lists(st.integers(0, k - 1), min_size=width, max_size=width))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    rows = []
    for t in range(k):
        if rows and draw(st.booleans()):
            factor = draw(st.sampled_from([-2, -1, 1, 2]))
            row = [factor * x for x in draw(st.sampled_from(rows))]
        else:
            row = draw(st.lists(entry, min_size=width, max_size=width))
        rows.append([x if t <= last[j] else 0 for j, x in enumerate(row)])
    return rows, draw(st.integers(1, 3 if k < 5 else 1))


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
