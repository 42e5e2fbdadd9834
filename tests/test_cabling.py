import pytest

from zcolor.cabling import (
    CableError,
    CableSpec,
    TwistSite,
    cable,
    insert_full_twists,
    parallel,
    two_parallel_untwisted,
)
from conftest import isomorphic, linking_equals_writhe, seeded_rng
from zcolor.diagram import linking_number, parse_pd, serialize_pd_raw, validate, writhe
from zcolor.generate import random_knot_diagram
from zcolor.moves import DiagramBuilder, R2Remove, apply_move
from zcolor.diagram import same_diagram

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
HOPF = parse_pd("X[4,1,3,2] X[2,3,1,4]")


def twist(cabled, structure, base_edge, sign):
    """``cabled`` with one full twist on the copies of ``base_edge``, and
    its structure."""
    return insert_full_twists(cabled, structure, [TwistSite(base_edge, sign)])


def added_crossings(before, after):
    """The ids of ``after``'s crossings that ``before`` lacks, in creation
    order: a twist's two crossings, as ``insert_twist`` adds them."""
    return sorted(c for c in after.rows if c not in before.rows)


def comp_of(d):
    out = {}
    for k, cyc in enumerate(d.components):
        for e in cyc:
            out[e] = k
    return out


def test_crossing_count_formula():
    t2 = parallel(TREFOIL, CableSpec(multiplicities=(2,)))
    assert len(t2.rows) == 12
    h32 = parallel(HOPF, CableSpec(multiplicities=(3, 2)))
    assert len(h32.rows) == 12
    h44 = parallel(HOPF, CableSpec(multiplicities=(4, 4)))
    assert len(h44.rows) == 32


def test_component_counts():
    assert parallel(TREFOIL, CableSpec(multiplicities=(4,))).num_components == 4
    assert parallel(HOPF, CableSpec(multiplicities=(3, 2))).num_components == 5


def test_the_structure_is_returned_beside_the_diagram_not_on_it():
    """``cable`` returns the diagram ``parallel`` builds and its structure;
    a ``Diagram`` carries no cable metadata."""
    cabled, structure = cable(HOPF, CableSpec(multiplicities=(4, 2)))
    assert serialize_pd_raw(cabled) == serialize_pd_raw(parallel(HOPF, CableSpec((4, 2))))
    assert structure.multiplicities == (4, 2) and len(structure.regions) == 2
    entries = set(structure.copy_edges.values())
    assert len(entries) == len(structure.copy_edges) == 2 * 4 + 2 * 2
    assert entries <= set(cabled.edges)
    for d in (cabled, HOPF):
        assert not hasattr(d, "cable")


def test_identity_cabling_isomorphic():
    one = parallel(TREFOIL, CableSpec(multiplicities=(1,)))
    assert isomorphic(one, TREFOIL)


def test_multiplicity_length_checked():
    with pytest.raises(CableError):
        parallel(TREFOIL, CableSpec(multiplicities=(2, 2)))


@pytest.mark.parametrize("base", [HOPF, TREFOIL])
def test_nonpositive_multiplicity_refused_before_the_count(base):
    """``parallel`` refuses a multiplicity below 1 first, whether or not the
    count matches the base's components."""
    with pytest.raises(CableError, match="^multiplicities must be positive$"):
        parallel(base, CableSpec((0, 1)))


def test_grid_signs_inherit_base(corpus):
    for d in corpus.values():
        if not d.rows or d.num_components > 2:
            continue
        spec = CableSpec(multiplicities=(2,) * d.num_components)
        cabled, structure = cable(d, spec)
        assert validate(cabled) == []
        for region in structure.regions.values():
            for row in region.grid:
                for cid in row:
                    assert cabled.signs[cid] == region.base_sign


def test_two_parallel_needs_writhe_zero(corpus):
    with pytest.raises(CableError) as err:
        two_parallel_untwisted(TREFOIL)
    assert "-3" in str(err.value)
    u2 = two_parallel_untwisted(corpus["unknot_writhe0"])
    assert linking_number(u2, 0, 1) == 0
    t2 = two_parallel_untwisted(corpus["trefoil_writhe0"])
    assert len(t2.rows) == 24
    assert linking_number(t2, 0, 1) == 0


def test_linking_equals_writhe_corpus(corpus):
    for name, d in corpus.items():
        if len(d.components) != 1 or d.free_loops:
            continue
        w, lk, equal = linking_equals_writhe(d)
        assert equal, name
        assert w == writhe(d)


def test_linking_equals_writhe_positive_kink():
    k = parse_pd("X[1,1,2,2]")
    assert linking_equals_writhe(k) == (1, 1, True)


def test_linking_equals_writhe_random():
    rng = seeded_rng()
    for _ in range(25):
        d = random_knot_diagram(rng, n_ops=5)
        assert len(d.components) == 1
        w, lk, equal = linking_equals_writhe(d)
        assert equal, (w, lk)


def test_two_parallel_determinant_is_twice_the_writhe(corpus):
    """The determinant of a knot diagram's untwisted 2-parallel is 2|w|,
    for w the diagram's writhe.

    An observation with no proof: it is checked here on the corpus knots
    and on 60 seeded random knots, not derived from the paper.
    """
    from zcolor.algebra import determinant

    rng = seeded_rng()
    knots = [(name, d) for name, d in corpus.items() if d.num_components == 1]
    knots += [(f"random {i}", random_knot_diagram(rng, n_ops=2 + i % 7)) for i in range(60)]
    for name, d in knots:
        assert determinant(parallel(d, CableSpec((2,)))) == 2 * abs(writhe(d)), name


def test_inter_component_grid_crossings_carry_base_sign():
    u2 = parallel(parse_pd("X[1,1,2,2]"), CableSpec(multiplicities=(2,)))
    comp = comp_of(u2)
    inter = [c for c, r in u2.rows.items() if comp[r[0]] != comp[r[1]]]
    assert len(inter) == 2
    assert all(u2.signs[c] == 1 for c in inter)


def test_full_twist_insertion():
    u2, st = cable(parse_pd("X[1,3,2,2] X[3,4,4,1]"), CableSpec((2,)))
    assert linking_number(u2, 0, 1) == 0
    tw, tw_st = twist(u2, st, base_edge=1, sign=1)
    assert len(tw.rows) == len(u2.rows) + 2
    assert validate(tw) == []
    assert linking_number(tw, 0, 1) == 1
    back, _ = twist(tw, tw_st, base_edge=1, sign=-1)
    assert linking_number(back, 0, 1) == 0


def test_full_twist_changes_writhe_by_twice_its_sign():
    """Cable twists run with the face walk, so they keep the requested sign."""
    rng = seeded_rng(17)
    for trial in range(6):
        base = random_knot_diagram(rng, n_ops=1 + trial % 5)
        cabled, st = cable(base, CableSpec(multiplicities=(2,)))
        for e in base.edges:
            for sign in (1, -1):
                tw, _ = twist(cabled, st, e, sign)
                assert writhe(tw) - writhe(cabled) == 2 * sign, (trial, e, sign)


def test_twists_on_one_builder_match_one_insertion_per_site():
    """Same rows, arc labels, crossing ids and structure as site by site."""
    rng = seeded_rng(19)
    for trial in range(6):
        base = random_knot_diagram(rng, n_ops=2 + trial)
        cabled, st = cable(base, CableSpec(multiplicities=(2,)))
        sites = [TwistSite(base_edge=rng.choice(base.edges), sign=rng.choice((1, -1)))
                 for _ in range(2 + trial)]
        one_by_one = cabled, st
        for site in sites:
            one_by_one = twist(*one_by_one, site.base_edge, site.sign)
        at_once = insert_full_twists(cabled, st, sites)
        assert serialize_pd_raw(at_once[0]) == serialize_pd_raw(one_by_one[0]), trial
        assert list(at_once[0].rows) == list(one_by_one[0].rows)
        assert at_once[1] == one_by_one[1], trial
        assert len(at_once[0].rows) == len(cabled.rows) + 2 * len(sites), trial
    assert insert_full_twists(cabled, st, []) == (cabled, st)


def test_twist_then_mirror_cancels_by_two_r2_moves():
    u2, st = cable(parse_pd("X[1,3,2,2] X[3,4,4,1]"), CableSpec((2,)))
    tw, tw_st = twist(u2, st, base_edge=1, sign=1)
    both, _ = twist(tw, tw_st, base_edge=1, sign=-1)
    pair1, pair2 = added_crossings(u2, tw), added_crossings(tw, both)
    # the adjacent opposite twists cancel: the middle two crossings form a
    # bigon, and removing it exposes a second one
    builder = DiagramBuilder(both)
    apply_move(builder, R2Remove(cid1=pair1[1], cid2=pair2[0]))
    apply_move(builder, R2Remove(cid1=pair1[0], cid2=pair2[1]))
    assert same_diagram(builder.diagram(), u2)


def test_twist_recolors_pair_affinely():
    """A positive full twist sends the pair (a, a+1) to (a-2, a-1)."""
    u2, st = cable(parse_pd("X[1,3,2,2] X[3,4,4,1]"), CableSpec((2,)))
    pre1, pre2 = st.copy_edges[(2, 1)], st.copy_edges[(2, 2)]
    tw, tw_st = twist(u2, st, base_edge=2, sign=1)
    post1 = tw_st.copy_edges[(2, 1)]
    post2 = tw_st.copy_edges[(2, 2)]
    cids = set(added_crossings(u2, tw))

    gamma = {pre1: 0, pre2: 1}
    changed = True
    while changed:  # propagate across the twist crossings only
        changed = False
        for cid in cids:
            under_in, a, under_out, b = tw.rows[cid]
            over_in, over_out = (b, a) if tw.signs[cid] > 0 else (a, b)
            if over_in in gamma and over_out not in gamma:
                gamma[over_out] = gamma[over_in]
                changed = True
            if over_in in gamma and under_in in gamma and under_out not in gamma:
                gamma[under_out] = 2 * gamma[over_in] - gamma[under_in]
                changed = True
    assert gamma[post1] == -2 and gamma[post2] == -1
