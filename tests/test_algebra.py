import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_fox_count, det_int, reduced_determinant
from zcolor.algebra import (
    coloring_matrix,
    determinant,
    diagram_lattice,
    fox_coloring_count,
    is_z_colorable,
    kernel_lattice,
    mat_mul,
    smith_normal_form,
    solve_integer,
    solve_partial,
)
from zcolor.cabling import CableSpec, insert_full_twist, parallel
from zcolor.coloring import verify_coloring
from zcolor.diagram import crossing_graph_pieces, parse_pd
from zcolor.generate import random_knot_diagram, seeded_rng

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")


# -- Smith normal form ---------------------------------------------------------


def snf_invariants(M):
    U, S, V = smith_normal_form(M)
    r = len(M)
    c = len(M[0]) if r else 0
    assert mat_mul(mat_mul(U, [list(row) for row in M]), V) == S
    assert abs(det_int(U)) == 1
    assert abs(det_int(V)) == 1
    diag = [S[i][i] for i in range(min(r, c))]
    for i in range(r):
        for j in range(c):
            if i != j:
                assert S[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
        if a == 0:
            assert b == 0
    assert all(d >= 0 for d in diag)
    return diag


def test_snf_identity():
    assert snf_invariants([[1, 0], [0, 1]]) == [1, 1]


def test_snf_diag23():
    assert snf_invariants([[2, 0], [0, 3]]) == [1, 6]


def test_snf_row():
    assert snf_invariants([[2, -1, -1]]) == [1]


def matrices(entries):
    """Rectangular matrices of 1 to 6 rows and 1 to 6 columns."""
    return st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0]))


@settings(max_examples=100, deadline=None)
@given(matrices(st.integers(-9, 9)))
def test_snf_random(M):
    snf_invariants(M)


# Multiples of 2, 3 or 6 with no unit entry: pivots of 2 or 3 that do not
# divide the rest of their block force the in-loop divisibility step.
@settings(max_examples=100, deadline=None)
@given(matrices(st.tuples(st.sampled_from([2, 3, 6]), st.integers(-3, 3)).map(
    lambda mk: mk[0] * mk[1])))
def test_snf_random_non_unit(M):
    snf_invariants(M)


# -- coloring matrix -----------------------------------------------------------


def test_matrix_trefoil():
    M = coloring_matrix(TREFOIL)
    assert M.shape == (3, 3)
    for row in M.rows:
        assert sorted(row) == [-1, -1, 2]
        assert sum(row) == 0


def test_matrix_hopf_doubled_under():
    M = coloring_matrix(parse_pd("X[4,1,3,2] X[2,3,1,4]"))
    assert M.shape == (2, 2)
    for row in M.rows:
        assert sorted(row) == [-2, 2]


def test_matrix_kink_degenerate():
    # the kink's over and under arcs coincide, giving the zero row
    M = coloring_matrix(parse_pd("X[1,1,2,2]"))
    assert M.shape == (1, 1)
    assert M.rows == ((0,),)


def test_matrix_empty():
    M = coloring_matrix(parse_pd(""))
    assert M.shape == (0, 0)


def test_row_sums_zero(corpus):
    for d in corpus.values():
        for row in coloring_matrix(d).rows:
            assert sum(row) == 0


# -- kernel lattice ------------------------------------------------------------


def test_kernel_trefoil_constants_only():
    lat = diagram_lattice(TREFOIL)
    assert lat.rank == 1
    assert lat.basis == ((1, 1, 1),)


def test_kernel_empty():
    lat = diagram_lattice(parse_pd(""))
    assert lat.rank == 0


def test_all_ones_in_every_kernel(corpus):
    for name, d in corpus.items():
        if not d.crossings:
            continue
        lat = diagram_lattice(d)
        cols = len(lat.columns)
        target = [1] * cols
        # integer combination reaching all-ones must exist
        A = [[lat.basis[t][j] for t in range(lat.rank)] for j in range(cols)]
        assert solve_integer(A, target, lat.rank) is not None, name


def test_solve_integer_exact():
    A = [[2, 0], [0, 3], [1, 1]]
    assert solve_integer(A, [4, 9, 5], 2) == [2, 3]
    assert solve_integer(A, [4, 9, 6], 2) is None   # inconsistent
    assert solve_integer([[2, 0], [0, 3]], [3, 9], 2) is None   # x = (3/2, 3)
    assert solve_integer([], [], 3) == [0, 0, 0]


# -- determinants --------------------------------------------------------------


@pytest.mark.parametrize("name,expected", [
    ("unknot_kink", 1),
    ("hopf", 2),
    ("trefoil", 3),
    ("figure8", 5),
    ("split_unlink", 0),
])
def test_determinants(corpus, name, expected):
    assert determinant(corpus[name]) == expected


def test_determinant_choice_invariance(corpus):
    for name in ("unknot_kink", "hopf", "trefoil", "figure8"):
        d = corpus[name]
        M = coloring_matrix(d)
        r, c = M.shape
        values = {reduced_determinant(M, i, j)
                  for i in range(r) for j in range(c)}
        assert len(values) == 1, name


def bareiss_determinant(d) -> int:
    """The determinant as one Bareiss first minor: the last row and column
    of the coloring matrix deleted."""
    if len(crossing_graph_pieces(d)) > 1:
        return 0
    M = coloring_matrix(d)
    r, c = M.shape
    return 1 if r == 0 else reduced_determinant(M, r - 1, c - 1)


def differential_diagrams(corpus):
    yield from corpus.items()
    rng = seeded_rng()
    for i in range(120):
        yield f"random knot {i}", random_knot_diagram(rng, n_ops=2 + i % 7)
    for name in ("unknot_kink", "hopf", "trefoil", "figure8"):
        base = corpus[name]
        for k in (1, 2, 3):
            spec = CableSpec(multiplicities=(k,) * len(base.components))
            yield f"{name} ({k})", parallel(base, spec)
    for name in ("trefoil", "figure8"):
        cabled = parallel(corpus[name], CableSpec(multiplicities=(2,)))
        base_edge = min(e for e, _ in cabled.cable.copy_edges)
        for sign in (1, -1):
            yield f"{name} (2) twist {sign}", insert_full_twist(cabled, base_edge, sign)


def test_determinant_matches_bareiss_minor(corpus):
    checked = 0
    for name, d in differential_diagrams(corpus):
        assert determinant(d) == bareiss_determinant(d), name
        checked += 1
    assert checked >= 100 + len(corpus)


def test_determinant_empty_rejected():
    with pytest.raises(Exception):
        determinant(parse_pd(""))


# -- colorability ----------------------------------------------------------------


def test_trefoil_not_colorable():
    ok, witness = is_z_colorable(TREFOIL)
    assert not ok and witness is None


def test_split_colorable_with_witness(corpus):
    ok, witness = is_z_colorable(corpus["split_unlink"])
    assert ok
    assert witness is not None
    assert len(set(witness.values())) == 2
    assert verify_coloring(corpus["split_unlink"], witness)


def test_colorable_iff_det_zero(corpus):
    from zcolor.diagram import is_connected
    for name, d in corpus.items():
        if not d.crossings or not is_connected(d):
            continue
        ok, _ = is_z_colorable(d)
        assert ok == (determinant(d) == 0), name


# -- Fox counts -------------------------------------------------------------------


def test_fox_trefoil():
    assert fox_coloring_count(TREFOIL, 3) == 9
    assert fox_coloring_count(TREFOIL, 2) == 2
    assert fox_coloring_count(TREFOIL, 5) == 5


def test_fox_kink_counts_constants():
    k = parse_pd("X[1,1,2,2]")
    for n in range(2, 8):
        assert fox_coloring_count(k, n) == n


def test_fox_rejects_small_modulus():
    with pytest.raises(ValueError):
        fox_coloring_count(TREFOIL, 1)


def test_fox_matches_brute_force(corpus):
    for name, d in corpus.items():
        if len(d.crossings) > 4:
            continue
        for n in range(2, 8):
            assert fox_coloring_count(d, n) == brute_force_fox_count(d, n), (name, n)


# -- solve_partial ----------------------------------------------------------------


def test_solve_partial_unique():
    out = solve_partial(TREFOIL, {1: 0})
    assert out == {e: 0 for e in TREFOIL.edges}


def test_solve_partial_inconsistent():
    assert solve_partial(TREFOIL, {1: 0, 2: 1}) is None


def test_solve_partial_empty_gives_zero():
    out = solve_partial(TREFOIL, {})
    assert set(out.values()) == {0}


def test_solve_partial_respects_pins(corpus):
    d = corpus["split_unlink"]
    out = solve_partial(d, {1: 5, 3: 7})
    assert out is not None
    assert out[1] == 5 and out[3] == 7
    assert verify_coloring(d, out)


def test_fox_count_free_loops():
    d = parse_pd("% loops: 2\n")
    for n in (2, 5):
        assert fox_coloring_count(d, n) == n ** 2


def test_kernel_basis_deterministic(corpus):
    for d in corpus.values():
        assert diagram_lattice(d).basis == diagram_lattice(d).basis
