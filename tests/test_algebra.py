import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_fox_count,
    dense_coloring_matrix,
    dense_snf_oracle,
    densify,
    det_int,
    mat_mul,
    reduced_determinant,
    reference_hermite_form,
    seeded_rng,
    solve_integer,
    solve_partial,
    sparse_rows,
    transform_snf,
)
from zcolor import algebra
from zcolor.algebra import (
    _solve_hermite,
    coloring_matrix,
    determinant,
    diagram_lattice,
    fox_coloring_count,
    hermite_form,
    is_z_colorable,
    kernel_lattice,
    smith_normal_form,
    snf_diagonal,
)
from zcolor.cabling import CableSpec, TwistSite, cable, insert_full_twists, parallel
from zcolor.coloring import verify_coloring
from zcolor.diagram import canonical, crossing_graph_pieces, parse_pd
from zcolor.generate import random_knot_diagram

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")


# -- Smith normal form ---------------------------------------------------------


def snf_invariants(M):
    """The reference Smith form's U*M*V = S certificate, checked; and
    ``smith_normal_form`` reports the same invariant factors, whose first
    k multiply to the gcd of the k x k minors (Bareiss), for every k."""
    U, S, V = transform_snf(M)
    r = len(M)
    c = len(M[0]) if r else 0
    assert mat_mul(mat_mul(U, [list(row) for row in M]), V) == S
    assert abs(det_int(U)) == 1
    assert abs(det_int(V)) == 1
    diag = [S[i][i] for i in range(min(r, c))]
    assert smith_normal_form(M) == diag
    for k in range(1, len(diag) + 1):
        minors = math.gcd(*(
            det_int([[M[i][j] for j in cols] for i in rows])
            for rows in itertools.combinations(range(r), k)
            for cols in itertools.combinations(range(c), k)))
        assert math.prod(diag[:k]) == minors, k
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


def test_snf_of_no_rows_and_of_zero_rows():
    assert smith_normal_form([]) == []
    assert smith_normal_form([[0, 0, 0]]) == [0]


@pytest.mark.parametrize("M,passes", [
    ([[2, 1], [0, 2]], 3),
    ([[9, 6], [9, -4]], 4),
    ([[6, 4], [0, 3]], 3),
    ([[2 ** 70, 0], [0, 3 * 2 ** 70]], 1),
    ([[0, 0], [0, 0]], 1),
])
def test_snf_alternates_hermite_forms_until_diagonal(M, passes, count_calls):
    """Each pass is one Hermite form, of the input and then of transposes."""
    hermite = count_calls(algebra, "hermite_form")
    snf_invariants(M)
    assert len(hermite) == passes


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
    for row in densify(M.rows, 3):
        assert sorted(row) == [-1, -1, 2]
        assert sum(row) == 0


def test_matrix_hopf_doubled_under():
    M = coloring_matrix(parse_pd("X[4,1,3,2] X[2,3,1,4]"))
    assert M.shape == (2, 2)
    for row in densify(M.rows, 2):
        assert sorted(row) == [-2, 2]


def test_matrix_kink_degenerate():
    # the kink's over and under arcs coincide, giving the zero row
    M = coloring_matrix(parse_pd("X[1,1,2,2]"))
    assert M.shape == (1, 1)
    assert densify(M.rows, 1) == [[0]]
    assert M.rows == ({},)


def test_matrix_empty():
    M = coloring_matrix(parse_pd(""))
    assert M.shape == (0, 0)


def test_row_sums_zero(corpus):
    for d in corpus.values():
        M = coloring_matrix(d)
        for row in densify(M.rows, M.shape[1]):
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
        # integer combination reaching all-ones must exist
        assert _solve_hermite(lat.basis, [1] * len(lat.columns)) is not None, name


def test_solve_integer_exact():
    """The reference solver, on hand-checked systems."""
    A = [[2, 0], [0, 3], [1, 1]]
    assert solve_integer(A, [4, 9, 5], 2) == [2, 3]
    assert solve_integer(A, [4, 9, 6], 2) is None   # inconsistent
    assert solve_integer([[2, 0], [0, 3]], [3, 9], 2) is None   # x = (3/2, 3)
    assert solve_integer([], [], 3) == [0, 0, 0]


@st.composite
def systems(draw):
    """Rows of 1-4 vectors on 1-6 columns, entries in [-3, 3], and a target
    that is half the time an integer combination of them."""
    k, c = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entries = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=k, max_size=k))
    if draw(st.booleans()):
        t = draw(st.lists(entries, min_size=k, max_size=k))
        target = [sum(a * row[j] for a, row in zip(t, rows)) for j in range(c)]
    else:
        target = draw(st.lists(st.integers(-9, 9), min_size=c, max_size=c))
    return rows, target


@settings(max_examples=300, deadline=None)
@given(systems())
def test_hermite_solve_matches_the_reference_solver(system):
    """Forward substitution on the Hermite form of the rows: solvable
    exactly when the reference solver finds a solution, then the only
    one, which rebuilds the target."""
    rows, target = system
    c = len(target)
    basis = hermite_form(rows)
    got = _solve_hermite(basis, target)
    want = solve_integer([[row[j] for row in rows] for j in range(c)], target, len(rows))
    assert (got is None) == (want is None)
    if got is None:
        return
    assert [sum(a * row[j] for a, row in zip(got, basis)) for j in range(c)] == target
    assert got == solve_integer([[row[j] for row in basis] for j in range(c)], target,
                                len(basis))


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
        cabled, structure = cable(corpus[name], CableSpec(multiplicities=(2,)))
        base_edge = min(e for e, _ in structure.copy_edges)
        for sign in (1, -1):
            twisted, _ = insert_full_twists(cabled, structure, [TwistSite(base_edge, sign)])
            yield f"{name} (2) twist {sign}", twisted


def test_sparse_rows_densify_to_the_dense_oracle(corpus):
    """Sparse rows hold no zero coefficient and densify to the dense
    construction, on the corpus, random knots, parallels and twists."""
    checked = 0
    for name, d in differential_diagrams(corpus):
        M, dense = coloring_matrix(d), dense_coloring_matrix(d)
        assert M.columns == dense.columns, name
        assert densify(M.rows, M.shape[1]) == [list(row) for row in dense.rows], name
        assert all(0 not in row.values() for row in M.rows), name
        checked += 1
    assert checked >= 120 + len(corpus)


def test_determinant_matches_bareiss_minor(corpus):
    checked = 0
    for name, d in differential_diagrams(corpus):
        assert determinant(d) == bareiss_determinant(d), name
        checked += 1
    assert checked >= 100 + len(corpus)


# -- unit-pivot pre-pass against the dense oracle ----------------------------------


def assert_matches_dense_oracle(rows, width, name=None):
    """The sparse ``rows`` (``width`` columns) against one dense SNF."""
    diag, basis = dense_snf_oracle(densify(rows, width), width)
    assert snf_diagonal(rows, width) == diag, name
    assert kernel_lattice(rows, width) == basis, name


@st.composite
def coloring_shaped(draw):
    """Sparse rectangular matrices of coloring rows: (2, -1, -1), the fused
    (2, -2) and (1, -1), and zero rows, on random columns."""
    r, c = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    shapes = [()] + [(2, -2), (1, -1)] * (c >= 2) + [(2, -1, -1)] * (c >= 3)
    rows = []
    for _ in range(r):
        coefficients = draw(st.sampled_from(shapes))
        cols = draw(st.lists(st.integers(0, c - 1), min_size=len(coefficients),
                             max_size=len(coefficients), unique=True))
        row = [0] * c
        for j, a in zip(cols, coefficients):
            row[j] = a
        rows.append(row)
    return rows


@settings(max_examples=200, deadline=None)
@given(st.one_of(coloring_shaped(), matrices(st.integers(-9, 9)),
                 matrices(st.integers(-10 ** 6, 10 ** 6))))
def test_hermite_form_matches_the_reference(M):
    assert hermite_form(M) == reference_hermite_form(M)


@settings(max_examples=200, deadline=None)
@given(st.one_of(coloring_shaped(), matrices(st.integers(-2, 2))))
def test_unit_pivots_match_dense_oracle(M):
    assert_matches_dense_oracle(sparse_rows(M), len(M[0]))


# No unit entry anywhere: the pre-pass takes no pivot and the residual is
# the whole matrix (less its zero rows).
@settings(max_examples=100, deadline=None)
@given(matrices(st.tuples(st.sampled_from([2, 3]), st.integers(-3, 3)).map(
    lambda mk: mk[0] * mk[1])))
def test_unit_pivots_without_units_match_dense_oracle(M):
    pivots, residual, cols = algebra._unit_pivots(sparse_rows(M), len(M[0]))
    assert pivots == [] and cols == list(range(len(M[0])))
    assert residual == [row for row in M if any(row)]
    assert_matches_dense_oracle(sparse_rows(M), len(M[0]))


def test_kernel_of_no_rows_is_every_vector():
    for width in (0, 1, 3):
        assert_matches_dense_oracle([], width, width)


def full_parallel(corpus, name, k):
    base = corpus[name]
    return parallel(base, CableSpec(multiplicities=(k,) * len(base.components)))


def test_unit_pivots_match_dense_oracle_on_diagrams(corpus):
    checked = 0
    for name, d in differential_diagrams(corpus):
        M = coloring_matrix(d)
        assert_matches_dense_oracle(M.rows, M.shape[1], name)
        checked += 1
    for name, k in (("hopf", 6), ("hopf", 8), ("trefoil", 4), ("trefoil", 6), ("figure8", 4),
                    ("figure8", 5)):
        d = full_parallel(corpus, name, k)
        assert len(d.crossings) <= 128
        M = coloring_matrix(d)
        assert_matches_dense_oracle(M.rows, M.shape[1], (name, k))
        checked += 1
    assert checked >= 120 + len(corpus)


def test_dense_elimination_sees_only_the_residual(corpus, count_calls):
    """The dense steps see only what the unit pivots leave: the Smith form
    gets the residual rows, and the kernel's first Hermite form gets one
    row per residual column, made of that column's residual entries and
    its unit vector."""
    snf = count_calls(algebra, "smith_normal_form")
    hermite = count_calls(algebra, "hermite_form")

    def residual_rows():
        (kernel_rows,), _ = hermite   # the kernel, then the lifted basis
        return len(kernel_rows[0]) - len(kernel_rows)

    d = full_parallel(corpus, "figure8", 8)
    assert diagram_lattice(d).rank == 8 and residual_rows() == 0
    assert fox_coloring_count(d, 2) == 2 ** 8 and snf == []
    hermite.clear()
    d = full_parallel(corpus, "hopf", 8)
    assert diagram_lattice(d).rank == 14 and 0 < residual_rows() <= 16
    hermite.clear()
    fox_coloring_count(d, 2)
    assert len(snf) == 1 and 0 < len(snf[0][0]) <= 16, snf
    assert hermite and all(len(m) <= 16 and len(m[0]) <= 16 for (m,) in hermite)


@pytest.mark.parametrize("name,k,rows,cols", [
    ("figure8", 8, 0, 8), ("figure8", 12, 0, 12), ("figure8", 16, 0, 16),
    ("trefoil", 8, 8, 8), ("trefoil", 16, 17, 17),
    ("hopf", 8, 16, 16), ("hopf", 12, 24, 24), ("hopf", 16, 32, 32),
])
def test_unit_pivot_residual_is_no_larger_than_recorded(corpus, name, k, rows, cols):
    """The residual that the pivot sweeps leave on full parallels has no
    more rows and no more columns than the one-pivot-at-a-time order
    (cheapest Markowitz cost first, costs kept current) left."""
    M = coloring_matrix(full_parallel(corpus, name, k))
    pivots, residual, left = algebra._unit_pivots(M.rows, M.shape[1])
    assert len(residual) <= rows and len(left) <= cols
    assert len(pivots) + len(left) == M.shape[1]


@pytest.mark.parametrize("name,k", [("figure8", 12), ("hopf", 12)])
def test_large_parallel_lattice_is_colorings(corpus, name, k):
    d = full_parallel(corpus, name, k)
    lat = diagram_lattice(d)
    assert lat.rank >= 2
    for v in lat.basis:
        assert verify_coloring(d, lat.expand(v))
    assert determinant(d) == 0


def test_raw_labelled_odd_parallel_lattice_does_not_stall():
    """The 700-crossing 5-parallel of a random knot, with the arc labels
    that ``parallel`` gives it.  Those labels fix the residual's column
    order, on which the elimination once ran for minutes, so a subprocess
    with a timeout runs it first."""
    script = textwrap.dedent("""
        import random
        from zcolor.algebra import diagram_lattice
        from zcolor.cabling import CableSpec, parallel
        from zcolor.generate import random_knot_diagram
        base = random_knot_diagram(random.Random(69), n_ops=20)
        diagram_lattice(parallel(base, CableSpec(multiplicities=(5,))))
    """)
    src = str(Path(algebra.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                   timeout=10, check=True)
    base = random_knot_diagram(random.Random(69), n_ops=20)
    d = parallel(base, CableSpec(multiplicities=(5,)))
    assert len(d.crossings) == 700
    lat = diagram_lattice(d)
    for v in lat.basis:
        assert verify_coloring(d, lat.expand(v))
    assert lat.rank == diagram_lattice(canonical(d)[0]).rank >= 2


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


def test_constant_witness_is_dropped():
    # a kink beside a crossing-free circle: split, but every arc is one piece
    assert is_z_colorable(parse_pd("X[1,1,2,2]\n% loops: 1\n")) == (True, None)
    assert is_z_colorable(parse_pd("% loops: 2\n")) == (True, None)


def test_colorable_iff_det_zero(corpus):
    """``invariants`` reads colorability off the determinant; this is why.

    Connected: rank >= 2 exactly when det = 0.  Split or with a component
    that never passes under: det 0, and colorable.  One free loop: det 1,
    and not colorable.
    """
    from zcolor.diagram import parse_pd

    extra = [("one free loop", parse_pd("% loops: 1")),
             ("two free loops", parse_pd("% loops: 2")),
             ("kink and a free loop", parse_pd("% loops: 1\nX[1,1,2,2]"))]
    checked = 0
    for name, d in [*differential_diagrams(corpus), *extra]:
        assert is_z_colorable(d)[0] == (determinant(d) == 0), name
        checked += 1
    assert checked >= 100 + len(corpus)


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
