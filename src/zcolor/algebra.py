"""Exact integer linear algebra over the crossing relations.

The coloring matrix has one row per crossing and one column per Fox arc
(over-merged edge class): the row encodes 2*over - under_in - under_out = 0.
Everything downstream is arbitrary-precision integer arithmetic.  One
dense elimination, ``hermite_form``, serves every question: the kernel
lattice, whose Hermite basis writes a vector as an integer combination of
its rows by forward substitution alone (``_solve_hermite``), and the
invariant factors of the Smith form, read off Hermite forms of alternate
transposes.  The determinant is the product of all invariant factors but
the last, and Fox counts are their gcds with n.

The matrix is held as sparse rows, {column: coefficient} with at most
three entries each.  Almost every coloring row offers a +-1 pivot, so the
Smith form and the kernel of a coloring matrix start with a sparse
pre-pass (``_unit_pivots``) on those rows and run the dense elimination
only on what is left.  The pre-pass works in sweeps: each sorts the unit
entries once by Markowitz cost and pivots them in that order; costs are
not kept current within a sweep, so an entry whose cost moved waits for
the next one.  The lemma behind it: if M[i][j] = s with s = +-1,
subtracting multiples of row i clears column j from every other row, and
subtracting multiples of column j clears the rest of row i.  Both are
unimodular, so M is equivalent to diag(s, R), where R is M with row i and
column j deleted after the row step.  After p such pivots,
SNF(M) = diag(1, ..., 1, SNF(R)) with p ones.  For the kernel, row i
reads s * x_j + sum(rest of row i) = 0, so x_j = -s * sum(rest) is an
integer function of the columns still present.  Lifting ker R through
the pivots in reverse order is therefore a bijection of integer kernels
whose inverse forgets the pivot columns, so the lift of a saturated
basis of ker R is a saturated basis of ker M.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .diagram import Diagram, DiagramError, crossing_graph_pieces

Matrix = list[list[int]]


class ColoringMatrix(NamedTuple):
    """Crossing-relation matrix over the arc classes of a diagram."""

    rows: tuple[dict[int, int], ...]    # one per crossing, in crossing order:
                                        # column index -> nonzero coefficient
    columns: tuple[int, ...]            # arc class representatives, sorted

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.columns))


class ColoringLattice(NamedTuple):
    """Integer basis of the kernel of a coloring matrix.

    Basis vectors are indexed by arc class; ``expand`` turns a class vector
    into a full per-edge coloring.  The basis generates the whole integer
    kernel (it is saturated, not merely a rational basis) and is kept in
    Hermite form so equal lattices compare equal.
    """

    basis: tuple[tuple[int, ...], ...]
    columns: tuple[int, ...]
    edge_class: tuple[tuple[int, int], ...]  # (edge, class rep) pairs

    @property
    def rank(self) -> int:
        return len(self.basis)

    def expand(self, vector: tuple[int, ...]) -> dict[int, int]:
        col = {c: i for i, c in enumerate(self.columns)}
        return {e: vector[col[rep]] for e, rep in self.edge_class}

    def edge_vectors(self) -> list[dict[int, int]]:
        return [self.expand(v) for v in self.basis]


def coloring_matrix(diagram: Diagram) -> ColoringMatrix:
    """One sparse relation row per crossing on the arc-class columns.

    Coefficients fuse when classes coincide and zero coefficients are
    dropped: a crossing whose under-arcs belong to one class gives the
    {+2, -2} row, and a kink whose over and under arcs are the same class
    gives the empty row.  The 2 goes in the column of slot 1, which lies in
    one class with slot 3, so no sign is read.
    """
    classes = diagram.arc_classes
    cols = tuple(sorted(set(classes.values())))
    idx = {c: i for i, c in enumerate(cols)}
    col = {e: idx[c] for e, c in classes.items()}
    rows = []
    for ui, oa, uo, _ in diagram.rows.values():
        row = {col[oa]: 2}
        for e in (ui, uo):
            j = col[e]
            v = row.get(j, 0) - 1
            if v:
                row[j] = v
            else:
                del row[j]
        rows.append(row)
    return ColoringMatrix(rows=tuple(rows), columns=cols)


# -- Hermite and Smith forms -------------------------------------------------


def hermite_form(rows: Matrix) -> Matrix:
    """Row-style Hermite normal form with positive pivots; zero rows dropped.

    Column by column, Euclid on the pivot row and each row below it, one
    pair at a time, clears the column below the pivot; the rows above are
    then reduced into [0, pivot).  The form is unique for the row lattice.
    """
    M = [list(map(int, r)) for r in rows]
    pr = 0
    for j in range(len(M[0]) if M else 0):
        for i in range(pr + 1, len(M)):
            while M[i][j]:
                q = M[pr][j] // M[i][j]
                M[pr], M[i] = M[i], [a - q * b for a, b in zip(M[pr], M[i])]
        if not M[pr][j]:
            continue
        if M[pr][j] < 0:
            M[pr] = [-a for a in M[pr]]
        for i in range(pr):
            q = M[i][j] // M[pr][j]
            if q:
                M[i] = [a - q * b for a, b in zip(M[i], M[pr])]
        pr += 1
        if pr == len(M):
            break
    return [r for r in M if any(r)]


def _solve_hermite(basis: Matrix, target: list[int]) -> Optional[list[int]]:
    """Integer t with sum(t[i] * basis[i]) == target, or None if none exists,
    for a ``basis`` in Hermite form.

    Forward substitution along the pivot columns: the rows below row i
    vanish at its pivot, so t[i] is what the rows above leave of the target
    there, over the pivot, which must divide it.  The rows are independent,
    so t is the only solution.
    """
    rest, t = list(target), []
    for h in basis:
        j = next(j for j, a in enumerate(h) if a)
        q, r = divmod(rest[j], h[j])
        if r:
            return None
        rest = [a - q * b for a, b in zip(rest, h)]
        t.append(q)
    return None if any(rest) else t


def smith_normal_form(matrix) -> list[int]:
    """The min(rows, columns) invariant factors d1 | d2 | ... of ``matrix``.

    Hermite forms, of ``matrix`` and then of the transpose of the last
    form, until one is diagonal; row operations and transposing keep the
    invariant factors.  After two passes the form is square and
    nonsingular.  Each later pass takes the gcd of the last form's first
    row as its first pivot.  Either that pivot shrinks, or it divides the
    row while the column below it is clear, and then the new form's first
    row and column are both clear, because a Hermite form is unique for its
    lattice.  So the pivots settle one at a time.  Pairwise gcd/lcm
    exchanges sort the diagonal into a divisibility chain, and zeros pad it
    to min(rows, columns).
    """
    H = hermite_form(matrix)
    while any(v for i, row in enumerate(H) for j, v in enumerate(row) if i != j):
        H = hermite_form(list(zip(*H)))
    diag = [H[i][i] for i in range(len(H))]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    width = len(matrix[0]) if matrix else 0
    return diag + [0] * (min(len(matrix), width) - len(diag))


def snf_diagonal(rows, width: int) -> list[int]:
    """The min(rows, columns) invariant factors d1 | d2 | ... of the sparse
    ``rows`` on ``width`` columns: one per unit pivot, then the residual's,
    then zeros."""
    pivots, residual, _ = _unit_pivots(rows, width)
    diag = [1] * len(pivots)
    if residual:
        diag += smith_normal_form(residual)
    return diag + [0] * (min(len(rows), width) - len(diag))


def _unit_pivots(rows, width: int) -> tuple[list[tuple[int, int, dict[int, int]]], Matrix, list[int]]:
    """Eliminate on +-1 entries of the sparse ``rows``, in sweeps of
    cheapest Markowitz cost first.

    Works on copies of the rows with a column -> rows index.  The cost of
    entry (i, j) is (nnz of row i - 1) * (nnz of column j - 1).  Each sweep
    sorts the open rows' unit entries once by (cost, row, column) and
    pivots them in that order, skipping an entry that an earlier pivot of
    the sweep made stale: its row was pivoted or changed, or its cost
    moved.  The first entry of a sweep is never stale, and sweeps repeat
    while some open row has a unit entry, so the order is deterministic.
    Returns the pivots in order as (column, sign, rest of the pivot row),
    the dense residual (the nonzero rows left, in row order) and the
    columns no pivot took, which index the residual.
    """
    rows = {i: dict(row) for i, row in enumerate(rows) if row}
    col_rows: list[set[int]] = [set() for _ in range(width)]
    for i, row in rows.items():
        for j in row:
            col_rows[j].add(i)
    pivots = []
    while True:
        sweep = sorted(((len(row) - 1) * (len(col_rows[j]) - 1), i, j)
                       for i, row in rows.items() for j, v in row.items() if v == 1 or v == -1)
        if not sweep:
            break
        stale: set[int] = set()
        for cost, i, j in sweep:
            if i in stale:
                continue
            row = rows[i]
            if (len(row) - 1) * (len(col_rows[j]) - 1) != cost:
                continue
            del rows[i]
            s = row.pop(j)
            for k in row:
                col_rows[k].discard(i)
            col_rows[j].discard(i)
            stale.add(i)
            stale.update(col_rows[j])
            for t in col_rows[j]:  # row t -= (M[t][j] / s) * row i
                other = rows[t]
                q = other.pop(j) * s
                for k, v in row.items():
                    w = other.get(k, 0) - q * v
                    if w:
                        other[k] = w
                        col_rows[k].add(t)
                    else:
                        del other[k]
                        col_rows[k].discard(t)
            pivots.append((j, s, row))
    taken = {j for j, _, _ in pivots}
    cols = [j for j in range(width) if j not in taken]
    residual = [[row.get(j, 0) for j in cols] for row in rows.values() if row]
    return pivots, residual, cols


# -- kernel lattice ----------------------------------------------------------


def kernel_lattice(rows, width: int) -> Matrix:
    """Saturated integer basis of the kernel of the sparse ``rows`` (``width``
    columns), canonicalized by Hermite reduction.

    The unit pivots leave a residual R with m rows.  The vectors
    (column j of R | unit vector e_j) generate the lattice of all (R y | y),
    so the rows of its Hermite form that vanish on the first m entries are
    a basis of ker(R).  Each such y is lifted to ker(M) by back-substitution
    through the pivots, last first (see the module docstring).
    """
    pivots, residual, cols = _unit_pivots(rows, width)
    m, n = len(residual), len(cols)
    extended = [[row[j] for row in residual] + [int(i == j) for i in range(n)]
                for j in range(n)]
    vectors = []
    last_first = pivots[::-1]
    for h in hermite_form(extended):
        if any(h[:m]):
            continue
        v = [0] * width
        for j, a in zip(cols, h[m:]):
            v[j] = a
        for j, s, rest in last_first:
            t = 0
            for k, a in rest.items():
                t += a * v[k]
            v[j] = -s * t
        vectors.append(v)
    return hermite_form(vectors)


def diagram_lattice(diagram: Diagram) -> ColoringLattice:
    M = coloring_matrix(diagram)
    return ColoringLattice(
        basis=tuple(map(tuple, kernel_lattice(M.rows, len(M.columns)))),
        columns=M.columns,
        edge_class=tuple(sorted(diagram.arc_classes.items())),
    )


# -- colorability ------------------------------------------------------------


def determinant(diagram: Diagram) -> int:
    """Product d1*...*d(n-1) of the invariant factors of the n x n coloring
    matrix; 0 for split or singular diagrams.

    That product is the gcd of the first minors.  Every first minor of a
    connected diagram's matrix has the same absolute value (a tested
    property), so the gcd is the determinant.  A connected diagram whose
    relation matrix is not square (some component never passes under) is
    reported 0: such diagrams always have extra coloring freedom.
    """
    if not diagram.rows and not diagram.free_loops:
        raise DiagramError("determinant requires a non-empty diagram")
    pieces = crossing_graph_pieces(diagram)
    if len(pieces) > 1:
        return 0
    M = coloring_matrix(diagram)
    r, c = M.shape
    if r == 0:
        return 1  # a single crossing-free circle
    if r != c:
        return 0
    return math.prod(snf_diagonal(M.rows, c)[:-1])


def is_z_colorable(diagram: Diagram) -> tuple[bool, Optional[dict[int, int]]]:
    """Decide Z-colorability; the witness is a non-trivial coloring when true.

    Split diagrams are colorable outright: coloring the pieces by distinct
    constants already uses two colors.  Connected diagrams are colorable
    exactly when the kernel lattice has rank at least 2.
    """
    return colorability(diagram, diagram_lattice(diagram))


def colorability(diagram: Diagram, lat: ColoringLattice) -> tuple[bool, Optional[dict[int, int]]]:
    """``is_z_colorable`` of ``diagram`` given its kernel lattice ``lat``.

    The witness is None when every arc would get the same color, as on a
    split diagram whose other pieces are crossing-free circles.
    """
    if diagram.num_components == 0:
        return False, None
    pieces = crossing_graph_pieces(diagram)
    if len(pieces) > 1:
        witness = {}
        for k, piece in enumerate(pieces):
            for e in piece:
                witness[e] = k
        return True, (witness if len(set(witness.values())) > 1 else None)
    if lat.rank < 2:
        return False, None
    for v in lat.basis:
        if len(set(v)) > 1:
            return True, lat.expand(v)
    return False, None


def fox_coloring_count(diagram: Diagram, n: int) -> int:
    """Number of arc colorings in Z/n satisfying every relation mod n.

    Counted through the Smith form: each divisor d contributes gcd(d, n)
    solutions and each free column contributes n.  Crossing-free circles
    contribute a free constant each.
    """
    if n < 2:
        raise ValueError("modulus must be at least 2")
    M = coloring_matrix(diagram)
    r, c = M.shape
    diag = snf_diagonal(M.rows, c) if r and c else []
    count = 1
    for d in diag:
        count *= math.gcd(d, n) if d else n
    count *= n ** (c - len(diag))
    count *= n ** diagram.free_loops
    return count
