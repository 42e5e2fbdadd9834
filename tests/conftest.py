"""Shared fixtures and independent brute-force oracles."""

import itertools

import pytest

from zcolor.algebra import hermite_form, smith_normal_form
from zcolor.diagram import Diagram
from zcolor.generate import standard_diagrams


@pytest.fixture(scope="session")
def corpus() -> dict:
    return standard_diagrams()


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for one test and
    returns the list of the argument tuples of its calls, in call order."""

    def install(owner, name: str) -> list[tuple]:
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return install


def brute_force_fox_count(diagram: Diagram, n: int) -> int:
    """Count colorings mod n by direct enumeration over arc classes.

    Independent of the matrix/SNF route: checks the crossing relation
    2*over = under_in + under_out (mod n) on every candidate map.
    """
    cls = diagram.arc_classes()
    reps = sorted(set(cls.values()))
    count = 0
    for values in itertools.product(range(n), repeat=len(reps)):
        val = dict(zip(reps, values))
        ok = True
        for x in diagram.crossings:
            over = val[cls[x.over_in]]
            if (2 * over - val[cls[x.under_in]] - val[cls[x.under_out]]) % n:
                ok = False
                break
        if ok:
            count += 1
    return count * n ** diagram.free_loops


def brute_force_integer_kernel_rank(diagram: Diagram, box: int = 3) -> int:
    """Rank proxy: spot that non-constant integer colorings exist (or not)
    by enumerating small integer colorings over arc classes."""
    cls = diagram.arc_classes()
    reps = sorted(set(cls.values()))
    non_constant = False
    for values in itertools.product(range(-box, box + 1), repeat=len(reps)):
        val = dict(zip(reps, values))
        ok = all(
            2 * val[cls[x.over_in]] == val[cls[x.under_in]] + val[cls[x.under_out]]
            for x in diagram.crossings
        )
        if ok and len(set(values)) > 1:
            non_constant = True
            break
    return 2 if non_constant else (1 if reps else 0)


def det_int(A: list) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination).

    Independent of the Smith normal form that ``zcolor.algebra`` uses.
    """
    n = len(A)
    if n == 0:
        return 1
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[-1][-1]


def dense_snf_oracle(rows, width: int) -> tuple[list[int], list[list[int]]]:
    """Invariant factors and Hermite kernel basis of a ``width``-column
    matrix, from one dense ``smith_normal_form`` of the whole matrix.

    Bypasses the unit-pivot pre-pass that ``snf_diagonal`` and
    ``kernel_lattice`` run first: the kernel is read off the free columns
    of V, as ``kernel_lattice`` did before the pre-pass existed.
    """
    M = [list(row) for row in rows]
    if not M:
        return [], hermite_form([[int(i == j) for i in range(width)] for j in range(width)])
    _, S, V = smith_normal_form(M)
    n = min(len(M), width)
    free = [j for j in range(width) if j >= n or S[j][j] == 0]
    return [S[i][i] for i in range(n)], hermite_form([[row[j] for row in V] for j in free])


def reduced_determinant(matrix, drop_row: int, drop_col: int) -> int:
    """|det| of a coloring matrix with one row and one column deleted
    (Bareiss); 0 when the matrix is not square."""
    r, c = matrix.shape
    if r != c:
        return 0
    reduced = [
        [matrix.rows[i][j] for j in range(c) if j != drop_col]
        for i in range(r) if i != drop_row
    ]
    return abs(det_int(reduced))


def reference_faces(rows: dict) -> list[tuple[tuple[int, int], ...]]:
    """Every face of a crossing table, by a full rescan from the smallest
    unvisited corner each time.

    Independent of ``zcolor.diagram``'s walker: corner ``(X, i)`` leaves
    along the arc at slot ``i+1`` and arrives at that arc's far occurrence.
    """
    occ: dict[int, list[tuple[int, int]]] = {}
    for cid, row in rows.items():
        for s, e in enumerate(row):
            occ.setdefault(e, []).append((cid, s))
    corners = {(cid, i) for cid in rows for i in range(4)}
    faces = []
    while corners:
        start = min(corners)
        walk = []
        cur = start
        while True:
            walk.append(cur)
            corners.discard(cur)
            cid, i = cur
            e = rows[cid][(i + 1) % 4]
            a, b = occ[e]
            cur = b if a == (cid, (i + 1) % 4) else a
            if cur == start:
                break
        faces.append(tuple(walk))
    return faces


def reference_face_arcs(rows: dict, face) -> list[int]:
    """The arcs the corners of ``face`` leave along, in walk order."""
    return [rows[cid][(i + 1) % 4] for cid, i in face]
