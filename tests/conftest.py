"""Shared fixtures and independent brute-force oracles."""

import itertools
import os
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import pytest

from zcolor import rewrite
from zcolor.algebra import ColoringMatrix, diagram_lattice
from zcolor.cabling import CableError, CableSpec, parallel
from zcolor.diagram import (
    INCONSISTENT,
    OVER_A,
    OVER_B,
    UNDER_IN,
    UNDER_OUT,
    Diagram,
    DiagramError,
    PDSyntaxError,
    canonical,
    linking_number,
    parse_pd,
    writhe,
)
from zcolor.generate import random_knot_diagram, standard_diagrams
from zcolor.jsonio import SCHEMA_VERSION, coloring_to_json
from zcolor.moves import DiagramBuilder, MoveError, MoveTrace, R1Insert, Stage, apply_move
from zcolor.rewrite import DiffPath, RewriteError


def seeded_rng(seed: Optional[int] = None) -> random.Random:
    """Honor ZCOLOR_SEED for reproducible randomized tests."""
    if seed is None:
        seed = int(os.environ.get("ZCOLOR_SEED", "271828"))
    return random.Random(seed)


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


def single_stage(moves, disks) -> MoveTrace:
    """A one-stage trace of ``(move, disk)`` pairs over ``disks``."""
    return MoveTrace(stages=(Stage(moves=tuple(moves), disks=dict(disks)),))


def trace_moves(trace) -> list[tuple]:
    """Every ``(move, disk)`` of a move trace, stage after stage."""
    return [mv for stage in trace.stages for mv in stage.moves]


def chained(traces) -> MoveTrace:
    """The one trace that runs ``traces`` one after another."""
    return MoveTrace(stages=tuple(stage for trace in traces for stage in trace.stages))


def balanced_random_knot(rng: random.Random, n_ops: int) -> Diagram:
    """A random knot diagram brought to writhe 0 by kinks on random arcs."""
    d = random_knot_diagram(rng, n_ops=n_ops)
    w = writhe(d)
    b = DiagramBuilder(d)
    while w != 0:
        edges = sorted({e for row in b.rows.values() for e in row})
        s = -1 if w > 0 else 1
        apply_move(b, R1Insert(edge=rng.choice(edges), sign=s,
                               over_first=rng.random() < 0.5))
        w += s
    return canonical(b.diagram())[0]


def successors(diagram: Diagram) -> dict[int, int]:
    """Arc -> the arc after it along its strand, read off the components."""
    return {a: b for cyc in diagram.components for a, b in zip(cyc, cyc[1:] + cyc[:1])}


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


def oriented_relations_hold(diagram: Diagram, gamma: dict[int, int]) -> bool:
    """Every crossing relation, read through the oriented accessors: the
    over arc's incoming and outgoing colors agree, and twice the incoming
    one is the sum of the under arc's incoming and outgoing colors."""
    return all(gamma[x.over_in] == gamma[x.over_out]
               and 2 * gamma[x.over_in] == gamma[x.under_in] + gamma[x.under_out]
               for x in diagram.crossings)


def oriented_diffs(diagram: Diagram, gamma: dict[int, int]) -> dict[int, int]:
    """Crossing id -> its diff under a valid coloring, read through the
    oriented accessors: the distance from the incoming over color to the
    incoming under color, which equals that to the outgoing one."""
    diffs = {}
    for x in diagram.crossings:
        d = abs(gamma[x.over_in] - gamma[x.under_in])
        assert d == abs(gamma[x.over_in] - gamma[x.under_out]), x
        diffs[x.cid] = d
    return diffs


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


def transform_snf(matrix) -> tuple[list, list, list]:
    """Return unimodular U, V and diagonal S with U*M*V = S and d1 | d2 | ...

    The independent Smith reference: a pivot loop carrying both transforms,
    so the invariant factors, kernels and integer solves can be read off S
    and V and checked against the Hermite route of ``zcolor.algebra``,
    which shares none of this code.  Step t pivots on the smallest nonzero
    entry of the remaining block (the first unit ends the search) and
    clears the pivot's column and row by division with remainder.  While
    the pivot fails to divide some entry of the block below it, the
    offending row is added to the pivot row and reduction resumes with a
    smaller pivot.  The finished diagonal entry is made non-negative.  All
    arithmetic is exact.
    """
    S = [list(map(int, row)) for row in matrix]
    r = len(S)
    c = len(S[0]) if r else 0
    U = _identity(r)
    V = _identity(c)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):  # row dst += q * row src
        for k in range(c):
            S[dst][k] += q * S[src][k]
        for k in range(r):
            U[dst][k] += q * U[src][k]

    def add_col(dst, src, q):
        for row in S:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    for t in range(min(r, c)):
        pivot = _smallest_entry(S, t)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            p = S[t][t]
            i = next((i for i in range(t + 1, r) if S[i][t]), None)
            if i is not None:
                add_row(i, t, -(S[i][t] // p))
                if S[i][t]:  # remainder smaller than pivot: promote it
                    swap_rows(t, i)
                continue
            j = next((j for j in range(t + 1, c) if S[t][j]), None)
            if j is not None:
                add_col(j, t, -(S[t][j] // p))
                if S[t][j]:
                    swap_cols(t, j)
                continue
            if abs(p) == 1:  # a unit divides the whole block
                break
            i = next((i for i in range(t + 1, r)
                      if any(S[i][j] % p for j in range(t + 1, c))), None)
            if i is None:
                break
            add_row(t, i, 1)
        if S[t][t] < 0:
            S[t][t] = -S[t][t]  # the rest of row t is already zero
            U[t] = [-u for u in U[t]]
    return U, S, V


def _smallest_entry(S: list, t: int) -> Optional[tuple[int, int]]:
    """Position of the first smallest nonzero |entry| in the block S[t:, t:]."""
    pivot = None
    best = 0
    for i in range(t, len(S)):
        row = S[i]
        for j in range(t, len(row)):
            v = abs(row[j])
            if v and (pivot is None or v < best):
                if v == 1:
                    return i, j
                best, pivot = v, (i, j)
    return pivot


def _identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: list, B: list) -> list:
    if not A or not B:
        return []
    n, k, m = len(A), len(B), len(B[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def solve_integer(A: list, b: list[int], width: int) -> Optional[list[int]]:
    """One integer solution x (of length ``width``) of A x = b, or None.

    With U*A*V = S, x = V*y where S*y = U*b; coordinates of y on zero
    invariant factors are set to zero, so the solution is the unique one
    whenever the columns of A are independent.
    """
    if not A:
        return [0] * width
    U, S, V = transform_snf(A)
    y = [0] * width
    for i, (wi,) in enumerate(mat_mul(U, [[x] for x in b])):
        d = S[i][i] if i < width else 0
        if d:
            if wi % d:
                return None
            y[i] = wi // d
        elif wi:
            return None
    return [row[0] for row in mat_mul(V, [[v] for v in y])]


def reference_hermite_form(rows: list) -> list:
    """Row-style Hermite normal form with positive pivots; zero rows dropped.

    The reference for ``zcolor.algebra.hermite_form``, by another route:
    each column's pivot is the row of smallest nonzero entry, and the rows
    below are reduced against it, with a smaller remainder promoted to
    pivot, until a whole pass changes nothing.  The rows above are then
    reduced into [0, pivot).
    """
    M = [list(map(int, r)) for r in rows]
    if not M:
        return []
    c = len(M[0])
    pivot_row = 0
    for j in range(c):
        best = None
        for i in range(pivot_row, len(M)):
            if M[i][j] and (best is None or abs(M[i][j]) < abs(M[best][j])):
                best = i
        if best is None:
            continue
        M[pivot_row], M[best] = M[best], M[pivot_row]
        changed = True
        while changed:
            changed = False
            for i in range(pivot_row + 1, len(M)):
                if M[i][j]:
                    q = M[i][j] // M[pivot_row][j]
                    M[i] = [a - q * b for a, b in zip(M[i], M[pivot_row])]
                    if M[i][j]:
                        M[pivot_row], M[i] = M[i], M[pivot_row]
                        changed = True
        if M[pivot_row][j] < 0:
            M[pivot_row] = [-a for a in M[pivot_row]]
        for i in range(pivot_row):
            q = M[i][j] // M[pivot_row][j]
            if q:
                M[i] = [a - q * b for a, b in zip(M[i], M[pivot_row])]
        pivot_row += 1
        if pivot_row == len(M):
            break
    return [r for r in M if any(r)]


def dense_snf_oracle(rows, width: int) -> tuple[list[int], list[list[int]]]:
    """Invariant factors and Hermite kernel basis of a ``width``-column
    matrix, from one ``transform_snf`` of the whole matrix.

    Bypasses the unit-pivot pre-pass that ``snf_diagonal`` and
    ``kernel_lattice`` run first, and the Hermite route of the kernel: the
    kernel is read off the free columns of V and canonicalised by
    ``reference_hermite_form``, so no step calls ``zcolor.algebra``.
    """
    M = [list(row) for row in rows]
    if not M:
        return [], reference_hermite_form(_identity(width))
    _, S, V = transform_snf(M)
    n = min(len(M), width)
    free = [j for j in range(width) if j >= n or S[j][j] == 0]
    return [S[i][i] for i in range(n)], reference_hermite_form([[row[j] for row in V] for j in free])


def reference_scan_box(basis, bound: int) -> Optional[list[int]]:
    """The non-constant vector of the coefficient box with the fewest
    distinct values, ties to the lexicographically smallest; None if every
    vector is constant.

    Brute force over the whole box ``[-bound, bound]^k``: no sign symmetry,
    no pruning.
    """
    best = None
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(basis)):
        vals = [sum(a * row[j] for a, row in zip(coeffs, basis)) for j in range(len(basis[0]))]
        size = len(set(vals))
        if size > 1 and (best is None or (size, vals) < best):
            best = (size, vals)
    return None if best is None else best[1]


def reference_lattice_json(lattice) -> dict:
    """``zcolor.jsonio.lattice_to_json`` as first written: each basis vector
    expanded to a per-arc coloring, then sorted and encoded entry by entry
    by ``coloring_to_json``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "rank": lattice.rank,
        "basis": [coloring_to_json(lattice.expand(v)) for v in lattice.basis],
    }


def dense_coloring_matrix(diagram: Diagram) -> ColoringMatrix:
    """One dense relation row per crossing on the arc-class columns.

    The construction ``zcolor.algebra.coloring_matrix`` used before its
    rows became sparse: coefficients fuse when classes coincide, so a
    kink whose over and under arcs are one class gives the zero row.
    """
    cls = diagram.arc_classes()
    cols = diagram.arc_class_reps()
    idx = {c: i for i, c in enumerate(cols)}
    rows = []
    for x in diagram.crossings:
        row = [0] * len(cols)
        row[idx[cls[x.over_in]]] += 2
        row[idx[cls[x.under_in]]] -= 1
        row[idx[cls[x.under_out]]] -= 1
        rows.append(tuple(row))
    return ColoringMatrix(rows=tuple(rows), columns=cols)


def densify(rows, width: int) -> list[list[int]]:
    """Sparse ``{column: coefficient}`` rows as dense rows of ``width``."""
    dense = []
    for row in rows:
        line = [0] * width
        for j, v in row.items():
            line[j] = v
        dense.append(line)
    return dense


def sparse_rows(matrix) -> list[dict[int, int]]:
    """Dense rows as sparse ``{column: coefficient}`` rows, zeros dropped."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def reduced_determinant(matrix: ColoringMatrix, drop_row: int, drop_col: int) -> int:
    """|det| of a coloring matrix with one row and one column deleted
    (Bareiss); 0 when the matrix is not square."""
    r, c = matrix.shape
    if r != c:
        return 0
    dense = densify(matrix.rows, c)
    reduced = [
        [dense[i][j] for j in range(c) if j != drop_col]
        for i in range(r) if i != drop_row
    ]
    return abs(det_int(reduced))


def reference_faces(rows: dict) -> list[tuple[tuple[int, int], ...]]:
    """Every face of a crossing table, by a full rescan from the smallest
    unvisited corner each time.

    Independent of the move builder's walker: corner ``(X, i)`` leaves
    along the arc at slot ``i+1`` and arrives at that arc's far occurrence.
    """
    occ = occurrence_index(rows.items())
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


def reference_diff_paths(builder, gamma, diffs: dict[int, int]) -> list[DiffPath]:
    """Every diff path of a move builder's rows, found eagerly and sorted.

    The search ``zcolor.rewrite`` ran before it went one length at a time:
    a breadth-first search from each arc of each maximal-diff crossing, in
    ascending ids, through 0-diff crossings, that stops at the first level
    reaching a crossing of smaller positive diff; every hit of every search
    is then sorted by (length, end, start, via).  Incident crossings come
    from a scan of the rows, not from the builder's index.
    """
    d_m = max(diffs.values(), default=0)
    if not any(0 < d < d_m for d in diffs.values()):
        raise RewriteError("coloring has no smaller positive diff: nothing to route to")
    meets: dict[int, set[int]] = {}
    for cid, row in builder.rows.items():
        for e in row:
            meets.setdefault(e, set()).add(cid)

    def incident(arc: int) -> list[int]:
        return sorted(meets.get(arc, ()))

    found: list[DiffPath] = []
    for start in sorted(c for c, d in diffs.items() if d == d_m):
        for first in sorted(set(builder.rows[start])):
            frontier = [(first,)]
            seen = {first}
            while frontier:
                hits = [(cid, path) for path in frontier for cid in incident(path[-1])
                        if 0 < diffs[cid] < d_m]
                if hits:
                    for end, via in sorted(hits):
                        found.append(DiffPath(start=start, end=end, via=via,
                                              color=gamma[via[0]]))
                    break
                nxt = []
                for path in frontier:
                    for cid in incident(path[-1]):
                        if diffs[cid] != 0:
                            continue
                        for e in set(builder.rows[cid]):
                            if e not in seen:
                                seen.add(e)
                                nxt.append(path + (e,))
                frontier = nxt
    found.sort(key=lambda p: (len(p.via), p.end, p.start, p.via))
    return found


def checked_diffs(rows: dict, gamma) -> dict[int, int]:
    """Each crossing's diff in a crossing table, after checking every
    crossing relation: both over slots carry one color, and the two under
    colors sum to twice it.  Independent of ``verify_coloring``."""
    diffs = {}
    for cid, (under_in, over_a, under_out, over_b) in rows.items():
        over = gamma[over_a]
        assert gamma[over_b] == over, (cid, rows[cid])
        assert gamma[under_in] + gamma[under_out] == 2 * over, (cid, rows[cid])
        diffs[cid] = abs(over - gamma[under_in])
    return diffs


@dataclass
class StageState:
    """A simplification's diffs before a stage, or at its end, with the
    number of crossings of each diff and the last path the search before
    that stage yielded: the stage's."""

    diffs: dict[int, int]
    counts: dict[int, int]
    path: Optional[DiffPath] = None

    @property
    def d_m(self) -> int:
        return max(self.counts)


class StageRecorder:
    """Records ``to_simple_coloring`` stage by stage, through its one search.

    The loop calls ``rewrite._diff_paths`` once before each stage and runs
    the last path that call yielded.  The recorder wraps the search: each
    call checks the run's rows under its coloring with ``checked_diffs``,
    checks ``run.diffs`` and ``run.at_diff`` against them, snapshots them,
    and remembers the last path it passes on.  ``simplify`` adds the
    output's state at the end.
    """

    def __init__(self, monkeypatch):
        self.states: list[StageState] = []
        search = rewrite._diff_paths

        def recording(run):
            diffs = checked_diffs(run.builder.rows, run.gamma)
            assert diffs == run.diffs
            for d, cids in run.at_diff.items():
                assert set(map(diffs.__getitem__, cids)) == {d}, d
            counts = {d: len(cids) for d, cids in run.at_diff.items()}
            assert sum(counts.values()) == len(diffs)
            state = StageState(diffs, counts)
            self.states.append(state)
            return self._remembering(search(run), state)

        monkeypatch.setattr(rewrite, "_diff_paths", recording)

    @staticmethod
    def _remembering(paths, state: StageState):
        for path in paths:
            state.path = path
            yield path

    def simplify(self, diagram: Diagram, gamma):
        """``to_simple_coloring`` on a fresh record, the output's state last."""
        self.states = []
        out_d, out_g, trace = rewrite.to_simple_coloring(diagram, gamma)
        diffs = checked_diffs(out_d.rows, out_g)
        self.states.append(StageState(diffs, dict(Counter(diffs.values()))))
        return out_d, out_g, trace

    def check_lemma(self, finished: bool = True) -> list[int]:
        """Assert the elimination lemma on every recorded stage; returns each
        level's maximum D, in order.

        A stage's target loses D, and every diff whose count grows is 0, an
        existing one below D, |D - d| or |D - 2d| for the stage's path diff d.
        A level (the stages at one D) runs at most as many stages as it
        starts with D-diff crossings and ends without D, its diffs all 0, one
        below D at its start, or |D - d| or |D - 2d| for one of those; D
        strictly decreases.  Only the last level may stop with D left, and
        only when ``finished`` is false: a refused run.
        """
        levels: list[tuple[int, StageState, list[StageState]]] = []
        for before, after in zip(self.states, self.states[1:]):
            big, path = before.d_m, before.path
            d = before.diffs[path.end]
            assert before.diffs[path.start] == big and 0 < d < big, (path, d, big)
            assert after.diffs[path.start] != big, path
            allowed = ({0, abs(big - d), abs(big - 2 * d)}
                       | {v for v in before.counts if v < big})
            grown = {v for v, n in after.counts.items() if n > before.counts.get(v, 0)}
            assert grown <= allowed, (big, d, grown, allowed)
            if not levels or levels[-1][0] != big:
                levels.append((big, before, []))
            levels[-1][2].append(after)
        maxima = [big for big, _, _ in levels]
        assert maxima == sorted(set(maxima), reverse=True), maxima
        for i, (big, start, ends) in enumerate(levels):
            assert len(ends) <= start.counts[big], (big, len(ends))
            if big in ends[-1].counts:
                assert not finished and i == len(levels) - 1, (big, "left at level end")
                continue
            smaller = {v for v in start.counts if 0 < v < big}
            allowed = {0} | smaller | {abs(big - k * d) for d in smaller for k in (1, 2)}
            assert set(ends[-1].counts) <= allowed, (big, sorted(ends[-1].counts), allowed)
        return maxima


@pytest.fixture
def stage_recorder(monkeypatch) -> StageRecorder:
    return StageRecorder(monkeypatch)


def reference_r3(builder, mv) -> dict:
    """An R3 move on a ``DiagramBuilder``, from each side's strand roles.

    Independent of ``zcolor.moves``' slot arithmetic: it finds which
    crossings each side of the triangle joins, whether it passes under or
    over at each, and the order in which its strand meets them, and writes
    the rows of the flipped triangle from those roles.  It reports the new
    ``triangle`` as ``(cid, slot)`` corners, read off the full face listing
    of the rewritten rows: the one triangle face through the three crossings.
    """
    cids = tuple(mv.cids)
    if len(set(cids)) != 3 or any(c not in builder.rows for c in cids):
        raise MoveError(f"R3 needs three distinct crossings, got {cids}")
    triangle = builder.triangle(cids)
    if triangle is None:
        raise MoveError(f"crossings {cids} do not bound a triangle face")

    rows = {c: builder.rows[c] for c in cids}
    inner_edges = builder.face_arcs(triangle)

    def is_under_at(cid, e):
        row = rows[cid]
        s = row.index(e)
        if row.count(e) != 1:
            raise MoveError("degenerate triangle (kink inside)")
        return s in (UNDER_IN, UNDER_OUT)

    strands = {}  # inner edge -> (cid1, cid2, role at each)
    for e in inner_edges:
        at = [c for c in cids if e in rows[c]]
        if len(at) != 2:
            raise MoveError("triangle side does not join two of the crossings")
        strands[e] = (at[0], at[1])

    unders = {e: sum(is_under_at(c, e) for c in strands[e]) for e in strands}
    tops = [e for e, k in unders.items() if k == 0]
    bottoms = [e for e, k in unders.items() if k == 2]
    middles = [e for e, k in unders.items() if k == 1]
    if len(tops) != 1 or len(bottoms) != 1 or len(middles) != 1:
        raise MoveError("triangle is not an R3 pattern (needs top/middle/bottom strands)")

    def strand_route(inner):
        """(c_first, c_second, x_in, x_out): strand order through the triangle."""
        def in_out(cid):
            x = builder.crossing(cid)
            return (x.under_in, x.under_out) if is_under_at(cid, inner) else (x.over_in, x.over_out)

        # inner is the strand's out-edge at its first crossing
        c_first, c_second = strands[inner]
        if in_out(c_first)[1] != inner:
            c_first, c_second = c_second, c_first
        return c_first, c_second, in_out(c_first)[0], in_out(c_second)[1]

    routes = {e: strand_route(e) for e in inner_edges}

    # after the flip each strand passes its two crossings in the opposite order
    new_rows = {}
    for cid in cids:
        here = [e for e in inner_edges if cid in strands[e]]
        over_e = next(e for e in here if not is_under_at(cid, e))
        under_e = next(e for e in here if is_under_at(cid, e))

        def new_in_out(inner):
            c_first, c_second, x_in, x_out = routes[inner]
            if cid == c_first:      # becomes the strand's second crossing
                return (inner, x_out)
            return (x_in, inner)    # becomes the strand's first crossing

        u_in, u_out = new_in_out(under_e)
        o_in, o_out = new_in_out(over_e)
        if builder.signs[cid] > 0:
            new_rows[cid] = (u_in, o_out, u_out, o_in)
        else:
            new_rows[cid] = (u_in, o_in, u_out, o_out)
    for cid, row in new_rows.items():
        builder.set_row(cid, row)
    flipped = [f for f in reference_faces(dict(builder.rows))
               if len(f) == 3 and {c for c, _ in f} == set(cids)]
    assert len(flipped) == 1, flipped
    return {"created": [], "touched": list(cids), "relabelled": [], "triangle": list(flipped[0])}


def reference_bigon_arcs(rows: dict, c1: int, c2: int) -> tuple[int, int]:
    """(over arc, under arc) joining the two crossings of a bigon: the
    shared arc at an over slot of both rows, and the one at an under slot
    of both."""
    r1, r2 = rows[c1], rows[c2]
    over = under = None
    for e in set(r1) & set(r2):
        s1, s2 = r1.index(e), r2.index(e)
        if s1 in (OVER_A, OVER_B) and s2 in (OVER_A, OVER_B):
            over = e
        elif s1 in (UNDER_IN, UNDER_OUT) and s2 in (UNDER_IN, UNDER_OUT):
            under = e
    assert over is not None and under is not None, (c1, c2, r1, r2)
    return over, under


def reference_head(builder, arc: int) -> tuple[int, int]:
    """The ``(cid, slot)`` where ``arc`` ends: the under-in slot, or the
    over slot that the crossing's sign makes incoming."""
    for cid, row in builder.rows.items():
        for slot in (UNDER_IN, OVER_B if builder.signs[cid] > 0 else OVER_A):
            if row[slot] == arc:
                return cid, slot
    raise AssertionError(f"arc {arc} has no head")


def occurrence_index(rows) -> dict[int, list[tuple[int, int]]]:
    """Arc -> its ``(cid, slot)`` occurrences, from ``(cid, slots)`` pairs."""
    occ: dict[int, list[tuple[int, int]]] = {}
    for cid, r in rows:
        for s, e in enumerate(r):
            occ.setdefault(e, []).append((cid, s))
    return occ


def reference_orient(rows, hints) -> list[int]:
    """The crossing signs of PD rows, by propagating slot roles.

    Independent of ``zcolor.diagram``'s strand walk: every slot occurrence
    is a head (the arc ends there) or a tail.  Under slots are forced (slot
    0 a head, slot 2 a tail); over slots are solved by propagation, since
    every arc has one head and one tail and every crossing one incoming
    over-slot.  Orientation hints (component cycles) seed the over-slot
    roles, and a strand that is still free is oriented at its first row by
    label succession.  Raises ``DiagramError(INCONSISTENT)`` on a conflict.
    """
    occ = occurrence_index(enumerate(rows))
    heads: dict[tuple[int, int], bool] = {}
    for i in range(len(rows)):
        heads[(i, UNDER_IN)] = True
        heads[(i, UNDER_OUT)] = False

    def set_role(place, is_head):
        if place in heads:
            if heads[place] != is_head:
                raise DiagramError(INCONSISTENT)
            return []
        heads[place] = is_head
        return [place]

    # seed from hints: succ(x) = y pins x's over-slot roles where x, y share a crossing
    hint_succ = {}
    for cyc in hints or ():
        cyc = list(cyc)
        for k, e in enumerate(cyc):
            hint_succ[e] = cyc[(k + 1) % len(cyc)]

    work = list(heads.keys())
    for i, r in enumerate(rows):
        x, y = r[OVER_A], r[OVER_B]
        fwd = hint_succ.get(x) == y and x != y
        bwd = hint_succ.get(y) == x and x != y
        if fwd and not bwd:
            work += set_role((i, OVER_A), True) + set_role((i, OVER_B), False)
        elif bwd and not fwd:
            work += set_role((i, OVER_B), True) + set_role((i, OVER_A), False)

    def propagate(work):
        while work:
            place = work.pop()
            i, s = place
            is_head = heads[place]
            # within the crossing: the over pair has one head, one tail
            if s in (OVER_A, OVER_B):
                other = (i, OVER_B if s == OVER_A else OVER_A)
                work += set_role(other, not is_head)
            # across the edge: the other occurrence has the opposite role
            for place2 in occ[rows[i][s]]:
                if place2 != place:
                    work += set_role(place2, not is_head)

    propagate(work)

    # strands that never dive under anything: orient by label succession
    for i, r in enumerate(rows):
        if (i, OVER_A) in heads:
            continue
        x, y = r[OVER_A], r[OVER_B]
        if y == x + 1:
            head_slot = OVER_A
        elif x == y + 1:
            head_slot = OVER_B
        else:
            head_slot = OVER_A if x < y else OVER_B
        propagate(set_role((i, head_slot), True))

    return [1 if heads[(i, OVER_B)] else -1 for i in range(len(rows))]


_PD_LABEL = "[1-9][0-9]*"
_PD_TERM = re.compile(rf"X\[({_PD_LABEL}),({_PD_LABEL}),({_PD_LABEL}),({_PD_LABEL})\]")


def _pd_header_integers(line: str, spelling: str, header: str, ln: int) -> list[int]:
    col = line.index(":") + 1
    out = []
    for tok in line[col:].split():
        col = line.index(tok, col)
        if not re.fullmatch(spelling, tok):
            raise PDSyntaxError(f"bad {header} header: got {tok!r}", ln, col + 1)
        out.append(int(tok))
        col += len(tok)
    return out


def reference_read_pd(text: str) -> tuple[list[tuple[int, ...]], list[list[int]], int]:
    """The rows, component headers and loop count of PD text, read line by
    line and token by token, as ``parse_pd`` read it before it read every
    term in one scan; a PDSyntaxError names the first token that is not PD."""
    rows: list[tuple[int, ...]] = []
    headers: list[list[int]] = []
    loops = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            body = stripped[1:].strip()
            if body.startswith("component:"):
                headers.append(_pd_header_integers(line, _PD_LABEL, "component", ln))
            elif body.startswith("loops:"):
                count = _pd_header_integers(line, f"0|{_PD_LABEL}", "loops", ln)
                if len(count) != 1:
                    raise PDSyntaxError("bad loops header", ln, line.index("%") + 1)
                loops = count[0]
            else:
                raise PDSyntaxError(f"unknown header {body.split(':')[0]!r}", ln,
                                    line.index("%") + 1)
            continue
        col = 0
        for tok in line.split():
            col = line.index(tok, col)
            m = _PD_TERM.fullmatch(tok)
            if not m:
                raise PDSyntaxError(f"expected X[a,b,c,d], got {tok!r}", ln, col + 1)
            rows.append(tuple(map(int, m.groups())))
            col += len(tok)
    return rows, headers, loops


def reference_coloring_faults(text: str, coloring: dict) -> list[str]:
    """What is wrong with a (PD text, JSON coloring) pair, read with
    ``reference_read_pd`` and no check of ``zcolor``: arcs the coloring
    misses or names beyond the rows, and each row whose over slots 1 and 3
    differ or whose 2 * slot 1 is not slot 0 + slot 2.  No sign is read,
    since the relation is symmetric in each pair; empty when it verifies."""
    rows, _, _ = reference_read_pd(text)
    gamma = {int(e): int(v) for e, v in coloring.items()}
    arcs = {e for row in rows for e in row}
    faults = [f"arc {e} is uncolored" for e in sorted(arcs - set(gamma))]
    faults += [f"arc {e} is not in the PD" for e in sorted(set(gamma) - arcs)]
    if faults:
        return faults
    return [f"X[{a},{b},{c},{d}] fails" for a, b, c, d in rows
            if gamma[b] != gamma[d] or 2 * gamma[b] != gamma[a] + gamma[c]]


def pd_signs(rows) -> list[int]:
    """The signs ``parse_pd`` solves for ``rows``, written as headerless PD
    text with the arc labels renumbered 1..2n in the same order."""
    labels = {e: k for k, e in enumerate(sorted({e for r in rows for e in r}), start=1)}
    text = " ".join("X[%d,%d,%d,%d]" % tuple(labels[e] for e in r) for r in rows)
    return [x.sign for x in parse_pd(text).crossings]


def isomorphic(d1: Diagram, d2: Diagram) -> bool:
    """Full PD-isomorphism test by traversal-start search; small diagrams only.

    Tries every order of ``d1``'s components and every starting arc on
    each, numbering the arcs 1..2n along them, against ``d2``'s canonical
    rows.
    """
    if d1.free_loops != d2.free_loops or len(d1.crossings) != len(d2.crossings):
        return False
    if sorted(map(len, d1.components)) != sorted(map(len, d2.components)):
        return False
    target = sorted(x.slots for x in canonical(d2)[0].crossings)
    comps = d1.components
    for perm in itertools.permutations(comps):
        rotations = [[cyc[k:] + cyc[:k] for k in range(len(cyc))] for cyc in perm]
        for choice in itertools.product(*rotations):
            mapping = {e: k for k, e in enumerate(itertools.chain(*choice), start=1)}
            if sorted(tuple(mapping[e] for e in x.slots) for x in d1.crossings) == target:
                return True
    return False


def solve_partial(diagram: Diagram, partial: dict[int, int]) -> Optional[dict[int, int]]:
    """Complete a partial arc assignment to a full coloring, or return None.

    The completion is a lattice member agreeing with ``partial``; free
    directions are pinned to zero, so a unique completion is returned
    deterministically and the empty assignment completes to all zeros.
    """
    edges = set(diagram.edges)
    unknown = set(partial) - edges
    if unknown:
        raise DiagramError(f"assignment names unknown arcs: {sorted(unknown)}")
    lat = diagram_lattice(diagram)
    cls = diagram.arc_classes()
    pinned: dict[int, int] = {}
    for e, v in partial.items():
        rep = cls[e]
        if rep in pinned and pinned[rep] != int(v):
            return None
        pinned[rep] = int(v)
    if not lat.columns:
        return {}
    col = {cdx: i for i, cdx in enumerate(lat.columns)}
    k = lat.rank
    if k == 0:
        if any(v != 0 for v in pinned.values()):
            return None
        return {e: 0 for e in edges}
    A = [[lat.basis[t][col[rep]] for t in range(k)] for rep in sorted(pinned)]
    b = [pinned[rep] for rep in sorted(pinned)]
    t = solve_integer(A, b, k)
    if t is None:
        return None
    values = [sum(t[i] * lat.basis[i][j] for i in range(k)) for j in range(len(lat.columns))]
    out = {e: values[col[rep]] for e, rep in lat.edge_class}
    for e, v in partial.items():
        if out[e] != int(v):
            return None
    return out


@dataclass(frozen=True)
class RegionColoring:
    """Propagation of under strands beneath a constant block of over lines."""

    over_colors: tuple[int, ...]
    under_in: tuple[int, ...]
    interior: tuple[tuple[int, ...], ...]
    under_out: tuple[int, ...]


def standard_pattern(k: int) -> tuple[int, ...]:
    """The colors of a width-k parallel family where it enters a region:
    the middle two copies 1, the rest 0."""
    return tuple(int(c in (k // 2, k // 2 + 1)) for c in range(1, k + 1))


def propagate_region(over: Sequence[int], under_in) -> RegionColoring:
    """Apply the crossing relation along each under strand in met order.

    interior[s][j] = 2*over[j] - previous, starting from under_in[s]; the
    last interior entry is the strand's exit color.
    """
    over = tuple(int(o) for o in over)
    if isinstance(under_in, int):
        under_in = (under_in,)
    under_in = tuple(int(u) for u in under_in)
    interior = []
    outs = []
    for u in under_in:
        row = []
        cur = u
        for o in over:
            cur = 2 * o - cur
            row.append(cur)
        interior.append(tuple(row))
        outs.append(cur)
    return RegionColoring(
        over_colors=over,
        under_in=under_in,
        interior=tuple(interior),
        under_out=tuple(outs),
    )


def linking_equals_writhe(diagram: Diagram) -> tuple[int, int, bool]:
    """Writhe of a knot diagram vs the linking number of its 2-parallel.

    These agree for every diagram: each base crossing contributes exactly
    two inter-component grid crossings carrying its sign.
    """
    if len(diagram.components) != 1 or diagram.free_loops:
        raise CableError("needs a one-component knot diagram")
    w = writhe(diagram)
    cable = parallel(diagram, CableSpec(multiplicities=(2,)))
    lk = linking_number(cable, 0, 1)
    return w, lk, w == lk
