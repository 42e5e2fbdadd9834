import json
from itertools import chain

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import isomorphic, oriented, seeded_rng, successors
from zcolor.diagram import (
    Diagram,
    DiagramError,
    PDSyntaxError,
    _corner_successors,
    _orbit_count,
    canonical,
    crossing_graph_pieces,
    linking_number,
    parse_pd,
    same_diagram,
    serialize_pd,
    validate,
    writhe,
)

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
HOPF = "X[4,1,3,2] X[2,3,1,4]"


def test_parse_trefoil():
    d = parse_pd(TREFOIL)
    assert len(d.rows) == 3
    assert len(d.components) == 1
    assert validate(d) == []


def test_crossings_view_has_the_crossing_count(corpus):
    """The benchmark harness sizes a diagram by ``len(d.crossings)``; that
    view is the rows, so its length is the crossing count."""
    for d in [*corpus.values(), parse_pd(""), parse_pd("% loops: 2 \nX[1,2,2,1]")]:
        assert len(d.crossings) == len(d.rows), d


def test_parse_empty():
    d = parse_pd("")
    assert len(d.rows) == 0
    assert d.num_components == 0
    assert writhe(d) == 0


def test_parse_kink():
    d = parse_pd("X[1,2,2,1]")
    assert len(d.components) == 1
    assert writhe(d) == -1
    d2 = parse_pd("X[1,1,2,2]")
    assert writhe(d2) == 1


def test_parse_errors():
    with pytest.raises(PDSyntaxError):
        parse_pd("X[1,2,3]")
    with pytest.raises(PDSyntaxError):
        parse_pd("garbage")
    with pytest.raises(DiagramError):
        parse_pd("X[1,1,1,1]")  # arc multiplicity violation
    with pytest.raises(DiagramError):
        parse_pd("X[1,2,3,7] X[7,3,2,1]")  # labels not 1..2n


@pytest.mark.parametrize("rows, signs, loops, message", [
    ({0: (1, 1, 2, 2)}, {0: 1}, -1, "free loop count must be non-negative"),
    ({0: (1, 1, 2)}, {0: 1}, 0, "crossing (1, 1, 2) is not a quadruple of positive labels"),
    ({0: (1, 1, 0, 0)}, {0: 1}, 0, "crossing (1, 1, 0, 0) is not a quadruple of positive labels"),
    ({0: (1, 1, 2, 2)}, {1: 1}, 0, "signs must be keyed by exactly the crossing ids of the rows"),
    ({0: (1, 1, 2, 2)}, {}, 0, "signs must be keyed by exactly the crossing ids of the rows"),
    ({0: (1, 1, 2, 2)}, {0: 1, 1: 1}, 0,
     "signs must be keyed by exactly the crossing ids of the rows"),
], ids=["negative loops", "three slots", "label 0", "other id", "no sign", "extra sign"])
def test_diagram_refuses_malformed_maps(rows, signs, loops, message):
    with pytest.raises(DiagramError) as err:
        Diagram(rows, signs, loops)
    assert str(err.value) == message


def test_signs_share_their_keys_not_their_order_with_the_rows(corpus):
    """A sign map listed in the reverse order builds the same diagram."""
    from zcolor.diagram import serialize_pd_raw

    for name, d in corpus.items():
        e = Diagram(d.rows, dict(reversed(d.signs.items())), d.free_loops)
        assert e.components == d.components and same_diagram(e, d), name
        assert (serialize_pd(e), serialize_pd_raw(e)) == (serialize_pd(d), serialize_pd_raw(d)), name


def test_contradictory_header_rejected():
    with pytest.raises(DiagramError):
        parse_pd("% component: 1 4 2 5 3 6\n" + TREFOIL)
    with pytest.raises(DiagramError, match="orientation header contradicts the diagram"):
        parse_pd("% component: 1 3 2 4\nX[2,3,1,4] X[1,3,2,4]")
    with pytest.raises(DiagramError, match="orientation inconsistency"):
        parse_pd("X[1,3,2,4] X[1,4,2,3]")


# (text, line, column, token) as the token-by-token reader reported them
# before whole-line reading: the column counts from 1, tabs count as one.
SYNTAX_ERRORS = [
    ("X[1,4,2,5] X[1,4,2,5] junk", 1, 23, "junk"),
    ("X[1,4,2,5] X[1,4,2,5] X[1,4,2,5]X", 1, 23, "X[1,4,2,5]X"),
    ("  \tX[1,4,2,5]\t X[3,6,4,1]  \t bad", 1, 30, "bad"),
    ("X[1,4,2,5]\n# only a comment\n  X[3,6,4,1] X[5,2,6,3] oops # tail", 3, 25, "oops"),
    ("X[1,2,3]", 1, 1, "X[1,2,3]"),
    ("X[1,2,3,4]junk", 1, 1, "X[1,2,3,4]junk"),
    ("X[1,2,3,4] 2,3 X[1", 1, 12, "2,3"),
    ("\tX[12,3,4,5]\tX[2,3,4,5 ]", 1, 14, "X[2,3,4,5"),
    ("X[1,4,2,5] # X[ bad\nX[1, 2,3,4]", 2, 1, "X[1,"),
    ("X[1,2,3,4] x[1,2,3,4]", 1, 12, "x[1,2,3,4]"),
]


@pytest.mark.parametrize("text, line, column, token", SYNTAX_ERRORS)
def test_syntax_error_positions(text, line, column, token):
    with pytest.raises(PDSyntaxError) as err:
        parse_pd(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: expected X[a,b,c,d], got {token!r}"


# (text, line, column, message) of integers that ``int`` reads but that PD
# does not spell: non-ASCII digits, leading zeros, signs and a zero label
BAD_INTEGERS = [
    ("X[\u0661,2,2,1]", 1, 1, "expected X[a,b,c,d], got 'X[\u0661,2,2,1]'"),
    ("X[1,2,2,1] X[\uff13,4,4,3]", 1, 12, "expected X[a,b,c,d], got 'X[\uff13,4,4,3]'"),
    ("X[01,2,2,1]", 1, 1, "expected X[a,b,c,d], got 'X[01,2,2,1]'"),
    ("X[1,1,2,0]", 1, 1, "expected X[a,b,c,d], got 'X[1,1,2,0]'"),
    ("% component: 1 +2\nX[1,2,2,1]", 1, 16, "bad component header: got '+2'"),
    ("% component: 01 2\nX[1,2,2,1]", 1, 14, "bad component header: got '01'"),
    ("X[1,2,2,1]\n % component:\t1 \u0662", 2, 17, "bad component header: got '\u0662'"),
    ("% loops: \u0661", 1, 10, "bad loops header: got '\u0661'"),
    ("% loops: +1", 1, 10, "bad loops header: got '+1'"),
    ("% loops: 00", 1, 10, "bad loops header: got '00'"),
    ("X[1,1,2,2]\n  % loops: -1 # a comment", 2, 12, "bad loops header: got '-1'"),
]


@pytest.mark.parametrize("text, line, column, message", BAD_INTEGERS)
def test_integers_have_one_spelling(text, line, column, message):
    with pytest.raises(PDSyntaxError) as err:
        parse_pd(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


# (text, line, column, message) of texts with two errors: the first in the
# text is named, whether it is a term or a header
FIRST_ERROR = [
    ("X[1,2,3,x]\n% bogus: 1", 1, 1, "expected X[a,b,c,d], got 'X[1,2,3,x]'"),
    ("% bogus: 1\nX[1,2,3,x]", 1, 1, "unknown header 'bogus'"),
    ("% loops: 1 2\nX[1,2,2,1]X[3,4,4,3]", 1, 1, "bad loops header"),
    ("X[1,2,2,1]X[3,4,4,3]\n% loops: 1 2", 1, 1, "expected X[a,b,c,d], got 'X[1,2,2,1]X[3,4,4,3]'"),
    ("% component: 1 x\nX[1,2,2,1] %", 1, 16, "bad component header: got 'x'"),
    ("X[1,2,2,1] %\n% component: 1 x", 1, 12, "expected X[a,b,c,d], got '%'"),
]


@pytest.mark.parametrize("text, line, column, message", FIRST_ERROR)
def test_the_first_error_in_the_text_is_named(text, line, column, message):
    with pytest.raises(PDSyntaxError) as err:
        parse_pd(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert _read_like_the_scanner(text) == "refused"


def test_integers_as_pd_writes_them():
    d = parse_pd("% loops: 0\n% component: 1 2\nX[1,2,2,1]")
    assert (d.free_loops, d.components) == (0, ((1, 2),))
    assert parse_pd("% loops: 10\n").free_loops == 10


def test_any_whitespace_separates_terms():
    """Terms split where ``str.split`` splits, non-ASCII spaces included."""
    rows = list(parse_pd(TREFOIL).rows.values())
    for sep in ("\t", "\x0b", "\x0c", "\x1f", "\xa0", "\u2003", "\u3000", " \t "):
        d = parse_pd(sep + TREFOIL.replace(" ", sep) + sep)
        assert list(d.rows.values()) == rows, repr(sep)


def test_comment_and_headers():
    text = "# a trefoil\n% component: 1 2 3 4 5 6\n" + TREFOIL.replace(" ", "\n")
    d = parse_pd(text)
    assert len(d.rows) == 3
    d2 = parse_pd("% loops: 2\n")
    assert d2.free_loops == 2
    assert d2.num_components == 2


def test_writhe_convention():
    assert abs(writhe(parse_pd(TREFOIL))) == 3
    assert writhe(parse_pd(TREFOIL)) == -3  # this PD is the left trefoil


def test_linking_number():
    h = parse_pd(HOPF)
    assert abs(linking_number(h, 0, 1)) == 1
    assert linking_number(h, 0, 1) == linking_number(h, 1, 0)
    split = parse_pd("X[1,1,2,2] X[3,3,4,4]")
    assert linking_number(split, 0, 1) == 0
    with pytest.raises(DiagramError):
        linking_number(h, 0, 0)
    with pytest.raises(DiagramError):
        linking_number(h, 0, 5)


def test_components():
    assert len(parse_pd(TREFOIL).components) == 1
    assert len(parse_pd(HOPF).components) == 2
    assert len(crossing_graph_pieces(parse_pd(HOPF))) == 1
    assert len(crossing_graph_pieces(parse_pd("X[1,1,2,2] X[3,3,4,4]"))) == 2


def test_round_trip():
    for text in (TREFOIL, HOPF, "X[1,1,2,2]"):
        d = parse_pd(text)
        d2 = parse_pd(serialize_pd(d))
        assert same_diagram(d, d2)
        assert writhe(d) == writhe(d2)


def test_writhe_invariant_under_relabeling(corpus):
    for d in corpus.values():
        c, _ = canonical(d)
        assert writhe(c) == writhe(d)


def test_arc_classes_merge_over_pairs():
    d = parse_pd(TREFOIL)
    cls = d.arc_classes
    assert len(set(cls.values())) == 3
    k = parse_pd("X[1,1,2,2]")
    assert len(set(k.arc_classes.values())) == 1


INCONSISTENT = "orientation inconsistency: no consistent strand orientation exists"


def _orientation(d: Diagram) -> tuple:
    return (list(d.signs.values()), d.components, successors(d))


def _random_bases() -> list[Diagram]:
    from zcolor.generate import random_knot_diagram

    rng = seeded_rng()
    return [random_knot_diagram(rng, 2 + k) for k in range(4)]


def _parallels(corpus, random_bases):
    """Parallels of the corpus, of hopf at unequal widths and of ``random_bases``."""
    from zcolor.cabling import CableSpec, parallel

    for name, d in corpus.items():
        yield f"{name} (2)", parallel(d, CableSpec((2,) * d.num_components))
    yield "hopf (4,3)", parallel(corpus["hopf"], CableSpec((4, 3)))
    for k, d in enumerate(random_bases):
        yield f"random {k} (3)", parallel(d, CableSpec((3,)))


@pytest.mark.parametrize("wrong", [lambda sign: -sign, lambda sign: 0], ids=["flipped", "zero"])
def test_signed_build_refuses_a_wrong_sign(corpus, wrong):
    for name, d in corpus.items():
        for c, sign in d.signs.items():
            with pytest.raises(DiagramError) as err:
                Diagram(d.rows, {**d.signs, c: wrong(sign)}, d.free_loops)
            assert str(err.value) == INCONSISTENT, (name, c)


def test_signed_build_equals_the_solved_build(corpus):
    """The orientation read from the signs is the one solved from the rows."""
    from zcolor.diagram import serialize_pd_raw

    cases = list(corpus.items()) + list(_parallels(corpus, _random_bases()))
    for name, d in cases:
        signed = Diagram(d.rows, d.signs, d.free_loops)
        solved = parse_pd(serialize_pd_raw(d))
        assert _orientation(signed) == _orientation(solved) == _orientation(d), name


def test_signed_writers_do_not_solve_orientation(corpus, count_calls):
    """Only ``parse_pd`` solves signs: the generators, cabling, relabelling,
    the move builder and twist insertion all pass the signs they hold."""
    from zcolor import diagram
    from zcolor.cabling import CableSpec, TwistSite, cable, insert_full_twists
    from zcolor.generate import diff_chain
    from zcolor.moves import DiagramBuilder, R1Insert, apply_move

    solves = count_calls(diagram, "_solve_signs")
    for colors, kinks in (((1, 2), 0), ((3, 1, 2), 2)):
        diff_chain(colors, kinks)
    for name, d in _parallels(corpus, _random_bases()):
        canonical(d)
        builder = DiagramBuilder(d)
        if d.rows:
            apply_move(builder, R1Insert(edge=next(iter(d.rows.values()))[0], sign=1))
        builder.diagram()
    insert_full_twists(*cable(corpus["trefoil_writhe0"], CableSpec((2,))),
                       [TwistSite(base_edge=1, sign=1)])
    assert solves == []


def test_faces_euler(corpus):
    for name, d in corpus.items():
        if not d.rows:
            continue
        v = len(d.rows)
        e = len(d.edges)
        f = _orbit_count(_corner_successors(d._occ), chain.from_iterable(d._occ.values()))
        pieces = 2 if name == "split_unlink" else 1
        assert v - e + f == 2 * pieces, name


def test_validate_reports_a_table_with_no_planar_embedding():
    """Both signs are consistent, but the corner orbits are too few."""
    d = parse_pd("X[1,2,3,4] X[2,3,1,4]")
    assert validate(d) == ["face count 2 violates Euler formula (V=2, E=4, pieces=1)"]


def test_isomorphic():
    d = parse_pd(TREFOIL)
    shifted = parse_pd("X[3,6,4,1] X[5,2,6,3] X[1,4,2,5]")
    assert isomorphic(d, shifted)
    assert not isomorphic(d, parse_pd(HOPF))


def test_signs_recomputed_from_traversal(corpus):
    """Each crossing's sign, read by ``conftest.oriented``, runs both its
    strands the way the components run."""
    for d in corpus.values():
        succ = successors(d)
        for cid, row in d.rows.items():
            under_in, under_out, over_in, over_out = oriented(row, d.signs[cid])
            assert (succ[under_in], succ[over_in]) == (under_out, over_out), (cid, row)


def _relabelled_text(d: Diagram) -> str:
    """PD text of the built ``canonical(d)``: its headers, then its rows sorted."""
    canon, _ = canonical(d)
    lines = [f"% loops: {canon.free_loops}"] if canon.free_loops else []
    lines += ["% component: " + " ".join(map(str, cyc)) for cyc in canon.components]
    lines += [f"X[{a},{b},{c},{e}]" for a, b, c, e in sorted(canon.rows.values())]
    return "\n".join(lines) + ("\n" if lines else "")


def _serialized_cases(corpus):
    from zcolor.cabling import CableSpec, parallel
    from zcolor.generate import random_knot_diagram
    from zcolor.moves import DiagramBuilder, R1Remove, apply_move

    yield from corpus.items()
    for spec in ((4, 4), (3, 2)):
        yield f"hopf {spec}", parallel(corpus["hopf"], CableSpec(spec))
    rng = seeded_rng(5)
    for k in range(4):
        yield f"random {k} (2)", parallel(random_knot_diagram(rng, 2 + k), CableSpec((2,)))
    looped = parse_pd("% loops: 1\n" + TREFOIL)
    yield "trefoil and a loop (2,3)", parallel(looped, CableSpec((2, 3)))
    b = DiagramBuilder(parse_pd(TREFOIL + " X[7,7,8,8]"))
    apply_move(b, R1Remove(cid=3))
    yield "builder: trefoil and a removed kink", b.diagram()
    b = DiagramBuilder(parse_pd("X[1,1,2,2]"))
    apply_move(b, R1Remove(cid=0))
    yield "builder: a lone removed kink", b.diagram()
    yield "empty", parse_pd("")
    yield "two loops", parse_pd("% loops: 2")


def test_serialize_pd_is_the_canonical_text_without_a_build(corpus, count_calls):
    cases = list(_serialized_cases(corpus))
    assert any(d.free_loops and d.rows for _, d in cases)
    builds = count_calls(Diagram, "__init__")
    for name, d in cases:
        expected = _relabelled_text(d)
        builds.clear()
        text = serialize_pd(d)
        assert builds == [], name
        assert text == expected, name
        assert serialize_pd(canonical(d)[0]) == text, name


def _without_headers(text: str) -> str:
    return "".join(line for line in text.splitlines(True) if not line.startswith("% component:"))


def _solver_inputs(corpus):
    """(name, PD text): the corpus, random knots with and without headers,
    every golden diff chain as raw, canonical and headerless text, the
    parallels of ``_parallels`` and the simplify golden outputs."""
    import json

    from test_golden import GOLDEN, diff_chain_grid
    from zcolor.diagram import serialize_pd_raw
    from zcolor.generate import diff_chain, random_knot_diagram

    for name, d in corpus.items():
        yield name, serialize_pd_raw(d)
    rng = seeded_rng()
    for k in range(300):
        text = serialize_pd(random_knot_diagram(rng, 1 + k % 8))
        yield f"random {k}", text
        yield f"random {k} headerless", _without_headers(text)
    for case, colors, kinks in diff_chain_grid():
        d, _ = diff_chain(colors, kinks)
        yield f"{case} raw", serialize_pd_raw(d)
        yield f"{case} canonical", serialize_pd(d)
        yield f"{case} headerless", _without_headers(serialize_pd_raw(d))
    for name, d in _parallels(corpus, _random_bases()):
        yield name, serialize_pd_raw(d)
    for case, out in json.loads((GOLDEN / "simplify.json").read_text()).items():
        doc = json.loads(out.split("\n", 1)[1])
        if "pd" in doc:
            yield f"simplify {case}", doc["pd"]


def _emitted_diagrams(corpus):
    """(name, diagram): the golden diff chains and their simple colorings,
    random knots, the corpus's parallels and twisted 2-parallels, and the
    outputs of the color-deletion passes on them."""
    from test_golden import diff_chain_grid
    from zcolor.cabling import CableSpec, TwistSite, cable, insert_full_twists, parallel
    from zcolor.generate import diff_chain, random_knot_diagram
    from zcolor.moves import replay_trace
    from zcolor.parallel_coloring import NoApplicableMoveError, color_parallel, delete_color_moves
    from zcolor.rewrite import RewriteError, to_simple_coloring

    for case, colors, kinks in diff_chain_grid():
        d, gamma = diff_chain(colors, kinks)
        yield case, d
        try:
            yield f"{case} simple", to_simple_coloring(d, gamma)[0]
        except RewriteError:
            pass
    rng = seeded_rng()
    for k in range(100):
        yield f"random {k}", random_knot_diagram(rng, 1 + k % 8)
    for name, d in corpus.items():
        for width in (2, 3):
            yield f"{name} ({width})", parallel(d, CableSpec((width,) * d.num_components))
        if len(d.components) == 1 and not d.free_loops:
            cabled, structure = cable(d, CableSpec((2,)))
            for sign in (1, -1):
                sites = [TwistSite(e, sign) for e in d.components[0][:2]]
                yield f"{name} (2) twists {sign}", insert_full_twists(cabled, structure, sites)[0]
    colored = []
    for name in ("unknot_writhe0", "trefoil_writhe0", "figure8"):
        colored.append((f"{name} (2)", *color_parallel(corpus[name], (2,))))
    for name in ("trefoil", "figure8", "hopf"):
        widths = (4,) * corpus[name].num_components
        colored.append((f"{name} (4)", *color_parallel(corpus[name], widths)))
    for name, d, gamma, structure in colored:
        yield name, d
        try:
            reduced, _, traces = delete_color_moves(d, gamma, structure)
        except NoApplicableMoveError:
            continue
        if len(traces) == 2:  # a 2-parallel between its 4-pass and its -1 pass
            yield f"{name} without 4", replay_trace(d, traces[0])
        yield f"{name} reduced", reduced


def test_pd_round_trips_keep_signs(corpus):
    """Both serializers pin every crossing's sign: ``parse_pd`` of their
    text gives the canonical rows of ``d`` with ``d``'s signs."""
    from zcolor.diagram import serialize_pd_raw

    def signed_rows(d):
        canon = canonical(d)[0]
        return sorted(zip(canon.rows.values(), canon.signs.values()))

    names = []
    for name, d in _emitted_diagrams(corpus):
        expected = signed_rows(d)
        assert signed_rows(parse_pd(serialize_pd(d))) == expected, name
        assert signed_rows(parse_pd(serialize_pd_raw(d))) == expected, name
        names.append(name)
    assert sum(" simple" in n for n in names) > 150
    assert sum(n.endswith((" without 4", " reduced")) for n in names) >= 6


def _reference_parse(rows, headers, loops):
    """The signs the propagation oracle solves, or None where it refuses."""
    from conftest import reference_orient

    try:
        d = Diagram(dict(enumerate(rows)), dict(enumerate(reference_orient(rows, headers))),
                    free_loops=loops)
    except DiagramError:
        return None
    succ = successors(d)
    if any(succ.get(a) != b for cyc in headers for a, b in zip(cyc, cyc[1:] + cyc[:1])):
        return None
    return list(d.signs.values())


def _solved(text: str):
    try:
        return list(parse_pd(text).signs.values())
    except DiagramError:
        return None


def test_pd_solver_matches_the_propagation_oracle(corpus):
    """``parse_pd``'s strand walk gives the signs of the old slot-role
    propagation, and refuses the same texts after two labels are swapped."""
    import re


    rng = seeded_rng()
    term = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]")
    texts = 0
    outcomes = []
    for name, text in _solver_inputs(corpus):
        rows = [tuple(map(int, m)) for m in term.findall(text)]
        headers = [list(map(int, line.split(":")[1].split()))
                   for line in text.splitlines() if line.startswith("% component:")]
        loops = sum(int(line.split(":")[1]) for line in text.splitlines()
                    if line.startswith("% loops:"))
        expected = _reference_parse(rows, headers, loops)
        assert expected is not None and _solved(text) == expected, name
        texts += 1
        for _ in range(3 if rows else 0):
            cells = [list(r) for r in rows]
            (i, a), (j, b) = rng.sample([(i, a) for i in range(len(rows)) for a in range(4)], 2)
            cells[i][a], cells[j][b] = cells[j][b], cells[i][a]
            swapped = [tuple(r) for r in cells]
            expected = _reference_parse(swapped, headers, loops)
            lines = [line for line in text.splitlines() if line.startswith("%")]
            lines += ["X[%d,%d,%d,%d]" % r for r in swapped]
            assert _solved("\n".join(lines)) == expected, (name, swapped)
            outcomes.append(expected is None)
    assert texts > 1200 and 0 < sum(outcomes) < len(outcomes)


def test_two_arc_header_of_an_over_strand_starts_at_the_earlier_row():
    """``% component: a b`` of a strand that passes under nothing: a ends
    at the earlier of its two rows, so the header, not the labels, says
    which way it runs."""
    rows = "X[2,3,1,4] X[1,3,2,4]"
    assert list(parse_pd(rows).signs.values()) == [-1, 1]
    assert list(parse_pd("% component: 3 4\n" + rows).signs.values()) == [-1, 1]
    flipped = parse_pd("% component: 4 3\n" + rows)
    assert list(flipped.signs.values()) == [1, -1]
    signed = zip(flipped.rows.values(), flipped.signs.values())
    assert [oriented(r, s)[2] for r, s in signed] == [4, 3]


# -- the one-scan reader against the token scanner ----------------------------

# Separators as ``str.splitlines`` and ``str.split`` read them: line breaks
# (\v, \f, \x1c-\x1e, \x85 and \u2028 among them), spaces that break no
# line (\t, \x1f, \xa0), comments, and nothing at all (glued terms).
SEPARATORS = ["\n", "\r\n", " ", "\t", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f",
              "\x85", "\xa0", "\u2028", " # X[1,2 %\n", "#\n", ""]
# What an edit inserts: digits PD does not spell (a leading zero, non-ASCII
# digits, signs), the grammar's punctuation and more separators.
EDITS = ["0", "\u0661", "\uff13", "+", "-", "X", "[", "]", ",", ":", "%", "#", " ", "\xa0"]


@pytest.fixture(scope="module")
def reader_bases(corpus) -> list[tuple[list[str], list[str]]]:
    """(header lines, term lines) of small PD texts; ZCOLOR_SEED draws the
    random knot and its parallel."""
    from zcolor.cabling import CableSpec, parallel
    from zcolor.generate import random_knot_diagram

    knot = random_knot_diagram(seeded_rng(), 4)
    texts = [serialize_pd(d) for d in corpus.values()]
    texts += ["% loops: 2\n" + TREFOIL, serialize_pd(knot),
              serialize_pd(parallel(knot, CableSpec((2,))))]
    out = []
    for text in texts:
        lines = text.splitlines()
        out.append(([x for x in lines if x.startswith("%")],
                    [x for x in lines if not x.startswith("%")]))
    return out


def _read_like_the_scanner(text: str) -> str:
    """``parse_pd`` refuses ``text`` exactly as the token scanner does, or
    reads the scanner's rows, headers and loop count."""
    from conftest import reference_read_pd
    from zcolor.diagram import _read_pd

    try:
        rows, headers, loops = reference_read_pd(text)
    except PDSyntaxError as err:
        with pytest.raises(PDSyntaxError) as got:
            parse_pd(text)
        assert (got.value.line, got.value.column, str(got.value)) == \
            (err.line, err.column, str(err))
        return "refused"
    assert _read_pd(text) == ([e for r in rows for e in r], headers, loops)
    try:
        d = parse_pd(text)
    except DiagramError:
        return "not a diagram"
    assert (list(d.rows.values()), d.free_loops) == (rows, loops)
    return "parsed"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_scan_reader_matches_the_token_scanner(reader_bases, data):
    headers, terms = data.draw(st.sampled_from(reader_bases))
    chunks = list(terms)
    for line in headers:  # headers may land between term lines
        chunks.insert(data.draw(st.integers(0, len(chunks))), line)
    seps = data.draw(st.lists(st.sampled_from(SEPARATORS),
                              min_size=len(chunks), max_size=len(chunks)))
    text = "".join(sep + chunk for sep, chunk in zip(seps, chunks))
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from(EDITS)) + text[at:]
    event(_read_like_the_scanner(text))


def test_validate_of_a_parsed_diagram_builds_one_occurrence_index(corpus, count_calls):
    """``parse_pd`` builds the arc-occurrence index once: the sign walk,
    ``Diagram`` and ``validate``'s face walk all read that one, and so does
    a replay, whose builder starts from a copy of it and hands its own to
    the result.  A valid diagram is built with no ``Counter``."""
    from test_golden import GOLDEN
    from zcolor import diagram
    from zcolor.cabling import CableSpec, parallel
    from zcolor.jsonio import trace_from_json
    from zcolor.moves import replay_trace

    counters = count_calls(diagram, "Counter")
    text = serialize_pd(parallel(corpus["hopf"], CableSpec((50, 50))))
    indexes = count_calls(diagram, "occurrences")
    d = parse_pd(text)
    assert counters == []
    assert validate(d) == []
    assert (len(d.rows), len(indexes)) == (5000, 1)

    recorded = json.loads(GOLDEN.joinpath("reduce.json").read_text())["hopf-4,4 color-parallel"]
    doc = json.loads(recorded.split("\n", 1)[1])
    trace = trace_from_json(doc["traces"][0])
    indexes.clear()
    assert validate(replay_trace(parse_pd(doc["pd"]), trace)) == []
    assert len(indexes) == 1
