import pytest

from conftest import reference_diff_paths, seeded_rng, trace_moves
from test_golden import diff_chain_grid
from zcolor import coloring, rewrite
from zcolor import parallel_coloring as pc
from zcolor.algebra import is_z_colorable
from zcolor.cabling import CableSpec, parallel
from zcolor.coloring import ColoringError, diff_spectrum, is_simple, verify_coloring
from zcolor.diagram import Diagram, validate
from zcolor.generate import diff_chain, standard_diagrams
from zcolor.moves import MoveError, verify_local_equivalence
from zcolor.rewrite import RewriteError, to_simple_coloring


def structural(d):
    return [x for x in validate(d) if "canonical" not in x]


def diff_paths(d, g):
    """Every diff path of a fresh run on ``d`` and ``g``, in search order."""
    return list(rewrite._diff_paths(rewrite._Simplification(d, g)))


def test_chain_construction():
    d, g = diff_chain([2, 1], kinks_between=1)
    assert verify_coloring(d, g)
    assert structural(d) == []
    spec = diff_spectrum(d, g)
    assert spec.histogram == {2: 2, 1: 2, 0: 2}
    assert spec.d_m == 2


def test_find_diff_path_basic():
    d, g = diff_chain([2, 1])
    p = diff_paths(d, g)[0]
    spec = diff_spectrum(d, g)
    assert spec.diffs[p.start] == 2
    assert spec.diffs[p.end] == 1
    assert g[p.via[0]] == p.color


def test_path_through_kinks():
    d, g = diff_chain([2, 1], kinks_between=2)
    p = diff_paths(d, g)[0]
    assert len(p.via) >= 1
    spec = diff_spectrum(d, g)
    # intermediate crossings along the path all have diff 0
    for a, b in zip(p.via, p.via[1:]):
        shared = [x.cid for x in d.crossings
                  if a in x.slots and b in x.slots
                  and x.cid not in (p.start, p.end)]
        assert any(spec.diffs[c] == 0 for c in shared)


def test_no_path_when_pieces_split():
    # two chains in separate pieces: the 2-diff and 1-diff crossings
    # cannot see each other
    d1, g1 = diff_chain([2])
    d2, g2 = diff_chain([1])
    shift_e = max(d1.edges)
    shift_c = len(d1.crossings)
    rows = [x.slots for x in d1.crossings] + [
        tuple(e + shift_e for e in x.slots) for x in d2.crossings]
    from zcolor.diagram import parse_pd
    both = parse_pd(" ".join("X[%d,%d,%d,%d]" % r for r in rows))
    gamma = dict(g1)
    gamma.update({e + shift_e: c for e, c in g2.items()})
    assert verify_coloring(both, gamma)
    assert diff_paths(both, gamma) == []


def test_simple_input_has_no_route():
    d, g = diff_chain([2, 2])
    assert diff_paths(d, g) == []


def test_eliminate_removes_all_max_diffs(stage_recorder):
    d, g = diff_chain([2, 1])
    out_d, out_g, trace = stage_recorder.simplify(d, g)
    assert stage_recorder.check_lemma() == [2]
    spec = diff_spectrum(out_d, out_g)
    assert 2 not in spec.histogram
    assert set(spec.histogram) <= {0, 1}
    assert verify_coloring(out_d, out_g)
    assert verify_local_equivalence(d, out_d, trace).ok
    assert structural(out_d) == []


def test_eliminate_diff_arithmetic(stage_recorder):
    # removing a 3-diff crossing via a 1-diff target may create 2s and 1s
    d, g = diff_chain([3, 1])
    stage_recorder.simplify(d, g)
    assert stage_recorder.check_lemma()[0] == 3
    level_end = next(s for s in stage_recorder.states if s.d_m < 3)
    assert 3 not in level_end.counts
    assert set(level_end.counts) <= {0, 1, 2}


@pytest.mark.parametrize("colors,kinks", [
    ([2, 1], 0),
    ([2, 1], 1),
    ([3, 1], 0),
    ([3, 2], 1),
    ([4, 3], 2),
    ([4, 2], 1),
])
def test_to_simple_full_pipeline(colors, kinks):
    d, g = diff_chain(colors, kinks)
    initial_dm = diff_spectrum(d, g).d_m
    out_d, out_g, trace = to_simple_coloring(d, g)
    simple, dval = is_simple(out_d, out_g)
    assert simple
    assert verify_coloring(out_d, out_g)
    assert verify_local_equivalence(d, out_d, trace).ok
    assert len(trace.stages) <= initial_dm * len(d.crossings)
    assert structural(out_d) == []


def test_already_simple_returns_identity():
    d, g = diff_chain([2, 2])
    out_d, out_g, trace = to_simple_coloring(d, g)
    assert len(trace_moves(trace)) == 0
    assert out_g == g


def test_intermediate_colorings_verify(stage_recorder):
    """The recorder checks every crossing relation before every stage."""
    d, g = diff_chain([3, 2], kinks_between=1)
    out_d, out_g, _ = stage_recorder.simplify(d, g)
    assert stage_recorder.check_lemma() == [3, 2]
    assert verify_coloring(out_d, out_g)


def test_trivial_rejected():
    d, _ = diff_chain([1])
    with pytest.raises(RewriteError):
        to_simple_coloring(d, {e: 3 for e in d.edges})


def test_known_limitation_is_explicit():
    # the 4-over-1 chain reaches a level where no finger color is
    # available; the failure must be explicit, never a wrong result
    d, g = diff_chain([4, 1])
    with pytest.raises(RewriteError):
        to_simple_coloring(d, g)


def test_all_paths_sorted():
    d, g = diff_chain([2, 1], kinks_between=1)
    run = rewrite._Simplification(d, g)
    paths = list(rewrite._diff_paths(run))
    assert paths
    assert paths == reference_diff_paths(run.builder, run.gamma, run.diffs)
    lengths = [len(p.via) for p in paths]
    assert lengths == sorted(lengths)


def test_simple_detection_reports_common_diff():
    d, g = diff_chain([2, 2])
    assert is_simple(d, g) == (True, 2)
    d1, g1 = diff_chain([3, 3, 3])
    assert is_simple(d1, g1) == (True, 3)


def test_random_chains_simplify_or_fail_explicitly():
    """Outcomes are verified simplifications or RewriteError, never silent."""
    from zcolor.rewrite import RewriteError

    rng = seeded_rng(5)
    simplified = 0
    for trial in range(12):
        colors = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        if len(set(colors)) == 1:
            colors[0] += 1
        d, g = diff_chain(colors, rng.randint(0, 2))
        try:
            out_d, out_g, trace = to_simple_coloring(d, g)
        except RewriteError:
            continue
        assert verify_coloring(out_d, out_g), (trial, colors)
        assert is_simple(out_d, out_g)[0], (trial, colors)
        assert verify_local_equivalence(d, out_d, trace).ok, (trial, colors)
        simplified += 1
    assert simplified >= 8


def test_one_run_builds_few_diagrams_and_verifies_once(count_calls):
    """Rounds share one builder: one Diagram (the output, which the trace
    check compares row by row without building another), one trace check,
    and diffs, histogram and per-diff crossings kept current."""
    cabled = parallel(standard_diagrams()["trefoil"], CableSpec(multiplicities=(8,)))
    _, witness = is_z_colorable(cabled)
    builds = count_calls(Diagram, "__init__")
    verifications = count_calls(pc, "verify_local_equivalence")
    finishes = count_calls(pc._Run, "finish")
    out_d, out_g, trace = to_simple_coloring(cabled, witness)
    assert len(trace.stages) > 100
    assert len(builds) == 1
    assert len(verifications) == 1
    spec = diff_spectrum(out_d, out_g)
    run = finishes[0][0]
    assert run.diffs == spec.diffs
    assert {d: len(cids) for d, cids in run.at_diff.items()} == spec.histogram
    assert run.at_diff == {d: {c for c, e in spec.diffs.items() if e == d}
                           for d in spec.histogram}


def test_a_simplification_verifies_its_input_and_output_once(count_calls):
    """The run checks its input once and its finish checks the output once."""
    inputs = count_calls(coloring, "verify_coloring")
    outputs = count_calls(pc, "verify_coloring")
    d, g = diff_chain((3, 1, 2), 1)
    out_d, out_g, _ = to_simple_coloring(d, g)
    assert len(inputs) + len(outputs) == 2
    assert outputs[0][0] is d and outputs[1][0] is out_d


def test_an_invalid_input_is_refused_by_the_run():
    """Simplification and color deletion refuse a coloring that breaks a
    relation through the run's one input check."""
    d, g = diff_chain((3, 1, 2), 1)
    g[min(g)] += 1
    cabled, gamma, structure = pc.color_parallel(standard_diagrams()["hopf"], (4, 4))
    gamma[min(gamma)] += 1
    for call in (lambda: to_simple_coloring(d, g),
                 lambda: pc.delete_color_moves(cabled, gamma, structure)):
        with pytest.raises(ColoringError, match="^not a valid coloring$"):
            call()


def test_a_stage_failing_mid_run_refuses_the_whole_run(monkeypatch):
    d, g = diff_chain([2, 1], kinks_between=1)
    target = diff_paths(d, g)[0].start

    def failing_endgame(*args):
        raise MoveError("injected endgame failure")

    monkeypatch.setattr(rewrite, "_endgame", failing_endgame)
    with pytest.raises(RewriteError) as refused:
        to_simple_coloring(d, g)
    message = str(refused.value)
    assert "round 1" in message
    assert f"target crossing {target}" in message
    assert "injected endgame failure" in message


def test_lazy_diff_paths_yield_the_eager_reference_every_round(monkeypatch):
    """At every round of every run, the searches kept between rounds yield
    the eager search's sorted list with some paths left out, in the same
    order, or refuse with the same error.  Each path left out had its
    finger verdict fail earlier in the same level, with the same end diff,
    and fails it again now.

    Every other round runs them out, then hands the run a second search
    with no move between; the rounds in between check only the paths the
    run takes, so searches it left part-grown are kept into the next full
    check.  The trefoil (6) and (8) witnesses run 48 and 108 rounds at one
    maximum, so most searches are kept across many moves.
    """
    lazy, finger = rewrite._diff_paths, rewrite._finger_variant
    rejected = {}  # path -> (level, end diff, allowed) of its failed verdict
    current = [None]

    def verdict(run, path, d, allowed):
        variant = finger(run, path, d, allowed)
        if variant is None:
            rejected[path] = (run.d_m, d, allowed)
        return variant

    def outcome(search, *args):
        try:
            return list(search(*args))
        except RewriteError as err:
            return f"{type(err).__name__}: {err}"

    def left_out(run, path):
        level, d, allowed = rejected.get(path, (None, None, None))
        assert (level, d) == (run.d_m, run.diffs[path.end]), path
        assert finger(run, path, d, allowed) is None, path
        left[0] += 1

    def with_left_out(run, expected, paths, full):
        """``paths``, checked to be ``expected`` with left-out paths dropped,
        up to the last path taken, or to the end when ``full``."""
        rest = iter(expected)
        for path in paths:
            for reference in rest:
                if reference == path:
                    break
                left_out(run, reference)
            else:
                raise AssertionError(f"{path} is not in the reference, in order")
            yield path
        if full:
            for reference in rest:
                left_out(run, reference)

    rounds, left = [], [0]

    def checked(run):
        if current[0] is not run:
            current[0] = run
            rejected.clear()
        expected = outcome(reference_diff_paths, run.builder, run.gamma, run.diffs)
        rounds.append(expected if isinstance(expected, str) else len(expected))
        if isinstance(expected, str):
            assert outcome(lazy, run) == expected
            return lazy(run)
        if len(rounds) % 2:
            list(with_left_out(run, expected, lazy(run), True))
            return lazy(run)
        return with_left_out(run, expected, lazy(run), False)

    monkeypatch.setattr(rewrite, "_finger_variant", verdict)
    monkeypatch.setattr(rewrite, "_diff_paths", checked)
    inputs = [diff_chain(colors, kinks) for _, colors, kinks in diff_chain_grid()]
    std = standard_diagrams()
    for name, spec in (("hopf", (8, 8)), ("trefoil", (6,)), ("trefoil", (8,))):
        cabled = parallel(std[name], CableSpec(multiplicities=spec))
        inputs.append((cabled, is_z_colorable(cabled)[1]))
    simplified = 0
    for d, g in inputs:
        try:
            to_simple_coloring(d, g)
            simplified += 1
        except RewriteError:
            pass
    assert simplified == 181 + 3
    counts = [n for n in rounds if isinstance(n, int)]
    assert len(counts) > 2000 and max(counts) > 10
    assert left[0] > 50, left
