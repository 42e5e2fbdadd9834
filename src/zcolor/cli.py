"""Command-line interface: one command per operation, JSON on stdout.

Exit codes: 0 success, 1 domain error (reported as structured JSON on
stdout), 2 usage or input-syntax error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from . import algebra, cabling, coloring, diagram, jsonio, moves, parallel_coloring, rewrite
from .diagram import Diagram, DiagramError, PDSyntaxError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises bad arguments as a UsageError, so they print one JSON error.

    An argument that looks like a negative number, or like a comma list of
    integers that starts with one (``--spec -1,2``), is a value, not an
    option; argparse itself reads only the negative number that way.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d,]*$|^-\d*\.\d+$")

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _load_diagram(path: str) -> Diagram:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}")
    return diagram.parse_pd(text)


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise UsageError(f"{path}: invalid JSON ({err})")


def _decode_json(path: str, decode, what: str):
    """``decode`` applied to the JSON file at ``path``; a document of the
    wrong shape is a usage error naming the file."""
    doc = _load_json(path)
    try:
        return decode(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise UsageError(f"{path}: not a {what} ({type(err).__name__}: {err})")


def _parse_spec(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in spec.split(","))
    except ValueError:
        raise UsageError(f"--spec {spec!r}: expected comma-separated integers")


def _emit(doc: dict, pretty: bool) -> None:
    doc.setdefault("schema_version", jsonio.SCHEMA_VERSION)
    sys.stdout.write(jsonio.dumps(doc, pretty=pretty) + "\n")


def cmd_validate(args) -> int:
    d = _load_diagram(args.pd)
    diags = diagram.validate(d)
    _emit({
        "valid": not diags,
        "diagnostics": diags,
        "crossings": len(d.rows),
        "components": d.num_components,
        "free_loops": d.free_loops,
    }, args.pretty)
    return 0


def _invariants(d: Diagram) -> dict:
    """Writhe, determinant, components and colorability of ``d``."""
    det = algebra.determinant(d)
    return {
        "writhe": diagram.writhe(d),
        "determinant": det,
        "components": d.num_components,
        # a non-empty diagram is Z-colorable exactly when its determinant is 0
        "z_colorable": det == 0,
    }


def _encode_invariants(got: dict) -> dict:
    return dict(got, determinant=jsonio.encode_int(got["determinant"]))


def cmd_invariants(args) -> int:
    _emit(_encode_invariants(_invariants(_load_diagram(args.pd))), args.pretty)
    return 0


def cmd_colorability(args) -> int:
    d = _load_diagram(args.pd)
    lat = algebra.diagram_lattice(d)
    colorable, witness = algebra.colorability(d, lat)
    doc = {"z_colorable": colorable,
           "kernel_rank": lat.rank,
           "lattice": jsonio.lattice_to_json(lat)}
    if witness is not None:
        doc["witness"] = jsonio.coloring_to_json(witness)
    _emit(doc, args.pretty)
    return 0


def cmd_fox_count(args) -> int:
    if args.n < 2:
        raise UsageError(f"-n {args.n}: the modulus must be at least 2")
    d = _load_diagram(args.pd)
    _emit({"n": args.n,
           "count": jsonio.encode_int(algebra.fox_coloring_count(d, args.n))},
          args.pretty)
    return 0


def cmd_cable(args) -> int:
    d = _load_diagram(args.pd)
    if args.two_parallel_untwisted:
        out = cabling.two_parallel_untwisted(d)
    else:
        if not args.spec:
            raise UsageError("cable needs --spec or --two-parallel-untwisted")
        mult = _parse_spec(args.spec)
        out = cabling.parallel(d, cabling.CableSpec(multiplicities=mult))
    _emit({"pd": diagram.serialize_pd(out),
           "crossings": len(out.rows),
           "components": out.num_components}, args.pretty)
    return 0


def cmd_color_parallel(args) -> int:
    d = _load_diagram(args.pd)
    cabled, gamma, structure = parallel_coloring.color_parallel(d, _parse_spec(args.spec))
    # verbatim serialization keeps arc labels and crossing ids stable so the
    # emitted traces replay against the emitted pd
    doc = {
        "pd": diagram.serialize_pd_raw(cabled),
        "coloring": jsonio.coloring_to_json(gamma),
        "palette": [jsonio.encode_int(v) for v in sorted(set(gamma.values()))],
    }
    if args.reduce:
        cur_d, cur_g, traces = parallel_coloring.delete_color_moves(cabled, gamma, structure)
        doc["reduced_pd"] = diagram.serialize_pd_raw(cur_d)
        doc["reduced_coloring"] = jsonio.coloring_to_json(cur_g)
        doc["palette"] = [jsonio.encode_int(v) for v in sorted(set(cur_g.values()))]
        doc["traces"] = [jsonio.trace_to_json(trace) for trace in traces]
    _emit(doc, args.pretty)
    return 0


def cmd_simplify_coloring(args) -> int:
    d = _load_diagram(args.pd)
    gamma = _decode_json(args.coloring, jsonio.coloring_from_json, "coloring")
    out_d, out_g, trace = rewrite.to_simple_coloring(d, gamma)
    # the run has verified the output, so its positive diffs are read as they stand
    diffs = {abs(out_g[over] - out_g[under]) for under, over, _, _ in out_d.rows.values()} - {0}
    _emit({
        "pd": diagram.serialize_pd(out_d),
        "coloring": jsonio.coloring_to_json(out_g),
        "trace": jsonio.trace_to_json(trace),
        "simple": [True, *diffs] if len(diffs) == 1 else [False, None],
    }, args.pretty)
    return 0


def cmd_minimize(args) -> int:
    if args.bound < 1:
        raise UsageError(f"--bound {args.bound}: the coefficient bound must be at least 1")
    d = _load_diagram(args.pd)
    lat = algebra.diagram_lattice(d)
    best = coloring.minimize_palette_on_diagram(lat, args.bound)
    values, size = coloring.palette(best)
    _emit({
        "coloring": jsonio.coloring_to_json(best),
        "palette": [jsonio.encode_int(v) for v in sorted(values)],
        "palette_size": size,
        "bound": args.bound,
    }, args.pretty)
    return 0


def cmd_verify(args) -> int:
    d = _load_diagram(args.pd)
    gamma = _decode_json(args.coloring, jsonio.coloring_from_json, "coloring")
    spec = coloring.valid_spectrum(d, gamma)
    doc = {"valid": spec is not None}
    if spec is not None:
        doc.update(jsonio.spectrum_to_json(spec, gamma))
    _emit(doc, args.pretty)
    return 0


def cmd_replay(args) -> int:
    d = _load_diagram(args.pd)
    trace = _decode_json(args.trace, jsonio.trace_from_json, "move trace")
    # one replay gives both the result and the locality reasons of --check
    builder = moves.DiagramBuilder(d)
    reasons: list[str] = []
    moves.apply_trace(builder, trace, reasons)
    result = builder.diagram()
    doc = {"pd": diagram.serialize_pd(result)}
    if args.check:
        if not diagram.same_diagram(result, _load_diagram(args.check)):
            reasons.append(moves.TARGET_MISMATCH)
        doc["equivalent"] = not reasons
        doc["reasons"] = reasons
    _emit(doc, args.pretty)
    return 0


def cmd_corpus(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise UsageError(f"no such corpus directory: {args.dir}")
    report = []
    failures = 0
    for pd_file in sorted(root.glob("*.pd")):
        entry = {"file": pd_file.name}
        try:
            got = _invariants(diagram.parse_pd(pd_file.read_text()))
            entry["invariants"] = _encode_invariants(got)
            sidecar = pd_file.with_suffix(".expected.json")
            if sidecar.exists():
                expected = _load_expected(sidecar, got)
                mismatches = {
                    k: {"expected": expected[k], "got": got[k]}
                    for k in expected if got[k] != expected[k]
                }
                if mismatches:
                    entry["mismatches"] = mismatches
                    failures += 1
            entry["ok"] = "mismatches" not in entry
        except (DiagramError, PDSyntaxError, UsageError) as err:
            entry["ok"] = False
            entry["error"] = str(err)
            failures += 1
        report.append(entry)
    _emit({"entries": report, "failures": failures}, args.pretty)
    return 1 if failures else 0


def _load_expected(sidecar: Path, got: dict) -> dict:
    """The sidecar's expected invariants; a sidecar that is not a JSON
    object of invariants the corpus run computes is an error naming it."""
    expected = _load_json(str(sidecar))
    if not isinstance(expected, dict):
        raise UsageError(f"{sidecar}: expected a JSON object of invariants")
    unknown = sorted(set(expected) - set(got))
    if unknown:
        raise UsageError(f"{sidecar}: unknown invariants {unknown}")
    return expected


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="zcolor",
        description="Integer colorings of link diagrams: colorability, "
                    "cabling, palette reduction.")
    ap.add_argument("--pretty", action="store_true",
                    help="indent the JSON output (cosmetic only)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a PD file's invariants")
    p.add_argument("pd")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="writhe, determinant, colorability")
    p.add_argument("pd")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("colorability", help="kernel rank and witness coloring")
    p.add_argument("pd")
    p.set_defaults(func=cmd_colorability)

    p = sub.add_parser("fox-count", help="count colorings mod n")
    p.add_argument("pd")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_fox_count)

    p = sub.add_parser("cable", help="build a parallel of the diagram")
    p.add_argument("pd")
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--spec", help="comma-separated multiplicities, e.g. 3,2")
    shape.add_argument("--two-parallel-untwisted", action="store_true")
    p.set_defaults(func=cmd_cable)

    p = sub.add_parser("color-parallel", help="color an even parallel or a 2-parallel")
    p.add_argument("pd")
    p.add_argument("--spec", required=True)
    p.add_argument("--reduce", action="store_true",
                   help="delete extreme colors by verified local moves")
    p.set_defaults(func=cmd_color_parallel)

    p = sub.add_parser("simplify-coloring", help="rewrite to a simple coloring")
    p.add_argument("pd")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_simplify_coloring)

    p = sub.add_parser("minimize", help="bounded palette minimization")
    p.add_argument("pd")
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("verify", help="verify a coloring and report its spectrum")
    p.add_argument("pd")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="replay a move trace")
    p.add_argument("pd")
    p.add_argument("trace")
    p.add_argument("--check", help="target PD file for equivalence verification")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("corpus", help="run the invariants over a corpus directory")
    p.add_argument("dir")
    p.set_defaults(func=cmd_corpus)
    return ap


DOMAIN_ERRORS = (
    DiagramError,
    cabling.CableError,
    coloring.ColoringError,
    moves.MoveError,
    parallel_coloring.ConstructionError,
    parallel_coloring.NoApplicableMoveError,
    rewrite.RewriteError,
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing never changes it, and each call
    gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as err:  # --help printed its text
            return 2 if err.code not in (0, None) else 0
        return args.func(args)
    except UsageError as err:
        _emit({"error": {"type": "usage", "message": str(err)}}, False)
        return 2
    except PDSyntaxError as err:
        _emit({"error": {"type": "syntax", "message": str(err),
                         "line": err.line, "column": err.column}}, False)
        return 2
    except DOMAIN_ERRORS as err:
        _emit({"error": {"type": type(err).__name__, "message": str(err)}}, False)
        return 1


if __name__ == "__main__":
    sys.exit(main())
