"""Span recorder for the traced run.

The recorder wraps zcolor's public functions from the outside: ``install``
replaces every reference that a zcolor module holds to one of them, so calls
from the CLI into a layer and calls between layers are both recorded.
Constructors of plain classes (``Diagram``, ``DiagramBuilder``) and the
methods that ``REPORTED`` names are wrapped too.  Private helpers (names
starting with ``_``) stay unwrapped.

A span is ``[name, parent, op, start_ns, end_ns, size, error]``: ``parent``
indexes the caller's span (-1 at the top), ``op`` is the index of the CLI op
the span belongs to, ``size`` is the crossing count (or matrix row count)
of the first argument, and ``error`` names the exception that ended it.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import statistics
import time

# The layers, in the order their self times are reported.
LAYERS = ("cli", "jsonio", "diagram", "cabling", "algebra", "coloring",
          "parallel_coloring", "rewrite", "moves")

# Functions whose calls, self time and median duration are reported.
REPORTED = (
    "moves.apply_move",
    "moves.DiagramBuilder.diagram",
    "diagram.Diagram",
    "diagram.Diagram.faces",
    "parallel_coloring.delete_color_moves",
    "moves.replay_trace",
    "moves.verify_local_equivalence",
    "algebra.smith_normal_form",
    "algebra.det_int",
    "algebra.determinant",
    "algebra.diagram_lattice",
    "algebra.fox_coloring_count",
    "rewrite.to_simple_coloring",
    "rewrite.find_diff_path",
    "rewrite.eliminate_max_diff",
    "parallel_coloring.propagate_coloring",
    "coloring.minimize_palette_on_diagram",
    "coloring.verify_coloring",
    "diagram.parse_pd",
    "diagram.validate",
    "cabling.parallel",
    "jsonio.dumps",
)

# Functions whose time is fitted against input size (log-log slope).
SLOPED = (
    "parallel_coloring.delete_color_moves",
    "moves.replay_trace",
    "moves.verify_local_equivalence",
    "algebra.smith_normal_form",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for fn in REPORTED:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms"), (f"{fn}.p50_ms", "ms")]
    out += [(f"{fn}.slope", "1") for fn in SLOPED]
    out += [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    out += [("moves.apply_move.rejected", "count"), ("moves.useful_ratio", "1"),
            ("fail_ratio", "1"), ("trace_overhead", "x")]
    return out


def _size(args) -> int:
    if not args:
        return 0
    first = args[0]
    crossings = getattr(first, "crossings", None)
    if crossings is not None:
        return len(crossings)
    if isinstance(first, list):
        return len(first)
    return 0


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, 0, 0, _size(args), None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                span[6] = type(err).__name__
                raise
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def write(self, path) -> None:
        """One JSON array per line, in start order."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def install(recorder: SpanRecorder, layers: dict, holders) -> list[tuple]:
    """Wrap the public functions of ``layers`` (short name -> module).

    Every module in ``holders`` that holds a reference to a wrapped function
    gets the wrapper in its place.  Returns the undo list for ``uninstall``.
    """
    wrappers = {}
    undo = []
    for short, mod in layers.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = recorder.wrap(f"{short}.{name}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                undo += _wrap_class(recorder, f"{short}.{name}", obj)
    for mod in holders:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
                undo.append((mod, name, obj))
    return undo


def _wrap_class(recorder: SpanRecorder, qualname: str, cls) -> list[tuple]:
    """Wrap the constructor of a plain class and the methods REPORTED names.

    Other methods are mostly one-line accessors called hundreds of
    thousands of times per pass; wrapping them would swamp the trace.
    """
    undo = []
    for attr, member in list(vars(cls).items()):
        if attr == "__init__" and not dataclasses.is_dataclass(cls):
            name = qualname  # a constructor call is reported under the class name
        elif f"{qualname}.{attr}" in REPORTED:
            name = f"{qualname}.{attr}"
        else:
            continue
        setattr(cls, attr, recorder.wrap(name, member))
        undo.append((cls, attr, member))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def fit_slope(points) -> float:
    """Least-squares slope of log(time) against log(size).

    Returns 0.0 when the points cover fewer than two distinct sizes.
    """
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def summarize(spans) -> dict[str, dict]:
    """Per function name: calls, errors, self time, durations and sizes."""
    child_ns = [0] * len(spans)
    for name, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, _, _, start, end, size, error) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "self_ns": 0, "durations_ns": [],
                                  "sizes": [], "errors": {}})
        s["calls"] += 1
        s["self_ns"] += end - start - child_ns[i]
        s["durations_ns"].append(end - start)
        s["sizes"].append(size)
        if error is not None:
            s["errors"][error] = s["errors"].get(error, 0) + 1
    return out


def layer_metrics(spans, emitted_moves: int, fail_ratio: float,
                  overhead: float) -> dict[str, float]:
    """Every metric named by ``per_layer_metrics``."""
    stats = summarize(spans)
    empty = {"calls": 0, "self_ns": 0, "durations_ns": [], "sizes": [], "errors": {}}
    m: dict[str, float] = {}
    for fn in REPORTED:
        s = stats.get(fn, empty)
        m[f"{fn}.calls"] = s["calls"]
        m[f"{fn}.self_ms"] = s["self_ns"] / 1e6
        m[f"{fn}.p50_ms"] = statistics.median(s["durations_ns"]) / 1e6 if s["calls"] else 0.0
    for fn in SLOPED:
        s = stats.get(fn, empty)
        m[f"{fn}.slope"] = fit_slope(zip(s["sizes"], s["durations_ns"]))
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(
            s["self_ns"] for name, s in stats.items()
            if name.split(".", 1)[0] == layer) / 1e6
    moves = stats.get("moves.apply_move", empty)
    m["moves.apply_move.rejected"] = moves["errors"].get("MoveError", 0)
    m["moves.useful_ratio"] = emitted_moves / moves["calls"] if moves["calls"] else 0.0
    m["fail_ratio"] = fail_ratio
    m["trace_overhead"] = overhead
    return m
