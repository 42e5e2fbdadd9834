"""JSON encoding for colorings, lattices, spectra, and move traces.

Integers outside the 53-bit safe range serialize as strings so output
survives lossy JSON readers; the decoder accepts both forms.  All
documents carry a schema version.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .coloring import Coloring, DiffSpectrum
from .moves import (
    Move,
    MoveTrace,
    R1Insert,
    R1Remove,
    R2Insert,
    R2Remove,
    R3,
    Stage,
)

SCHEMA_VERSION = 1
_SAFE = 2 ** 53 - 1
_ARC_KEY = re.compile(r"[1-9][0-9]*")
_INT = re.compile(r"0|-?[1-9][0-9]*")  # one spelling per integer


def encode_int(n: int) -> Any:
    return n if -_SAFE <= n <= _SAFE else str(n)


def decode_int(v: Any) -> int:
    """An integer, given as a JSON integer or as a string of ASCII decimal
    digits with an optional minus sign and no leading zero ("-0" refused)."""
    if isinstance(v, str) and _INT.fullmatch(v):
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"expected an integer, got {v!r}")


def coloring_to_json(gamma: Coloring) -> dict:
    return {str(e): encode_int(c) for e, c in sorted(gamma.items())}


def coloring_from_json(obj: dict) -> Coloring:
    """A coloring keyed by arc labels written as ``coloring_to_json`` writes
    them.  Any other key is refused, so no two keys can name one arc."""
    gamma = {}
    for e, c in obj.items():
        if not _ARC_KEY.fullmatch(e):
            raise ValueError(f"coloring key {e!r} is not an arc label "
                             "(a positive decimal with no leading zero)")
        gamma[int(e)] = decode_int(c)
    return gamma


def lattice_to_json(lattice) -> dict:
    """Each basis vector as ``coloring_to_json`` writes its per-arc coloring.

    The arc keys and each arc's class column are found once per lattice;
    a vector's entries are encoded one by one only when one of them lies
    outside the 53-bit safe range.
    """
    col = {c: i for i, c in enumerate(lattice.columns)}
    keys = [str(e) for e, _ in lattice.edge_class]
    index = [col[rep] for _, rep in lattice.edge_class]
    basis = []
    for v in lattice.basis:
        values = map(v.__getitem__, index)
        if min(v) < -_SAFE or max(v) > _SAFE:
            values = map(encode_int, values)
        basis.append(dict(zip(keys, values)))
    return {"schema_version": SCHEMA_VERSION, "rank": lattice.rank, "basis": basis}


def spectrum_to_json(spec: DiffSpectrum, gamma: Coloring) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "diffs": {str(c): d for c, d in sorted(spec.diffs.items())},
        "histogram": {str(d): n for d, n in sorted(spec.histogram.items())},
        "d_m": spec.d_m,
        "palette": [encode_int(v) for v in sorted(set(gamma.values()))],
    }


def _move_to_json(move: Move) -> dict:
    if isinstance(move, R1Insert):
        return {"kind": "R1+", "edge": move.edge, "sign": move.sign,
                "over_first": move.over_first}
    if isinstance(move, R1Remove):
        return {"kind": "R1-", "crossing": move.cid}
    if isinstance(move, R2Insert):
        out = {"kind": "R2+", "push": move.push_edge, "across": move.across_edge,
               "over": move.push_over}
        if move.corner is not None:
            out["corner"] = list(move.corner)
        return out
    if isinstance(move, R2Remove):
        return {"kind": "R2-", "crossings": [move.cid1, move.cid2]}
    if isinstance(move, R3):
        return {"kind": "R3", "crossings": list(move.cids)}
    raise TypeError(f"unknown move {move!r}")


def _flag(v: Any, key: str) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"{key!r} must be true or false, got {v!r}")
    return v


def _ints(v: Any, n: int, key: str) -> tuple[int, ...]:
    if not isinstance(v, list) or len(v) != n:
        raise ValueError(f"{key!r} must be a list of {n} integers, got {v!r}")
    return tuple(decode_int(x) for x in v)


def _move_from_json(obj: dict) -> Move:
    kind = obj["kind"]
    if kind == "R1+":
        return R1Insert(edge=decode_int(obj["edge"]), sign=decode_int(obj["sign"]),
                        over_first=_flag(obj.get("over_first", False), "over_first"))
    if kind == "R1-":
        return R1Remove(cid=decode_int(obj["crossing"]))
    if kind == "R2+":
        corner = obj.get("corner")
        return R2Insert(push_edge=decode_int(obj["push"]), across_edge=decode_int(obj["across"]),
                        push_over=_flag(obj["over"], "over"),
                        corner=None if corner is None else _ints(corner, 2, "corner"))
    if kind == "R2-":
        a, b = _ints(obj["crossings"], 2, "crossings")
        return R2Remove(cid1=a, cid2=b)
    if kind == "R3":
        return R3(cids=_ints(obj["crossings"], 3, "crossings"))
    raise ValueError(f"unknown move kind {kind!r}")


def trace_to_json(trace: MoveTrace) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "stages": [
            {
                "moves": [dict(_move_to_json(mv), disk=disk)
                          for mv, disk in stage.moves],
                "disks": {str(k): sorted(v) for k, v in stage.disks.items()},
            }
            for stage in trace.stages
        ],
    }


def trace_from_json(obj: dict) -> MoveTrace:
    stages = []
    for st in obj["stages"]:
        moves = tuple((_move_from_json(m), decode_int(m["disk"])) for m in st["moves"])
        disks = {}
        for k, v in st["disks"].items():
            if not _INT.fullmatch(k):
                raise ValueError(f"disk key {k!r} is not a disk id "
                                 "(a decimal integer with no leading zero)")
            disks[int(k)] = frozenset(map(decode_int, v))
        stages.append(Stage(moves=moves, disks=disks))
    return MoveTrace(stages=tuple(stages))


def dumps(obj: Any, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(obj, indent=2, sort_keys=True)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
