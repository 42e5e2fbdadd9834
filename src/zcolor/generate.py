"""Builders for test diagrams: diff chains, random knots, standard corpus.

A diff chain is one base circle (colored 0) overlaid by small bights whose
colors prescribe the crossing diffs: a bight colored v crosses over the
base twice, producing two v-diff crossings while the base color telescopes
back to 0.  Kinks sprinkled on the base contribute 0-diff crossings, so
chains realize any diff histogram with verifiable colorings and known
paths between the bights.
"""

from __future__ import annotations

import random
from typing import Sequence

from .coloring import Coloring
from .diagram import Diagram, canonical
from .moves import DiagramBuilder, MoveError, R1Insert, apply_move


def diff_chain(loop_colors: Sequence[int], kinks_between: int = 0
               ) -> tuple[Diagram, Coloring]:
    """A base circle colored 0 overlaid by bights with the given colors.

    Each bight colored v contributes two v-diff crossings (the base dives
    under it twice: 0 -> 2v -> 0); `kinks_between`` kinks follow each bight
    on the base, adding 0-diff crossings.
    """
    if not loop_colors:
        raise ValueError("need at least one bight")
    k = len(loop_colors)
    rows = []
    gamma: Coloring = {}
    next_edge = 2 * k + 1  # base arcs are 1..2k

    def fresh():
        nonlocal next_edge
        e = next_edge
        next_edge += 1
        return e

    for i, v in enumerate(loop_colors):
        u_in = 2 * i + 1
        u_mid = 2 * i + 2
        u_out = (2 * i + 3) if i < k - 1 else 1
        outer, mid = fresh(), fresh()
        rows.append((u_in, mid, u_mid, outer))    # bight descends: positive
        rows.append((u_mid, mid, u_out, outer))   # bight returns: negative
        gamma[u_in] = 0
        gamma[u_mid] = 2 * v
        gamma[outer] = v
        gamma[mid] = v

    diagram = Diagram(rows, [1, -1] * k)
    if kinks_between:
        builder = DiagramBuilder(diagram)
        for i in range(k):
            base_arc = 2 * i + 1
            for j in range(kinks_between):
                info = apply_move(builder, R1Insert(edge=base_arc, sign=(-1) ** j))
                gamma.update(dict.fromkeys(info["arcs"], gamma[base_arc]))
        diagram = builder.diagram()
    return diagram, gamma


def random_knot_diagram(rng: random.Random, n_ops: int = 6) -> Diagram:
    """A one-component diagram grown by random kinks and twist clasps.

    Starts from a single kink and repeatedly either kinks a random arc
    (writhe +-1) or claps two parallel co-face arcs with a full twist
    (writhe +-2), preserving validity and planarity throughout.
    """
    builder = DiagramBuilder(Diagram([(1, 1, 2, 2)], [1]))
    for _ in range(n_ops):
        edges = sorted({e for row in builder.rows.values() for e in row})
        op = rng.random()
        if op < 0.55 or len(edges) < 4:
            e = rng.choice(edges)
            apply_move(builder, R1Insert(
                edge=e, sign=rng.choice((1, -1)),
                over_first=rng.random() < 0.5))
        else:
            pairs = rng.sample(edges, min(len(edges), 6))
            sign = rng.choice((1, -1))
            for f in pairs:
                g = rng.choice([e for e in edges if e != f])
                try:
                    builder.insert_twist(f, g, sign)
                    break
                except MoveError:
                    continue
    return canonical(builder.diagram())[0]


def standard_diagrams() -> dict[str, Diagram]:
    """The bundled small diagrams used across the test corpus."""
    from .diagram import parse_pd

    trefoil = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    builder = DiagramBuilder(trefoil)
    for e in (2, 4, 6):
        apply_move(builder, R1Insert(edge=e, sign=1, over_first=False))
    trefoil_w0 = canonical(builder.diagram())[0]
    return {
        "unknot_kink": parse_pd("X[1,1,2,2]"),
        "unknot_writhe0": parse_pd("X[1,3,2,2] X[3,4,4,1]"),
        "trefoil": trefoil,
        "trefoil_writhe0": trefoil_w0,
        "figure8": parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"),
        "hopf": parse_pd("X[4,1,3,2] X[2,3,1,4]"),
        "split_unlink": parse_pd("X[1,1,2,2] X[3,3,4,4]"),
    }
