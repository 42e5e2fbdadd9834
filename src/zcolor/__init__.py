"""Integer colorings of link diagrams.

Decide Z-colorability by exact integer linear algebra, build parallels
(cables) of diagrams, construct small-palette colorings of even parallels,
and rewrite colored diagrams by verified local moves.
"""

from .algebra import (
    ColoringLattice,
    ColoringMatrix,
    coloring_matrix,
    determinant,
    diagram_lattice,
    fox_coloring_count,
    is_z_colorable,
    kernel_lattice,
    smith_normal_form,
)
from .cabling import (
    CableError,
    CableSpec,
    parallel,
    two_parallel_untwisted,
)
from .coloring import (
    Coloring,
    ColoringError,
    DiffSpectrum,
    diff_spectrum,
    is_simple,
    minimize_palette_on_diagram,
    palette,
    verify_coloring,
)
from .diagram import (
    Crossing,
    Diagram,
    DiagramError,
    PDSyntaxError,
    canonical,
    linking_number,
    parse_pd,
    serialize_pd,
    validate,
    writhe,
)
from .moves import (
    MoveTrace,
    replay_trace,
    verify_local_equivalence,
)
from .parallel_coloring import (
    ConstructionError,
    NoApplicableMoveError,
    color_parallel,
    delete_color_moves,
)
from .rewrite import (
    NoDiffPathError,
    RewriteError,
    to_simple_coloring,
)

__all__ = [
    "CableError",
    "CableSpec",
    "Coloring",
    "ColoringError",
    "ColoringLattice",
    "ColoringMatrix",
    "ConstructionError",
    "Crossing",
    "Diagram",
    "DiagramError",
    "DiffSpectrum",
    "MoveTrace",
    "NoApplicableMoveError",
    "NoDiffPathError",
    "PDSyntaxError",
    "RewriteError",
    "canonical",
    "color_parallel",
    "coloring_matrix",
    "delete_color_moves",
    "determinant",
    "diagram_lattice",
    "diff_spectrum",
    "fox_coloring_count",
    "is_simple",
    "is_z_colorable",
    "kernel_lattice",
    "linking_number",
    "minimize_palette_on_diagram",
    "palette",
    "parallel",
    "parse_pd",
    "replay_trace",
    "serialize_pd",
    "smith_normal_form",
    "to_simple_coloring",
    "two_parallel_untwisted",
    "validate",
    "verify_coloring",
    "verify_local_equivalence",
    "writhe",
]

__version__ = "0.1.0"
