"""Strand-diagram calculus and conjugacy decision for piecewise-canonical
homeomorphism groups of multi-initial edge shifts."""

from .closed import (
    ClosedDiagram,
    Move,
    close,
    decompose_parts,
    permute_base,
    replay,
    semi_reduce,
    shift_expand,
    shift_reduce,
    skeleton,
    type3_expand,
    type3_reduce,
)
from .conjugacy import (
    ConjugacyResult,
    compare_split_merge,
    conjugator_witness,
    is_conjugate,
)
from .diagrams import (
    StrandDiagram,
    compose,
    equal,
    from_forest_pair,
    identity_diagram,
    invert,
    product,
    reduce,
    to_forest_pair,
)
from .errors import LimitExceeded, ParseError, PreconditionError, SignatureMismatch
from .forest import ForestPair, apply_to_word, expand_degenerate, expand_regular
from .graphs import (
    PathWord,
    ShiftGraph,
    is_isolated_cylinder,
    normalize_graph,
    validate_graph,
)
from .semigroup import (
    Presentation,
    bfs_equal,
    decide_equal,
    max_winding,
    presentation_from_graph,
)

__version__ = "0.1.0"
