"""Strand-diagram calculus and conjugacy decision for piecewise-canonical
homeomorphism groups of multi-initial edge shifts."""

from .closed import (
    ClosedDiagram,
    Move,
    close,
    conjugator_of,
    cut,
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
    decompose_generators,
    equal,
    from_forest_pair,
    identity_diagram,
    invert,
    is_group_element,
    product,
    reduce,
    to_forest_pair,
    validate_strand_diagram,
)
from .errors import LimitExceeded, ParseError, PreconditionError, SignatureMismatch
from .forest import ForestPair, apply_to_word, compose_pairs, expand_degenerate, expand_regular
from .graphs import (
    PathWord,
    ShiftGraph,
    children,
    enumerate_words,
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
