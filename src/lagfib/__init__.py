"""Exact obstruction computations for almost Lagrangian fibrations.

Given a cell structure on an integral affine manifold as a free
equivariant complex, holonomy/monodromy representations, frame periods,
and a certified diagonal table, the package computes twisted integer
cohomology, evaluates the obstruction homomorphism as a twisted cup
product, and extracts the subgroup of realisable classes as its kernel.
All arithmetic is exact.
"""

from .complexes import (
    CohomologyGroup,
    EquivariantComplex,
    TwistedCochain,
    coboundary_rows,
    cochain_from_coordinates,
    cocycle_coordinates,
    twisted_cohomology,
    untwisted_cohomology_Q,
    validate_complex,
)
from .groupring import (
    Presentation,
    Representation,
    Word,
    check_duality,
    check_relations,
)
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    SnfResult,
    snf,
)
from .obstruction import (
    DiagonalApproximation,
    ObstructionMap,
    PeriodAssignment,
    cup_matrix,
    dd_matrix,
    validate_diagonal,
)
from .problemfile import (
    ProblemFile,
    ProblemParseError,
    parse_problem,
    parse_word,
    serialize,
)
from .realizable import (
    RealizableSubgroup,
    find_fake_witness,
    realizable_subgroup,
)

__version__ = "0.1.0"
