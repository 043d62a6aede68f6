"""Exact above-below colorings of lifted point sequences.

Everything here works over exact rationals (fractions.Fraction); there is
no floating point anywhere, so every reported sign, certificate, and
counterexample is a proof-grade artifact.  The package covers:

- exact determinants, signed minors, and the integer sign kernel behind
  every color, validator and certificate (``linalg``);
- planar and lifted point sequences with wire formats and validators
  (``sequences``);
- the four equivalent color oracles (kernel/heights, determinant,
  divided differences, and geometric crossing for d = 3) plus the
  one-switch certificate for (d+2)-tuples (``coloring``);
- dense and lazy coloring tables with monotone/transitive checks and a
  longest-monochromatic-subset search (``tables``);
- instance generators: the doubly-exponential cluster construction, the
  classical cup/cap extremal sets, and seeded random cyclic sequences
  (``constructions``);
- the ``abr`` command-line tool (``cli``).
"""

from .coloring import (
    HeightPair,
    OneSwitchCertificate,
    RadonCertificate,
    color_by_crossing,
    color_by_determinant,
    color_by_heights,
    color_table,
    divdiff_color_table,
    divided_difference,
    LazyDivdiffColors,
    one_switch_certificate,
    radon_certificate,
    vandermonde_divdiff_residual,
)
from .constructions import (
    ClusterParabolaParams,
    ClusterParabolaReport,
    build_cluster_parabola,
    cluster_parabola_sequence,
    cupcap_extremal,
    random_cyclic_instance,
    verify_cluster_parabola,
)
from .errors import (
    AbrError,
    BadIndicesError,
    BadShapeError,
    DegenerateInputError,
    GenerationFailedError,
    IdentityViolationError,
    InvariantError,
    NonSquareError,
    ParameterSearchFailedError,
    ParseError,
    TooFewPointsError,
    TooLargeError,
    WrongOrientationError,
)
from .linalg import (
    Matrix,
    as_fraction,
    complementary_minors,
    det,
    format_rational,
    parse_rational,
    plucker_residual,
    signed_minor_kernel,
)
from .sequences import (
    LiftedSequence,
    PlanarSequence,
    ValidationReport,
    moment_lift,
    parse_sequence,
    serialize_sequence,
    validate_cyclic_projections,
    validate_d_general_position,
    validate_general_position,
)
from .tables import (
    Color,
    ColoringTable,
    SearchResult,
    is_monotone,
    is_transitive,
    longest_monochromatic,
    monotone_implies_transitive_check,
    ramsey_search_tiny,
)

__version__ = "0.1.0"

__all__ = [
    "AbrError",
    "BadIndicesError",
    "BadShapeError",
    "ClusterParabolaParams",
    "ClusterParabolaReport",
    "Color",
    "ColoringTable",
    "DegenerateInputError",
    "GenerationFailedError",
    "HeightPair",
    "IdentityViolationError",
    "InvariantError",
    "LazyDivdiffColors",
    "LiftedSequence",
    "Matrix",
    "NonSquareError",
    "OneSwitchCertificate",
    "ParameterSearchFailedError",
    "ParseError",
    "PlanarSequence",
    "RadonCertificate",
    "SearchResult",
    "TooFewPointsError",
    "TooLargeError",
    "ValidationReport",
    "WrongOrientationError",
    "as_fraction",
    "build_cluster_parabola",
    "cluster_parabola_sequence",
    "color_by_crossing",
    "color_by_determinant",
    "color_by_heights",
    "color_table",
    "complementary_minors",
    "cupcap_extremal",
    "det",
    "divdiff_color_table",
    "divided_difference",
    "format_rational",
    "is_monotone",
    "is_transitive",
    "longest_monochromatic",
    "moment_lift",
    "monotone_implies_transitive_check",
    "one_switch_certificate",
    "parse_rational",
    "parse_sequence",
    "plucker_residual",
    "radon_certificate",
    "ramsey_search_tiny",
    "random_cyclic_instance",
    "serialize_sequence",
    "signed_minor_kernel",
    "validate_cyclic_projections",
    "validate_d_general_position",
    "validate_general_position",
    "verify_cluster_parabola",
]
