"""Exact above-below colorings of lifted point sequences.

Everything here works over exact rationals (fractions.Fraction); there is
no floating point anywhere, so every reported sign, certificate, and
counterexample is a proof-grade artifact.  The package covers:

- exact determinants, signed minors, and the integer sign kernel behind
  every validator and certificate (``linalg``);
- planar and lifted point sequences with wire formats (rationals too)
  and validators (``sequences``);
- the four equivalent color oracles (kernel/heights, determinant,
  divided differences, and geometric crossing for d = 3) plus the
  one-switch certificate for (d+2)-tuples (``coloring``);
- dense coloring tables with monotone/transitive checks, the one table
  search ``longest_monochromatic``, and the JSON codec (``tables``);
- that search's code, loaded only by a search: the window DP, whose answer
  stands when its witness certifies it, and the branch and bound its path
  lengths prune (``search``);
- one integer key engine for planar and lifted sequences: dense color tables,
  and the exact longest monochromatic subsequence with no table (``paths``);
- instance generators: the doubly-exponential cluster construction, the
  classical cup/cap extremal sets, and seeded random cyclic sequences
  (``constructions``);
- the ``abr`` command-line tool: its parser, I/O and table routes
  (``cli``), and its sequence commands, loaded only when one runs
  (``cli_sequences``).

``import abr`` loads no submodule: each public name below, and each
submodule, is imported on first use (PEP 562), so a command loads only the
modules it runs.  Resolved names are not cached here, so ``abr.X`` always
reads the home module's current binding.
"""

from importlib import import_module

__version__ = "0.1.0"

_NAMES = {
    "coloring": (
        "HeightPair", "OneSwitchCertificate", "RadonCertificate",
        "color_by_crossing", "color_by_determinant", "color_by_heights", "divided_difference",
        "one_switch_certificate", "radon_certificate", "vandermonde_divdiff_residual",
    ),
    "constructions": (
        "ClusterParabolaParams", "build_cluster_parabola", "cluster_parabola_sequence",
        "cupcap_extremal", "random_cyclic_instance", "verify_cluster_parabola",
    ),
    "errors": (
        "AbrError", "BadIndicesError", "BadShapeError", "DegenerateInputError",
        "GenerationFailedError", "IdentityViolationError", "InvariantError",
        "NonSquareError", "ParameterSearchFailedError", "ParseError", "TooFewPointsError",
        "TooLargeError", "WrongOrientationError",
    ),
    "linalg": (
        "Matrix", "complementary_minors", "det", "plucker_residual", "signed_minor_kernel",
    ),
    "paths": ("LazyDivdiffColors", "color_table", "divdiff_color_table",
              "longest_monotone_path"),
    "search": ("SearchResult", "branch_and_bound", "longest_window_path", "window_runs"),
    "sequences": (
        "LiftedSequence", "PlanarSequence", "ValidationReport", "as_fraction",
        "format_rational", "moment_lift", "parse_rational",
        "parse_sequence", "serialize_sequence", "validate_cyclic_projections",
        "validate_d_general_position", "validate_general_position",
    ),
    "tables": (
        "Color", "ColoringTable", "is_monotone", "is_transitive", "longest_monochromatic",
        "monotone_implies_transitive_check", "ramsey_search_tiny",
    ),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = frozenset(_NAMES) | {"cli", "cli_sequences"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
