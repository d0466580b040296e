"""Piecewise-linear interval maps of prescribed Sharkovskii type and entropy.

Construction of the constant-slope models (odd types, their square roots and
the doubled types they produce) plus exact certification: periodic-point
enumeration, covering-graph cycle censuses, lap-growth entropy estimates and
topological-mixing checks.
"""

__version__ = "0.1.0"

from .analysis import (
    EntropyEstimate,
    MixingReport,
    TypeReport,
    estimate_entropy,
    mixing_trace,
    verify_mixing,
    verify_type,
)
from .construct import (
    ConstructedMap,
    ConstructionParams,
    Markers,
    SlopeBelowMinimumError,
    odd_type_map,
    orbit_and_t,
    parse_slope_text,
    square_root,
    stefan_map,
)
from .covering import (
    EDGE_FULL,
    EDGE_PARTIAL,
    CoveringGraph,
    build_covering_graph,
    primitive_cycle_census,
    primitive_cycles,
)
from .kernel import (
    IntPolynomial,
    Scalar,
    as_scalar,
    eval_slope_poly,
    eval_slope_quotient,
    is_exact,
    minimal_slope,
    minimal_slope_bracket,
    scalar_from_str,
    scalar_to_str,
    slope_poly,
    slope_poly_quotient,
)
from .plmap import (
    BranchBudgetError,
    FixedPointContinuumError,
    Interval,
    OrbitNotClosedError,
    PLMap,
    SlopeReport,
)
from .sharkovskii import TWO_INF, expected_period_set, sharkovskii_le

__all__ = [
    "BranchBudgetError",
    "ConstructedMap",
    "ConstructionParams",
    "CoveringGraph",
    "EDGE_FULL",
    "EDGE_PARTIAL",
    "EntropyEstimate",
    "FixedPointContinuumError",
    "IntPolynomial",
    "Interval",
    "Markers",
    "MixingReport",
    "OrbitNotClosedError",
    "PLMap",
    "Scalar",
    "SlopeBelowMinimumError",
    "SlopeReport",
    "TWO_INF",
    "TypeReport",
    "as_scalar",
    "build_covering_graph",
    "estimate_entropy",
    "eval_slope_poly",
    "eval_slope_quotient",
    "expected_period_set",
    "is_exact",
    "minimal_slope",
    "minimal_slope_bracket",
    "mixing_trace",
    "odd_type_map",
    "orbit_and_t",
    "parse_slope_text",
    "primitive_cycle_census",
    "primitive_cycles",
    "scalar_from_str",
    "scalar_to_str",
    "sharkovskii_le",
    "slope_poly",
    "slope_poly_quotient",
    "square_root",
    "stefan_map",
    "verify_mixing",
    "verify_type",
]
