"""Exact dimension computations for polynomial neural network varieties.

The package gauges the coefficient map of a polynomial network (monomial
activations, homogeneous layers), estimates the dimension of its function
space by the exact rank of that map's Jacobian at random points over the
rationals or a large prime field, evaluates the arithmetic non-defectiveness
and identifiability predicates, and ships a CLI (`neurovar`) for one-off
reports and grid scans.  The symbolic coefficient map lives in the test
suite, as the oracle the Jacobian is checked against.
"""

from .domains import PrimeField, Rationals, RATIONALS, is_probable_prime, random_prime
from .errors import (
    AmbientTooLarge,
    ArchitectureError,
    DegreeBelowTwo,
    LengthMismatch,
    NeurovarError,
    NotSingleOutput,
    PivotVanishes,
    ProportionalPair,
    SamplingExhausted,
    WidthZero,
)
from .network import Architecture, GaugedMap, gauge_fix, last_column_gauge, validate
from .poly import Ring, SparsePoly, monomials_of_degree, poly_pow
from .rank import (
    BlockRankReport,
    DimReport,
    JacobianSample,
    block_ranks,
    derive_seed,
    auto_prime_field,
    exact_rank,
    generic_rank,
    jacobian_at,
    neurovariety_stats,
)
from .theory import (
    RoomCheck,
    Verdict,
    ah_secant_defective,
    expected_dim,
    expected_dim_general,
    expected_dim_single_output,
    expected_secant_dim,
    necessity_scope,
    room_condition,
    theorem_verdict,
)
from .veronese import (
    CompositeVeronese,
    PowerInstance,
    composite_veronese,
    empirical_secant_dim,
    image_linear_relations,
    power_independence,
    power_threshold_scan,
)
from .scan import ScanRow, ScanSpec, emit_report, parse_report, scan

__version__ = "0.1.0"
