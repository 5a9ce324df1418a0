"""Exact-rational verification of utilitarian aggregation on finite societies.

Everything is computed over ``fractions.Fraction``: axiom checks either
pass or produce a concrete witness, recovered weights satisfy their
defining identity pointwise, and coincidence verdicts carry exact affine
coefficients.  No tolerances appear anywhere.
"""

from .alt import (
    AltSystem,
    MissingGridPointError,
    StandardSequence,
    alt_represents,
    build_standard_sequence,
    check_consistency,
    check_crossover,
    reconstruct_alt_utility,
)
from .coincidence import (
    AgentVerdict,
    CoincidenceReport,
    NormalizationError,
    SimplexFixture,
    SqrtFixture,
    ViolationWitness,
    affine_relation,
    normalize_for_theorem3,
    proposition1_check,
    simplex_counterexample,
    sqrt_fixture,
    theorem3_pipeline,
)
from .core import (
    GridDim,
    SimpleLottery,
    StateSpace,
    UtilityTable,
    expectation,
    first_disagreement,
    linear_combination,
)
from .harsanyi import (
    LotteryWitnessPair,
    SpanProblem,
    WeightReport,
    check_axiom_i,
    positive_reweighting,
    recover_weights,
    witness_lotteries_for_sign,
)
from .harvey import (
    Analysis,
    DifferenceMap,
    DifferenceMapError,
    HarveyReport,
    build_difference_map,
    check_axiom_I,
    extract_slopes,
    harvey_recover,
    recover_constant,
    verify_component_additivity,
)
from .rationals import format_rational, parse_rational
from .society import (
    CheckResult,
    Profile,
    Society,
    check_pareto_criterion,
    check_semi_separable,
    matches,
    order_disagreement,
    pareto_dominates,
)
from .societyfile import SocietyFileError, emit_society, parse_society, society_to_payload

__all__ = [name for name in dir() if not name.startswith("_")]
