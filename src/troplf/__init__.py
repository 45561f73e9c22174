"""Exact solver for tropical linear-fractional programming.

The problem min (p x v r) - (q x v s) over { x : A x v c <= B x v d } is
reduced to a parametric mean payoff game whose value at the homogenizing
node is the spectral function phi; the optimum is the minimal zero of phi,
found by bisection or Newton-type iterations and certified by positional
strategies.
"""

from __future__ import annotations

from .certify import (
    CertificateSynthesisFailed,
    CheckResult,
    OptimalityCertificate,
    UnboundednessCertificate,
    check_optimality,
    check_unboundedness,
    make_optimality_certificate,
    make_unboundedness_certificate,
)
from .game_engine import (
    AssumptionViolated,
    GameValueReport,
    InternalCertificateMismatch,
    MaxStrategy,
    MeanPayoffGame,
    MinStrategy,
    OracleReport,
    SecondSubsystemViolated,
    feasibility_witness,
    game_value,
    integer_oracle,
    value_report,
)
from .solver import (
    InfeasibleStart,
    IterationCapExceeded,
    NoneLeftWinning,
    Proceed,
    PrecheckInfeasible,
    PrecheckUnbounded,
    SolveOutcome,
    bisection_solve,
    left_optimal_max_strategy,
    negative_newton_solve,
    newton_step,
    positive_newton_solve,
    precheck,
    solve,
)
from .spectral import (
    HomogeneousInstance,
    LfpInstance,
    SpectralPiece,
    game_at,
    homogenize,
    initial_bounds,
    phi,
    phi_nonneg,
    phi_sigma,
    phi_tau,
    reconstruct,
)
from .trop_core import (
    MAX_PLUS,
    MIN_PLUS,
    NEG_INF,
    POS_INF,
    ExtendedNumber,
    PositiveCycleDiverges,
    TropMatrix,
    cycle_means,
    cycle_time_vector,
    ext,
    kleene_least_solution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
