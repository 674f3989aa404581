"""Symbolic kernel for Z2 x Z-graded homotopy structures and microformal pullbacks."""

from .errors import (
    ChartMismatch,
    ExponentOverflow,
    GradedKernelError,
    GradingMismatch,
    InhomogeneousSeries,
    MissingBinding,
    NonConvergent,
    NotHomological,
    ParityViolation,
    ProblemSyntaxError,
    UnknownNameError,
    ZeroSeries,
)
from .expr import parse_series
from .geometry import (
    Chart,
    CotangentChart,
    VectorField,
    canonical_bracket,
    commutator,
    is_homological,
    shifted_anticotangent,
    shifted_cotangent,
)
from .graded_core import (
    EVEN,
    ODD,
    Bigrading,
    GradedVariable,
    Series,
    format_series,
)
from .homotopy import (
    BracketFamily,
    ExplicitFamily,
    HamiltonianFamily,
    QFamily,
    ShiftSignature,
    SpaceBasis,
    assemble_vector_field,
    check_higher_jacobi,
    check_leibniz,
    check_master,
    check_weights_parities,
    constant_field,
    parity_reverse_brackets,
)
from .microformal import (
    PullbackResult,
    ThickMorphism,
    check_hamilton_jacobi,
    check_intertwining,
    conjugate_momenta,
    pullback,
    pullback_expansion_oracle,
    support,
    validate_thick,
)
from .oracle import Assignment, GrassmannElement, evaluate, identity_check
from .report import Report, ReportEntry

__all__ = [name for name in dir() if not name.startswith("_")]
