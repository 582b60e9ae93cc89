"""softcbf: certified log-sum-exp smoothing of pointwise-minimum safe sets.

Turns a family of constraint functions whose minimum describes a safe set
into a smooth barrier with an explicit, certified smoothing threshold,
runs the corresponding minimal-deviation safety filter in closed loop, and
implements the backup-controller pipeline (flow sensitivities, slice
constraints, end-to-end certification).
"""

from .errors import (
    BlowUpError,
    DomainError,
    EmptyTubeError,
    InvalidCertificateError,
    InvalidInputError,
    NotStrictlySafeError,
    SoftCBFError,
)
from .softmin import (
    default_activity_tolerance,
    softmin_gradient,
    softmin_value,
    softmin_weights,
)
from .geometry import (
    CompactBounds,
    ConstraintSet,
    MFCQReport,
    TubeSpec,
    check_mfcq,
    estimate_bounds,
    sample_tube,
)
from .certify import (
    ProbeReports,
    TailSpec,
    ThetaCertificate,
    VerificationReport,
    certify,
    probe_boundary,
    theta_star_compact,
    theta_star_tail,
    verify_certificate,
)
from .safety_filter import (
    ClassK,
    ClassKinfK,
    ConstantActuation,
    ControlAffineSystem,
    Expr,
    FilterOutcome,
    FusedPlant,
    LinearDrift,
    barrier_block,
    barrier_row,
    filter_boxed,
    filter_boxed_block,
    filter_unconstrained,
    filter_unconstrained_block,
    make_rhs,
)
from .backup import (
    BackupBarrier,
    BackupProblem,
    BackupPreconditionReport,
    FlowResult,
    ValueForms,
    backup_barrier,
    check_backup_preconditions,
    integrate_flow,
    integrate_flow_batch,
    slice_constraint_set,
)
from .systems import (
    Benchmark,
    benchmark_names,
    double_integrator_box,
    get_benchmark,
    pendulum_backup,
    scalar_stable,
    scalar_unstable,
    thin_annulus,
)
from .sim import SAFETY_TOLERANCE, SimConfig, SimTrace, run

__version__ = "0.1.0"
