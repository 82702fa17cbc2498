"""Fully implicit and diagonally implicit Runge-Kutta time stepping for
semidiscrete PDEs, with matrix-free Kronecker stage operators, FGMRES, and
the block preconditioner family that makes fully implicit stage counts
practical."""

from .bcs import BcMethod, DirichletBC, constrain_stage_system, stage_bc_values
from .precond import PreconditionerKind, StagePreconditioner, build_preconditioner
from .problems import (
    ManufacturedSolution,
    OdeTestProblem,
    StructuredGrid,
    assemble_heat,
    assemble_load,
    dahlquist,
    fe_l2_norm,
    h1_error,
    heat_mms_1d,
    heat_mms_2d,
    incompatible_heat_1d,
    interpolate,
    l2_error,
    mms_heat_problem,
    ode_suite,
    prothero_robinson,
    riccati,
)
from .sparsela import (
    BlockFactorization,
    FactorizationError,
    KroneckerStageOperator,
    KrylovSettings,
    NonConvergenceError,
    SparseMatrix,
    Splitting,
    factorize_block,
    fgmres,
    mm_read,
    mm_write,
    spmv,
)
from .stepper import (
    FormulationError,
    NewtonSettings,
    NonlinearDivergenceError,
    SemidiscreteProblem,
    StageFormulation,
    StageSystem,
    StepFailure,
    StepReport,
    TimeStepper,
    advance,
)
from .tableaux import (
    AdditiveSplit,
    ButcherTableau,
    LduFactors,
    SingularFactorizationError,
    UnsupportedStageCountError,
    additive_split,
    alexander_dirk,
    format_butcher,
    from_spec,
    is_invertible,
    is_lower_triangular,
    is_stiffly_accurate,
    ldu_factor,
    lobatto_iiic,
    order_condition_residuals,
    radau_iia,
    to_csv,
    wsodirk433,
)

__version__ = "0.1.0"
