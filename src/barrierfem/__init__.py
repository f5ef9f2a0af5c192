"""barrierfem: positive solutions of critical-exponent semilinear
elliptic PDEs by P1 finite elements, safeguarded Newton iterations and
primal log-barrier energy minimization."""

from .errors import (
    BarrierFemError,
    CoefficientViolation,
    ConfigError,
    DimensionMismatch,
    InvalidGeometry,
    InvalidRange,
    LineSearchFailure,
    NonpositiveState,
    ParseError,
    UnknownExample,
    ValidationError,
)
from .fem import (
    AssembledSystem,
    apply_dirichlet,
    assemble_jacobian,
    assemble_residual,
    compute_energy,
    l2_error,
)
from .linalg import (
    CgResult,
    CgStatus,
    SparseMatrix,
    cg_solve,
)
from .mesh import (
    Marker,
    SimplicialMesh,
    generate_annulus_mesh,
    generate_interval_mesh,
    generate_shell_mesh,
    load_mesh,
    save_mesh,
    validate,
)
from .problem import (
    FeFunction,
    ProblemSpec,
    builtin_example,
    constant_field,
    lichnerowicz_spec,
    radial_field,
)
from .solvers import (
    Sign,
    SolveReport,
    SolverConfig,
    armijo_backtrack,
    barrier_solve,
    classical_barrier_minimize,
    classify_sign,
    newton_safeguarded,
    newton_standard,
    step_to_boundary,
    subproblem_tolerance,
)

__version__ = "0.1.0"
