"""epcag-lab: numerics for equations with piecewise constant argument of
generalized type — simulation, backward continuation, integral manifolds
by successive approximation, and bounded/periodic solutions, with the
governing inequalities checked at desk scale.
"""

from .errors import (
    BlowUpError,
    ConditionError,
    ConfigError,
    ConvergenceError,
    EpcagError,
    EvaluationError,
    ExpressionError,
    IntegrationFailureError,
    InvalidParameterError,
    NoDichotomyError,
    OutOfWindowError,
    UnsupportedSystemError,
)
from .expressions import ExpressionTree, parse_expression
from .grid import ThetaGrid, make_explicit_grid, make_periodic_grid, make_uniform_grid
from .linear import (
    DichotomyData,
    FlowBounds,
    check_backward_uniqueness,
    check_smallness,
    dichotomy_for_constant_A,
    flow_bounds,
    fundamental_matrix,
    verify_flow_bounds,
)
from .manifold import (
    ManifoldFn,
    ManifoldParams,
    PicardResult,
    invariance_check,
    jacobian_F,
    off_manifold_diagnose,
    picard_stable,
    picard_unstable,
)
from .reduction import ReducedSystem, SplitPropagators, propagators, reduce
from .solver import (
    BackwardContinuation,
    PreimageSet,
    SolutionPath,
    back_continue,
    back_continue_interval,
    shooting_map,
    solve_forward,
)
from .steady import (
    BoundedSolveResult,
    PeriodicityParams,
    SteadyParams,
    bounded_solution,
    periodic_solution,
    periodicity_params,
)
from .system import (
    SystemSpec,
    estimate_lipschitz,
    estimate_mu,
    get_problem,
    parse_system,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
