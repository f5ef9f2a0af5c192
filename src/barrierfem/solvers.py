"""Nonlinear solution strategies for the positivity-constrained problems.

* newton_standard — full Newton steps, no safeguards;
* newton_safeguarded — Newton with fraction-to-the-boundary ("99% rule")
  step caps and Armijo backtracking on the residual merit
  phi_mu(u) = 0.5 ||G(u) - mu H(u)||^2;
* barrier_solve — mu-continuation on the log-barrier energy
  J_mu(u) = J(u) - mu int ln(u), each subproblem solved by safeguarded
  Newton warm-started from the previous minimizer, with an optional
  final mu = 0 polish;
* classical_barrier_minimize — the same continuation for smooth
  objectives on the positive orthant, used to validate the optimizer
  machinery on problems with known answers.

All four run one Newton loop, with a full or a safeguarded step, and
the two barrier drivers one mu schedule.  The loop sees a problem
through an adapter, `_FemProblem` for the P1 system or `_DenseProblem`
for a finite-dimensional barrier function, with two methods:
`evaluate` (residual and merit at a point) and `direction` (the Newton
direction, the only place a matrix is built).  Every accepted step
stores enough data (merit values, slope, step sizes, minimum
coefficient) to replay the Armijo, descent and feasibility
certificates after the fact; within a stage each step's merit before
is the previous step's merit after, bit for bit.
"""

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import LineSearchFailure, NonpositiveState
from .fem import (
    apply_dirichlet,
    assemble_barrier_gradient,
    assemble_jacobian,
    assemble_residual,
    workspace_for,
)
from .linalg import cg_solve
from .problem import as_coefficients


class Sign(Enum):
    POSITIVE = "+"
    NEGATIVE = "-"
    MIXED = "+/-"


def classify_sign(u):
    """Positive/negative/mixed classification of a coefficient vector."""
    u = as_coefficients(u)
    if np.all(u > 0):
        return Sign.POSITIVE
    if np.all(u < 0):
        return Sign.NEGATIVE
    return Sign.MIXED


@dataclass
class SolverConfig:
    """Tolerances and schedule constants shared by all drivers.

    An invalid value raises ValueError; its message starts with the
    name of the field.
    """

    eps: float = 1.0e-7
    mu0: float = 1.0
    gamma: float = 0.1
    eta: float = 1.0e-4
    backtrack: float = 0.5
    max_outer: int = 60
    max_inner: int = 100
    final_polish_mu_zero: bool = True

    def __post_init__(self):
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be > 0 and finite")
        if not 0 <= self.mu0 < np.inf:
            raise ValueError("mu0 must be >= 0 and finite")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0 < self.eta < 0.5:
            raise ValueError("eta must lie in (0, 1/2)")
        if not 0 < self.backtrack < 1:
            raise ValueError("backtrack must lie in (0, 1)")
        for name in ("max_outer", "max_inner"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class IterationRecord:
    """One accepted Newton/backtracking step."""

    mu: float
    residual_norm: float        # ||G - mu H|| before the step
    phi_before: float
    phi_after: float
    alpha_bar: float
    alpha: float
    grad_dot_dir: float         # slope of the merit along the step
    dir_dot_residual: float     # w.(G - mu H) descent test value
    fallback_used: bool
    min_free_coeff: float       # min of u on unconstrained dofs after the step
    cg_status: str


@dataclass
class StageRecord:
    """One barrier subproblem (fixed mu)."""

    mu: float
    tolerance: float
    initial_residual_norm: float
    newton_iterations: int


@dataclass
class SolveReport:
    method: str
    converged: bool = False
    total_newton_iterations: int = 0
    final_residual: float = np.inf
    residual_history: list = field(default_factory=list)
    sign: Sign = Sign.MIXED
    multiplier_estimates: np.ndarray = field(default_factory=lambda: np.zeros(0))
    wall_time: float = 0.0
    iterations: list = field(default_factory=list)
    stages: list = field(default_factory=list)
    failure_reason: str = ""
    solution: np.ndarray = field(default_factory=lambda: np.zeros(0))


def step_to_boundary(u, w, free=None):
    """Largest safe step along w keeping u strictly positive.

    alpha_max = min over {i : w_i < 0} of -u_i / w_i restricted to the
    unconstrained indices; the returned cap is min(0.99*alpha_max, 1)
    (the 99% rule), and exactly 1 when no component of w is negative.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if free is not None:
        u, w = u[free], w[free]
    if np.any(u <= 0):
        raise NonpositiveState("step_to_boundary requires u > 0 componentwise")
    neg = w < 0
    if not np.any(neg):
        return 1.0
    with np.errstate(over="ignore"):  # an overflowed ratio is no cap
        alpha_max = float(np.min(-u[neg] / w[neg]))
    return min(0.99 * alpha_max, 1.0)


def armijo_backtrack(merit, grad_dot_dir, u, w, alpha_bar, eta=1.0e-4, backtrack=0.5):
    """Largest alpha in {alpha_bar * backtrack^k} with sufficient decrease.

    merit(v) is evaluated at trial points v = u + alpha*w; the returned
    alpha satisfies merit(u + alpha*w) <= merit(u) + eta*alpha*grad_dot_dir.
    Raises LineSearchFailure once alpha_bar and 40 halvings are all rejected.
    """
    if not grad_dot_dir < 0:
        raise ValueError(f"grad_dot_dir must be negative, got {grad_dot_dir}")
    if not alpha_bar > 0:
        raise ValueError(f"alpha_bar must be positive, got {alpha_bar}")
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    phi0 = merit(u)
    alpha = float(alpha_bar)
    for _ in range(41):
        trial = merit(u + alpha * w)
        if np.isfinite(trial) and trial <= phi0 + eta * alpha * grad_dot_dir:
            return alpha
        alpha *= backtrack
    raise LineSearchFailure(
        f"no sufficient decrease after 40 halvings (phi0={phi0:.3e})"
    )


def subproblem_tolerance(mu, initial_residual_norm, eps):
    """Residual target for one barrier stage:
    max(eps_mu * ||f(u0)||, eps_mu) with eps_mu = max(min(0.1, mu), eps)."""
    eps_mu = max(min(0.1, mu), eps)
    return max(eps_mu * initial_residual_norm, eps_mu)


class _FemProblem:
    """The P1 system f = G(u) - mu H(u) with merit phi = 0.5 ||f||^2.

    A Newton step solves B w = -f with B = J + mu M, assembled at mu
    only for that step, by truncated CG; the merit slope along w is
    (B w).f, since grad phi = B f.

    f is assembled once per point.  The adapter keeps its last evaluation
    (a copy of v, mu, f); at that same v, f at another mu is
    f + (mu_last - mu) H(v), since f is affine in mu.  So a later stage
    starts from the previous stage's last residual, and the final ||G||
    of a polished solve is the polish's last residual.
    """

    def __init__(self, spec, mesh):
        self.spec, self.mesh = spec, mesh
        self.free = ~workspace_for(mesh).dirichlet_mask
        self._last = None

    def evaluate(self, v, mu):
        """(f, phi) at v; raises NonpositiveState for v <= 0 somewhere at mu > 0."""
        if self._last is not None and np.array_equal(v, self._last[0]):
            _, last_mu, f = self._last
            if mu != last_mu:
                f = f + (last_mu - mu) * assemble_barrier_gradient(self.mesh, v)
        else:
            f = assemble_residual(self.spec, self.mesh, v, mu)
        self._last = (np.array(v, dtype=float), mu, f)
        return f, 0.5 * float(np.dot(f, f))

    def direction(self, u, mu, f):
        """(w, CG status, w -> merit slope) for B(u) w = -f."""
        matrix = assemble_jacobian(self.spec, self.mesh, u, mu)
        result = cg_solve(matrix, -f)
        return result.x, result.status.value, lambda w: float(np.dot(matrix @ w, f))


class _DenseProblem:
    """Stationarity of B_mu(x) = f(x) - mu sum(ln x) on the positive orthant.

    Newton solves (hess + mu diag(x^-2)) p = -(grad - mu/x) by a dense
    factorization (-grad B_mu when it is singular); the merit is B_mu
    itself, so its slope along p is grad B_mu . p.
    """

    def __init__(self, f, grad, hess, n):
        self.f, self.grad, self.hess = f, grad, hess
        self.free = np.ones(n, dtype=bool)

    def evaluate(self, y, mu):
        """(grad B_mu, B_mu) at y; raises NonpositiveState unless y > 0."""
        if np.any(y <= 0):
            raise NonpositiveState("the barrier function needs y > 0")
        g = np.asarray(self.grad(y), dtype=float) - mu / y
        return g, float(self.f(y)) - mu * float(np.sum(np.log(y)))

    def direction(self, x, mu, g):
        """(p, "dense", p -> merit slope) for the barrier Hessian system."""
        hbar = np.asarray(self.hess(x), dtype=float) + mu * np.diag(x**-2.0)
        try:
            p = np.linalg.solve(hbar, -g)
        except np.linalg.LinAlgError:
            p = -g
        return p, "dense", lambda w: float(np.dot(g, w))


def _newton(problem, u, mu, config, report, safeguarded):
    """Newton iteration on f = 0 at fixed mu, (f, phi) from problem.evaluate.

    f is evaluated once at the start; after that a safeguarded step
    takes (f, phi) from its accepted line-search trial, which is the new
    iterate, and a standard step evaluates the new iterate.  The
    direction, and with it a matrix, is only computed for a step.

    Converged once ||f|| <= subproblem_tolerance(mu, ||f(u0)||, eps), or
    eps at mu = 0.  Both step policies stop on a nonfinite residual,
    after max_inner steps and after five negligible steps in a row.  A
    standard step is the full Newton step.  A safeguarded step falls
    back to -f unless w.f < 0, is capped by step_to_boundary and
    backtracked on phi, which is infinite at a nonpositive trial.
    Returns (u, stage, reason): the last iterate, its StageRecord (None
    if the start state is nonpositive) and "" on convergence, else why
    the iteration stopped.
    """
    stage = None
    stagnant = 0
    try:
        f, phi = problem.evaluate(u, mu)
        while True:
            fn = float(np.linalg.norm(f))
            if stage is None:
                tol = subproblem_tolerance(mu, fn, config.eps) if mu > 0 else config.eps
                stage = StageRecord(mu, tol, fn, 0)
            if not np.isfinite(fn):
                return u, stage, "nonfinite residual"
            report.residual_history.append(fn)
            if fn <= stage.tolerance:
                return u, stage, ""
            if stage.newton_iterations >= config.max_inner:
                return u, stage, f"no convergence in {config.max_inner} iterations at mu={mu:g}"
            w, cg_status, slope_along = problem.direction(u, mu, f)
            w_dot_f = float(np.dot(w, f))
            alpha, alpha_bar, slope, phi_after, fallback = 1.0, np.nan, np.nan, np.nan, False
            if safeguarded:
                if not w_dot_f < 0:
                    w, w_dot_f, fallback = -f, -fn * fn, True
                slope = slope_along(w)
                if not slope < 0:
                    return u, stage, f"no descent direction at mu={mu:g}"
                alpha_bar = step_to_boundary(u, w, free=problem.free)
                start, trials = u, []

                def merit(v):
                    if v is start:  # the merit at u is known: no assembly
                        return phi
                    try:
                        trials.append(problem.evaluate(v, mu))
                    except NonpositiveState:
                        trials.append((None, np.inf))
                    return trials[-1][1]

                try:
                    alpha = armijo_backtrack(
                        merit, slope, u, w, alpha_bar, eta=config.eta, backtrack=config.backtrack
                    )
                except LineSearchFailure as exc:
                    return u, stage, f"line search failure at mu={mu:g}: {exc}"
                phi_after = trials[-1][1]  # the accepted trial is the last one

            u = u + alpha * w
            report.iterations.append(IterationRecord(
                mu, fn, phi, phi_after, alpha_bar, alpha, slope, w_dot_f, fallback,
                float(u[problem.free].min()), cg_status,
            ))
            stage.newton_iterations += 1
            step = alpha * float(np.linalg.norm(w))
            negligible = step < 1e-14 * max(1.0, float(np.linalg.norm(u)))
            stagnant = stagnant + 1 if negligible else 0
            if stagnant >= 5:
                return u, stage, f"stagnation: negligible steps at mu={mu:g}"
            # the accepted trial u + alpha*w is the new iterate, bit for bit
            f, phi = trials[-1] if safeguarded else problem.evaluate(u, mu)
    except NonpositiveState as exc:
        return u, stage, f"nonpositive state: {exc}"


def _continuation(problem, u, config, report, polish):
    """Safeguarded Newton on the stages mu0, gamma*mu0, ... >= eps (at
    most max_outer), each warm-started, then with `polish` on mu = 0.

    Multiplier estimates are mu/u after the last positive stage, empty
    after the polish.  Returns (u, reason); reason is "" when every stage
    converged and, without the polish, the schedule reached mu < eps.
    """
    mu = float(config.mu0)
    schedule = []
    while mu >= config.eps and len(schedule) < config.max_outer:
        schedule.append(mu)
        mu *= config.gamma
    for stage_mu in schedule + ([0.0] if polish else []):
        u, stage, reason = _newton(problem, u, stage_mu, config, report, safeguarded=True)
        if stage is not None:
            report.stages.append(stage)
        if reason:
            return u, reason
        report.multiplier_estimates = stage_mu / u if stage_mu > 0 else np.zeros(0)
    if mu >= config.eps and not polish:
        return u, f"max_outer = {config.max_outer} stages ended the schedule at mu={mu:g} >= eps"
    return u, ""


def _finalize(report, problem, u, t0):
    """Record the last iterate, its sign and ||evaluate(u, 0)||: ||G(u)||
    (the FEM adapter's last residual when taken at u), or ||grad f(x)||."""
    report.solution = u.copy()
    report.sign = classify_sign(u)
    report.total_newton_iterations = len(report.iterations)
    report.final_residual = float(np.linalg.norm(problem.evaluate(u, 0.0)[0]))
    report.wall_time = time.perf_counter() - t0
    return report


def _solve_fem(method, spec, mesh, u0, config):
    """Run the PDE driver `method`: "newton", "safeguarded" or "barrier".
    Converged means no failure reason and ||G|| <= eps at the last iterate."""
    config = config or SolverConfig()
    t0 = time.perf_counter()
    u = apply_dirichlet(u0, mesh, spec).coefficients
    problem = _FemProblem(spec, mesh)
    if method != "newton" and np.any(u[problem.free] <= 0):
        raise NonpositiveState("safeguarded Newton requires a strictly positive start")
    report = SolveReport(method=method)
    if method == "barrier":
        u, reason = _continuation(problem, u, config, report, config.final_polish_mu_zero)
    else:
        u, _, reason = _newton(problem, u, 0.0, config, report, method == "safeguarded")
    _finalize(report, problem, u, t0)
    report.converged = not reason and report.final_residual <= config.eps
    report.failure_reason = reason or ("" if report.converged else "unbarriered residual above eps")
    return report


def newton_standard(spec, mesh, u0, config=None):
    """Plain Newton: full steps G'(u) w = -G(u), no positivity safeguard.

    Stops when ||G|| <= eps, or unconverged after max_inner steps or
    five negligible steps in a row.
    """
    return _solve_fem("newton", spec, mesh, u0, config)


def newton_safeguarded(spec, mesh, u0, config=None):
    """Newton with the 99% positivity cap and Armijo backtracking.

    Solves G' w = -G; the step is capped by step_to_boundary and then
    backtracked on phi = 0.5||G||^2.  Converged means ||G|| <= eps.
    """
    return _solve_fem("safeguarded", spec, mesh, u0, config)


def barrier_solve(spec, mesh, u0, config=None):
    """Primal barrier energy method with mu-continuation.

    Runs safeguarded Newton on each barrier subproblem
    [G' + mu M] w = -[G - mu H], shrinking mu by gamma whenever the
    subproblem tolerance is met and warm-starting from the previous
    solution; once mu drops below eps a final subproblem with mu = 0
    polishes to ||G|| <= eps (the reported, unbarriered convergence
    test).  mu0 = 0 degenerates to safeguarded Newton on the original
    problem.
    """
    return _solve_fem("barrier", spec, mesh, u0, config)


def classical_barrier_minimize(f, grad, hess, x0, config=None):
    """Log-barrier minimization of f on the positive orthant.

    Minimizes B_mu(x) = f(x) - mu sum(ln x_i) for the geometric mu
    schedule, solving (hess + mu diag(x^-2)) p = -(grad - mu x^-1) by a
    dense factorization at each inner step, with the 99% rule and Armijo
    backtracking on B_mu itself.  Converged means every stage met its
    tolerance and the schedule reached mu < eps within max_outer stages.
    Returns (x, report); the report's multiplier estimates are mu/x_i at
    the last solved positive mu.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    x = np.asarray(x0, dtype=float).copy()
    if np.any(x <= 0):
        raise NonpositiveState("classical barrier requires x0 > 0")
    if config.mu0 <= 0:
        raise ValueError("classical barrier requires mu0 > 0")
    problem = _DenseProblem(f, grad, hess, x.size)
    report = SolveReport(method="classical_barrier")
    x, report.failure_reason = _continuation(problem, x, config, report, polish=False)
    report.converged = not report.failure_reason
    return x, _finalize(report, problem, x, t0)
