"""Nonlinear solution strategies for the positivity-constrained problems.

The drivers are newton_standard, newton_safeguarded, barrier_solve (the
primal barrier energy method) and classical_barrier_minimize (the same
continuation for smooth objectives on the positive orthant).  Where each
mechanism is documented:

* `_newton`: the one Newton loop, its full and safeguarded steps and its
  stop rules; `step_to_boundary` and `armijo_backtrack` its safeguards;
* `_mu_schedule` and `_continuation`: the one barrier continuation;
* `_FemProblem` and `_DenseProblem`: the adapters through which the
  loop sees a problem, as `Point`s (f, phi, u, mu, state);
* `IterationRecord` and `StageRecord`: the replayable certificates;
* `_finalize`: the one place that sets `converged` and `failure_reason`.
"""

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import LineSearchFailure, NonpositiveState
from .fem import (
    State,
    apply_dirichlet,
    assemble_barrier_gradient,
    assemble_jacobian,
    assemble_residual,
    workspace_for,
)
from .linalg import cg_solve
from .problem import as_coefficients

Point = namedtuple("Point", "f phi u mu state")  # (value, merit) first, for armijo_backtrack


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


#: the schedule's linear factor and superlinear exponent: stage k + 1 runs at
#: min(GAMMA * mu_k, mu_k ** MU_POWER), the update of Waechter & Biegler (2006)
GAMMA = 0.1
MU_POWER = 1.5
#: Armijo's sufficient-decrease constant and its step factor per trial
ARMIJO_ETA = 1.0e-4
BACKTRACK = 0.5
#: steps one Newton loop (one stage) may take before it stops unconverged
MAX_INNER = 100
#: the reported test ||G|| <= EPS of every PDE solve, the tolerance of a
#: mu = 0 loop and the floor of the mu schedule
EPS = 1.0e-7


@dataclass
class SolverConfig:
    """The schedule's start mu0 of the barrier drivers; the tolerance is EPS.

    An invalid value raises ValueError; its message starts with the
    name of the field.
    """

    mu0: float = 1.0

    def __post_init__(self):
        if not 0 <= self.mu0 < np.inf:
            raise ValueError("mu0 must be >= 0 and finite")


@dataclass
class IterationRecord:
    """One accepted Newton/backtracking step, with enough data to replay its
    Armijo, descent and feasibility certificates after the fact;
    grad_dot_dir < 0 certifies a safeguarded step's descent (a standard
    step records nan there)."""

    mu: float
    residual_norm: float        # ||G - mu H|| before the step
    phi_before: float
    phi_after: float
    alpha_bar: float
    alpha: float
    grad_dot_dir: float         # slope of the merit along the step
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
    """What one solve did.  converged: no failure reason, which for a PDE
    driver (each ends at mu = 0) means ||G|| <= EPS, and for the classical
    barrier that every stage of its schedule converged.  failure_reason:
    "" iff converged, else why the loop stopped.  final_residual: ||G(u)||
    (unbarriered), or ||grad f(x)||, at the last iterate; sign: its sign on
    the free dofs.  multiplier_estimates: mu/u on the free dofs at the end
    of the last positive-mu stage, if any; for a PDE driver that is
    lambda_i/m_i, the multiplier of the constraint u_i >= 0 per unit of
    the lumped mass m_i = int phi_i (see fem)."""

    method: str
    converged: bool = False
    total_newton_iterations: int = 0
    final_residual: float = np.inf
    sign: Sign = Sign.MIXED
    multiplier_estimates: np.ndarray = field(default_factory=lambda: np.zeros(0))
    wall_time: float = 0.0
    iterations: list = field(default_factory=list)
    stages: list = field(default_factory=list)
    failure_reason: str = ""
    solution: np.ndarray = field(default_factory=lambda: np.zeros(0))


def step_to_boundary(u, w, free):
    """Largest safe step along w keeping u strictly positive.

    alpha_max = min over {i : w_i < 0} of -u_i / w_i restricted to the
    unconstrained indices, where the mask `free` is True; the returned cap
    is min(0.99*alpha_max, 1) (the 99% rule), and exactly 1 when no
    component of w is negative there.
    """
    u = np.asarray(u, dtype=float)[free]
    w = np.asarray(w, dtype=float)[free]
    if np.any(u <= 0):
        raise NonpositiveState("step_to_boundary requires u > 0 componentwise")
    neg = w < 0
    if not np.any(neg):
        return 1.0
    with np.errstate(over="ignore"):  # an overflowed ratio is no cap
        alpha_max = float(np.min(-u[neg] / w[neg]))
    return min(0.99 * alpha_max, 1.0)


def armijo_backtrack(evaluate, phi0, grad_dot_dir, u, w, alpha_bar):
    """Largest alpha in {alpha_bar * BACKTRACK^k} with sufficient decrease.

    evaluate(v) returns (value, merit) at a trial point v = u + alpha*w;
    a trial that raises NonpositiveState has infinite merit.  phi0 is the
    merit at u, which is not evaluated.  Returns (alpha, evaluate(u + alpha*w))
    for the first alpha with merit <= phi0 + ARMIJO_ETA*alpha*grad_dot_dir.
    Raises LineSearchFailure once alpha_bar and 40 halvings are all rejected.
    """
    if not grad_dot_dir < 0:
        raise ValueError(f"grad_dot_dir must be negative, got {grad_dot_dir}")
    if not alpha_bar > 0:
        raise ValueError(f"alpha_bar must be positive, got {alpha_bar}")
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    alpha = float(alpha_bar)
    for _ in range(41):
        try:
            trial = evaluate(u + alpha * w)
        except NonpositiveState:
            trial = (None, np.inf)
        if np.isfinite(trial[1]) and trial[1] <= phi0 + ARMIJO_ETA * alpha * grad_dot_dir:
            return alpha, trial
        alpha, trial = alpha * BACKTRACK, None  # a rejected trial is freed before the next
    raise LineSearchFailure(
        f"no sufficient decrease after 40 halvings (phi0={phi0:.3e})"
    )


def subproblem_tolerance(mu, initial_residual_norm):
    """Residual target for one barrier stage:
    max(eps_mu * ||f(u0)||, eps_mu) with eps_mu = max(min(0.1, mu), EPS)."""
    eps_mu = max(min(0.1, mu), EPS)
    return max(eps_mu * initial_residual_norm, eps_mu)


class _FemProblem:
    """The P1 system f = G(u) - mu H(u) with merit phi = 0.5 ||f||^2.

    A Newton step solves B w = -f with B = J + mu M, assembled at mu
    only for that step, by truncated CG; the merit slope along w is
    (B w).f, since grad phi = B f.  H and M are the nodal barrier's
    vertex vectors (see fem), so the matrix reuses the residual's power
    pass at any mu.

    f is assembled once per point.  At a point's state, f at another mu
    is f + (point.mu - mu) H, since f is affine in mu.  So a later stage
    starts from the previous stage's last residual, and the final ||G||
    of a polished solve is the polish's last residual.  B is assembled at
    the point's State, reusing its residual's power pass, so a barrier
    solve makes one residual per line-search trial plus one for the first
    stage, and one matrix per linear solve.
    """

    def __init__(self, spec, mesh):
        self.spec, self.mesh = spec, mesh
        self.free = workspace_for(mesh).free

    def evaluate(self, v, mu):
        """The Point at a vector v (which becomes its State), or the point v
        moved to mu; raises NonpositiveState for v <= 0 somewhere at mu > 0."""
        if not isinstance(v, Point):
            state = State(v)
            f = assemble_residual(self.spec, self.mesh, state, mu)
        elif v.mu != mu:
            state, f = v.state, v.f + (v.mu - mu) * assemble_barrier_gradient(self.mesh, v.state)
        else:
            return v
        with np.errstate(over="ignore"):  # an overflowed merit is inf, which _newton stops on
            return Point(f, 0.5 * float(np.dot(f, f)), state.coefficients, mu, state)

    def direction(self, point):
        """(w, CG status, w -> merit slope) for B w = -f; drops the State's
        pass, which only B reads."""
        matrix = assemble_jacobian(self.spec, self.mesh, point.state, point.mu)
        point.state.power_pass = None
        result = cg_solve(matrix, -point.f)
        return result.x, result.status.value, lambda w: float(np.dot(matrix @ w, point.f))


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
        """The Point (grad B_mu, B_mu) at y, or at the point y's u; raises
        NonpositiveState unless y > 0."""
        y = y.u if isinstance(y, Point) else y
        if np.any(y <= 0):
            raise NonpositiveState("the barrier function needs y > 0")
        g = np.asarray(self.grad(y), dtype=float) - mu / y
        return Point(g, float(self.f(y)) - mu * float(np.sum(np.log(y))), y, mu, None)

    def direction(self, point):
        """(p, "dense", p -> merit slope) for the barrier Hessian system."""
        hbar = np.asarray(self.hess(point.u), dtype=float) + point.mu * np.diag(point.u**-2.0)
        try:
            p = np.linalg.solve(hbar, -point.f)
        except np.linalg.LinAlgError:
            p = -point.f
        return p, "dense", lambda w: float(np.dot(point.f, w))


def _newton(problem, point, mu, report, safeguarded):
    """Newton iteration on f = 0 at fixed mu, from a vector or a point.

    The start is evaluated at mu; then a safeguarded step takes its point
    from its accepted line-search trial and a standard step evaluates the
    new iterate.  The direction, and with it a matrix, is only computed
    for a step.

    Converged once ||f|| <= subproblem_tolerance(mu, ||f(u0)||), or EPS
    at mu = 0.  Both step policies stop on a nonfinite residual,
    after MAX_INNER steps and after five negligible steps in a row.  A
    standard step is the full Newton step; a zero direction, which
    truncated CG returns when it meets nonpositive curvature on its
    first step, stops the loop at its point with no step taken.  A
    safeguarded step falls back to -f unless phi's slope along w is
    negative, stops unless the slope along the step is then negative, is
    capped by step_to_boundary and backtracked on phi, which is infinite
    at a nonpositive trial.
    Each step's merit before is the previous step's merit after, bit for
    bit.  Returns (point, stage, reason): the last point (the start itself
    if it is nonpositive), its StageRecord (None then) and "" on
    convergence, else why the iteration stopped.
    """
    stage = None
    stagnant = 0
    try:
        point = problem.evaluate(point, mu)
        while True:
            with np.errstate(over="ignore"):  # a huge f has an infinite norm
                fn = float(np.linalg.norm(point.f))
            if stage is None:
                tol = subproblem_tolerance(mu, fn) if mu > 0 else EPS
                stage = StageRecord(mu, tol, fn, 0)
            if not np.isfinite(fn):
                return point, stage, "nonfinite residual"
            if fn <= stage.tolerance:
                return point, stage, ""
            if stage.newton_iterations >= MAX_INNER:
                return point, stage, f"no convergence in {MAX_INNER} iterations at mu={mu:g}"
            w, cg_status, slope_along = problem.direction(point)
            alpha, alpha_bar, slope, fallback = 1.0, np.nan, np.nan, False
            if safeguarded:
                slope = slope_along(w)
                if not slope < 0:
                    w, fallback = -point.f, True
                    slope = slope_along(w)
            del slope_along  # and with it B, before the step's trial residuals
            if safeguarded:
                if not slope < 0:
                    return point, stage, f"no descent direction at mu={mu:g}"
                alpha_bar = step_to_boundary(point.u, w, free=problem.free)
                try:
                    # the accepted trial at u + alpha*w is the new point, bit for bit
                    alpha, new = armijo_backtrack(
                        lambda v: problem.evaluate(v, mu), point.phi, slope, point.u, w, alpha_bar
                    )
                except LineSearchFailure as exc:
                    return point, stage, f"line search failure at mu={mu:g}: {exc}"
            elif not w.any():
                return point, stage, (
                    f"no step: truncated CG met nonpositive curvature at once at mu={mu:g}"
                )
            else:
                new = problem.evaluate(point.u + alpha * w, mu)
            report.iterations.append(IterationRecord(
                mu, fn, point.phi, new.phi if safeguarded else np.nan, alpha_bar, alpha, slope,
                fallback, float(new.u[problem.free].min()), cg_status,
            ))
            point = new
            stage.newton_iterations += 1
            step = alpha * float(np.linalg.norm(w))
            negligible = step < 1e-14 * max(1.0, float(np.linalg.norm(point.u)))
            stagnant = stagnant + 1 if negligible else 0
            if stagnant >= 5:
                return point, stage, f"stagnation: negligible steps at mu={mu:g}"
    except NonpositiveState as exc:
        return point, stage, f"nonpositive state: {exc}"


def _mu_schedule(mu0):
    """The positive stages mu0 > mu_1 > ... >= EPS of a barrier continuation.

    mu_{k+1} = min(GAMMA * mu_k, mu_k ** MU_POWER): linear while mu > GAMMA^2,
    then superlinear, so the stages near EPS are fewer than in the geometric
    schedule mu0, GAMMA*mu0, ... and never more.  mu ** 1.5 is taken as
    mu * sqrt(mu) on Python floats: for a huge finite mu it is inf, which
    min drops, where ** would raise OverflowError.  The schedule is finite,
    since mu0 is finite and EPS > 0: at most about log10(mu0/EPS) + 1 stages.
    """
    mu, schedule = float(mu0), []
    while mu >= EPS:
        schedule.append(mu)
        mu = min(GAMMA * mu, mu * math.sqrt(mu))
    return schedule


def _continuation(problem, point, mu0, report, polish):
    """Safeguarded Newton on the stages mu0 > ... >= EPS of
    _mu_schedule(mu0), each warm-started, then with `polish` on mu = 0.

    Multiplier estimates are mu/u on the free dofs at the end of the last
    positive stage; the polish keeps them.  Returns (point, reason); reason is
    "" when every stage converged, else why the stage that failed stopped.
    """
    for stage_mu in _mu_schedule(mu0) + ([0.0] if polish else []):
        point, stage, reason = _newton(problem, point, stage_mu, report, safeguarded=True)
        if stage is not None:
            report.stages.append(stage)
        if reason:
            return point, reason
        if stage_mu:
            report.multiplier_estimates = stage_mu / point.u[problem.free]
    return point, ""


def _finalize(report, problem, point, reason, t0):
    """Record a loop's end: converged iff `reason` is "", the last iterate, its
    sign on the free dofs and ||G(u)|| (<= EPS when a FEM loop gives no
    reason), or ||grad f(x)||.  G is the last residual if the loop ended at
    mu = 0, else assembled afresh: the last residual moved to mu = 0,
    f + mu H, can lose G to cancellation, as mu H has no bound."""
    report.converged, report.failure_reason = not reason, reason
    if isinstance(point, Point) and point.mu > 0:
        point = point.u
    final = problem.evaluate(point, 0.0)
    report.solution = np.array(final.u)
    report.sign = classify_sign(final.u[problem.free])
    report.total_newton_iterations = len(report.iterations)
    with np.errstate(over="ignore"):  # as in _newton, an overflowed norm is inf
        report.final_residual = float(np.linalg.norm(final.f))
    report.wall_time = time.perf_counter() - t0
    return report


def _solve_fem(method, spec, mesh, u0, mu0=None):
    """Run the PDE driver `method`: "newton", "safeguarded" or "barrier"
    (which starts its schedule at mu0); each ends in a Newton loop at
    mu = 0 and then in `_finalize`."""
    t0 = time.perf_counter()
    u = apply_dirichlet(u0, mesh, spec).coefficients
    problem = _FemProblem(spec, mesh)
    if method != "newton" and np.any(u[problem.free] <= 0):
        raise NonpositiveState(f"{method} requires a strictly positive start")
    report = SolveReport(method=method)
    if method == "barrier":
        point, reason = _continuation(problem, u, mu0, report, polish=True)
    else:
        point, _, reason = _newton(problem, u, 0.0, report, method == "safeguarded")
    return _finalize(report, problem, point, reason, t0)


def newton_standard(spec, mesh, u0):
    """Plain Newton: full steps G'(u) w = -G(u), no positivity safeguard.

    Stops when ||G|| <= EPS, or unconverged after MAX_INNER steps, after
    five negligible steps in a row, or at once when truncated CG returns
    a zero direction (nonpositive curvature on its first step).
    """
    return _solve_fem("newton", spec, mesh, u0)


def newton_safeguarded(spec, mesh, u0):
    """Newton with the 99% positivity cap and Armijo backtracking.

    Solves G' w = -G; the step is capped by step_to_boundary and then
    backtracked on phi = 0.5||G||^2.  Converged means ||G|| <= EPS.
    """
    return _solve_fem("safeguarded", spec, mesh, u0)


def barrier_solve(spec, mesh, u0, config=None):
    """Primal barrier energy method with mu-continuation.

    Each stage seeks a stationary point of J_mu(u) = J(u) - mu sum_i m_i ln u_i,
    the barrier lumped onto the free vertices (m_i = int phi_i), which is
    infinite on each face u_i = 0 that step_to_boundary keeps the iterates
    off, by safeguarded Newton on [G' + mu M] w = -[G - mu H], with Armijo on
    the residual merit 0.5 ||G - mu H||^2, not on J_mu, warm-started from
    the previous stage; whenever the stage tolerance is met, mu shrinks
    to min(GAMMA * mu, mu ** MU_POWER) (`_mu_schedule`).  Once mu drops
    below EPS a final subproblem with mu = 0 always polishes to
    ||G|| <= EPS (the reported, unbarriered convergence test).
    Multiplier estimates are mu/u at the last positive stage, lambda_i/m_i;
    mu0 = 0 is safeguarded Newton, with none.  `config` is a SolverConfig
    (default SolverConfig()), read for its mu0 alone.
    """
    return _solve_fem("barrier", spec, mesh, u0, (config or SolverConfig()).mu0)


def classical_barrier_minimize(f, grad, hess, x0, config=None):
    """Log-barrier minimization of f on the positive orthant.

    Minimizes B_mu(x) = f(x) - mu sum(ln x_i) on the stages of
    `_mu_schedule`, solving (hess + mu diag(x^-2)) p = -(grad - mu x^-1) by a
    dense factorization at each inner step, with the 99% rule and Armijo
    backtracking on B_mu itself.  Converged means every stage of the
    schedule mu0 > ... >= EPS met its tolerance.  `config` is read for its
    mu0 alone, as in barrier_solve.
    Returns (x, report); the report's multiplier estimates are mu/x_i at
    the last solved positive mu.
    """
    mu0 = (config or SolverConfig()).mu0
    t0 = time.perf_counter()
    x = np.asarray(x0, dtype=float).copy()
    if np.any(x <= 0):
        raise NonpositiveState("classical barrier requires x0 > 0")
    if mu0 <= 0:
        raise ValueError("classical barrier requires mu0 > 0")
    problem = _DenseProblem(f, grad, hess, x.size)
    report = SolveReport(method="classical_barrier")
    point, reason = _continuation(problem, x, mu0, report, polish=False)
    return _finalize(report, problem, point, reason, t0).solution.copy(), report
