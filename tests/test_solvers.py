"""Solver drivers: sign classification, step caps, line search, Newton
variants, barrier continuation and the classical finite-dimensional loop."""

import math
import weakref
from dataclasses import fields

import numpy as np
import pytest

from barrierfem.errors import LineSearchFailure, NonpositiveState
from barrierfem import fem
from barrierfem.fem import State, assemble_jacobian, assemble_residual
from barrierfem.mesh import (
    Marker,
    generate_annulus_mesh,
    generate_interval_mesh,
    generate_shell_mesh,
)
from barrierfem.cli import run_method
from barrierfem.problem import FeFunction, ProblemSpec, builtin_example, lichnerowicz_spec
from barrierfem import solvers
from barrierfem.solvers import (
    ARMIJO_ETA,
    EPS,
    GAMMA,
    Sign,
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


@pytest.fixture(scope="module")
def interval_robin():
    return generate_interval_mesh(0.1, 10, 60, left=Marker.ROBIN, right=Marker.ROBIN)


@pytest.fixture(scope="module")
def ex1_interval_reports(interval_robin):
    spec = builtin_example(1)
    u0 = FeFunction.constant(interval_robin, 1.0)
    return {
        "newton": newton_standard(spec, interval_robin, u0),
        "safeguarded": newton_safeguarded(spec, interval_robin, u0),
        "barrier": barrier_solve(spec, interval_robin, u0, SolverConfig(mu0=1.0)),
    }


class TestClassifySign:
    def test_positive(self):
        assert classify_sign(np.array([1.0, 2.0, 3.0])) == Sign.POSITIVE

    def test_negative(self):
        assert classify_sign(np.array([-1.0, -0.5])) == Sign.NEGATIVE

    def test_mixed_and_zero(self):
        assert classify_sign(np.array([1.0, 0.0, -1.0])) == Sign.MIXED
        assert classify_sign(np.array([1.0, 0.0])) == Sign.MIXED


class TestStepToBoundary:
    def test_no_negative_components(self):
        assert step_to_boundary([1.0, 1.0], [1.0, 1.0], np.ones(2, dtype=bool)) == 1.0

    def test_binding_ratio(self):
        # oracle: brute-force scan of feasible alphas
        u = np.array([1.0, 4.0])
        w = np.array([-2.0, -1.0])
        alphas = np.linspace(0, 5, 100001)
        feasible = alphas[np.all(u[None, :] + alphas[:, None] * w[None, :] > 0, axis=1)]
        alpha_max = feasible.max()
        assert abs(alpha_max - 0.5) < 1e-4
        assert step_to_boundary(u, w, np.ones(2, dtype=bool)) == 0.99 * 0.5

    def test_cap_at_one(self):
        # alpha_max = 2, so 0.99 * 2 caps at the full step
        assert step_to_boundary([1.0], [-0.5], np.ones(1, dtype=bool)) == 1.0

    def test_free_mask(self):
        u = np.array([-5.0, 1.0])
        w = np.array([0.0, -0.5])
        free = np.array([False, True])
        assert step_to_boundary(u, w, free=free) == 1.0

    def test_nonpositive_raises(self):
        with pytest.raises(NonpositiveState):
            step_to_boundary([0.0, 1.0], [1.0, 1.0], np.ones(2, dtype=bool))

    def test_randomized_feasibility(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            u = rng.uniform(0.05, 3.0, n)
            w = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
            alpha = step_to_boundary(u, w, np.ones(n, dtype=bool))
            assert 0 < alpha <= 1.0
            assert np.all(u + alpha * w > 0)
            if np.all(u + w / 0.99 > 0):  # full step feasible with margin
                assert alpha == 1.0


def _trials(merit, points=None):
    """An armijo_backtrack evaluate: (x, merit(x)), logging each x in points."""

    def evaluate(x):
        if points is not None:
            points.append(float(x[0]))
        return x, merit(x)

    return evaluate


class TestArmijo:
    def test_quadratic_full_step(self):
        # oracle: 0.5 (1-a)^2 <= 0.5 - 1e-4 a holds at a = 1
        merit = lambda x: 0.5 * float(x[0] ** 2)
        alpha, (x, phi) = armijo_backtrack(
            _trials(merit), 0.5, -1.0, np.array([1.0]), np.array([-1.0]), 1.0
        )
        assert alpha == 1.0
        assert x.tolist() == [0.0] and phi == 0.0  # the accepted trial

    def test_quartic_backtracks(self):
        merit = lambda x: float(x[0] ** 4)
        grad = 4.0 * 1.0**3 * (-1.0)
        points = []
        alpha, (x, phi) = armijo_backtrack(
            _trials(merit, points), 1.0, grad, np.array([1.0]), np.array([-1.0]), 2.0
        )
        assert 0 < alpha < 2.0
        # recheck the inequality at the returned step
        assert merit(np.array([1.0 - alpha])) <= 1.0 + 1e-4 * alpha * grad
        assert points[-1] == x[0] == 1.0 - alpha and phi == merit(x)

    def test_rejected_trial_freed_before_the_next(self):
        # a trial's value may hold large arrays (a power pass): only one
        # trial is alive at a time
        class Trial:
            def __init__(self, x):
                self.pair = (x, float((x[0] - 0.3) ** 2))

            def __getitem__(self, i):
                return self.pair[i]

        refs = []

        def evaluate(v):
            assert all(ref() is None for ref in refs)
            trial = Trial(v)
            refs.append(weakref.ref(trial))
            return trial

        alpha, trial = armijo_backtrack(evaluate, 0.09, -0.6, np.array([0.0]), np.array([1.0]), 1.0)
        # x = 1 (merit 0.49) is rejected, x = 0.5 (merit 0.04) accepted
        assert alpha == 0.5 and len(refs) == 2 and refs[1]() is trial

    def test_nondescent_rejected(self):
        merit = lambda x: float(x[0] ** 2)
        with pytest.raises(ValueError):
            armijo_backtrack(_trials(merit), 1.0, 0.0, np.array([1.0]), np.array([1.0]), 1.0)

    def test_failure_after_max_halvings(self):
        # merit increases along w but the supplied slope claims descent
        points = []
        with pytest.raises(LineSearchFailure):
            armijo_backtrack(
                _trials(lambda x: abs(float(x[0])), points),
                1.0, -1.0, np.array([1.0]), np.array([1.0]), 1.0,
            )
        # alpha_bar and 40 halvings; the merit at u is phi0, not evaluated
        assert len(points) == 41 and points[-1] == 1.0 + 0.5**40

    def test_infinite_merit_treated_as_reject(self):
        # decreasing toward 0.3 but undefined past 0.5: the search must
        # skate past the infinite trials and settle inside the domain
        merit = lambda x: np.inf if x[0] > 0.5 else float((x[0] - 0.3) ** 2)
        alpha, _ = armijo_backtrack(
            _trials(merit), 0.01, -0.2, np.array([0.2]), np.array([1.0]), 1.0
        )
        assert 0.2 + alpha * 1.0 <= 0.5

    def test_nonpositive_trial_rejected(self):
        # a trial the merit cannot be taken at counts as an infinite merit
        def merit(x):
            if x[0] > 0.5:
                raise NonpositiveState("outside the domain")
            return float((x[0] - 0.3) ** 2)

        points = []
        alpha, (x, phi) = armijo_backtrack(
            _trials(merit, points), 0.01, -0.2, np.array([0.2]), np.array([1.0]), 1.0
        )
        # 1.2 and 0.7 raise, 0.45 has merit 0.0225 > 0.01: 0.325 is accepted
        assert points == [1.2, 0.7, 0.45, 0.325]
        assert alpha == 0.125 and x[0] == 0.325 and phi == merit(x)


class _LinearStub:
    """Newton adapter for f(v) = B (v - 1) with a diagonal, possibly
    indefinite B, merit 0.5||f||^2 (slope (B w).f) and a fixed direction."""

    def __init__(self, diagonal, w):
        self.b = np.diag(np.asarray(diagonal, dtype=float))
        self.w = np.asarray(w, dtype=float)
        self.free = np.ones(len(self.w), dtype=bool)

    def evaluate(self, v, mu):
        v = v.u if isinstance(v, solvers.Point) else v
        f = self.b @ (v - 1.0)
        return solvers.Point(f, 0.5 * float(f @ f), v, mu, None)

    def direction(self, point):
        return self.w, "stub", lambda w: float((self.b @ w) @ point.f)


def _one_safeguarded_step(monkeypatch, problem, u):
    monkeypatch.setattr(solvers, "MAX_INNER", 1)
    report = solvers.SolveReport(method="stub")
    u = np.asarray(u, dtype=float)
    _, _, reason = solvers._newton(problem, u, 0.0, report, True)
    return report, reason


class TestDescentTest:
    """The safeguarded step certifies descent on the merit's own slope."""

    def test_merit_descent_direction_is_taken(self, monkeypatch):
        # at u = (2, 2): f = (1, -1), w.f = 2 > 0 but (B w).f = -4 < 0
        stub = _LinearStub([1.0, -1.0], [-1.0, -3.0])
        report, reason = _one_safeguarded_step(monkeypatch, stub, [2.0, 2.0])
        assert reason.startswith("no convergence in 1 iterations")
        (rec,) = report.iterations
        assert not rec.fallback_used and rec.grad_dot_dir == -4.0
        assert rec.alpha == rec.alpha_bar == 0.99 * (2.0 / 3.0)  # full capped step
        assert rec.phi_after <= rec.phi_before + 1e-4 * rec.alpha * rec.grad_dot_dir

    def test_merit_ascent_direction_falls_back(self, monkeypatch):
        # at u = (2, 2): f = (2, -1), w.f = -7 < 0 but (B w).f = 1 > 0;
        # along -f the slope is -(B f).f = -7
        stub = _LinearStub([2.0, -1.0], [-1.0, 5.0])
        report, reason = _one_safeguarded_step(monkeypatch, stub, [2.0, 2.0])
        assert reason.startswith("no convergence in 1 iterations")
        (rec,) = report.iterations
        assert rec.fallback_used and rec.grad_dot_dir == -7.0
        assert rec.alpha_bar == 0.99 and rec.alpha == 0.495
        assert rec.phi_after <= rec.phi_before + 1e-4 * rec.alpha * rec.grad_dot_dir


class TestNewtonStandard:
    def test_linear_problem_two_iterations(self, interval_robin):
        spec = ProblemSpec(power_terms=((1, 1.0),), robin_coeff=1.0, robin_data=5.0)
        report = newton_standard(spec, interval_robin, FeFunction.constant(interval_robin, 0.3))
        assert report.converged
        assert report.total_newton_iterations <= 2

    def test_positive_branch(self, ex1_interval_reports):
        report = ex1_interval_reports["newton"]
        assert report.converged
        assert report.sign == Sign.POSITIVE
        assert report.final_residual <= 1e-7

    def test_negative_branch(self, interval_robin):
        report = newton_standard(
            builtin_example(1), interval_robin, FeFunction.constant(interval_robin, -1.0)
        )
        assert report.converged
        assert report.sign == Sign.NEGATIVE

    def test_iteration_cap(self, interval_robin, monkeypatch):
        monkeypatch.setattr(solvers, "MAX_INNER", 2)
        report = newton_standard(
            builtin_example(1), interval_robin, FeFunction.constant(interval_robin, 1.0)
        )
        assert not report.converged
        assert report.total_newton_iterations == 2


class TestNewtonSafeguarded:
    def test_identical_to_standard_when_full_steps_accepted(self, ex1_interval_reports):
        newton = ex1_interval_reports["newton"]
        safeguarded = ex1_interval_reports["safeguarded"]
        assert np.array_equal(newton.solution, safeguarded.solution)
        assert newton.total_newton_iterations == safeguarded.total_newton_iterations
        assert all(rec.alpha == 1.0 for rec in safeguarded.iterations)

    def test_iterates_strictly_positive(self, ex1_interval_reports):
        for rec in ex1_interval_reports["safeguarded"].iterations:
            assert rec.min_free_coeff > 0

    def test_armijo_certificate_replay(self, ex1_interval_reports):
        for rec in ex1_interval_reports["safeguarded"].iterations:
            assert rec.grad_dot_dir < 0
            assert rec.phi_after <= rec.phi_before + ARMIJO_ETA * rec.alpha * rec.grad_dot_dir

    def test_descent_certificate(self, ex1_interval_reports):
        for rec in ex1_interval_reports["safeguarded"].iterations:
            assert rec.grad_dot_dir < 0

    def test_rejects_nonpositive_start(self, interval_robin):
        with pytest.raises(NonpositiveState):
            newton_safeguarded(
                builtin_example(1), interval_robin, FeFunction.constant(interval_robin, -1.0)
            )

    def test_example4_failure_mode(self):
        # indefinite Jacobian at the all-ones start: the safeguarded method
        # cannot certify descent and reports failure (no exception)
        mesh = generate_shell_mesh(
            1, 100, 1, inner=Marker.DIRICHLET, outer=Marker.DIRICHLET, n_layers=3
        )
        report = newton_safeguarded(builtin_example(4), mesh, FeFunction.constant(mesh, 1.0))
        assert not report.converged
        assert report.failure_reason


class TestBarrier:
    def test_example1_converges_positive(self, ex1_interval_reports):
        report = ex1_interval_reports["barrier"]
        assert report.converged
        assert report.sign == Sign.POSITIVE
        assert report.final_residual <= 1e-7

    def test_mu_trajectory_schedule(self, ex1_interval_reports):
        traj = [stage.mu for stage in ex1_interval_reports["barrier"].stages]
        assert traj[0] == 1.0 and traj[-1] == 0.0
        positive = [m for m in traj if m > 0]
        assert all(b < a for a, b in zip(traj, traj[1:]))
        for a, b in zip(positive, positive[1:]):  # mu_{k+1} = min(GAMMA mu_k, mu_k^1.5)
            assert b == min(GAMMA * a, a * math.sqrt(a))
        # 1, 0.1, 0.01, 0.001, 10^-4.5, 10^-6.75, then the polish at 0
        assert np.allclose(positive, 10.0 ** np.array([0, -1, -2, -3, -4.5, -6.75]), rtol=1e-12)

    def test_subproblem_tolerances_exact(self, ex1_interval_reports):
        for stage in ex1_interval_reports["barrier"].stages:
            if stage.mu > 0:
                assert stage.tolerance == subproblem_tolerance(
                    stage.mu, stage.initial_residual_norm
                )
            else:
                assert stage.tolerance == EPS

    def test_multipliers_kept_after_polish(self, ex1_interval_reports):
        # the mu = 0 polish leaves the last positive stage's estimates
        report = ex1_interval_reports["barrier"]
        assert report.stages[-1].mu == 0.0
        estimates = report.multiplier_estimates
        assert estimates.size == report.solution.size  # every vertex is free
        assert np.all(np.isfinite(estimates)) and np.all(estimates > 0)

    def test_multipliers_at_last_positive_mu(self, interval_robin):
        start = FeFunction.constant(interval_robin, 1.0)
        report = barrier_solve(builtin_example(1), interval_robin, start)
        last_mu = report.stages[-2].mu
        assert np.isclose(last_mu, 10**-6.75, rtol=1e-12)  # the last mu >= eps = 1e-7
        # mu/u before the polish, which moves u by O(mu) only
        assert np.allclose(report.multiplier_estimates, last_mu / report.solution, rtol=1e-6)
        assert np.all(report.multiplier_estimates > 0)
        # mu0 = 0 runs no positive stage, so it has no estimate
        report = barrier_solve(builtin_example(1), interval_robin, start, SolverConfig(mu0=0.0))
        assert report.converged and report.multiplier_estimates.size == 0

    def test_multipliers_on_free_dofs_with_zero_dirichlet_data(self):
        # example 1 has u = 0 on the Dirichlet circle: mu/u is taken where
        # u > 0, and no division by zero occurs
        mesh = generate_annulus_mesh(1.0, 2.0, 4, 16, inner=Marker.DIRICHLET, outer=Marker.ROBIN)
        report = barrier_solve(builtin_example(1), mesh, FeFunction.constant(mesh, 1.0))
        assert report.converged and report.sign == Sign.POSITIVE
        free = mesh.num_vertices - len(mesh.dirichlet_vertices())
        assert report.multiplier_estimates.size == free
        assert np.all(np.isfinite(report.multiplier_estimates))
        assert np.all(report.multiplier_estimates > 0)

    def test_mu0_zero_equals_standard_newton(self, interval_robin, ex1_interval_reports):
        config = SolverConfig(mu0=0.0)
        report = barrier_solve(
            builtin_example(1), interval_robin, FeFunction.constant(interval_robin, 1.0), config
        )
        assert report.converged
        assert np.array_equal(report.solution, ex1_interval_reports["newton"].solution)
        assert report.total_newton_iterations == (
            ex1_interval_reports["newton"].total_newton_iterations
        )
        assert [stage.mu for stage in report.stages] == [0.0]

    @pytest.mark.parametrize("n_layers", [3, 4])
    @pytest.mark.parametrize("refinement", [1, 2])
    def test_failure_propagates_mu(self, refinement, n_layers):
        """On these r_in = 1 shells the discrete example 4 has its minimizer
        on a face u_i = 0: the nodal barrier, infinite there, keeps every
        positive stage off it, each converges, and the mu = 0 polish stops
        and says so."""
        mesh = generate_shell_mesh(
            1, 100, refinement, inner=Marker.DIRICHLET, outer=Marker.DIRICHLET, n_layers=n_layers
        )
        config = SolverConfig(mu0=10.0)
        report = barrier_solve(builtin_example(4), mesh, FeFunction.constant(mesh, 1.0), config)
        assert not report.converged
        assert report.failure_reason.endswith(" at mu=0")
        schedule = solvers._mu_schedule(config.mu0)
        assert [stage.mu for stage in report.stages] == schedule + [0.0]


@pytest.mark.parametrize(
    "example, mu0, iterations, stages",
    [(1, 1.0, 15, 7), (2, 50.0, 10, 8), (3, 1.0, 15, 7), (4, 10.0, 14, 8)],
    ids=["example1", "example2", "example3", "example4"],
)
def test_barrier_counts_on_refinement2_shell(example, mu0, iterations, stages):
    """Newton iterations and mu stages of the suite's barrier runs on the
    r_in = 10 refinement-2 shell stay fixed under assembly changes.
    Example 4 took 13 steps with the barrier summed at the quadrature
    points and takes 14 with the nodal one, which moves the path of its
    positive stages."""
    marker = Marker.ROBIN if example in (1, 2) else Marker.DIRICHLET
    mesh = generate_shell_mesh(10.0, 100.0, 2, inner=marker, outer=marker, n_layers=5)
    report = barrier_solve(
        builtin_example(example), mesh, FeFunction.constant(mesh, 1.0), SolverConfig(mu0=mu0)
    )
    assert report.converged and report.sign == Sign.POSITIVE
    assert (report.total_newton_iterations, len(report.stages)) == (iterations, stages)


def _count_assemblies(monkeypatch):
    """Count solvers' residual assemblies inside and outside armijo_backtrack,
    its Jacobian assemblies and its linear solves."""
    calls = {"line search": 0, "other": 0, "jacobian": 0, "cg": 0}
    depth = [0]

    def counted(name, fn, key=None):
        def wrapper(*args, **kwargs):
            calls[key or ("line search" if depth[0] else "other")] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(solvers, name, wrapper)

    real_armijo = solvers.armijo_backtrack

    def armijo(*args, **kwargs):
        depth[0] += 1
        try:
            return real_armijo(*args, **kwargs)
        finally:
            depth[0] -= 1

    counted("assemble_residual", solvers.assemble_residual)
    counted("assemble_jacobian", solvers.assemble_jacobian, "jacobian")
    counted("cg_solve", solvers.cg_solve, "cg")
    monkeypatch.setattr(solvers, "armijo_backtrack", armijo)
    return calls


def test_barrier_assembles_residuals_for_trials_and_first_stage(interval_robin, monkeypatch):
    """Each residual assembly of a barrier solve is a line-search trial or
    the first stage's starting residual: every later iterate takes its
    residual and merit from its accepted trial, every later stage shifts
    the residual at its start point in mu, and the final ||G|| is the
    polish's last residual."""
    calls = _count_assemblies(monkeypatch)
    report = barrier_solve(
        builtin_example(2), interval_robin, FeFunction.constant(interval_robin, 1.0),
        SolverConfig(mu0=50.0),
    )
    # alpha = alpha_bar * 0.5^k after k rejected trials
    trials = sum(round(np.log2(r.alpha_bar / r.alpha)) + 1 for r in report.iterations)
    assert trials > report.total_newton_iterations > 0  # some steps backtracked
    assert calls["line search"] == trials
    assert calls["other"] == 1


@pytest.mark.parametrize("solve", [newton_standard, newton_safeguarded, barrier_solve])
def test_jacobian_assembled_only_for_a_linear_solve(interval_robin, monkeypatch, solve):
    """No matrix is built for an iterate that converged or stopped."""
    calls = _count_assemblies(monkeypatch)
    report = solve(builtin_example(1), interval_robin, FeFunction.constant(interval_robin, 1.0))
    assert report.converged
    assert calls["jacobian"] == calls["cg"] == report.total_newton_iterations > 0
    if solve is newton_standard:  # every iterate; the final ||G|| is the last one's
        assert calls["other"] == report.total_newton_iterations + 1


@pytest.mark.parametrize("solve", [newton_standard, newton_safeguarded, barrier_solve])
def test_finished_solve_keeps_no_state(monkeypatch, solve):
    """Every Newton point's state, and with it its power pass (k'),
    is freed by the time a solve returns."""
    states = []

    class Tracked(State):
        def __post_init__(self):
            super().__post_init__()
            states.append(weakref.ref(self))

    monkeypatch.setattr(solvers, "State", Tracked)
    mesh = generate_interval_mesh(0.1, 10, 40, left=Marker.ROBIN, right=Marker.ROBIN)
    report = solve(builtin_example(1), mesh, FeFunction.constant(mesh, 1.0))
    assert report.converged and len(states) > report.total_newton_iterations
    assert all(ref() is None for ref in states)


def test_a_step_off_the_point_drops_its_pass(interval_robin):
    """The residual keeps its pass on the point's state for the matrix; a
    nonzero direction leaves the point, so the pass is dropped at once."""
    problem = solvers._FemProblem(builtin_example(1), interval_robin)
    point = problem.evaluate(np.full(interval_robin.num_vertices, 0.5), 0.3)
    assert point.state.power_pass is not None
    w, _, _ = problem.direction(point)
    assert w.any() and point.state.power_pass is None
    assert problem.evaluate(point, 0.3) is point


def test_standard_newton_stops_at_its_first_zero_direction(monkeypatch):
    """Standard Newton on example 4 meets indefinite curvature at once at
    u = 1, so truncated CG returns w = 0 and the loop stops at its start:
    one residual, one matrix on that residual's power pass, one linear
    solve and no step."""
    calls = _count_assemblies(monkeypatch)
    passes = []
    real_pass = fem._power_pass
    monkeypatch.setattr(fem, "_power_pass",
                        lambda *a, **k: passes.append(1) or real_pass(*a, **k))
    mesh = generate_shell_mesh(1, 100, 0, inner=Marker.DIRICHLET, outer=Marker.DIRICHLET,
                               n_layers=2)
    report = newton_standard(builtin_example(4), mesh, FeFunction.constant(mesh, 1.0))
    assert report.failure_reason == (
        "no step: truncated CG met nonpositive curvature at once at mu=0"
    )
    assert report.iterations == []
    assert calls == {"line search": 0, "other": 1, "jacobian": 1, "cg": 1}
    assert len(passes) == 1
    assert np.array_equal(report.solution, np.ones(mesh.num_vertices))


@pytest.mark.parametrize("solve", [newton_standard, newton_safeguarded, barrier_solve])
@pytest.mark.parametrize("value", [1e-39, 1e-36, 1e60])
def test_overflowing_start_is_a_nonfinite_residual(solve, value):
    """A start whose powers overflow ends as a report, without a numpy
    warning (which the test settings turn into an error)."""
    mesh = generate_interval_mesh(0.1, 10, 40, left=Marker.ROBIN, right=Marker.ROBIN)
    report = solve(builtin_example(1), mesh, FeFunction.constant(mesh, value))
    assert not report.converged
    assert report.failure_reason == "nonfinite residual"


def test_stage_start_residual_matches_fresh_assembly(interval_robin, monkeypatch):
    """Every stage but the first starts from a residual shifted in mu; its
    norm equals that of a residual assembled afresh at the stage's (u, mu),
    up to roundoff on the scale of the solve's first residual (a late
    stage's residual is a millionth of the terms it sums)."""
    spec = builtin_example(2)
    starts = []
    real_newton = solvers._newton

    def newton(problem, start, mu, *args, **kwargs):
        starts.append((np.array(start.u if isinstance(start, solvers.Point) else start), mu))
        return real_newton(problem, start, mu, *args, **kwargs)

    monkeypatch.setattr(solvers, "_newton", newton)
    report = barrier_solve(
        spec, interval_robin, FeFunction.constant(interval_robin, 1.0), SolverConfig(mu0=50.0)
    )
    assert report.converged and len(report.stages) == len(starts) > 2
    scale = report.stages[0].initial_residual_norm
    for k, (stage, (u, mu)) in enumerate(zip(report.stages, starts)):
        fresh = np.linalg.norm(assemble_residual(spec, interval_robin, u, mu))
        assert stage.mu == mu
        assert abs(stage.initial_residual_norm - fresh) <= (1e-12 * scale if k else 0.0)


def test_line_search_failure_reports_the_last_point_at_mu_zero(interval_robin, monkeypatch):
    """A barrier solve whose second stage's line search fails reports ||G||
    at its last accepted point, assembled afresh there."""
    spec = builtin_example(2)
    stages = []
    real_newton, real_armijo = solvers._newton, solvers.armijo_backtrack

    def newton(problem, start, mu, *args, **kwargs):
        stages.append(mu)
        return real_newton(problem, start, mu, *args, **kwargs)

    def armijo(*args, **kwargs):
        if len(stages) > 1:
            raise LineSearchFailure("forced")
        return real_armijo(*args, **kwargs)

    monkeypatch.setattr(solvers, "_newton", newton)
    monkeypatch.setattr(solvers, "armijo_backtrack", armijo)
    report = barrier_solve(
        spec, interval_robin, FeFunction.constant(interval_robin, 1.0), SolverConfig(mu0=50.0)
    )
    assert report.failure_reason == "line search failure at mu=5: forced"
    assert [stage.mu for stage in report.stages] == [50.0, 5.0]
    fresh = np.linalg.norm(assemble_residual(spec, interval_robin, report.solution, 0.0))
    assert report.final_residual == fresh


def test_merit_chain_within_a_stage(interval_robin):
    """Replay the merit chain of a backtracking barrier solve: within one
    stage, each step's phi_before is the previous step's phi_after bit for
    bit, and every step meets its Armijo and descent certificates."""
    config = SolverConfig(mu0=50.0)
    report = barrier_solve(
        builtin_example(2), interval_robin, FeFunction.constant(interval_robin, 1.0), config
    )
    assert report.converged
    records = iter(report.iterations)
    links = 0
    for stage in report.stages:
        steps = [next(records) for _ in range(stage.newton_iterations)]
        assert all(rec.mu == stage.mu for rec in steps)
        for prev, rec in zip(steps, steps[1:]):
            assert rec.phi_before == prev.phi_after
            links += 1
        for rec in steps:
            assert rec.grad_dot_dir < 0
            assert rec.phi_after <= rec.phi_before + ARMIJO_ETA * rec.alpha * rec.grad_dot_dir
    assert next(records, None) is None
    assert any(rec.alpha < rec.alpha_bar for rec in report.iterations)  # backtracked
    assert links > 0


class TestClassicalBarrier:
    def test_interior_quadratic(self):
        c = np.array([2.0, 0.5, 3.0])
        x, report = classical_barrier_minimize(
            lambda x: 0.5 * float(np.sum((x - c) ** 2)),
            lambda x: x - c,
            lambda x: np.eye(3),
            np.array([5.0, 5.0, 5.0]),
            SolverConfig(mu0=1.0),
        )
        assert report.converged
        assert np.abs(x - c).max() < 1e-6
        assert np.all(report.multiplier_estimates <= 1e-5)

    def test_boundary_objective_tracks_mu(self):
        # f(x) = x: stationarity of the barrier gives x(mu) = mu exactly
        x, report = classical_barrier_minimize(
            lambda x: float(np.sum(x)),
            lambda x: np.ones_like(x),
            lambda x: np.zeros((x.size, x.size)),
            np.array([1.0]),
            SolverConfig(mu0=1.0),
        )
        assert report.converged
        last_mu = report.stages[-1].mu
        assert np.isclose(x[0], last_mu, rtol=1e-3)
        assert all(rec.min_free_coeff > 0 for rec in report.iterations)

    def test_long_schedule_runs_to_eps(self):
        # mu0 = 1e60 needs 66 stages to fall below eps: the schedule has no
        # cap of its own, so the run converges to x(mu) = mu at mu ~ 1.8e-7
        x, report = classical_barrier_minimize(
            lambda x: float(np.sum(x)),
            lambda x: np.ones_like(x),
            lambda x: np.zeros((x.size, x.size)),
            np.array([1e60]),
            SolverConfig(mu0=1e60),
        )
        assert report.converged and report.failure_reason == ""
        mus = [stage.mu for stage in report.stages]
        assert len(mus) == 66 and mus[0] == 1e60 and 1e-7 <= mus[-1] < 1e-6
        # mu_{k+1} = min(GAMMA mu_k, mu_k^1.5)
        assert all(b == min(GAMMA * a, a * math.sqrt(a)) for a, b in zip(mus, mus[1:]))
        assert np.isclose(x[0], mus[-1], rtol=1e-3)

    def test_at_most_max_inner_steps_per_stage(self, monkeypatch):
        monkeypatch.setattr(solvers, "MAX_INNER", 2)
        x, report = classical_barrier_minimize(
            lambda x: float(np.sum(x)),
            lambda x: np.ones_like(x),
            lambda x: np.zeros((x.size, x.size)),
            np.array([1.0]),
            SolverConfig(mu0=1.0),
        )
        assert not report.converged
        assert "no convergence in 2 iterations" in report.failure_reason
        assert [stage.newton_iterations for stage in report.stages] == [0, 2]
        assert report.total_newton_iterations == 2

    def test_rejects_nonpositive_start(self):
        with pytest.raises(NonpositiveState):
            classical_barrier_minimize(
                lambda x: 0.0,
                lambda x: np.zeros_like(x),
                lambda x: np.eye(x.size),
                np.array([-1.0]),
            )


class TestRegularization:
    def test_smallest_eigenvalue_nondecreasing_in_mu(self):
        # dense eigenvalue oracle on an instance with N <= 100
        mesh = generate_interval_mesh(0.1, 10, 50, left=Marker.ROBIN, right=Marker.ROBIN)
        spec = builtin_example(1)
        u = FeFunction(np.linspace(0.5, 2.0, mesh.num_vertices))
        b = {mu: assemble_jacobian(spec, mesh, u, mu).toarray()
             for mu in (0.0, 0.01, 0.1, 1.0, 10.0)}
        assert np.linalg.eigvalsh(b[1.0] - b[0.0]).min() > 0
        mins = [np.linalg.eigvalsh(matrix).min() for matrix in b.values()]
        assert all(x <= y + 1e-12 for x, y in zip(mins, mins[1:]))


def test_solver_config_validation():
    # the tolerance is the constant EPS: mu0 is the one field
    assert [f.name for f in fields(SolverConfig)] == ["mu0"]
    with pytest.raises(TypeError):
        SolverConfig(eps=0.0)


@pytest.mark.parametrize("field", ["mu0"])
def test_solver_config_rejects_negative_counts_and_mu0(field):
    with pytest.raises(ValueError, match=f"^{field} must be >= 0"):
        SolverConfig(**{field: -3})
    assert getattr(SolverConfig(**{field: 0}), field) == 0


@pytest.mark.parametrize("field", ["mu0"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_solver_config_rejects_nonfinite_eps_and_mu0(field, value):
    # nan fails every comparison: it must not slip past the checks
    with pytest.raises(ValueError, match=f"^{field} must be "):
        SolverConfig(**{field: value})


def test_converged_iff_no_failure_reason(interval_robin, ex1_interval_reports, monkeypatch):
    # _finalize decides every driver's outcome; a report for a raised error agrees
    ones = FeFunction.constant(interval_robin, 1.0)
    dirichlet = generate_interval_mesh(0.1, 10, 20)
    negative_data = lichnerowicz_spec(dirichlet_data=-1.0)  # u < 0 where fixed
    linear = (lambda x: float(np.sum(x)), lambda x: np.ones_like(x),
              lambda x: np.zeros((x.size, x.size)), np.array([1.0]))
    with monkeypatch.context() as one_step:
        one_step.setattr(solvers, "MAX_INNER", 1)
        capped = [
            newton_standard(builtin_example(1), interval_robin, ones),
            newton_safeguarded(builtin_example(1), interval_robin, ones),
            barrier_solve(builtin_example(1), interval_robin, ones),
        ]
    reports = [
        *ex1_interval_reports.values(),
        *capped,
        barrier_solve(negative_data, dirichlet, FeFunction.constant(dirichlet, 1.0)),
        classical_barrier_minimize(*linear)[1],
        run_method("barrier", builtin_example(1), interval_robin,
                   FeFunction.constant(interval_robin, -1.0), SolverConfig()),
    ]
    for report in reports:
        assert report.converged == (report.failure_reason == ""), report.method
    reasons = [report.failure_reason for report in reports]
    assert reasons[:3] + reasons[7:8] == ["", "", "", ""]
    assert all(reason.startswith("no convergence in 1 iterations") for reason in reasons[3:6])
    assert reasons[6].startswith("nonpositive state: ")
    assert reasons[8] == "barrier requires a strictly positive start"


def test_reports_carry_wall_time(ex1_interval_reports):
    for report in ex1_interval_reports.values():
        assert report.wall_time >= 0.0
        assert all(np.isfinite(record.residual_norm) for record in report.iterations)
        assert all(np.isfinite(stage.initial_residual_norm) for stage in report.stages)
