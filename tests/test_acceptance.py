"""Acceptance suite: one test per criterion, `pytest -v` prints one
pass/fail line for each.

Solver-comparison criteria run on the three built-in spherical shells
(inner radii 50/10/1, outer radius 100); consistency criteria run on an
interval (100 vertices), an annulus (~500) and a finer shell (~1500).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from barrierfem.cli import builtin_shell_meshes, plot_integrand
from barrierfem.fem import (
    apply_dirichlet,
    assemble_jacobian,
    assemble_residual,
    compute_energy,
    l2_error,
    workspace_for,
)
from barrierfem.mesh import Marker, generate_annulus_mesh, generate_interval_mesh, generate_shell_mesh
from barrierfem.problem import (
    FeFunction,
    ProblemSpec,
    builtin_example,
    lichnerowicz_spec,
    power_sum,
)
from barrierfem.solvers import (
    ARMIJO_ETA,
    GAMMA,
    Sign,
    SolverConfig,
    barrier_solve,
    classical_barrier_minimize,
    newton_safeguarded,
    newton_standard,
    step_to_boundary,
    subproblem_tolerance,
)

EPS = 1.0e-7


# --- shared meshes and solve reports (computed once) -----------------------

@pytest.fixture(scope="module")
def consistency_meshes():
    interval = generate_interval_mesh(0.1, 10, 99, left=Marker.ROBIN, right=Marker.ROBIN)
    annulus = generate_annulus_mesh(1, 2, 15, 32, inner=Marker.DIRICHLET, outer=Marker.ROBIN)
    shell = generate_shell_mesh(1, 100, 2, n_layers=8)
    assert interval.num_vertices == 100
    assert 400 <= annulus.num_vertices <= 600
    assert 1200 <= shell.num_vertices <= 1800
    return [("interval", interval), ("annulus", annulus), ("shell", shell)]


@pytest.fixture(scope="module")
def ex1_shell_reports():
    spec = builtin_example(1)
    reports = {}
    for label, mesh in builtin_shell_meshes(Marker.ROBIN):
        one = FeFunction.constant(mesh, 1.0)
        reports[label] = {
            "newton": newton_standard(spec, mesh, one),
            "safeguarded": newton_safeguarded(spec, mesh, one),
            "barrier": barrier_solve(spec, mesh, one, SolverConfig(mu0=1.0)),
            "newton_negative": newton_standard(spec, mesh, FeFunction.constant(mesh, -1.0)),
        }
    return reports


@pytest.fixture(scope="module")
def ex4_shell_reports():
    spec = builtin_example(4)
    reports = {}
    for label, mesh in builtin_shell_meshes(Marker.DIRICHLET):
        one = FeFunction.constant(mesh, 1.0)
        reports[label] = {
            "barrier": barrier_solve(spec, mesh, one, SolverConfig(mu0=10.0)),
            "newton": newton_standard(spec, mesh, one),
        }
    return reports


# --- criteria ---------------------------------------------------------------

def test_criterion_01_gradient_and_hessian_consistency(consistency_meshes):
    """FD checks of the energy gradient (<=1e-6) and Jacobian (<=1e-5)."""
    start = time.perf_counter()
    spec = lichnerowicz_spec(
        diffusion=1.0, scalar_curvature=1.0, tau=0.1, sigma=0.2, rho=0.1,
        robin_coeff=1.0, robin_data=-1.0, dirichlet_data=1.0,
    )
    rng = np.random.default_rng(2024)
    t = 1e-6
    for label, mesh in consistency_meshes:
        mask = workspace_for(mesh).dirichlet_mask
        for mu in (0.0, 0.1, 1.0):
            for _ in range(20):
                u = apply_dirichlet(
                    FeFunction(rng.uniform(0.5, 2.0, mesh.num_vertices)), mesh, spec
                )
                v = rng.standard_normal(mesh.num_vertices)
                v[mask] = 0.0
                residual = assemble_residual(spec, mesh, u, mu)
                energy = compute_energy(spec, mesh, u, mu)
                up = FeFunction(u.coefficients + t * v)
                um = FeFunction(u.coefficients - t * v)
                fd = (
                    compute_energy(spec, mesh, up, mu) - compute_energy(spec, mesh, um, mu)
                ) / (2 * t)
                assert abs(fd - float(v @ residual)) <= 1e-6 * max(1.0, abs(energy)), (
                    f"gradient FD failed on {label} at mu={mu}"
                )
                matrix = assemble_jacobian(spec, mesh, u, mu)
                rp = assemble_residual(spec, mesh, up, mu)
                rm = assemble_residual(spec, mesh, um, mu)
                fd_vec = (rp - rm) / (2 * t)
                bv = matrix @ v
                assert np.linalg.norm(fd_vec - bv) <= 1e-5 * np.linalg.norm(bv), (
                    f"Hessian FD failed on {label} at mu={mu}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\ncriterion 1 PASS: FD consistency on 3 meshes x 3 mu ({elapsed:.1f}s)")


def test_criterion_02_mms_convergence():
    """-Lap u + u = f manufactured solutions: observed L2 order 2.0 +/- 0.2."""
    start = time.perf_counter()

    def exact_1d(x):
        return np.sin(np.pi * np.atleast_2d(x)[:, 0]) + 2.0

    def source_1d(x):
        s = np.atleast_2d(x)[:, 0]
        return (np.pi**2 + 1.0) * np.sin(np.pi * s) + 2.0

    def exact_2d(x):
        x = np.atleast_2d(x)
        return np.sin(x[:, 0]) * np.cos(x[:, 1]) + 2.0

    def source_2d(x):
        x = np.atleast_2d(x)
        return 3.0 * np.sin(x[:, 0]) * np.cos(x[:, 1]) + 2.0

    cases = [
        (
            exact_1d,
            source_1d,
            [generate_interval_mesh(0, 1, n) for n in (8, 16, 32, 64)],
        ),
        (
            exact_2d,
            source_2d,
            [
                generate_annulus_mesh(1, 2, r, a, inner=Marker.DIRICHLET, outer=Marker.DIRICHLET)
                for r, a in ((3, 12), (6, 24), (12, 48), (24, 96))
            ],
        ),
    ]
    for exact, source, meshes in cases:
        spec = ProblemSpec(power_terms=((1, 1.0),), source=source, dirichlet_data=exact)
        errors = []
        for mesh in meshes:
            u0 = apply_dirichlet(FeFunction.constant(mesh, 0.0), mesh, spec)
            report = newton_standard(spec, mesh, u0)
            assert report.converged
            errors.append(l2_error(mesh, report.solution, exact))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(orders - 2.0) <= 0.2), f"orders {orders}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\ncriterion 2 PASS: MMS orders within 2.0 +/- 0.2 ({elapsed:.1f}s)")


def test_criterion_03_example1_pattern(ex1_shell_reports):
    """All three methods reach ||G|| <= 1e-7 with sign +; Newton <= 15
    iterations; safeguarded iterates identical to standard."""
    start = time.perf_counter()
    for label, reports in ex1_shell_reports.items():
        for method in ("newton", "safeguarded", "barrier"):
            report = reports[method]
            assert report.converged, f"{method} failed on {label}"
            assert report.final_residual <= 1e-7
            assert report.sign == Sign.POSITIVE
        assert reports["newton"].total_newton_iterations <= 15
        assert np.array_equal(
            reports["newton"].solution, reports["safeguarded"].solution
        ), f"safeguarded iterates differ from standard on {label}"
        assert all(rec.alpha == 1.0 for rec in reports["safeguarded"].iterations)
    its = {label: r["newton"].total_newton_iterations for label, r in ex1_shell_reports.items()}
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 3 PASS: example-1 pattern, newton iterations {its} ({elapsed:.1f}s)")


def test_criterion_04_negative_branch(ex1_shell_reports):
    """Standard Newton from u0 = -1 recovers the strictly negative branch."""
    for label, reports in ex1_shell_reports.items():
        report = reports["newton_negative"]
        assert report.converged, f"negative branch failed on {label}"
        assert report.sign == Sign.NEGATIVE
    print("\ncriterion 4 PASS: negative solution branch on all shells")


def test_criterion_05_example2_nonconvexity(tmp_path):
    """Integrand second derivative equals -47 exactly; sampled profile is
    nonconvex for R = -1000 and convex for R = 0."""
    # rational-arithmetic oracle for (1/8) R + 30 u^4 + 42 u^-8 + 6 u^-4
    oracle = Fraction(1, 8) * (-1000) + 30 + 42 + 6
    assert oracle == -47
    # the integrand's second derivative is k'(u), evaluated by power_sum
    coeffs = [(p, c(np.zeros((1, 1)))) for p, c in builtin_example(2).power_terms]
    value = power_sum(coeffs, 1.0, derivative=1)
    assert value == float(oracle)

    def second_differences(path):
        rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        data = np.array([[float(tok) for tok in ln.split(",")] for ln in rows[1:]])
        return np.diff(data[:, 1], 2)

    neg = tmp_path / "neg.csv"
    plot_integrand(-1000.0, 0.4, 3.0, 100, neg)
    dd = second_differences(neg)
    assert np.any(dd > 0) and np.any(dd < 0)

    zero = tmp_path / "zero.csv"
    plot_integrand(0.0, 0.4, 3.0, 100, zero)
    assert np.all(second_differences(zero) > 0)
    print("\ncriterion 5 PASS: -47 exact; nonconvex at R=-1000, convex at R=0")


def test_criterion_06_example4_barrier_positive(ex4_shell_reports):
    """Barrier with mu0 = 10 converges strictly positive on all shells."""
    start = time.perf_counter()
    for label, reports in ex4_shell_reports.items():
        barrier = reports["barrier"]
        assert barrier.converged, f"barrier failed on {label}: {barrier.failure_reason}"
        assert barrier.sign == Sign.POSITIVE
        assert barrier.final_residual <= 1e-7
        newton = reports["newton"]
        print(
            f"\n  example-4 {label}: standard newton sign {newton.sign.value} "
            f"(converged={newton.converged}) for comparison"
        )
    elapsed = time.perf_counter() - start
    print(f"criterion 6 PASS: example-4 barrier positive on all shells ({elapsed:.1f}s)")


def test_criterion_06b_example4_standard_newton_stalls(ex4_shell_reports):
    """Truncated CG returns w = 0 on example 4's indefinite Jacobian, so
    standard Newton stops at its start vector with no step taken (u0 = 1,
    which also meets the Dirichlet data u = 1)."""
    for label, reports in ex4_shell_reports.items():
        newton = reports["newton"]
        assert not newton.converged
        assert newton.total_newton_iterations == 0, label
        assert newton.failure_reason == (
            "no step: truncated CG met nonpositive curvature at once at mu=0"
        )
        assert np.array_equal(newton.solution, np.ones_like(newton.solution))
    print("\ncriterion 6b PASS: example-4 standard Newton stops at its first zero direction")


def test_criterion_07_feasibility_and_certificates(ex1_shell_reports, ex4_shell_reports):
    """Replay feasibility, Armijo and descent certificates; check mu
    schedules and the exact subproblem tolerances."""
    config = SolverConfig()
    all_reports = []
    for reports in ex1_shell_reports.values():
        all_reports += [reports["safeguarded"], reports["barrier"]]
    for reports in ex4_shell_reports.values():
        all_reports.append(reports["barrier"])

    checked_steps = 0
    for report in all_reports:
        for rec in report.iterations:
            assert rec.min_free_coeff > 0, "iterate left the positive orthant"
            assert rec.grad_dot_dir < 0
            assert rec.phi_after <= rec.phi_before + ARMIJO_ETA * rec.alpha * rec.grad_dot_dir
            checked_steps += 1
        mus = [stage.mu for stage in report.stages]
        positive = [m for m in mus if m > 0]
        assert all(b < a for a, b in zip(mus, mus[1:]))
        for a, b in zip(positive, positive[1:]):  # mu_{k+1} = min(GAMMA mu_k, mu_k^1.5)
            assert b == min(GAMMA * a, a * math.sqrt(a))
        for stage in report.stages:
            if stage.mu > 0:
                assert stage.tolerance == subproblem_tolerance(
                    stage.mu, stage.initial_residual_norm, config.eps
                )
            else:
                assert stage.tolerance == config.eps
    assert checked_steps > 0
    print(f"\ncriterion 7 PASS: certificates replayed over {checked_steps} accepted steps")


def test_criterion_08_barrier_matrix_properties():
    """Dense oracle on N <= 100: B(mu) = J + mu M exactly symmetric, the
    barrier matrix M = B(1) - B(0) SPD, and the smallest eigenvalue of
    B(mu), assembled at each mu, nondecreasing in mu."""
    mesh = generate_interval_mesh(0.1, 10, 80, left=Marker.ROBIN, right=Marker.ROBIN)
    assert mesh.num_vertices <= 100
    spec = builtin_example(1)
    rng = np.random.default_rng(5)
    u = FeFunction(rng.uniform(0.5, 2.0, mesh.num_vertices))
    b = {mu: assemble_jacobian(spec, mesh, u, mu).toarray()
         for mu in (0.0, 0.01, 0.1, 1.0, 10.0)}
    assert all(np.abs(a - a.T).max() == 0.0 for a in b.values())
    assert np.linalg.eigvalsh(b[1.0] - b[0.0]).min() > 0.0
    mins = [np.linalg.eigvalsh(matrix).min() for matrix in b.values()]
    assert all(x <= y + 1e-12 for x, y in zip(mins, mins[1:]))
    print(f"\ncriterion 8 PASS: barrier matrix SPD, lambda_min nondecreasing {np.round(mins, 4)}")


def test_criterion_09_classical_barrier_optimizer():
    """0.5||x - c||^2 with interior c: solution within 1e-6, multiplier
    estimates mu/x_i at the final mu below 1e-5."""
    c = np.array([2.0, 0.5, 3.0])
    x, report = classical_barrier_minimize(
        lambda x: 0.5 * float(np.sum((x - c) ** 2)),
        lambda x: x - c,
        lambda x: np.eye(3),
        np.array([5.0, 5.0, 5.0]),
        SolverConfig(mu0=1.0),
    )
    assert report.converged
    assert np.abs(x - c).max() <= 1e-6
    assert np.all(report.multiplier_estimates <= 1e-5)
    print(f"\ncriterion 9 PASS: |x - c|_inf = {np.abs(x - c).max():.2e}, "
          f"max multiplier = {report.multiplier_estimates.max():.2e}")


def test_criterion_10_step_rule_properties():
    """1000 random (u > 0, w): u + alpha*w stays positive, and alpha = 1
    whenever the full step is feasible with margin."""
    rng = np.random.default_rng(99)
    full_steps = 0
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        u = rng.uniform(0.01, 5.0, n)
        w = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        alpha = step_to_boundary(u, w)
        assert 0 < alpha <= 1.0
        assert np.all(u + alpha * w > 0)
        if np.all(u + w / 0.99 > 0):
            assert alpha == 1.0
            full_steps += 1
    assert full_steps > 0
    print(f"\ncriterion 10 PASS: 1000 random steps feasible ({full_steps} full steps)")
