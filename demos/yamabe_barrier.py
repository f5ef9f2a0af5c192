"""A Yamabe-type problem where only the barrier method finds u > 0.

The equation -8 Lap u - u/8 + u^5/r^3 = 0 with u = 1 on both boundaries
has no singular term guarding u = 0, and its Jacobian at u = 1 is
indefinite.  Truncated CG then returns the zero step, so plain Newton
stalls at its start vector, and safeguarded Newton finds no descent
direction.  With the barrier's mu m_i/u_i^2 on the Jacobian's diagonal, CG
converges at every step, and continuation in mu delivers a strictly
positive solution.  The constraint u > 0 is inactive there: the
multiplier estimates mu/u at the last positive mu are all near zero.

Run:  python demos/yamabe_barrier.py
"""

from barrierfem import (
    FeFunction,
    Marker,
    SolverConfig,
    barrier_solve,
    builtin_example,
    generate_shell_mesh,
    newton_safeguarded,
    newton_standard,
)

mesh = generate_shell_mesh(
    10, 100, 2, inner=Marker.DIRICHLET, outer=Marker.DIRICHLET, n_layers=5
)
spec = builtin_example(4)
ones = FeFunction.constant(mesh, 1.0)

print(f"shell mesh: {mesh.num_vertices} vertices\n")

newton = newton_standard(spec, mesh, ones)
print(f"standard Newton   : converged={newton.converged}  sign {newton.sign.value}  "
      f"({newton.total_newton_iterations} iterations)  [{newton.failure_reason}]")

safeguarded = newton_safeguarded(spec, mesh, ones)
print(f"safeguarded Newton: converged={safeguarded.converged}  "
      f"[{safeguarded.failure_reason}]")

barrier = barrier_solve(spec, mesh, ones, SolverConfig(mu0=10.0))
print(f"barrier mu0 = 10  : converged={barrier.converged}  sign {barrier.sign.value}  "
      f"residual {barrier.final_residual:.2e}  "
      f"({barrier.total_newton_iterations} iterations)")

assert barrier.sign.value == "+"
u = barrier.solution
print(f"\nsolution range: [{u.min():.3f}, {u.max():.3f}] "
      f"(strictly positive everywhere)")
estimates = barrier.multiplier_estimates
last_mu = [stage.mu for stage in barrier.stages if stage.mu > 0][-1]
print(f"multiplier estimates mu/u at mu = {last_mu:.1e}: {estimates.size} free vertices, "
      f"in [{estimates.min():.1e}, {estimates.max():.1e}] (u > 0 is inactive)")
assert estimates.size and estimates.max() <= 1e-5
print("\nmu continuation:")
for stage in barrier.stages:
    print(f"  mu = {stage.mu:<8.1e} inner iterations = {stage.newton_iterations}")
