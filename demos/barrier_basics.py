"""The classical log-barrier method on problems with known answers.

Minimizing f(x) subject to x >= 0 through B_mu(x) = f(x) - mu * sum(ln x):
with an interior minimizer the barrier iterates converge to it and the
multiplier estimates mu/x_i vanish; with the minimizer on the boundary
the estimates stay bounded away from zero and the iterates track the
central path x(mu) exactly.

Run:  python demos/barrier_basics.py
"""

import numpy as np

from barrierfem import SolverConfig, classical_barrier_minimize

print("interior minimizer: f(x) = 0.5 ||x - c||^2, c = (2, 0.5, 3)")
c = np.array([2.0, 0.5, 3.0])
x, report = classical_barrier_minimize(
    lambda x: 0.5 * float(np.sum((x - c) ** 2)),
    lambda x: x - c,
    lambda x: np.eye(3),
    np.array([5.0, 5.0, 5.0]),
    SolverConfig(mu0=1.0),
)
print(f"  x* = {np.round(x, 8)}")
print(f"  |x - c|_inf = {np.abs(x - c).max():.2e}")
print(f"  multiplier estimates mu/x_i = {report.multiplier_estimates}")
print(f"  ({report.total_newton_iterations} Newton steps over "
      f"{len(report.stages)} barrier stages)\n")

print("boundary minimizer: f(x) = x on x >= 0")
x, report = classical_barrier_minimize(
    lambda x: float(np.sum(x)),
    lambda x: np.ones_like(x),
    lambda x: np.zeros((x.size, x.size)),
    np.array([1.0]),
    SolverConfig(mu0=1.0),
)
print("  central path: stationarity gives 1 = mu/x, i.e. x(mu) = mu")
print(f"  final mu = {report.stages[-1].mu:.1e}, final x = {x[0]:.3e}")
print(f"  multiplier estimate mu/x = {report.multiplier_estimates[0]:.6f} "
      "(stays ~1: the constraint is active)")
print("  every iterate stayed strictly positive:",
      all(rec.min_free_coeff > 0 for rec in report.iterations))
