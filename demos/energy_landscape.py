"""The nonconvex energy landscape behind the 1D model problem.

The 1D energy integrand I(u) = (R/16) u^2 + u^6 + u^-6 + u^-2 is convex
for mild scalar curvature R but develops an inflection once R is
sufficiently negative, which is why plain energy minimization cannot be
trusted and a stationarity-seeking (Newton + merit) treatment is needed.

Run:  python demos/energy_landscape.py
"""

import numpy as np

from barrierfem import builtin_example
from barrierfem.cli import figure_integrand
from barrierfem.problem import power_sum

u = np.linspace(0.4, 3.0, 200)

print("second derivative of the integrand at u = 1:")
for curvature in (0.0, -100.0, -1000.0):
    d2 = curvature / 8.0 + 30.0 + 42.0 + 6.0
    print(f"  R = {curvature:8.1f}:  I''(1) = {d2:10.2f}"
          + ("   (nonconvex)" if d2 < 0 else ""))

# the same number through the library's power-law evaluator: I'' = k'
coeffs = [(p, c(np.zeros((1, 1)))) for p, c in builtin_example(2).power_terms]
assert power_sum(coeffs, 1.0, derivative=1) == -47.0

for curvature in (0.0, -1000.0):
    values = figure_integrand(curvature, u)
    second = np.diff(values, 2)
    shape = "convex" if np.all(second > 0) else "NONCONVEX (inflection present)"
    k = int(np.argmin(values))
    print(f"\nR = {curvature:g}: min I = {values.min():.2f} at u = {u[k]:.2f}; "
          f"profile is {shape}")

# evenness: only even powers of u appear
assert np.array_equal(figure_integrand(-1000.0, u), figure_integrand(-1000.0, -u))
print("\nI(u) = I(-u): the landscape is symmetric, so every positive")
print("stationary point has a mirror-image negative one.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for curvature, style in ((0.0, "--"), (-1000.0, "-")):
        ax.plot(u, figure_integrand(curvature, u), style, label=f"R = {curvature:g}")
    ax.set_xlabel("u")
    ax.set_ylabel("I(u)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("energy_landscape.png", dpi=120)
    print("\nwrote energy_landscape.png")
except ImportError:
    pass
