"""Problem data: PDE coefficients and the power-law nonlinearity.

Everything here is pointwise.  `ProblemSpec` holds a problem's
coefficient fields, `lichnerowicz_spec` and `builtin_example` build
the Hamiltonian-constraint and Yamabe-type ones, and `power_sum` and
its kernel `_power_kernel`, which the assembly (fem) runs per row
block, evaluate the nonlinearity.  The barrier is not pointwise: fem
adds it at the vertices.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoefficientViolation, UnknownExample


def constant_field(value):
    """Coefficient field equal to `value` everywhere; its `value`
    attribute holds the float, which the assembly keeps as a scalar."""
    value = float(value)

    def f(x):
        return np.full(np.atleast_2d(x).shape[0], value)

    f.value = value
    return f


def radial_field(fn):
    """Coefficient field depending on r = |x| only.

    r^2 sums the squared coordinates left to right, as np.linalg.norm
    does for these rows, so r is norm(x, axis=1) bit for bit."""

    def f(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r2 = x[:, 0] * x[:, 0]
        for j in range(1, x.shape[1]):
            r2 += x[:, j] * x[:, j]
        return fn(np.sqrt(r2))

    return f


def _as_field(value):
    return value if callable(value) else constant_field(value)


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients of the semilinear problem

        -div(diffusion * grad u) + sum_p c_p(x) u^p = source(x)  in Omega
        diffusion * du/dn + robin_coeff * u = robin_data          on Robin part
        u = dirichlet_data                                        on Dirichlet part

    power_terms maps odd integer exponents p (p != -1) to coefficient
    fields c_p.  A field is a number or a callable of position, (n, dim)
    points to n values, evaluated at the quadrature points, so a sharp
    field like 1/r^3 has no interpolation error; source,
    robin_coeff, robin_data and dirichlet_data default to 0, diffusion to 1.
    A number becomes a constant_field, the only field that the assembly
    keeps as a scalar; any other callable is kept at every quadrature
    point, even where its values are equal.
    """

    diffusion: object = field(default_factory=lambda: constant_field(1.0))
    power_terms: tuple = ()
    robin_coeff: object = field(default_factory=lambda: constant_field(0.0))
    robin_data: object = field(default_factory=lambda: constant_field(0.0))
    dirichlet_data: object = field(default_factory=lambda: constant_field(0.0))
    source: object = field(default_factory=lambda: constant_field(0.0))

    def __post_init__(self):
        terms = []
        seen = set()
        for p, coeff in self.power_terms:
            p = int(p)
            if p % 2 == 0:
                raise ValueError(f"exponent {p} is even; only odd powers are supported")
            if p == -1:
                raise ValueError("exponent -1 has no power-law antiderivative")
            if p in seen:
                raise ValueError(f"duplicate exponent {p}")
            seen.add(p)
            terms.append((p, _as_field(coeff)))
        object.__setattr__(self, "power_terms", tuple(terms))
        for name in ("diffusion", "robin_coeff", "robin_data", "dirichlet_data", "source"):
            object.__setattr__(self, name, _as_field(getattr(self, name)))


@dataclass
class FeFunction:
    """Coefficient vector over the P1 vertex basis."""

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float).ravel()

    @classmethod
    def constant(cls, mesh, value):
        return cls(np.full(mesh.num_vertices, float(value)))


def as_coefficients(u):
    """Accept an FeFunction or a plain array and return the raw vector."""
    if isinstance(u, FeFunction):
        return u.coefficients
    return np.asarray(u, dtype=float).ravel()


def _power_into(out, base, e):
    """out[...] = base**e for an integer e >= 1, by left-to-right binary
    powering whose first squaring reads base directly."""
    square = base
    for bit in bin(e)[3:]:
        np.multiply(square, square, out=out)
        square = out
        if bit == "1":
            out *= base
    if square is base:
        out[...] = base


def _power_kernel(coeffs, u, derivatives, totals, inv, u2, power):
    """The power pass on an array of points, into the arrays it is given.

    Each array of `totals` gets the power_sum of its order in `derivatives`
    ((-1,), (0,), (1,) or (0, 1)) at u, and `inv` gets u^-2 (None when no
    p < 0 needs it).  Each c_p of `coeffs` broadcasts to the totals'
    shape; u2 (u's shape) and power (the totals') are scratch.  Every
    step is elementwise, so a pass in blocks has the bits of one over the
    whole array.  The caller sets np.errstate."""
    np.multiply(u, u, out=u2)
    if inv is not None:
        np.divide(1.0, u2, out=inv)
    if not coeffs:
        for total in totals:
            total.fill(0.0)
    for i, (p, c) in enumerate(coeffs):
        if p == 1:
            term = c  # c u^0, never scaled in place: k' scales it by 1
        else:
            _power_into(power, u2 if p > 0 else inv, abs(p - 1) // 2)
            power *= c
            term = power
        # order 0 comes first, so order 1 can scale term in place
        for total, derivative in zip(totals, derivatives):
            if derivative == -1:
                term = np.divide(term, p + 1, out=power)
            elif derivative == 1 and p != 1:
                term *= p
            if i:
                total += term
            elif np.ndim(term):
                np.add(0.0, term, out=total)  # as from zeros: -0.0 becomes 0.0
            else:
                total.fill(0.0 + term)  # a scalar-to-array add is slower than a fill
    for total, derivative in zip(totals, derivatives):
        if derivative != 1:
            total *= u2 if derivative == -1 else u


def power_sum(coeffs, u, derivative=0):
    """sum_p c_p u^p (derivative 0), its u-derivative (1) or antiderivative (-1).

    `coeffs` holds (p, c_p) pairs with each c_p evaluated at the points
    of u.  The result has the broadcast shape of u and the c_p, and is
    an array of zeros when there are no terms.  p = -1 has no
    antiderivative.

    As p is odd, u^(p-1) is a power of u^2 or u^-2, formed once per term
    by repeated multiplication: k = u sum c_p u^(p-1), k' = sum p c_p
    u^(p-1), and the antiderivative is u^2 sum c_p u^(p-1)/(p+1).  It is
    one _power_kernel call over the whole array; the assembly (fem) runs
    the same kernel per row block of cells.
    """
    if derivative not in (-1, 0, 1):
        raise ValueError(f"derivative must be -1, 0 or 1; got {derivative}")
    if derivative == -1 and any(p == -1 for p, _ in coeffs):
        raise ValueError("exponent -1 has no power-law antiderivative")
    u = np.asarray(u, dtype=float)
    total = np.empty(np.broadcast_shapes(u.shape, *(np.shape(c) for _, c in coeffs)))
    inv = np.empty(u.shape) if any(p < 0 for p, _ in coeffs) else None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _power_kernel(coeffs, u, (derivative,), (total,), inv, np.empty(u.shape),
                      np.empty(total.shape))
    return total


def lichnerowicz_spec(
    diffusion=1.0,
    scalar_curvature=0.0,
    tau=0.0,
    sigma=0.0,
    rho=0.0,
    robin_coeff=0.0,
    robin_data=0.0,
    dirichlet_data=0.0,
):
    """Hamiltonian-constraint coefficients in power-law form.

    k(u) = (R/8) u + (tau^2/12) u^5 - (sigma^2/8) u^-7 - 2 pi rho u^-3,
    with rho, sigma^2, tau^2 >= 0.  R, tau, sigma and rho are numbers;
    pass explicit power_terms to ProblemSpec for varying coefficients.
    """
    for name, value in (("sigma", sigma), ("rho", rho)):
        if float(value) < 0:
            raise CoefficientViolation(f"{name} must be >= 0, got {value}")
    terms = (
        (1, scalar_curvature / 8.0),
        (5, tau**2 / 12.0),
        (-7, -(sigma**2) / 8.0),
        (-3, -2.0 * math.pi * rho),
    )
    return ProblemSpec(
        diffusion=diffusion,
        power_terms=terms,
        robin_coeff=robin_coeff,
        robin_data=robin_data,
        dirichlet_data=dirichlet_data,
    )


def builtin_example(example_id):
    """The four benchmark parameterizations.

    1: Hamiltonian constraint, a=1, R=1, tau=0.1, sigma=0.2, rho=0.1,
       Robin c=1, g=-1 on both boundaries.
    2: Hamiltonian constraint, a=2, R=-1000, tau=sqrt(72), sigma=sqrt(48),
       rho=1/pi, Robin c=2, g=10.
    3: Yamabe-type -8 Lap u + u^5/r^3 = 0, Dirichlet u=1.
    4: Yamabe-type -8 Lap u - u/8 + u^5/r^3 = 0, Dirichlet u=1.

    The coefficient closures are dimension independent (r is the
    Euclidean norm).
    """
    if example_id == 1:
        return lichnerowicz_spec(
            diffusion=1.0,
            scalar_curvature=1.0,
            tau=0.1,
            sigma=0.2,
            rho=0.1,
            robin_coeff=1.0,
            robin_data=-1.0,
        )
    if example_id == 2:
        # a=2, R=-1000, tau^2=72, sigma^2=48, rho=1/pi: the power-law
        # coefficients R/8, tau^2/12, -sigma^2/8, -2*pi*rho simplify to
        # exact integers, so build them directly.
        return ProblemSpec(
            diffusion=2.0,
            power_terms=((1, -125.0), (5, 6.0), (-7, -6.0), (-3, -2.0)),
            robin_coeff=2.0,
            robin_data=10.0,
        )
    if example_id == 3:
        return ProblemSpec(
            diffusion=8.0,
            power_terms=((5, radial_field(lambda r: r**-3)),),
            dirichlet_data=1.0,
        )
    if example_id == 4:
        return ProblemSpec(
            diffusion=8.0,
            power_terms=(
                (1, constant_field(-1.0 / 8.0)),
                (5, radial_field(lambda r: r**-3)),
            ),
            dirichlet_data=1.0,
        )
    raise UnknownExample(f"example id must be 1..4, got {example_id}")
