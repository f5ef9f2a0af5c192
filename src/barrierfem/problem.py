"""Problem data: PDE coefficients and the power-law nonlinearity.

A problem is described by a scalar diffusion field and a sum of power
terms sum_p c_p(x) u^p with odd integer exponents; the Hamiltonian
constraint uses p in {1, 5, -3, -7} and the Yamabe examples use subsets
of {1, 5}.  power_sum evaluates k(u), its derivative k'(u) and its
antiderivative (the energy density) from the same representation.  The
assembly adds the barrier -mu ln u to k as the term (p, c) = (-1, -mu);
no ProblemSpec holds it, since it has no power-law antiderivative.

Coefficient fields are closures of position: they receive an (n, dim)
array of points and return n values, so sharp fields like 1/r^3 are
evaluated exactly at quadrature points with no interpolation error.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoefficientViolation, UnknownExample


def constant_field(value):
    """Coefficient field equal to `value` everywhere."""
    value = float(value)

    def f(x):
        return np.full(np.atleast_2d(x).shape[0], value)

    return f


def radial_field(fn):
    """Coefficient field depending on r = |x| only."""

    def f(x):
        r = np.linalg.norm(np.atleast_2d(x), axis=1)
        return fn(r)

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
    fields c_p.
    """

    diffusion: object = field(default_factory=lambda: constant_field(1.0))
    power_terms: tuple = ()
    robin_coeff: object = field(default_factory=lambda: constant_field(0.0))
    robin_data: object = field(default_factory=lambda: constant_field(0.0))
    dirichlet_data: object = field(default_factory=lambda: constant_field(0.0))
    source: object = None

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
        for name in ("diffusion", "robin_coeff", "robin_data", "dirichlet_data"):
            object.__setattr__(self, name, _as_field(getattr(self, name)))
        if self.source is not None:
            object.__setattr__(self, "source", _as_field(self.source))


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
    """out[...] = base**e for an integer e >= 1, by left-to-right binary powering."""
    out[...] = base
    for bit in bin(e)[3:]:
        out *= out
        if bit == "1":
            out *= base


def power_sum(coeffs, u, derivative=0):
    """sum_p c_p u^p (derivative 0), its u-derivative (1) or antiderivative (-1).

    `coeffs` holds (p, c_p) pairs with each c_p evaluated at the points
    of u.  The result has the broadcast shape of u and the c_p, and is
    an array of zeros when there are no terms.  derivative=(0, 1) gives
    (k, k') from one pass.  p = -1 has no antiderivative.

    As p is odd, u^(p-1) is a power of u^2 or u^-2, formed once per term
    by repeated multiplication: k = u sum c_p u^(p-1), k' = sum p c_p
    u^(p-1), and the antiderivative is u^2 sum c_p u^(p-1)/(p+1).
    """
    if derivative not in (-1, 0, 1, (0, 1)):
        raise ValueError(f"derivative must be -1, 0, 1 or (0, 1), got {derivative}")
    if derivative == -1 and any(p == -1 for p, _ in coeffs):
        raise ValueError("exponent -1 has no power-law antiderivative")
    u = np.asarray(u, dtype=float)
    shape = np.broadcast_shapes(u.shape, *(np.shape(c) for _, c in coeffs))
    total = np.zeros(shape)
    slope = np.zeros(shape) if derivative == (0, 1) else None
    term = np.empty(shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u2 = u * u
        inv_u2 = 1.0 / u2 if any(p < 0 for p, _ in coeffs) else None
        for p, c in coeffs:
            if p == 1:
                term[...] = c
            else:
                _power_into(term, u2 if p > 0 else inv_u2, abs(p - 1) // 2)
                term *= c
            if derivative == 1:
                term *= p
            elif derivative == -1:
                term /= p + 1
            total += term
            if slope is not None:
                term *= p
                slope += term
        if derivative != 1:
            total *= u2 if derivative == -1 else u
    return total if slope is None else (total, slope)


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
