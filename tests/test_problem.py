"""The power-law nonlinearity, its energy density and the built-in examples."""

import math

import numpy as np
import pytest

from barrierfem.errors import CoefficientViolation, UnknownExample
from barrierfem.problem import (
    FeFunction,
    ProblemSpec,
    as_coefficients,
    builtin_example,
    constant_field,
    lichnerowicz_spec,
    power_sum,
    radial_field,
)

ORIGIN3 = np.zeros((1, 3))

# oracle: direct arithmetic of k and k' with the example-1 parameters
# k(1)  = R/8 + tau^2/12 - sigma^2/8 - 2 pi rho
# k'(1) = R/8 + 5 tau^2/12 + 7 sigma^2/8 + 6 pi rho
K1_EX1 = 1.0 / 8.0 + 0.01 / 12.0 - 0.04 / 8.0 - 0.2 * math.pi
KP1_EX1 = 1.0 / 8.0 + 5 * 0.01 / 12.0 + 7 * 0.04 / 8.0 + 0.6 * math.pi


def pointwise(spec, x, u, derivative):
    """power_sum of the spec's power terms at points x; a float at one point."""
    out = power_sum([(p, c(x)) for p, c in spec.power_terms], u, derivative)
    return out.item() if out.size == 1 else out


def nonlinearity(spec, x, u):
    """k(u) = sum_p c_p(x) u^p."""
    return pointwise(spec, x, u, 0)


def nonlinearity_derivative(spec, x, u):
    """k'(u), which is also the second u-derivative of the energy density."""
    return pointwise(spec, x, u, 1)


def energy_density(spec, x, u):
    """sum_p c_p(x) u^(p+1)/(p+1), whose u-derivative is k(u)."""
    return pointwise(spec, x, u, -1)


class TestNonlinearity:
    def test_example1_at_one(self):
        spec = builtin_example(1)
        assert np.isclose(nonlinearity(spec, ORIGIN3, 1.0), K1_EX1, rtol=1e-14)

    def test_empty_sum(self):
        spec = ProblemSpec()
        assert nonlinearity(spec, ORIGIN3, 2.7) == 0.0

    def test_example3_radial(self):
        spec = builtin_example(3)
        x = np.array([[1.0, 0.0, 0.0]])
        assert np.isclose(nonlinearity(spec, x, 1.0), 1.0, rtol=1e-14)
        x2 = np.array([[2.0, 0.0, 0.0]])
        assert np.isclose(nonlinearity(spec, x2, 1.0), 1.0 / 8.0, rtol=1e-14)

    def test_vectorized(self):
        spec = builtin_example(1)
        u = np.array([1.0, 1.0, 2.0])
        x = np.zeros((3, 3))
        out = nonlinearity(spec, x, u)
        assert out.shape == (3,)
        assert np.isclose(out[0], K1_EX1)


class TestDerivative:
    def test_example1_at_one(self):
        spec = builtin_example(1)
        assert np.isclose(nonlinearity_derivative(spec, ORIGIN3, 1.0), KP1_EX1, rtol=1e-14)

    def test_linear_term_constant_derivative(self):
        spec = ProblemSpec(power_terms=((1, 0.125),))
        for u in (0.3, 1.0, 4.2):
            assert nonlinearity_derivative(spec, ORIGIN3, u) == 0.125

    def test_finite_difference(self):
        spec = builtin_example(1)
        u, h = 1.3, 1e-6
        fd = (
            nonlinearity(spec, ORIGIN3, u + h) - nonlinearity(spec, ORIGIN3, u - h)
        ) / (2 * h)
        kp = nonlinearity_derivative(spec, ORIGIN3, u)
        assert abs(fd - kp) / abs(kp) < 1e-6


class TestEnergyDensity:
    def test_example2_at_one(self):
        spec = builtin_example(2)
        assert energy_density(spec, ORIGIN3, 1.0) == -1000.0 / 16.0 + 3.0

    def test_derivative_matches_nonlinearity(self):
        spec = builtin_example(2)
        u, h = 1.7, 1e-6
        fd = (energy_density(spec, ORIGIN3, u + h) - energy_density(spec, ORIGIN3, u - h)) / (2 * h)
        k = nonlinearity(spec, ORIGIN3, u)
        assert abs(fd - k) / abs(k) < 1e-6

    def test_zero_spec(self):
        assert energy_density(ProblemSpec(), ORIGIN3, 0.7) == 0.0


class TestSecondDerivative:
    def test_example2_nonconvex_point(self):
        # oracle: (1/8) R + 30 u^4 + 42 u^-8 + 6 u^-4 at u=1, R=-1000
        spec = builtin_example(2)
        assert nonlinearity_derivative(spec, ORIGIN3, 1.0) == -47.0

    def test_r_zero_convex(self):
        spec = ProblemSpec(power_terms=((5, 6.0), (-7, -6.0), (-3, -2.0)))
        assert nonlinearity_derivative(spec, ORIGIN3, 1.0) == 78.0

    def test_finite_difference(self):
        spec = builtin_example(2)
        u, h = 1.5, 1e-5
        fd = (
            energy_density(spec, ORIGIN3, u + h)
            - 2 * energy_density(spec, ORIGIN3, u)
            + energy_density(spec, ORIGIN3, u - h)
        ) / h**2
        d2 = nonlinearity_derivative(spec, ORIGIN3, u)
        assert abs(fd - d2) / abs(d2) < 1e-4


def test_derivative_chain_randomized():
    """d/du energy_density = k and d/du k = k' at 100 random states."""
    rng = np.random.default_rng(7)
    x = np.array([[1.5, 0.5, -0.5]])  # away from the 1/r^3 singularity
    for spec in (builtin_example(1), builtin_example(2), builtin_example(4)):
        for u in rng.uniform(0.2, 5.0, 100):
            h = 1e-6 * abs(u)
            fd_e = (
                energy_density(spec, x, u + h) - energy_density(spec, x, u - h)
            ) / (2 * h)
            k = nonlinearity(spec, x, u)
            assert abs(fd_e - k) / max(1e-12, abs(k)) < 1e-6
            fd_k = (
                nonlinearity(spec, x, u + h) - nonlinearity(spec, x, u - h)
            ) / (2 * h)
            kp = nonlinearity_derivative(spec, x, u)
            assert abs(fd_k - kp) / max(1e-12, abs(kp)) < 1e-6


def test_derivative_nonnegative_for_nonnegative_curvature():
    """k' >= 0 on u > 0 whenever the linear coefficient is >= 0."""
    spec = builtin_example(1)  # R = 1 >= 0
    rng = np.random.default_rng(3)
    for u in rng.uniform(1e-3, 50.0, 200):
        assert nonlinearity_derivative(spec, ORIGIN3, u) >= 0


class TestPowerSumAccuracy:
    """power_sum against a term-by-term u**p reference in extended precision."""

    # example 2's power terms plus the barrier term (-1, -mu) at mu = 0.3
    TERMS = ((1, -125.0), (5, 6.0), (-7, -6.0), (-3, -2.0), (-1, -0.3))
    U = np.concatenate([np.geomspace(1e-3, 1e3, 2001), -np.geomspace(1e-3, 1e3, 2001)])

    @staticmethod
    def reference_terms(terms, u, derivative):
        u = u.astype(np.longdouble)
        if derivative == 0:
            return [c * u**p for p, c in terms]
        if derivative == 1:
            return [p * c * u ** (p - 1) for p, c in terms]
        return [c * u ** (p + 1) / (p + 1) for p, c in terms]

    @pytest.mark.parametrize("derivative", [-1, 0, 1])
    def test_within_4e15_of_abs_term_sum(self, derivative):
        terms = self.TERMS[:-1] if derivative == -1 else self.TERMS
        coeffs = [(p, np.full(self.U.shape, c)) for p, c in terms]
        ref = self.reference_terms(terms, self.U, derivative)
        scale = sum(np.abs(t) for t in ref)
        err = np.abs(power_sum(coeffs, self.U, derivative) - sum(ref))
        assert np.all(err <= 4e-15 * scale)

    def test_pair_equals_single_orders(self):
        coeffs = list(self.TERMS)
        k, kp = power_sum(coeffs, self.U, derivative=(0, 1))
        assert np.array_equal(k, power_sum(coeffs, self.U, 0))
        assert np.array_equal(kp, power_sum(coeffs, self.U, 1))

    def test_minus_one_has_no_antiderivative(self):
        with pytest.raises(ValueError, match="exponent -1"):
            power_sum(list(self.TERMS), self.U, derivative=-1)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="derivative"):
            power_sum(list(self.TERMS), self.U, derivative=2)


class TestPositivity:
    def test_negative_branch_allowed_without_flag(self):
        # odd negative exponents are defined for u < 0
        spec = builtin_example(1)
        assert np.isclose(nonlinearity(spec, ORIGIN3, -1.0), -K1_EX1, rtol=1e-14)


class TestBuiltinExamples:
    def test_example3_single_term(self):
        assert len(builtin_example(3).power_terms) == 1

    def test_example4_exponents(self):
        assert {p for p, _ in builtin_example(4).power_terms} == {1, 5}

    def test_example1_k_value(self):
        assert np.isclose(nonlinearity(builtin_example(1), ORIGIN3, 1.0), K1_EX1)

    def test_unknown(self):
        with pytest.raises(UnknownExample):
            builtin_example(5)


class TestSpecValidation:
    def test_duplicate_exponent(self):
        with pytest.raises(ValueError):
            ProblemSpec(power_terms=((1, 1.0), (1, 2.0)))

    def test_even_exponent_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec(power_terms=((2, 1.0),))

    def test_minus_one_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec(power_terms=((-1, 1.0),))

    def test_negative_sigma_rho_rejected(self):
        with pytest.raises(CoefficientViolation):
            lichnerowicz_spec(sigma=-1.0)
        with pytest.raises(CoefficientViolation):
            lichnerowicz_spec(rho=-0.1)


def test_fields():
    c = constant_field(2.5)
    assert np.all(c(np.zeros((4, 3))) == 2.5)
    r = radial_field(lambda r: r**2)
    out = r(np.array([[3.0, 4.0]]))
    assert np.isclose(out[0], 25.0)


def test_fe_function():
    f = FeFunction([[1, 2], [3, 4]])
    assert f.coefficients.dtype == float and f.coefficients.shape == (4,)
    assert as_coefficients(f) is f.coefficients
    assert np.array_equal(as_coefficients([1, 2]), [1.0, 2.0])
