"""The power-law nonlinearity, its energy density and the built-in examples."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from barrierfem import fem, problem
from barrierfem.errors import CoefficientViolation, UnknownExample
from barrierfem.fem import workspace_for
from barrierfem.mesh import generate_shell_mesh
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

    # example 2's power terms plus a u^-1 term
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

    def test_minus_one_has_no_antiderivative(self):
        with pytest.raises(ValueError, match="exponent -1"):
            power_sum(list(self.TERMS), self.U, derivative=-1)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="derivative"):
            power_sum(list(self.TERMS), self.U, derivative=2)


def whole_array_power_sums(coeffs, u, derivatives):
    """The power pass as one pass over the whole array, every temporary
    of u's size: what the blocked passes must give bit for bit."""

    def power_into(out, base, e):
        square = base
        for bit in bin(e)[3:]:
            np.multiply(square, square, out=out)
            square = out
            if bit == "1":
                out *= base
        if square is base:
            out[...] = base

    u = np.asarray(u, dtype=float)
    shape = np.broadcast_shapes(u.shape, *(np.shape(c) for _, c in coeffs))
    totals = [np.zeros(shape) for _ in derivatives]
    power = np.empty(shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u2 = u * u
        inv_u2 = 1.0 / u2 if any(p < 0 for p, _ in coeffs) else None
        for p, c in coeffs:
            if p == 1:
                term = c
            else:
                power_into(power, u2 if p > 0 else inv_u2, abs(p - 1) // 2)
                power *= c
                term = power
            for total, derivative in zip(totals, derivatives):
                if derivative == -1:
                    term = term / (p + 1)
                elif derivative == 1 and p != 1:
                    term *= p
                total += term
        for total, derivative in zip(totals, derivatives):
            if derivative != 1:
                total *= u2 if derivative == -1 else u
    return totals, inv_u2


def assert_same_bits(got, want):
    if want is None:
        assert got is None
    else:
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()  # unlike ==, tells -0.0 from 0.0 and NaN apart


def kernel_pass(coeffs, u, derivatives):
    """_power_kernel over fem's _row_blocks of an (M, Q) u, as fem's pass
    runs it: (totals, u^-2 or None)."""
    totals = [np.empty(u.shape) for _ in derivatives]
    inv_u2 = np.empty(u.shape) if any(p < 0 for p, _ in coeffs) else None
    u2, power = np.empty((2, *u.shape))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for b in fem._row_blocks(*u.shape)[0]:
            problem._power_kernel([(p, c if np.ndim(c) == 0 else c[b]) for p, c in coeffs],
                                  u[b], derivatives, [total[b] for total in totals],
                                  None if inv_u2 is None else inv_u2[b], u2[b], power[b])
    return totals, inv_u2


def assert_pass_matches_whole_array(coeffs, u, derivatives):
    """The kernel in blocks of an (M, Q) u, and power_sum for one order,
    give the whole-array pass bit for bit."""
    want_sums, want_inv_u2 = whole_array_power_sums(coeffs, u, derivatives)
    if np.ndim(u) == 2 and all(np.shape(c) in ((), np.shape(u)) for _, c in coeffs):
        sums, inv_u2 = kernel_pass(coeffs, u, derivatives)
        assert len(sums) == len(want_sums)
        for got, want in zip(sums, want_sums):
            assert_same_bits(got, want)
        assert_same_bits(inv_u2, want_inv_u2)
    if len(derivatives) == 1:
        assert_same_bits(power_sum(coeffs, u, derivatives[0]), want_sums[0])


ORDERS = [(-1,), (0,), (1,), (0, 1)]
BLOCK_ROWS, POINTS = 4, 3  # the blocked pass at 12 elements per block: 4 rows of 3 points
SAMPLE = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e-200, -1e-160, 1e60, 1e200, np.inf, -np.inf, np.nan]),
)
COEFFICIENT = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0]))


@st.composite
def pass_inputs(draw):
    """(coeffs, u, derivatives): u of BLOCK_ROWS - 1 .. several blocks of
    rows, any order, any set of odd exponents with scalar or (M, Q) coefficients."""
    rows = draw(st.sampled_from([0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                 3 * BLOCK_ROWS + 2]))
    u = draw(arrays(float, (rows, POINTS), elements=SAMPLE))
    derivatives = draw(st.sampled_from(ORDERS))
    exponents = [1, 3, 5, -3, -5, -7] + ([] if -1 in derivatives else [-1])
    coeffs = []
    for p in draw(st.lists(st.sampled_from(exponents), unique=True, max_size=5)):
        if draw(st.booleans()):
            coeffs.append((p, draw(COEFFICIENT)))
        else:
            coeffs.append((p, draw(arrays(float, (rows, POINTS), elements=COEFFICIENT))))
    return coeffs, u, derivatives


class TestBlockedPass:
    """The power kernel in row blocks, as fem runs it, and power_sum, one
    kernel call, give the whole-array pass bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pass_inputs())
    def test_small_blocks(self, inputs):
        with mock.patch.object(fem, "_BLOCK_ELEMENTS", BLOCK_ROWS * POINTS):
            assert_pass_matches_whole_array(*inputs)

    @pytest.mark.parametrize("extra_rows", [-1, 0, 1, 2 * (2**15 // 15) + 7])
    @pytest.mark.parametrize("derivatives", ORDERS)
    def test_module_block_size(self, extra_rows, derivatives):
        rng = np.random.default_rng(5)
        rows = 2**15 // 15 + extra_rows  # one block of a (M, 15) pass, and around it
        u = rng.uniform(0.05, 20.0, (rows, 15))
        terms = [(1, -125.0), (5, rng.uniform(0.5, 2.0, (rows, 15))), (-7, -6.0), (-3, -2.0)]
        assert_pass_matches_whole_array(terms, u, derivatives)

    @pytest.mark.parametrize("derivatives", ORDERS)
    def test_signed_zero_first_term(self, derivatives):
        # a sum from zeros turns a -0.0 first term into +0.0
        u = np.full((BLOCK_ROWS + 1, POINTS), 2.0)
        for c in (-0.0, np.full(u.shape, -0.0)):
            for p in (1, 3, -3):
                with mock.patch.object(fem, "_BLOCK_ELEMENTS", BLOCK_ROWS * POINTS):
                    assert_pass_matches_whole_array([(p, c)], u, derivatives)

    @pytest.mark.parametrize("derivatives", ORDERS)
    def test_one_block_shapes(self, derivatives):
        # power_sum takes a 0-d or 1-d u, and a u that a coefficient
        # broadcasts
        terms = [(1, 2.0), (5, np.linspace(0.5, 1.5, 6).reshape(2, 3)), (-3, -1.0)]
        for u in (np.float64(1.3), np.linspace(0.2, 4.0, 7), np.full((1, 3), 0.8)):
            coeffs = terms if np.ndim(u) == 2 else terms[::2]
            for derivative in derivatives:
                assert_pass_matches_whole_array(coeffs, u, (derivative,))
                assert_pass_matches_whole_array([], u, (derivative,))


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


def test_radial_field_is_the_norm_bit_for_bit():
    rng = np.random.default_rng(18)
    points = [workspace_for(generate_shell_mesh(1.0, 10.0, 3)).xq_flat]
    points += [rng.standard_normal((64, d)) * 10.0 ** rng.integers(-150, 150, (64, 1))
               for d in (1, 2, 3)]
    points += [np.array([[-0.0, 0.0, -0.0], [3.0, -4.0, 0.0]]), np.array([1.0, 2.0, 2.0])]
    r = radial_field(lambda r: r)
    for x in points:
        want = np.linalg.norm(np.atleast_2d(x), axis=1)
        assert r(x).dtype == want.dtype and r(x).tobytes() == want.tobytes()


def test_fe_function():
    f = FeFunction([[1, 2], [3, 4]])
    assert f.coefficients.dtype == float and f.coefficients.shape == (4,)
    assert as_coefficients(f) is f.coefficients
    assert np.array_equal(as_coefficients([1, 2]), [1.0, 2.0])
