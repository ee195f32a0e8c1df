import inspect
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from framekit import (
    HTOL,
    PARSEVAL_TOL,
    RTOL,
    ComponentSpec,
    Field,
    GenerationFailed,
    GenSpec,
    LoewnerMargin,
    NotHermitian,
    NotOrthonormal,
    NotPositiveDefinite,
    NotSquare,
    ShapeMismatch,
    ZeroLeadingCoefficient,
    ZeroSubspace,
    GFusionFrame,
    adjoint,
    as_operator,
    complement_identity_residual,
    hermitian_eig,
    hermitian_eigvalsh,
    inner,
    loewner_check,
    operator_norm,
    orthonormal_basis,
    projected_adjoint_residual,
    projection,
    psd_power,
    quad_bound,
    random_gfusion,
    random_parseval_gfusion,
    substream,
    symmetrize,
)
from framekit.gen import random_operator, random_subspace_basis, random_vector
from framekit.linops import hermitian_violation
from framekit.verify import SuitePlan, build_instances


class TestAdjoint:
    def test_identity_is_self_adjoint(self):
        assert_allclose(adjoint(np.eye(3)), np.eye(3))

    def test_real_nilpotent_transposes(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert_allclose(adjoint(a), np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_complex_1x1_conjugates(self):
        assert adjoint(np.array([[1j]]))[0, 0] == -1j

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 6), cols=st.integers(1, 6))
    def test_involution_and_norm(self, seed, rows, cols):
        a = random_operator(rows, cols, Field.COMPLEX, substream(seed, 7))
        assert np.array_equal(adjoint(adjoint(a)), a)
        assert operator_norm(a) == pytest.approx(operator_norm(adjoint(a)), rel=1e-9)


class TestValidation:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeMismatch):
            as_operator(np.zeros(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_operator(np.array([[np.inf]]))


class TestHermitianEig:
    def test_diagonal(self):
        dec = hermitian_eig(np.diag([4.0, 1.0]))
        assert_allclose(dec.eigenvalues, [1.0, 4.0])

    def test_2x2_closed_form(self):
        # trace/2 +- sqrt((gap/2)^2 + offdiag^2) = 1.5 +- 0.5
        dec = hermitian_eig(np.array([[1.5, 0.5], [0.5, 1.5]]))
        assert_allclose(dec.eigenvalues, [1.0, 2.0], atol=1e-12)

    def test_identity(self):
        dec = hermitian_eig(np.eye(5))
        assert_allclose(dec.eigenvalues, np.ones(5))

    def test_not_square(self):
        with pytest.raises(NotSquare):
            hermitian_eig(np.zeros((2, 3)))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("field", list(Field))
    def test_reconstruction_and_unitarity(self, field):
        rng = substream(21, 3)
        for _ in range(20):
            g = random_operator(5, 5, field, rng)
            a = g + adjoint(g)
            dec = hermitian_eig(a)
            u, w = dec.eigenvectors, dec.eigenvalues
            assert np.all(np.diff(w) >= 0)
            assert operator_norm((u * w) @ adjoint(u) - a) <= 1e-9 * operator_norm(a)
            assert operator_norm(adjoint(u) @ u - np.eye(5)) <= 1e-9


class TestPsdPower:
    def test_diagonal_inverse_sqrt(self):
        assert_allclose(psd_power(np.diag([4.0, 1.0]), -0.5), np.diag([0.5, 1.0]), atol=1e-14)

    @pytest.mark.parametrize("p", [-1.0, -0.5, 0.5, 2.0])
    def test_identity_fixed_point(self, p):
        assert_allclose(psd_power(np.eye(4), p), np.eye(4), atol=1e-14)

    def test_2x2_inverse_formula(self):
        # inverse of [[2,1],[1,2]] by adjugate/determinant: det = 3
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert_allclose(psd_power(np.array([[2.0, 1.0], [1.0, 2.0]]), -1.0), expected, atol=1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            psd_power(np.diag([1.0, -1.0]), 0.5)

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            psd_power(np.diag([1.0, 0.0]), -1.0)

    @pytest.mark.parametrize("field", list(Field))
    def test_sqrt_roundtrip_property(self, field):
        rng = substream(5, 9)
        for _ in range(20):
            g = random_operator(4, 4, field, rng)
            a = g @ adjoint(g) + 0.1 * np.eye(4)
            scale = operator_norm(a)
            half = psd_power(a, 0.5)
            assert operator_norm(half @ half - a) <= 1e-9 * scale
            whiten = psd_power(a, -0.5)
            assert operator_norm(whiten @ a @ whiten - np.eye(4)) <= 1e-9 * scale
            assert operator_norm(psd_power(a, -1.0) @ a - np.eye(4)) <= 1e-9 * scale


class TestOrthonormalBasis:
    def test_already_orthonormal(self):
        b = orthonormal_basis([np.array([1.0, 0.0, 0.0])])
        assert b.shape == (3, 1)
        assert_allclose(np.abs(b[:, 0]), [1.0, 0.0, 0.0], atol=1e-14)

    def test_rank_deficient_compresses(self):
        b = orthonormal_basis([np.array([1.0, 1.0]), np.array([2.0, 2.0])])
        assert b.shape == (2, 1)
        assert_allclose(np.abs(b[:, 0]), np.full(2, 2**-0.5), atol=1e-14)

    def test_standard_basis(self):
        b = orthonormal_basis(np.eye(2))
        assert b.shape == (2, 2)
        assert_allclose(adjoint(b) @ b, np.eye(2), atol=1e-14)

    def test_zero_subspace(self):
        with pytest.raises(ZeroSubspace):
            orthonormal_basis([np.zeros(3)])

    def test_empty_input(self):
        with pytest.raises(ZeroSubspace):
            orthonormal_basis([])


class TestProjection:
    def test_coordinate_projection(self):
        assert_allclose(projection(np.array([[1.0], [0.0]])), np.diag([1.0, 0.0]))

    def test_full_basis_gives_identity(self):
        assert_allclose(projection(np.eye(3)), np.eye(3))

    def test_rank_one_outer_product(self):
        b = np.full((2, 1), 2**-0.5)
        assert_allclose(projection(b), np.full((2, 2), 0.5), atol=1e-14)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            projection(np.array([[1.0], [1.0]]))

    @pytest.mark.parametrize("field", list(Field))
    def test_idempotent_and_hermitian(self, field):
        rng = substream(17, 11)
        for _ in range(20):
            b = random_subspace_basis(5, 2, field, rng)
            p = projection(b)
            assert operator_norm(p @ p - p) <= 1e-9
            assert operator_norm(p - adjoint(p)) <= 1e-9
            assert np.linalg.matrix_rank(p) == 2


class TestLoewnerCheck:
    def test_boundary_attained(self):
        lm = loewner_check(np.diag([0.25, 0.0]), 0.0, 0.25, tol=1e-12)
        assert lm.lower_margin == pytest.approx(0.0, abs=1e-14)
        assert lm.upper_margin == pytest.approx(0.0, abs=1e-14)
        assert lm.passed

    def test_constructed_violation(self):
        lm = loewner_check(0.5 * np.eye(2), 0.0, 0.25, tol=1e-12)
        assert lm.upper_margin == pytest.approx(-0.25)
        assert not lm.passed

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loewner_check(np.eye(2), np.eye(3), np.eye(3), tol=0.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            loewner_check(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0, 1.0, tol=0.0)

    @pytest.mark.parametrize("field", list(Field))
    def test_rejects_non_real_scalar_bound(self, field):
        eye = np.eye(2, dtype=field.dtype)
        with pytest.raises(NotHermitian):
            loewner_check(eye, 0.5 + 3j, 2.0, tol=0.0)
        with pytest.raises(NotHermitian):
            loewner_check(eye, 0.5, np.complex128(2.0 - 1e-3j), tol=0.0)
        assert loewner_check(eye, 0.5 + 0j, 2.0, tol=0.0).passed

    @pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scalar_bound(self, bound):
        with pytest.raises(ValueError, match="finite"):
            loewner_check(np.eye(2), bound, 2.0, tol=0.0)

    def test_coordinate_parseval_partial(self, coordinate_gfusion):
        # partial reconstruction on one line: P - P^2 = 0 exactly
        p = coordinate_gfusion.partial_sum([0])
        lm = loewner_check(p - p @ p, 0.0, 0.25, tol=1e-12)
        assert lm.passed
        assert lm.lower_margin == pytest.approx(0.0, abs=1e-14)
        assert lm.upper_margin == pytest.approx(0.25, abs=1e-14)


def _hermitian_stack(k, dim, field, rng, scale=1.0):
    g = np.stack([random_operator(dim, dim, field, rng) for _ in range(k)])
    return scale * (g + adjoint(g)) / 2


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Record the shape of every ``np.linalg.eigvalsh`` operand."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return calls


class TestScalarBounds:
    """Bounds a*I and b*I take both margins from one spectrum of T."""

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("lower, upper, calls", [
        ("scalar", "scalar", 1), ("operator", "scalar", 2), ("scalar", "operator", 2),
        ("operator", "operator", 2)])
    def test_one_eigvalsh_per_stack_for_two_scalar_bounds(self, eigvalsh_calls, k, lower,
                                                          upper, calls):
        t = _hermitian_stack(k or 1, 6, Field.COMPLEX, substream(7, 36), 0.1)
        if k is None:
            t = t[0]
        bounds = {"lower": -2.0, "upper": 2.0}
        for side, kind in (("lower", lower), ("upper", upper)):
            if kind == "operator":
                bounds[side] = bounds[side] * np.eye(6)
        lm = loewner_check(t, bounds["lower"], bounds["upper"], tol=0.0)
        assert np.all(lm.passed)
        assert eigvalsh_calls == [t.shape] * calls

    @example(dim=64, k=3, field=Field.COMPLEX, seed=0, log_scale=2.0, a=-1.5, b=1.5)
    @example(dim=1, k=1, field=Field.REAL, seed=1, log_scale=-3.0, a=0.0, b=0.25)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 64), k=st.integers(1, 3), field=st.sampled_from(list(Field)),
           seed=st.integers(0, 10_000), log_scale=st.floats(-3.0, 3.0),
           a=st.floats(-1.5, 1.5), b=st.floats(-1.5, 1.5))
    def test_matches_the_two_call_route(self, dim, k, field, seed, log_scale, a, b):
        t = _hermitian_stack(k, dim, field, substream(seed, 37), 10.0**log_scale)
        scalar = loewner_check(t, a, b, tol=0.0)
        eye = np.eye(dim)
        operator = loewner_check(t, a * eye, b * eye, tol=0.0)
        bound = 8 * dim * np.finfo(np.float64).eps * np.maximum(1.0, operator_norm(t))
        assert np.all(np.abs(scalar.lower_margin - operator.lower_margin) <= bound)
        assert np.all(np.abs(scalar.upper_margin - operator.upper_margin) <= bound)
        one = loewner_check(t[0], a, b, tol=0.0)
        assert (one.lower_margin, one.upper_margin) == (scalar.lower_margin[0],
                                                        scalar.upper_margin[0])

    @pytest.mark.parametrize("field", list(Field))
    def test_bound_broken_by_one_millionth_fails(self, field):
        # P - P^2 with largest eigenvalue 1/4 + 1e-6 against I/4, and
        # P^2 + Q^2 with smallest eigenvalue 1/2 - 1e-6 against I/2
        u = random_subspace_basis(5, 5, field, substream(8, 38))
        for spectrum, lower, upper, side in (
            ([0.0, 0.1, 0.2, 0.25, 0.25 + 1e-6], 0.0, 0.25, "upper_margin"),
            ([0.5 - 1e-6, 0.6, 1.0, 1.2, 1.5], 0.5, 1.5, "lower_margin"),
        ):
            t = (u * np.array(spectrum)) @ adjoint(u)
            for x in (t, np.stack([t, t])):
                lm = loewner_check(x, lower, upper, tol=0.0)
                assert np.all(np.abs(getattr(lm, side) + 1e-6) <= 1e-14)
                assert not np.any(lm.passed)
                assert np.all(lm.lower_margin >= -1e-6 - 1e-14)

    @pytest.mark.parametrize("field", list(Field))
    def test_non_hermitian_operand_raises(self, field):
        t = _hermitian_stack(3, 4, field, substream(9, 39))
        t[1, 0, 1] += 1e-3
        with pytest.raises(NotHermitian):
            loewner_check(t, 0.0, 10.0, tol=0.0)
        with pytest.raises(NotHermitian):
            loewner_check(t[1], -10.0, 10.0, tol=0.0)
        assert np.all(loewner_check(t[[0, 2]], -10.0, 10.0, tol=0.0).passed)


class TestHermitianEigvalsh:
    """One gated, symmetrized ``eigvalsh`` of an operator or a stack."""

    @pytest.mark.parametrize("field", list(Field))
    def test_spectra_of_the_symmetrized_operands(self, eigvalsh_calls, field):
        t = _hermitian_stack(3, 5, field, substream(10, 40))
        t[1, 0, 1] += 1e-13
        w = hermitian_eigvalsh(t, 1.0)
        assert eigvalsh_calls == [t.shape]
        assert np.array_equal(w, np.linalg.eigvalsh(symmetrize(t)))
        for x, spectrum in zip(t, w):
            assert np.array_equal(hermitian_eigvalsh(x, 1.0), spectrum)

    @pytest.mark.parametrize("field", list(Field))
    def test_a_skewed_matrix_fails_the_gate_for_the_stack(self, field):
        t = _hermitian_stack(3, 4, field, substream(11, 41))
        t[1, 0, 1] += 1e-6
        for x in (t, t[1]):
            with pytest.raises(NotHermitian):
                hermitian_eigvalsh(x, 1.0)
        hermitian_eigvalsh(t[[0, 2]], 1.0)

    def test_floor_scales_the_gate_of_a_small_operand(self):
        # a skew part of 1e-13 on a matrix of norm 1e-4 is 1e-9 of its norm,
        # but within HTOL of the floor 1
        x = np.diag([1e-4, 0.0])
        x[0, 1] = 1e-13
        assert hermitian_eigvalsh(x, 1.0).shape == (2,)
        with pytest.raises(NotHermitian):
            hermitian_eigvalsh(x)

    def test_rejects_what_loewner_check_rejects(self):
        with pytest.raises(NotSquare):
            hermitian_eigvalsh(np.ones((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigvalsh(np.array([[np.nan]]))


class TestNotHermitianMessages:
    """``verify`` prints these after "could not evaluate the checks:"."""

    _EIG = "^operator is not Hermitian within tolerance$"
    _INTERVAL = "^interval operands must be Hermitian within tolerance$"

    @staticmethod
    def _skewed(field):
        t = _hermitian_stack(1, 4, field, substream(12, 42))[0]
        t[0, 1] += 1e-3
        return t

    @pytest.mark.parametrize("field", list(Field))
    def test_eigensolvers(self, field):
        t = self._skewed(field)
        with pytest.raises(NotHermitian, match=self._EIG):
            hermitian_eig(t)
        for x in (t, np.stack([t, t])):
            with pytest.raises(NotHermitian, match=self._EIG):
                hermitian_eigvalsh(x, 1.0)

    @pytest.mark.parametrize("field", list(Field))
    def test_loewner_check_with_an_operator_bound(self, field):
        t, eye = self._skewed(field), np.eye(4)
        with pytest.raises(NotHermitian, match=self._INTERVAL):
            loewner_check(t, 0.0, 10.0 * eye, tol=0.0)
        with pytest.raises(NotHermitian, match=self._INTERVAL):
            loewner_check(symmetrize(t), -10.0, t + 10.0 * eye, tol=0.0)

    def test_loewner_check_with_two_scalar_bounds_gates_through_eigvalsh(self):
        with pytest.raises(NotHermitian, match=self._EIG):
            loewner_check(self._skewed(Field.COMPLEX), -10.0, 10.0, tol=0.0)


class TestQuadBound:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [((1.0, -1.0, 1.0), 0.75), ((2.0, -2.0, 1.0), 0.5), ((1.0, 0.0, 0.0), 0.0)],
    )
    def test_known_values(self, coeffs, expected):
        assert quad_bound(*coeffs) == pytest.approx(expected)

    def test_zero_leading_coefficient(self):
        with pytest.raises(ZeroLeadingCoefficient):
            quad_bound(0.0, 1.0, 1.0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        a=st.floats(0.1, 3.0),
        b=st.floats(-3.0, 3.0),
        c=st.floats(-3.0, 3.0),
        sign=st.sampled_from([1.0, -1.0]),
        seed=st.integers(0, 1_000),
    )
    def test_bounds_quadratic_form(self, a, b, c, sign, seed):
        a = sign * a
        rng = substream(seed, 13)
        g = random_operator(4, 4, Field.COMPLEX, rng)
        u = g + adjoint(g)
        u *= 10.0 / max(operator_norm(u), 10.0)  # keep ||u|| <= 10
        f = random_vector(4, Field.COMPLEX, rng)
        f /= np.linalg.norm(f)
        v = a * (u @ u) + b * u + c * np.eye(4)
        value = inner(v @ f, f).real
        bound = quad_bound(a, b, c)
        if a > 0:
            assert value >= bound - 1e-10
        else:
            assert value <= bound + 1e-10


class TestProjectedAdjointResidual:
    def test_identity_operator(self):
        basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert projected_adjoint_residual(basis, np.eye(3)) <= 1e-12

    def test_full_subspace(self):
        rng = substream(3, 15)
        t = random_operator(4, 4, Field.COMPLEX, rng) + 2 * np.eye(4)
        assert projected_adjoint_residual(np.eye(4), t) <= 1e-9 * operator_norm(t)

    def test_seeded_pair(self):
        rng = substream(7, 15)
        t = random_operator(4, 4, Field.COMPLEX, rng)
        v = random_subspace_basis(4, 2, Field.COMPLEX, rng)
        assert projected_adjoint_residual(v, t) <= 1e-12

    @pytest.mark.parametrize("field", list(Field))
    def test_100_seeded_pairs(self, field):
        rng = substream(2024, 15)
        for _ in range(100):
            t = random_operator(5, 5, field, rng)
            v = random_subspace_basis(5, int(rng.integers(1, 5)), field, rng)
            assert projected_adjoint_residual(v, t) <= 1e-10 * operator_norm(t)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            projected_adjoint_residual(np.eye(3), np.eye(4))


class TestComplementIdentityResidual:
    def test_projection_case(self):
        assert complement_identity_residual(np.diag([1.0, 0.0])) <= 1e-15

    def test_random_operators(self):
        rng = substream(9, 17)
        for _ in range(50):
            u = random_operator(5, 5, Field.COMPLEX, rng)
            assert complement_identity_residual(u) <= 1e-10 * max(1.0, operator_norm(u) ** 2)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            complement_identity_residual(np.zeros((2, 3)))


class TestScalarField:
    def test_conjugation_involution(self):
        z = 1.5 - 2.5j
        assert np.conjugate(np.conjugate(z)) == z

    def test_real_scalars_fixed(self):
        assert np.conjugate(3.25) == 3.25

    def test_dtypes(self):
        assert Field.REAL.dtype == np.float64
        assert Field.COMPLEX.dtype == np.complex128


def _gated_operator(dim, field, rank, skew_rank, log_ratio, log_scale, rng):
    """Hermitian part of the given rank and size plus a skew part whose
    ||X - X*|| is about 10**log_ratio times the Hermitian gate threshold."""
    b = random_operator(dim, rank, field, rng)
    h = (10.0**log_scale / operator_norm(b) ** 2) * (b @ adjoint(b))
    g = random_operator(dim, skew_rank, field, rng) @ random_operator(skew_rank, dim, field, rng)
    k = g - adjoint(g)
    k_norm = operator_norm(k)
    if k_norm == 0.0:  # a 1 x 1 real matrix has no skew part
        return h
    return h + (0.5 * 10.0**log_ratio * HTOL * operator_norm(h) / k_norm) * k


_gate_params = dict(
    dim=st.integers(1, 64),
    field=st.sampled_from(list(Field)),
    seed=st.integers(0, 10_000),
    rank=st.integers(1, 64),
    skew_rank=st.integers(1, 64),
    log_ratio=st.floats(-2.0, 2.0),
    log_scale=st.floats(-3.0, 3.0),
)


def _hermitian_gate_passes(x) -> bool:
    try:
        hermitian_eig(x)
    except NotHermitian:
        return False
    return True


class TestAcceptanceGates:
    """The Frobenius-certified gates give exactly the spectral verdicts."""

    # rank-1 Hermitian part, full-rank skew part below the threshold: the
    # certificate is inconclusive and the spectral test accepts
    @example(dim=64, field=Field.COMPLEX, seed=0, rank=1, skew_rank=64, log_ratio=-0.3, log_scale=0.0)
    @example(dim=64, field=Field.REAL, seed=1, rank=1, skew_rank=64, log_ratio=-0.3, log_scale=2.0)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(**_gate_params)
    def test_hermitian_eig_gate(self, dim, field, seed, rank, skew_rank, log_ratio, log_scale):
        rng = substream(seed, 31)
        x = _gated_operator(dim, field, min(rank, dim), min(skew_rank, dim), log_ratio, log_scale, rng)
        expected = hermitian_violation(x) <= HTOL * operator_norm(x)
        assert _hermitian_gate_passes(x) == expected

    @example(dim=64, field=Field.COMPLEX, seed=0, rank=1, skew_rank=64, log_ratio=-0.3, log_scale=0.0)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(**_gate_params)
    def test_loewner_gate(self, dim, field, seed, rank, skew_rank, log_ratio, log_scale):
        rng = substream(seed, 32)
        rank, skew_rank = min(rank, dim), min(skew_rank, dim)
        t = _gated_operator(dim, field, rank, skew_rank, log_ratio, log_scale, rng)
        lo = _gated_operator(dim, field, skew_rank, rank, -log_ratio, -log_scale, rng)
        up = _gated_operator(dim, field, rank, rank, log_ratio / 2, log_scale, rng)
        scale = max(operator_norm(t), operator_norm(lo), operator_norm(up), 1.0)
        expected = all(hermitian_violation(x) <= HTOL * scale for x in (t, lo, up))
        try:
            loewner_check(t, lo, up, tol=0.0)
            passed = True
        except NotHermitian:
            passed = False
        assert passed == expected

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 64), cols=st.integers(1, 64), field=st.sampled_from(list(Field)),
           seed=st.integers(0, 10_000), log_ratio=st.floats(-2.0, 2.0))
    def test_projection_gate(self, dim, cols, field, seed, log_ratio):
        rng = substream(seed, 33)
        q = random_subspace_basis(dim, min(cols, dim), field, rng)
        e = random_operator(*q.shape, field, rng)
        b = q + (10.0**log_ratio * RTOL / operator_norm(adjoint(q) @ e + adjoint(e) @ q)) * e
        expected = operator_norm(adjoint(b) @ b - np.eye(b.shape[1])) <= RTOL
        try:
            projection(b)
            passed = True
        except NotOrthonormal:
            passed = False
        assert passed == expected


@pytest.fixture
def svd_calls(monkeypatch):
    """Record every numpy SVD, direct or inside ``np.linalg.norm(x, 2)``."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", counting_svd)
    return calls


class TestGateCost:
    @pytest.mark.parametrize("field", list(Field))
    def test_clean_input_makes_no_svd(self, svd_calls, field):
        rng = substream(5, 34)
        g = random_operator(16, 16, field, rng)
        h = g @ adjoint(g)
        basis = random_subspace_basis(16, 5, field, rng)
        svd_calls.clear()
        hermitian_eig(h)
        loewner_check(h, 0.0, 2.0 * h, tol=0.0)
        loewner_check(0.5 * h, 0.25 * h, h, tol=0.0)
        projection(basis)
        assert svd_calls == []
        operator_norm(h)  # the counter does see spectral norms
        assert svd_calls == [(16, 16)]

    def test_inconclusive_certificate_falls_back_to_the_spectral_test(self, svd_calls):
        # ||X - X*|| is half the threshold, but the rank-1 Hermitian part
        # makes ||X||_F / sqrt(64) eight times smaller than ||X||
        x = np.zeros((64, 64))
        x[0, 0] = 1.0
        x[0, 1], x[1, 0] = 0.25 * HTOL, -0.25 * HTOL
        assert hermitian_violation(x) <= HTOL * operator_norm(x)
        svd_calls.clear()
        hermitian_eig(x)
        assert len(svd_calls) == 2
        x[0, 1], x[1, 0] = HTOL, -HTOL
        with pytest.raises(NotHermitian):
            hermitian_eig(x)

    def test_is_parseval_is_computed_once(self, svd_calls, coordinate_gframe):
        # read from the kept spectrum of S: no SVD, and one cached value
        rng = substream(6, 35)
        frame = GFusionFrame(
            [(random_subspace_basis(4, 2, Field.COMPLEX, rng),
              random_operator(3, 4, Field.COMPLEX, rng), 1.0) for _ in range(3)]
        )
        for f in (frame, frame.parsevalize(), coordinate_gframe):
            svd_calls.clear()
            first = f.is_parseval
            assert vars(f)["is_parseval"] is first
            assert f.is_parseval is first
            assert svd_calls == []


def _parseval_by_svd(frame) -> bool:
    """The reference criterion: the spectral norm of S - I, from an SVD."""
    s = frame.frame_operator
    return operator_norm(s - np.eye(len(s))) <= PARSEVAL_TOL


def _conditioned_frames():
    """``framekit gen --dim 8 --seed 0 --components 4:4:1/W 4:4:1 4:4:W 8:8:1``
    for W = 1e2, 1e3 and 1e4, both fields: each general frame, its whitening
    (the first attempt ``--parseval`` tries) and the ``--parseval`` frame,
    where one is found."""
    for high in (1e2, 1e3, 1e4):
        comps = tuple(ComponentSpec(k, r, w, w) for k, r, w in
                      ((4, 4, 1.0 / high), (4, 4, 1.0), (4, 4, high), (8, 8, 1.0)))
        for field in Field:
            spec = GenSpec(8, comps, field, 0)
            frame = random_gfusion(spec)
            yield frame
            yield frame.parsevalize()
            try:
                yield random_parseval_gfusion(spec)
            except GenerationFailed:
                pass


_PARSEVAL_CASES = {
    "default-plan": lambda: [i.frame for i in build_instances(SuitePlan())],
    "dim8-complex-n10": lambda: [i.frame for i in build_instances(SuitePlan(
        dims=(8,), fields=(Field.COMPLEX,), seeds=(0,), components=10))],
    "conditioned-gen": lambda: list(_conditioned_frames()),
}


@pytest.mark.parametrize("frames", _PARSEVAL_CASES.values(), ids=_PARSEVAL_CASES.keys())
def test_is_parseval_matches_the_norm_of_s_minus_i(frames):
    frames = frames()
    classes = [f.is_parseval for f in frames]
    assert classes == [_parseval_by_svd(f) for f in frames]
    assert True in classes and False in classes


# operands whose deviation from the gate's target overflows: A - A* is
# infinite, B*B is infinite, and a complex B*B is NaN (inf - inf)
_SKEW_OVERFLOW = np.array([[0.0, 1e308], [-1e308, 0.0]])
_GATES_ON_OVERFLOW = {
    "hermitian-eig": (lambda: hermitian_eig(_SKEW_OVERFLOW), NotHermitian),
    "loewner-check": (lambda: loewner_check(_SKEW_OVERFLOW, -1.0, 1.0, tol=0.0), NotHermitian),
    "loewner-check-stack": (lambda: loewner_check(np.stack([np.eye(2), _SKEW_OVERFLOW]),
                                                  -1.0, 1.0, tol=0.0), NotHermitian),
    "psd-power": (lambda: psd_power([[1.0, 1e308], [-1e308, 1.0]], -1.0), NotHermitian),
    "projection-inf": (lambda: projection([[1e200], [0.0]]), NotOrthonormal),
    "projection-nan": (lambda: projection([[1e200 + 1e200j], [0.0]]), NotOrthonormal),
}


@pytest.mark.parametrize("call, error", _GATES_ON_OVERFLOW.values(), ids=_GATES_ON_OVERFLOW.keys())
def test_a_deviation_that_is_not_finite_fails_its_gate(svd_calls, call, error):
    # a NaN spectral norm used to pass the gate (~(nan > bound)), and an SVD
    # of a NaN deviation did not converge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()
    assert svd_calls == []


class TestSymmetrizeAtTheTopOfTheRange:
    """A/2 + A*/2 cannot overflow where A + A* would."""

    _FINITE = [[1.7e308, 0.0], [0.0, 1.0]]
    _BEYOND = [[1e308, 1e308], [1e308, 1e308]]  # eigenvalues 0 and 2e308

    def test_finite_spectrum_near_the_largest_float(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = hermitian_eig(self._FINITE).eigenvalues
        assert w.tolist() == [1.0, 1.7e308]

    @pytest.mark.parametrize("call", [hermitian_eig, lambda a: psd_power(a, -1.0)],
                             ids=["hermitian-eig", "psd-power"])
    def test_spectrum_beyond_the_largest_float_is_refused(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="spectrum is not finite"):
                call(self._BEYOND)

    def test_loewner_check_near_the_largest_float(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            finite = loewner_check(self._FINITE, 0.0, 1.0, tol=0.0)
            beyond = loewner_check(self._BEYOND, 0.0, 1.0, tol=0.0)
        assert (finite.lower_margin, finite.upper_margin) == (1.0, 1.0 - 1.7e308)
        assert beyond.upper_margin == -np.inf and not beyond.passed

    @pytest.mark.parametrize("field", list(Field))
    def test_equals_the_halved_sum_bit_for_bit(self, field):
        rng = substream(9, 36)
        for scale in (1e-300, 1e-100, 1.0, 1e100, 1e300):
            a = scale * random_operator(64, 64, field, rng)
            assert np.array_equal(symmetrize(a), 0.5 * (a + adjoint(a)))
