import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mesodyn.errors import (
    NearSingularError,
    NonFiniteError,
    NonSquareError,
    ShapeMismatchError,
)
from mesodyn.fixed_domain import polar_init
from mesodyn.linalg import (
    DEFAULT_PD_FLOOR,
    adjoint_inverse,
    adjoint_pseudo_inverse,
    below_floor,
    full_rank_svd,
    hermitian_eigendecompose,
    hermitian_part,
    matrix_from_json,
    matrix_to_json,
    pairing,
    unitary_exponential,
    unitary_exponentials,
)
from mesodyn.verification import (
    crandn,
    random_full_rank,
    random_hermitian,
    random_unitary,
)


def frob(m):
    return float(np.linalg.norm(m))


class TestEigendecompose:
    def test_diagonal_input_sorts_ascending(self):
        w, q = hermitian_eigendecompose(np.diag([3.0, 1.0]).astype(complex))
        assert np.allclose(w, [1.0, 3.0])
        # eigenvectors form a permutation up to LAPACK's column phases
        assert np.allclose(np.abs(q), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_identity(self):
        w, q = hermitian_eigendecompose(np.eye(4, dtype=complex))
        assert np.allclose(w, np.ones(4))
        assert frob(q @ np.diag(w) @ q.conj().T - np.eye(4)) <= 1e-12 * 2.0

    def test_reconstruction_random(self, rng):
        m = random_hermitian(rng, 5, -2.0, 3.0)
        w, q = hermitian_eigendecompose(m)
        assert frob(q @ np.diag(w) @ q.conj().T - m) <= 1e-12 * frob(m)
        assert np.all(np.diff(w) >= -1e-14)

    def test_deterministic_for_identical_input(self, rng):
        m = random_hermitian(rng, 4, 0.0, 2.0)
        w1, q1 = hermitian_eigendecompose(m)
        w2, q2 = hermitian_eigendecompose(m.copy())
        assert np.array_equal(w1, w2)
        assert np.array_equal(q1, q2)

    def test_rejects_non_finite(self):
        m = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NonFiniteError):
            hermitian_eigendecompose(m)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ShapeMismatchError):
            hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestUnitaryExponential:
    def test_scalar_pi(self):
        out = unitary_exponential(np.array([[np.pi]]), 1.0)
        assert np.allclose(out, [[-1.0]])

    def test_zero_scale_is_exact_identity(self, rng):
        a = random_hermitian(rng, 3, -1.0, 1.0)
        assert np.array_equal(unitary_exponential(a, 0.0), np.eye(3, dtype=complex))

    def test_taylor_oracle(self, rng):
        a = random_hermitian(rng, 3, -1.5, 1.5)
        scale = 0.7
        out = unitary_exponential(a, scale)
        term = np.eye(3, dtype=complex)
        total = np.eye(3, dtype=complex)
        for k in range(1, 20):
            term = term @ (1j * scale * a) / k
            total = total + term
        assert frob(out - total) <= 1e-10
        assert frob(out.conj().T @ out - np.eye(3)) <= 1e-12
        assert frob(out @ out.conj().T - np.eye(3)) <= 1e-12

    def test_one_parameter_group(self, rng):
        a = random_hermitian(rng, 4, -2.0, 2.0)
        left = unitary_exponential(a, 0.3) @ unitary_exponential(a, 1.1)
        right = unitary_exponential(a, 1.4)
        assert frob(left - right) <= 1e-11


def per_scale_exponential(a, scale):
    """One eigendecomposition per call: the reference for the batched form."""
    w, q = hermitian_eigendecompose(a)
    if scale == 0.0:
        return np.eye(w.shape[0], dtype=np.complex128)
    return (q * np.exp(1j * scale * w)) @ q.conj().T


class TestUnitaryExponentials:
    SCALES = (0.0, 0.7, -1.3, -0.0, 2.5e-9, 1e6, -3.75e8, 0.7)

    def test_bitwise_equal_to_single_calls(self, rng):
        a = random_hermitian(rng, 5, -2.0, 3.0)
        batch = unitary_exponentials(a, self.SCALES)
        assert len(batch) == len(self.SCALES)
        for s, u in zip(self.SCALES, batch):
            assert np.array_equal(u, unitary_exponential(a, s))
            assert np.array_equal(u, per_scale_exponential(a, s))
        for u in batch[0], batch[3]:
            assert np.array_equal(u, np.eye(5, dtype=complex))
        scales = np.linspace(-2.0, 2.0, 5)
        for s, u in zip(scales, unitary_exponentials(a, scales)):
            assert np.array_equal(u, unitary_exponential(a, s))
        assert unitary_exponentials(a, []) == []

    def test_degenerate_spectrum(self, rng):
        q = random_unitary(rng, 5)
        a = hermitian_part((q * np.array([1.0, 1.0, 2.0, 2.0, 2.0])) @ q.conj().T)
        batch = unitary_exponentials(a, self.SCALES)
        for s, u in zip(self.SCALES, batch):
            assert np.array_equal(u, unitary_exponential(a, s))
            assert np.array_equal(u, per_scale_exponential(a, s))
            assert frob(u.conj().T @ u - np.eye(5)) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ShapeMismatchError):
            unitary_exponentials(np.array([[1.0, 2.0], [0.0, 1.0]]), [1.0])


class TestPairing:
    def test_identity_pair(self):
        result = pairing(np.eye(2), np.eye(2))
        assert result.hermitian == 2.0 + 0.0j
        assert result.riemannian == 2.0
        assert result.symplectic == 0.0

    def test_imaginary_pair(self):
        # trace(I (iI)*) = trace(-i I) = -2i: real part 0, imaginary -2
        result = pairing(np.eye(2), 1j * np.eye(2))
        assert result.hermitian == -2.0j
        assert result.riemannian == 0.0
        assert result.symplectic == -2.0

    def test_antisymmetry_random(self, rng):
        l = crandn(rng, 3, 3)
        n = crandn(rng, 3, 3)
        assert abs(pairing(l, n).symplectic + pairing(n, l).symplectic) <= 1e-14
        assert pairing(l, l).symplectic == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            pairing(np.eye(2), np.eye(3))


class TestPolarDecompose:
    """The polar factors K = (U S U*)(U V*) read off full_rank_svd."""

    @staticmethod
    def polar_factors(k):
        u, s, vh = full_rank_svd(k, DEFAULT_PD_FLOOR)
        return (u * s) @ u.conj().T, u @ vh

    def test_positive_diagonal(self):
        radial, unitary = self.polar_factors(np.diag([2.0, 3.0]).astype(complex))
        assert np.allclose(radial, np.diag([2.0, 3.0]))
        assert np.allclose(unitary, np.eye(2))

    def test_scalar_phase(self):
        radial, unitary = self.polar_factors(np.array([[1j]]))
        assert np.allclose(radial, [[1.0]])
        assert np.allclose(unitary, [[1j]])

    def test_reconstruction_random(self, rng):
        k = random_full_rank(rng, 3, 0.5, 2.0)
        radial, unitary = self.polar_factors(k)
        assert frob(radial @ unitary - k) <= 1e-12 * frob(k)
        assert frob(unitary.conj().T @ unitary - np.eye(3)) <= 1e-12 * np.sqrt(3)
        assert np.all(np.linalg.eigvalsh(radial) > 0)

    def test_rejects_singular(self):
        with pytest.raises(NearSingularError):
            full_rank_svd(np.diag([1.0, 0.0]).astype(complex), DEFAULT_PD_FLOOR)


class TestAdjointInverse:
    def test_square_inverse(self, rng):
        k = random_full_rank(rng, 4, 0.5, 2.0)
        inv = adjoint_inverse(k)
        assert frob(k.conj().T @ inv - np.eye(4)) <= 1e-12

    def test_stack_equals_one_at_a_time(self, rng):
        ks = np.stack([random_full_rank(rng, 5, 0.3, 3.0) for _ in range(4)])
        floors = np.array([1e-12, 1e-10, 1e-6, 0.05])
        stacked = adjoint_inverse(ks, floors)
        for k, floor, inv in zip(ks, floors, stacked):
            assert np.array_equal(inv, adjoint_inverse(k, floor))

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32, 64])
    def test_agrees_with_svd_formula(self, dim, rng):
        k = random_full_rank(rng, dim, 0.5, 2.0)
        u, s, vh = np.linalg.svd(k)
        reference = (u / s) @ vh  # (K*)^-1 = U S^-1 V*
        assert frob(adjoint_inverse(k) - reference) <= 1e-13 * frob(reference)

    @pytest.mark.parametrize("ratio", [1e-13, 1e-11])
    def test_floor_is_on_singular_values(self, ratio, rng):
        k = (random_unitary(rng, 4) * [1.0, 0.5, 0.2, ratio]) @ random_unitary(rng, 4)
        if ratio < 1e-12:
            with pytest.raises(NearSingularError, match="crosses the floor"):
                adjoint_inverse(k, 1e-12)
        else:
            inv = adjoint_inverse(k, 1e-12)
            assert abs(np.linalg.norm(inv, 2) * ratio - 1.0) <= 1e-3

    @pytest.mark.parametrize("floor", [DEFAULT_PD_FLOOR, 1e-300])
    def test_exactly_singular_member(self, floor, rng):
        # rank 1; its computed s_min (about 4e-17) passes a 1e-300 floor,
        # and LU then meets an exactly zero pivot
        singular = np.array([[0.1, 0.3], [0.2, 0.6]], dtype=complex)
        ks = np.stack([random_full_rank(rng, 2, 0.5, 2.0), singular,
                       random_full_rank(rng, 2, 0.5, 2.0)])
        with pytest.raises(NearSingularError):
            adjoint_inverse(ks, floor)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 64])
    def test_bits_are_np_linalg_inv(self, dim, rng):
        # the LAPACK gufunc called directly gives np.linalg.inv's bits,
        # on one matrix and on each member of a stack
        k = random_full_rank(rng, dim, 0.5, 2.0)
        assert np.array_equal(adjoint_inverse(k), np.linalg.inv(k.conj().T))
        ks = np.stack([random_full_rank(rng, dim, 0.5, 2.0) for _ in range(3)])
        stacked = adjoint_inverse(ks, 1e-12)
        assert np.array_equal(stacked, np.linalg.inv(ks.conj().swapaxes(-1, -2)))
        for member, inv in zip(ks, stacked):
            assert np.array_equal(inv, np.linalg.inv(member.conj().T))

    @pytest.mark.parametrize("floor", [DEFAULT_PD_FLOOR, 1e-300])
    def test_exactly_singular_member_warns_nothing(self, floor, rng):
        # LU's zero pivot raises numpy's invalid flag; under the default
        # errstate, with every warning an error (python -W error), only
        # NearSingularError may come out
        singular = np.array([[0.1, 0.3], [0.2, 0.6]], dtype=complex)
        ks = np.stack([random_full_rank(rng, 2, 0.5, 2.0), singular])
        with np.errstate(all="warn", under="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NearSingularError):
                adjoint_inverse(ks, floor)
            with pytest.raises(NearSingularError):
                adjoint_inverse(singular, floor)

    def test_rejects_non_finite_and_non_square(self, rng):
        ks = np.stack([random_full_rank(rng, 3, 0.5, 2.0) for _ in range(2)])
        ks[1, 0, 2] = np.nan
        with pytest.raises(NonFiniteError):
            adjoint_inverse(ks)
        for shape in [(2, 3), (4,)]:
            with pytest.raises(NonSquareError):
                adjoint_inverse(np.ones(shape, dtype=complex))

    @staticmethod
    def with_ratio(rng, dim, ratio):
        """U diag(s) V* with s from 1 down to ``ratio``, geometrically."""
        s = np.geomspace(1.0, ratio, dim)
        return (random_unitary(rng, dim) * s) @ random_unitary(rng, dim)

    @pytest.mark.parametrize("floor", [1e-12, 1e-300])
    @pytest.mark.parametrize("dim", [2, 5, 64])
    @pytest.mark.parametrize("ratio", [1e-13, 0.9e-12, 1.1e-12, 1e-11, 1e-3])
    def test_verdict_is_the_svd_verdict(self, ratio, dim, floor, rng):
        k = self.with_ratio(rng, dim, ratio)
        s = np.linalg.svd(k, compute_uv=False)
        if below_floor(s[-1], s[0], floor):
            with pytest.raises(NearSingularError, match="crosses the floor"):
                adjoint_inverse(k, floor)
        else:
            inv = adjoint_inverse(k, floor)
            assert np.array_equal(inv, np.linalg.inv(k.conj().T))

    def test_svd_runs_only_when_the_norms_cannot_certify(self, rng, svd_calls):
        ks = np.stack([0.1 * random_unitary(rng, 3) for _ in range(3)])
        assert np.array_equal(adjoint_inverse(ks), np.linalg.inv(ks.conj().swapaxes(-1, -2)))
        assert svd_calls == []
        # s_min/s_max = 1.5e-12 passes a 1e-12 floor, but the stack's
        # floor ||K||_F ||X||_F, about 0.69, misses the screen's 1/2 margin
        ks[1] = self.with_ratio(rng, 3, 1.5e-12)
        assert np.array_equal(adjoint_inverse(ks, 1e-12),
                              np.linalg.inv(ks.conj().swapaxes(-1, -2)))
        assert svd_calls == [ks.shape]

    @pytest.mark.parametrize("dim", [3, 64])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_member_raises_promptly(self, bad, dim, rng):
        ks = np.stack([random_full_rank(rng, dim, 0.5, 2.0) for _ in range(3)])
        ks[1, dim - 1, 0] = bad
        start = time.perf_counter()
        with pytest.raises(NonFiniteError, match="NaN or Inf"):
            adjoint_inverse(ks)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_extreme_scales_fall_back_to_the_svd(self, scale, rng, svd_calls):
        # ||K||_F^2 or ||X||_F^2 leaves the double range, so the bound is
        # inf or nan and the SVD decides
        k = scale * random_full_rank(rng, 3, 0.5, 2.0)
        assert np.array_equal(adjoint_inverse(k), np.linalg.inv(k.conj().T))
        assert len(svd_calls) == 1
        singular = scale * np.array([[1.0, 2.0], [1.0, 2.0 + 1e-14]], dtype=complex)
        with pytest.raises(NearSingularError, match="crosses the floor"):
            adjoint_inverse(singular)
        assert len(svd_calls) == 2

    def test_pseudo_inverse_rank(self, rng):
        tall = crandn(rng, 5, 3)
        pinv, rank = adjoint_pseudo_inverse(tall)
        assert rank == 3
        # K* pinv is the projector onto the column span of K*
        proj = tall.conj().T @ pinv
        assert frob(proj @ proj - proj) <= 1e-12


class TestJsonLiteral:
    def test_round_trip(self, rng):
        m = crandn(rng, 2, 3)
        doc = matrix_to_json(m)
        assert doc["rows"] == 2 and doc["cols"] == 3
        assert np.array_equal(matrix_from_json(doc), m)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 1, "re": [1.0]})

    @pytest.mark.parametrize("fields", [
        {"rows": None}, {"cols": "1"}, {"rows": 1.0}, {"rows": True}, {"rows": -1},
        {"re": {}}, {"im": None}, {"re": ["x"]}, {"re": [[1.0]]},
        {"re": [float("nan")]}, {"im": [float("inf")]},
    ], ids=["rows_null", "cols_string", "rows_float", "rows_bool", "rows_negative",
            "re_object", "im_null", "re_text", "re_nested", "re_nan", "im_inf"])
    def test_rejects_malformed_literal(self, fields):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 1, "re": [1.0], "im": [0.0], **fields})


_unit_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def _complex_matrix(dim):
    return st.tuples(
        arrays(np.float64, (dim, dim), elements=_unit_floats),
        arrays(np.float64, (dim, dim), elements=_unit_floats),
    ).map(lambda pair: pair[0] + 1j * pair[1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(l=_complex_matrix(2), n=_complex_matrix(2))
def test_pairing_antisymmetry_property(l, n):
    assert pairing(l, n).symplectic == -pairing(n, l).symplectic
    assert pairing(l, n).riemannian == pytest.approx(pairing(n, l).riemannian, abs=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=_complex_matrix(2))
def test_polar_reconstruction_property(m):
    # shifting by 3I keeps every singular value >= 3 - ||m||_F > 0
    k = m + 3.0 * np.eye(2)
    u, s, vh = polar_init(k)
    assert frob((u * s) @ vh - k) <= 1e-12 * frob(k)
    # the polar split K = R U built from it: R = U S U*, U = U V*
    assert frob(((u * s) @ u.conj().T) @ (u @ vh) - k) <= 1e-12 * frob(k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=_complex_matrix(3), s=st.floats(-2.0, 2.0), t=st.floats(-2.0, 2.0))
def test_exponential_group_property(m, s, t):
    a = hermitian_part(m)
    left = unitary_exponential(a, s) @ unitary_exponential(a, t)
    assert frob(left - unitary_exponential(a, s + t)) <= 1e-11
