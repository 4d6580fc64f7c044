import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepool.errors import ContractViolationError, DomainError
from wavepool.spectral import (
    MODE_CLOSED_FORM,
    MODE_FITTED_KERNEL,
    bessel_i,
    chebyshev_apply,
    cosine_transform,
    exact_wavelet_oracle,
    normalized_laplacian,
    pseudoinverse,
    wavelet_bases,
    wavelet_coefficients,
)

from .conftest import cycle_adjacency, path_adjacency


def random_adjacency(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    upper = rng.random((n, n)) < p
    adj = np.triu(upper, 1).astype(float)
    return adj + adj.T


# -- normalized Laplacian -------------------------------------------------


def test_laplacian_triangle():
    lap = normalized_laplacian(cycle_adjacency(3))
    expected = np.full((3, 3), -0.5)
    np.fill_diagonal(expected, 1.0)
    assert np.allclose(lap, expected, atol=1e-14)


def test_laplacian_two_node_path():
    lap = normalized_laplacian(path_adjacency(2))
    assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)


def test_laplacian_single_node():
    assert np.array_equal(normalized_laplacian(np.zeros((1, 1))), [[0.0]])


def test_laplacian_isolated_node_rows_zero():
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 0] = 1.0  # node 2 isolated
    lap = normalized_laplacian(adj)
    assert np.all(lap[2] == 0.0) and np.all(lap[:, 2] == 0.0)


def test_laplacian_validation():
    with pytest.raises(ContractViolationError):
        normalized_laplacian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ContractViolationError):
        normalized_laplacian(np.array([[1.0]]))
    with pytest.raises(ContractViolationError):
        normalized_laplacian(np.zeros((2, 3)))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 20), seed=st.integers(0, 10_000))
def test_laplacian_spectrum_in_zero_two(n, seed):
    adj = random_adjacency(n, 0.4, np.random.default_rng(seed))
    eigvals = np.linalg.eigvalsh(normalized_laplacian(adj))
    assert eigvals.min() >= -1e-9
    assert eigvals.max() <= 2.0 + 1e-9


# -- Chebyshev recurrence -------------------------------------------------


def test_chebyshev_scalar_pinned_values():
    terms = chebyshev_apply(0.5, 2)
    assert terms[2] == pytest.approx(-0.5, abs=1e-15)
    at_one = chebyshev_apply(1.0, 10)
    assert all(t == pytest.approx(1.0, abs=1e-12) for t in at_one)
    at_minus_one = chebyshev_apply(-1.0, 5)
    assert at_minus_one[3] == pytest.approx(-1.0, abs=1e-12)


def test_chebyshev_zero_matrix():
    terms = chebyshev_apply(np.zeros(3), 2)  # the zero matrix's eigenvalues
    assert np.array_equal(terms[0], np.ones(3))
    assert np.array_equal(terms[1], np.zeros(3))
    assert np.allclose(terms[2], -np.ones(3), atol=1e-15)


def test_chebyshev_scalar_against_numpy():
    xs = np.linspace(-1.0, 1.0, 21)
    order = 12
    vander = np.polynomial.chebyshev.chebvander(xs, order)
    for j, x in enumerate(xs):
        terms = chebyshev_apply(float(x), order)
        assert np.allclose(terms, vander[j], atol=1e-12)


def test_chebyshev_matrix_against_eigendecomposition(rng):
    # T_i(mat) = U T_i(lambda) U^T, checked against the dense matrix recurrence
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    mat = (q * rng.uniform(-1.0, 1.0, size=6)) @ q.T
    order = 8
    eigvals, eigvecs = np.linalg.eigh(mat)
    terms = chebyshev_apply(eigvals, order)
    reference = [np.eye(6), mat]
    for _ in range(2, order + 1):
        reference.append(2.0 * mat @ reference[-1] - reference[-2])
    for i in range(order + 1):
        assert np.allclose((eigvecs * terms[i]) @ eigvecs.T, reference[i], atol=1e-10)


def test_chebyshev_order_zero_and_validation():
    assert len(chebyshev_apply(0.3, 0)) == 1
    with pytest.raises(ContractViolationError):
        chebyshev_apply(0.3, -1)


# -- Bessel series --------------------------------------------------------


def test_bessel_zero_order_at_one():
    # value frozen from an independent reference implementation (scipy.special.iv)
    assert bessel_i(0, 1.0) == pytest.approx(1.2660658777520084, rel=1e-15)


def test_bessel_against_scipy_small_arguments():
    for order in range(17):
        for x in np.linspace(-10.0, 10.0, 41):
            assert bessel_i(order, float(x)) == pytest.approx(
                scipy.special.iv(order, x), rel=1e-13, abs=1e-300
            )


def test_bessel_parity():
    for order in range(11):
        sign = (-1.0) ** order
        for x in np.arange(0.5, 5.01, 0.5):
            assert bessel_i(order, -x) == sign * bessel_i(order, x)


def test_bessel_domain_window():
    assert bessel_i(0, 50.0) == pytest.approx(scipy.special.iv(0, 50.0), rel=1e-13)
    with pytest.raises(DomainError):
        bessel_i(0, 50.001)
    with pytest.raises(DomainError):
        bessel_i(2, -51.0)
    with pytest.raises(ContractViolationError):
        bessel_i(-1, 1.0)


# -- expansion coefficients -----------------------------------------------


def test_closed_form_zero_scale_is_identity_filter():
    coeffs = wavelet_coefficients(0.0, 8, mode=MODE_CLOSED_FORM)
    assert coeffs[0] == pytest.approx(2.0, abs=1e-15)
    assert np.all(coeffs[1:] == 0.0)


def test_closed_form_leading_coefficient_scale_one():
    coeffs = wavelet_coefficients(1.0, 16, mode=MODE_CLOSED_FORM)
    # 2 e^{-1} I_0(-1), frozen from an independent Bessel reference
    assert coeffs[0] == pytest.approx(0.931519215187281, abs=1e-12)
    assert coeffs[0] == pytest.approx(2.0 * math.exp(-1.0) * bessel_i(0, 1.0), rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 2.0, 3.0])
def test_closed_form_bank_matches_fitted_kernel(scale, rng):
    """Both modes expand exp(-f lambda): at M = 16 the closed-form bank's
    coefficients, p_f(lambda) and dense psi_f equal the quadrature fit's
    within 1e-12, and p_f(0) = 1 on an isolated node."""
    adj = random_adjacency(20, 0.2, rng)
    adj[0] = adj[:, 0] = 0.0
    lap = normalized_laplacian(adj)
    closed = wavelet_bases(lap, (scale,), 16, mode=MODE_CLOSED_FORM)
    fitted = wavelet_bases(lap, (scale,), 16, mode=MODE_FITTED_KERNEL)
    assert np.max(np.abs(closed.coefficients - fitted.coefficients)) <= 1e-12
    assert np.max(np.abs(closed.values - fitted.values)) <= 1e-12
    assert np.max(np.abs(closed.psi(0) - fitted.psi(0))) <= 1e-12
    assert closed.psi(0)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_fitted_zero_scale_coefficients():
    coeffs = wavelet_coefficients(0.0, 8, mode=MODE_FITTED_KERNEL)
    expected = np.zeros(9)
    expected[0] = 2.0
    assert np.allclose(coeffs, expected, atol=1e-12)


def test_fitted_coefficients_reconstruct_kernel():
    xs = np.linspace(-1.0, 1.0, 201)
    for scale in (0.5, 1.0, 2.0):
        coeffs = wavelet_coefficients(scale, 16, mode=MODE_FITTED_KERNEL)
        vander = np.polynomial.chebyshev.chebvander(xs, 16)
        fit = vander @ coeffs - 0.5 * coeffs[0]
        assert np.max(np.abs(fit - np.exp(-scale * (xs + 1.0)))) < 1e-9


def test_closed_form_coefficient_decay():
    for scale in (0.5, 1.0, 2.0):
        coeffs = wavelet_coefficients(scale, 30, mode=MODE_CLOSED_FORM)
        start = math.ceil(scale + 2)
        mags = np.abs(coeffs[start:])
        assert np.all(np.diff(mags) < 0.0)


def test_coefficient_validation():
    with pytest.raises(ContractViolationError):
        wavelet_coefficients(-0.5, 8)
    with pytest.raises(ContractViolationError):
        wavelet_coefficients(1.0, 0)
    with pytest.raises(ContractViolationError):
        wavelet_coefficients(1.0, 8, mode="nope")


@pytest.mark.parametrize("mode", [MODE_FITTED_KERNEL, MODE_CLOSED_FORM])
def test_coefficients_are_fitted_once_and_read_only(mode):
    """Every graph's bank reads the same scales, so each (scale, order,
    mode) is fitted once and shared; no caller can write into the share."""
    coeffs = wavelet_coefficients(2.5, 12, mode)
    assert wavelet_coefficients(2.5, 12, mode) is coeffs
    assert not coeffs.flags.writeable


# -- pseudoinverse --------------------------------------------------------


def test_pinv_diagonal_example():
    pinv = pseudoinverse(np.diag([2.0, 0.0]))
    assert np.allclose(pinv, np.diag([0.5, 0.0]), atol=1e-15)


def test_pinv_moore_penrose_conditions(rng):
    for trial in range(10):
        n, m = rng.integers(2, 8, size=2)
        mat = rng.standard_normal((n, m))
        if trial % 2 == 0:  # force rank deficiency
            mat[:, -1] = mat[:, 0]
        pinv = pseudoinverse(mat)
        scale = np.linalg.norm(mat) * np.linalg.norm(pinv) + 1e-30
        assert np.linalg.norm(mat @ pinv @ mat - mat) <= 1e-8 * np.linalg.norm(mat)
        assert np.linalg.norm(pinv @ mat @ pinv - pinv) <= 1e-8 * np.linalg.norm(pinv)
        assert np.linalg.norm(mat @ pinv - (mat @ pinv).T) <= 1e-8 * scale
        assert np.linalg.norm(pinv @ mat - (pinv @ mat).T) <= 1e-8 * scale


def test_pinv_matches_numpy(rng):
    for _ in range(5):
        mat = rng.standard_normal((6, 6))
        mat[2] = mat[1]  # rank-deficient
        assert np.allclose(pseudoinverse(mat), np.linalg.pinv(mat), atol=1e-10)


def test_pinv_rejects_nonfinite():
    with pytest.raises(ContractViolationError):
        pseudoinverse(np.array([[1.0, np.inf], [0.0, 1.0]]))


# -- wavelet bases --------------------------------------------------------


def test_basis_is_identity_at_zero_scale():
    lap = normalized_laplacian(cycle_adjacency(6))
    basis = wavelet_bases(lap, (0.0,), 16, mode=MODE_FITTED_KERNEL)
    assert np.allclose(basis.psi(0), np.eye(6), atol=1e-12)
    assert np.allclose(basis.psi_pinv(0), np.eye(6), atol=1e-11)


def test_two_node_basis_pinned_value():
    lap = normalized_laplacian(path_adjacency(2))
    psi = wavelet_bases(lap, (1.0,), 40, mode=MODE_FITTED_KERNEL).psi(0)
    lo = (1.0 + math.exp(-2.0)) / 2.0
    hi = (1.0 - math.exp(-2.0)) / 2.0
    assert np.allclose(psi, [[lo, hi], [hi, lo]], atol=1e-6)
    assert np.array_equal(np.round(psi, 4), [[0.5677, 0.4323], [0.4323, 0.5677]])


def test_fitted_basis_matches_dense_reference(rng):
    for scale in (0.5, 1.0, 2.0):
        adj = random_adjacency(30, 0.2, rng)
        lap = normalized_laplacian(adj)
        psi = wavelet_bases(lap, (scale,), 40, mode=MODE_FITTED_KERNEL).psi(0)
        reference = exact_wavelet_oracle(lap, scale, lambda t: math.exp(-t))
        assert np.max(np.abs(psi - reference)) < 1e-6


def test_internal_convergence_order_49_vs_50(rng):
    adj = random_adjacency(12, 0.4, rng)
    lap = normalized_laplacian(adj)
    for mode in (MODE_CLOSED_FORM, MODE_FITTED_KERNEL):
        a = wavelet_bases(lap, (1.0,), 49, mode=mode).psi(0)
        b = wavelet_bases(lap, (1.0,), 50, mode=mode).psi(0)
        assert np.max(np.abs(a - b)) < 1e-6


def test_bases_share_recurrence_with_single_scale(rng):
    """One read-only bank: (F, M + 1) coefficients, one U, and (n, F)
    values and inverse whose column f is bit-equal to the one-scale build."""
    adj = random_adjacency(8, 0.4, rng)
    lap = normalized_laplacian(adj)
    scales = (1.0, 2.0, 3.0)
    bank = wavelet_bases(lap, scales, 12)
    assert bank.coefficients.shape == (3, 13) and bank.eigvecs.shape == (8, 8)
    assert bank.values.shape == bank.inverse.shape == (8, 3)
    for array in (bank.coefficients, bank.eigvecs, bank.values, bank.inverse):
        assert not array.flags.writeable
    for f, scale in enumerate(scales):
        single = wavelet_bases(lap, (scale,), 12)
        assert np.array_equal(bank.coefficients[f], single.coefficients[0])
        assert np.array_equal(bank.eigvecs, single.eigvecs)
        assert np.array_equal(bank.values[:, f], single.values[:, 0])
        assert np.array_equal(bank.inverse[:, f], single.inverse[:, 0])
        assert np.array_equal(bank.psi(f), single.psi(0))
        assert np.array_equal(bank.psi_pinv(f), single.psi_pinv(0))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 10_000),
       scale=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_basis_symmetry_property(n, seed, scale):
    adj = random_adjacency(n, 0.4, np.random.default_rng(seed))
    basis = wavelet_bases(normalized_laplacian(adj), (scale,), 16)
    psi, psi_pinv = basis.psi(0), basis.psi_pinv(0)
    assert np.array_equal(psi, psi.T)
    assert np.allclose(psi_pinv, psi_pinv.T, atol=1e-10)


@pytest.mark.parametrize("mode", [MODE_FITTED_KERNEL, MODE_CLOSED_FORM])
def test_basis_pinv_matches_svd_pseudoinverse(rng, mode):
    for n in (1, 5, 17, 40):
        lap = normalized_laplacian(random_adjacency(n, 0.15, rng))
        bank = wavelet_bases(lap, (0.5, 1.0, 3.0), 16, mode)
        for f in range(3):
            reference = pseudoinverse(bank.psi(f))
            assert np.linalg.norm(bank.psi_pinv(f) - reference) <= 1e-8 * np.linalg.norm(reference)


def test_basis_pinv_inverts_on_connected_graph():
    lap = normalized_laplacian(cycle_adjacency(7))
    basis = wavelet_bases(lap, (1.0,), 30)
    # exp(-f lambda) never vanishes, so psi is invertible here
    assert np.allclose(basis.psi(0) @ basis.psi_pinv(0), np.eye(7), atol=1e-8)


def test_oracle_size_gate():
    with pytest.raises(ContractViolationError):
        exact_wavelet_oracle(np.zeros((501, 501)), 1.0, math.exp)


# -- cosine transform -----------------------------------------------------


def test_cosine_transform_two_by_two():
    mat = cosine_transform(2)
    r = math.sqrt(0.5)
    assert np.allclose(mat, [[r, r], [r, -r]], atol=1e-15)
    assert np.allclose(np.round(mat, 5), [[0.70711, 0.70711], [0.70711, -0.70711]])


def test_cosine_transform_single():
    assert np.allclose(cosine_transform(1), [[1.0]])


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
def test_cosine_transform_orthonormal(n):
    xi = cosine_transform(n)
    assert np.max(np.abs(xi @ xi.T - np.eye(n))) < 1e-10


def test_cosine_transform_cached_and_frozen():
    assert cosine_transform(8) is cosine_transform(8)
    with pytest.raises(ValueError):
        cosine_transform(8)[0, 0] = 9.0


def test_cosine_transform_invalid_size():
    with pytest.raises(ContractViolationError):
        cosine_transform(0)
