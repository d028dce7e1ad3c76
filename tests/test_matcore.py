import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncmetric.matcore import (
    NonHermitianInput,
    NotPositiveDefinite,
    SingularMatrix,
    as_matrix,
    direct_sum_mats,
    herm_eig,
    herm_part,
    imag_part,
    inverse,
    is_hermitian,
    is_strictly_positive,
    mat_from_json,
    mat_to_json,
    operator_norm,
    psd_inv_sqrt,
)

import oracles

EIG_TOL = 1e-10


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2


def test_herm_eig_identity():
    w, v = herm_eig(np.eye(3))
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(v @ v.conj().T, np.eye(3), atol=EIG_TOL)


def test_herm_eig_diagonal_sorted():
    w, _ = herm_eig(np.diag([2.0, -1.0]))
    np.testing.assert_allclose(w, [-1.0, 2.0])


def test_herm_eig_offdiagonal():
    # characteristic polynomial x^2 - 1
    w, _ = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=EIG_TOL)


def test_herm_eig_rejects_nonhermitian():
    with pytest.raises(NonHermitianInput):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_strict_positivity_examples():
    assert is_strictly_positive(np.eye(2), 0.0)
    assert not is_strictly_positive(np.zeros((2, 2)), 0.0)
    # lambda_min = 1 -/+ off-diagonal
    assert is_strictly_positive(np.array([[1.0, 0.999], [0.999, 1.0]]), 0.0)
    assert not is_strictly_positive(np.array([[1.0, 1.001], [1.001, 1.0]]), 0.0)


def test_strict_positivity_margin_is_relative():
    # default margin 1e-10 scaled by max(1, ||A||) = 100 puts the threshold at 1e-8
    assert is_strictly_positive(np.diag([1.01e-8, 100.0]))
    assert not is_strictly_positive(np.diag([0.99e-8, 100.0]))
    # a negative margin admits lambda_min down to margin * ||A||
    assert is_strictly_positive(np.diag([-0.05, 100.0]), -1e-3)
    assert not is_strictly_positive(np.diag([-0.2, 100.0]), -1e-3)
    # ||A|| = |lambda_min| when the negative end dominates
    assert is_strictly_positive(np.diag([-3.0, 1.0]), -2.0)


def test_operator_norm_examples():
    assert operator_norm(np.eye(4)) == pytest.approx(1.0)
    assert operator_norm(np.array([[0.0, 3.0], [0.0, 0.0]])) == pytest.approx(3.0)
    assert operator_norm(np.diag([3.0, 0.5])) == pytest.approx(3.0)


def test_inverse_examples():
    np.testing.assert_allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    np.testing.assert_allclose(
        inverse(np.array([[1.0, 1.0], [0.0, 1.0]])),
        np.array([[1.0, -1.0], [0.0, 1.0]]),
        atol=1e-14,
    )


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrix):
        inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_psd_inv_sqrt_whitens():
    rng = _rng(3)
    w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = w @ w.conj().T + 0.5 * np.eye(4)
    s = psd_inv_sqrt(a)
    np.testing.assert_allclose(s @ a @ s, np.eye(4), atol=1e-9)
    assert is_hermitian(s)


def test_psd_inv_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        psd_inv_sqrt(np.diag([1.0, -0.1]))


def test_herm_imag_parts_split():
    rng = _rng(5)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(herm_part(m) + 1j * imag_part(m), m, atol=1e-14)
    assert is_hermitian(herm_part(m))
    assert is_hermitian(imag_part(m))


def test_as_matrix_scalar_promotion():
    m = as_matrix(0.5j)
    assert m.shape == (1, 1)
    assert m.dtype == np.complex128


def test_direct_sum_layout():
    out = direct_sum_mats(np.eye(2), 3.0 * np.eye(1))
    np.testing.assert_allclose(out, np.diag([1.0, 1.0, 3.0]))


def test_mat_json_round_trip():
    rng = _rng(11)
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    back = mat_from_json(mat_to_json(m))
    np.testing.assert_allclose(back, m)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_herm_eig_reconstructs(n, seed):
    a = _hermitian(_rng(seed), n, scale=2.0)
    w, v = herm_eig(a)
    assert np.all(np.diff(w) >= -1e-14)
    np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, a, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_operator_norm_matches_reference(n, seed):
    rng = _rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert operator_norm(m) == pytest.approx(oracles.op_norm(m), rel=1e-10)


def test_stacks_match_rows():
    rng = _rng(9)
    herms = np.stack([_hermitian(rng, 3) + 4.0 * k * np.eye(3) for k in range(4)])
    gens = np.stack([_hermitian(rng, 3) + 1j * _hermitian(rng, 3) for _ in range(4)])
    positive = is_strictly_positive(herms)
    assert positive.tolist() == [is_strictly_positive(h) for h in herms]
    assert positive.tolist() == [False, True, True, True]
    assert is_hermitian(herms).all() and not is_hermitian(gens).any()
    for fn, stack in ((psd_inv_sqrt, herms[1:]), (inverse, gens), (operator_norm, gens),
                      (herm_part, gens), (imag_part, gens)):
        np.testing.assert_array_equal(fn(stack), [fn(m) for m in stack])
    w, v = herm_eig(herms)
    for k, h in enumerate(herms):
        np.testing.assert_array_equal(w[k], herm_eig(h)[0])
        np.testing.assert_array_equal(v[k], herm_eig(h)[1])


def test_one_bad_matrix_fails_a_stack():
    good = np.stack([np.eye(2), 2.0 * np.eye(2)])
    with pytest.raises(NonHermitianInput):
        is_strictly_positive(np.concatenate([good, [[[1.0, 1.0], [0.0, 1.0]]]]))
    with pytest.raises(NotPositiveDefinite):
        psd_inv_sqrt(np.concatenate([good, [-np.eye(2)]]))
    with pytest.raises(SingularMatrix):
        inverse(np.concatenate([good, [np.zeros((2, 2))]]))
