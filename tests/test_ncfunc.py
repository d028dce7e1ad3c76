import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncmetric.ncfunc import (
    CayleyLike,
    Composition,
    DomainViolation,
    MoebiusBall,
    Polynomial,
    ScalarCalculus,
    SeriesNotConverged,
    check_axioms,
    delta_f,
    eval_mat,
    eval_point,
)
from ncmetric.ncpoint import direction, point

import oracles

EXP_COEFFS = tuple(1.0 / math.factorial(k) for k in range(18))


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _cmat(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def test_polynomial_scalar_value():
    p = Polynomial((1.0, -2.0, 0.5))
    # 1 - 2*3 + 0.5*9 = -0.5
    np.testing.assert_allclose(eval_mat(p, np.array([[3.0]])), [[-0.5]])


def test_polynomial_on_nilpotent():
    p = Polynomial((0.0, 1.0, 1.0))
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(eval_mat(p, n), n)  # n^2 = 0


def test_empty_polynomial_is_zero():
    np.testing.assert_allclose(eval_mat(Polynomial(()), np.eye(2)), np.zeros((2, 2)))


def test_moebius_scalar_value():
    f = MoebiusBall(0.5)
    # (1/4 - 1/2) / (1 - 1/8) = -2/7
    np.testing.assert_allclose(eval_mat(f, np.array([[0.25]])), [[-2.0 / 7.0]])


def test_moebius_factor_orders_agree():
    rng = _rng(1)
    f = MoebiusBall(0.4 - 0.2j)
    m = 0.6 * _cmat(rng, 3)
    eye = np.eye(3)
    res = np.linalg.inv(eye - np.conj(f.alpha) * m)
    np.testing.assert_allclose(eval_mat(f, m), res @ (m - f.alpha * eye), atol=1e-12)


def test_moebius_alpha_cap():
    with pytest.raises(ValueError):
        MoebiusBall(1.0)


def test_moebius_pole_is_domain_violation():
    f = MoebiusBall(0.5)
    with pytest.raises(DomainViolation):
        eval_mat(f, np.array([[2.0]]))


def test_cayley_like_affine():
    f = CayleyLike(2.0j, 1.0)
    np.testing.assert_allclose(eval_mat(f, np.diag([1.0, 3.0])), np.diag([1 + 2j, 1 + 6j]))


def test_scalar_calculus_matches_exp():
    f = ScalarCalculus(EXP_COEFFS, radius=8.0)
    np.testing.assert_allclose(eval_mat(f, np.array([[0.5]])), [[math.exp(0.5)]], rtol=1e-12)


def test_scalar_calculus_matches_exp_on_hermitian():
    rng = _rng(2)
    h = (lambda g: (g + g.conj().T) / 2)(_cmat(rng, 3, scale=1.5))
    w, v = np.linalg.eigh(h)
    by_spectrum = v @ np.diag(np.exp(w)) @ v.conj().T
    f = ScalarCalculus(EXP_COEFFS, radius=8.0)
    np.testing.assert_allclose(eval_mat(f, h), by_spectrum, atol=1e-10)


def test_scalar_calculus_radius_guard():
    f = ScalarCalculus((1.0, 1.0), radius=1.0)
    with pytest.raises(SeriesNotConverged):
        eval_mat(f, np.array([[1.0]]))


def test_composition_order_is_left_to_right():
    f = Composition((Polynomial((1.0, 1.0)), Polynomial((0.0, 0.0, 1.0))))
    # square after shift: (z + 1)^2 at z = 2 -> 9
    np.testing.assert_allclose(eval_mat(f, np.array([[2.0]])), [[9.0]])


def test_delta_matches_explicit_polynomial_sum():
    rng = _rng(3)
    coeffs = (0.2, -1.0, 0.7, 0.0, 0.3)
    p = Polynomial(coeffs)
    a = point(_cmat(rng, 2))
    c = point(_cmat(rng, 2))
    b = direction(_cmat(rng, 2))
    got = delta_f(p, a, c, b).mat
    want = oracles.poly_delta(coeffs, a.mat, c.mat, b.mat)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_delta_on_difference_telescopes():
    rng = _rng(4)
    f = Composition((Polynomial((0.0, 0.5, 0.25)), MoebiusBall(0.3)))
    a = point(0.5 * _cmat(rng, 3))
    c = point(0.5 * _cmat(rng, 3))
    b = direction(a.mat - c.mat)
    got = delta_f(f, a, c, b).mat
    want = eval_point(f, a).mat - eval_point(f, c).mat
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_delta_is_linear_in_direction():
    rng = _rng(5)
    p = Polynomial((0.0, 1.0, 1.0))
    a, c = point(_cmat(rng, 2)), point(_cmat(rng, 2))
    b1, b2 = direction(_cmat(rng, 2)), direction(_cmat(rng, 2))
    combo = direction(2.0 * b1.mat - 0.5j * b2.mat)
    got = delta_f(p, a, c, combo).mat
    want = 2.0 * delta_f(p, a, c, b1).mat - 0.5j * delta_f(p, a, c, b2).mat
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_axiom_report_passes_for_specs():
    rng = _rng(6)
    pts = [point(0.4 * _cmat(rng, n)) for n in (1, 2, 2, 3)]
    for f in (Polynomial((0.1, 0.9, -0.2)), MoebiusBall(0.2j), ScalarCalculus(EXP_COEFFS, 8.0)):
        report = check_axioms(f, pts, rng=_rng(7))
        assert report["ok"], report


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_polynomial_eval_matches_spectral_calculus(coeffs, n, seed):
    # on a Hermitian argument Horner must agree with the eigenvalue route
    rng = _rng(seed)
    h = (lambda g: (g + g.conj().T) / 2)(_cmat(rng, n))
    p = Polynomial(tuple(coeffs))
    w, v = np.linalg.eigh(h)
    want = v @ np.diag(np.polyval(list(reversed(coeffs)), w)) @ v.conj().T
    np.testing.assert_allclose(eval_mat(p, h), want, atol=1e-10)


@pytest.mark.parametrize(
    "f",
    [
        Polynomial((0.5, -1.0, 0.25)),
        Polynomial((2.0,)),
        MoebiusBall(0.3 + 0.1j),
        CayleyLike(2.0, 1j),
        ScalarCalculus(EXP_COEFFS, 4.0),
        Composition((MoebiusBall(0.2), Polynomial((0.0, 1.0, 1.0)))),
    ],
)
def test_eval_on_a_stack_matches_rows(f):
    # the rows' norms differ, so the series truncates at different orders
    rng = _rng(17)
    stack = np.stack([_cmat(rng, 2, scale) for scale in (0.01, 0.3, 0.8)])
    got = eval_mat(f, stack)
    assert got.shape == stack.shape
    for row, m in zip(got, stack):
        np.testing.assert_array_equal(row, eval_mat(f, m))
