import ast
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncmetric
from ncmetric.matcore import (
    POS_MARGIN,
    SINGULAR_RATIO,
    FactorizationFailure,
    NonHermitianInput,
    NotPositiveDefinite,
    SingularMatrix,
    as_matrix,
    as_stack,
    condition_number,
    direct_sum_mats,
    herm_eig,
    herm_eigvals,
    herm_part,
    imag_part,
    inverse,
    is_hermitian,
    is_singular,
    mat_from_json,
    mat_to_json,
    operator_norm,
    positivity_score,
    principal_sqrt,
    psd_inv_sqrt,
    spectrum,
    whitener,
)

import oracles

EIG_TOL = 1e-10


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _positive(h, margin=POS_MARGIN):
    """The package's strict positivity rule on a Hermitian matrix or stack."""
    return positivity_score(herm_eigvals(np.asarray(h, dtype=complex)), margin) > 0.0


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


@pytest.mark.parametrize("bad", [[[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.inf]], [[1.0, np.nan], [np.nan, 1.0]]])
def test_a_factorization_of_a_matrix_that_is_not_finite_raises(bad):
    # eigvalsh returned [0, -0] for the first, and herm_eig read it as not Hermitian
    bad = np.array(bad, dtype=complex)
    for call, test in ((herm_eigvals, "eigenvalue"), (herm_eig, "eigenvalue"), (spectrum, "eigenvalue"),
                       (operator_norm, "norm"), (condition_number, "condition number"), (inverse, "inverse")):
        for a in (bad, np.stack([np.eye(2), bad])):
            with pytest.raises(FactorizationFailure, match=f"^{test} failure: Array must not contain infs or NaNs$"):
                call(a)


def test_strict_positivity_examples():
    assert _positive(np.eye(2), 0.0)
    assert not _positive(np.zeros((2, 2)), 0.0)
    # lambda_min = 1 -/+ off-diagonal
    assert _positive(np.array([[1.0, 0.999], [0.999, 1.0]]), 0.0)
    assert not _positive(np.array([[1.0, 1.001], [1.001, 1.0]]), 0.0)


def test_strict_positivity_margin_is_relative():
    # default margin 1e-10 scaled by max(1, ||A||) = 100 puts the threshold at 1e-8
    assert _positive(np.diag([1.01e-8, 100.0]))
    assert not _positive(np.diag([0.99e-8, 100.0]))
    # a negative margin admits lambda_min down to margin * ||A||
    assert _positive(np.diag([-0.05, 100.0]), -1e-3)
    assert not _positive(np.diag([-0.2, 100.0]), -1e-3)
    # ||A|| = |lambda_min| when the negative end dominates
    assert _positive(np.diag([-3.0, 1.0]), -2.0)


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
    # S A S = I to 1e-8 in operator norm, four draws per size
    for n in range(2, 7):
        for _ in range(4):
            w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = w @ w.conj().T / n + 0.1 * np.eye(n)
            s = psd_inv_sqrt(a)
            assert oracles.op_norm(s @ a @ s - np.eye(n)) <= 1e-8


def test_psd_inv_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        psd_inv_sqrt(np.diag([1.0, -0.1]))


@pytest.mark.parametrize("n", range(1, 13))
def test_whitener_whitens_and_takes_a_stack_per_matrix(n):
    rng = _rng(70 + n)
    g = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    q = g @ g.conj().mT / n + 0.1 * np.eye(n)
    w = whitener(q)
    assert np.abs(w @ q @ w.conj().mT - np.eye(n)).max() <= 1e-12
    np.testing.assert_array_equal(w, [whitener(m) for m in q])


def test_whitener_fails_as_psd_inv_sqrt_does():
    good = np.stack([np.eye(2), 2.0 * np.eye(2)])
    nan = np.array([[1.0, 0.0], [0.0, np.nan]])
    for bad, error in ((np.diag([1.0, -0.1]), NotPositiveDefinite), (nan, FactorizationFailure)):
        for q in (bad, np.concatenate([good, [bad]])):
            with pytest.raises(error) as expected:
                psd_inv_sqrt(q)
            with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
                whitener(q)
    # the Cholesky factor of diag(1, 1e-28) is too ill-conditioned for inverse,
    # so that matrix takes psd_inv_sqrt, which still whitens it, and the other
    # matrix of the stack keeps its triangular L^-1
    q = np.stack([[[2.0, 1.0], [1.0, 2.0]], np.diag([1.0, 1e-28])])
    w = whitener(q)
    assert np.tril(w[0]).tolist() == w[0].tolist() and w[0].tolist() == whitener(q[0]).tolist()
    np.testing.assert_array_equal(w[1], psd_inv_sqrt(q[1]))
    assert np.abs(w[1] @ q[1] @ w[1].conj().T - np.eye(2)).max() <= 1e-12


def _off_the_negative_axis(rng, n):
    # Im B > 0 puts the spectrum of 4 - B^2 off (-inf, 0]
    b = _hermitian(rng, n, 2.0) + 1j * (_hermitian(rng, n, 0.3) @ _hermitian(rng, n, 0.3) + 0.01 * np.eye(n))
    return 4.0 * np.eye(n) - b @ b


def test_principal_sqrt_squares_back_and_inverts():
    rng = _rng(31)
    for n in (1, 2, 4, 6):
        a = _off_the_negative_axis(rng, n)
        root, inv_root = principal_sqrt(a)
        np.testing.assert_allclose(root @ root, a, atol=1e-12 * np.abs(a).max())
        np.testing.assert_allclose(root @ inv_root, np.eye(n), atol=1e-12)
        # the principal root has its spectrum in the right half-plane
        assert (np.linalg.eigvals(root).real > 0).all()
    # either side of the cut takes its own branch
    d = np.array([4.0, -4.0 + 1e-3j, -4.0 - 1e-3j, 0.5j])
    np.testing.assert_allclose(principal_sqrt(np.diag(d))[0], np.diag(np.sqrt(d)), atol=1e-12)


def test_principal_sqrt_stack_rows_equal_single_matrices():
    rng = _rng(32)
    stack = np.stack([_off_the_negative_axis(rng, 3) for _ in range(5)] + [np.eye(3)])
    before = stack.copy()
    root, inv_root = principal_sqrt(stack)
    np.testing.assert_array_equal(stack, before)
    for k, a in enumerate(stack):
        np.testing.assert_array_equal(root[k], principal_sqrt(a)[0])
        np.testing.assert_array_equal(inv_root[k], principal_sqrt(a)[1])


def test_principal_sqrt_raises_on_the_negative_axis():
    with pytest.raises(SingularMatrix, match="no principal square root"):
        principal_sqrt(np.diag([1.0, -4.0]))


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


@pytest.mark.parametrize(
    "entry, message",
    [
        (["0.5", 1.0], "expected a number, got '0.5'"),
        ([0.5, True], "expected a number, got True"),
        ([float("nan"), 0.0], "matrix JSON entries must be finite, got nan"),
        ([0.0, float("inf")], "matrix JSON entries must be finite, got inf"),
        ([-float("inf"), 0.0], "matrix JSON entries must be finite, got -inf"),
        ([0.0, -(10**400)], "expected a number, got an integer of 1329 bits"),
    ],
)
def test_mat_json_entries_are_finite_numbers(entry, message):
    data = [[[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6], entry]]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mat_from_json({"rows": 2, "cols": 2, "data": data})
    assert mat_from_json({"rows": 1, "cols": 1, "data": [[[1, -2.5]]]}).tolist() == [[1 - 2.5j]]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_herm_eig_reconstructs(n, seed):
    a = _hermitian(_rng(seed), n, scale=2.0)
    w, v = herm_eig(a)
    assert np.all(np.diff(w) >= -1e-14)
    assert oracles.op_norm(v @ np.diag(w) @ v.conj().T - a) <= 1e-10 * max(1.0, oracles.op_norm(a))
    assert oracles.op_norm(v.conj().T @ v - np.eye(n)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_operator_norm_matches_reference(n, seed):
    rng = _rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert operator_norm(m) == pytest.approx(oracles.op_norm(m), rel=1e-10)


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_operator_norm_is_unitarily_invariant(n, seed):
    rng = _rng(seed)
    m = 3.0 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    u, v = _unitary(rng, n), _unitary(rng, n)
    assert abs(operator_norm(u @ m @ v) - operator_norm(m)) <= 1e-10 * max(1.0, operator_norm(m))


def test_stacks_match_rows():
    rng = _rng(9)
    herms = np.stack([_hermitian(rng, 3) + 4.0 * k * np.eye(3) for k in range(4)])
    gens = np.stack([_hermitian(rng, 3) + 1j * _hermitian(rng, 3) for _ in range(4)])
    positive = _positive(herms)
    assert positive.tolist() == [_positive(h) for h in herms]
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
        herm_eig(np.concatenate([good, [[[1.0, 1.0], [0.0, 1.0]]]]))
    with pytest.raises(NotPositiveDefinite):
        psd_inv_sqrt(np.concatenate([good, [-np.eye(2)]]))
    with pytest.raises(SingularMatrix):
        inverse(np.concatenate([good, [np.zeros((2, 2))]]))


def _inverse_svd_then_lu(a):
    """inverse before its LU-first rule: the singular-value rule, then the LU;
    a 1x1 matrix whose modulus is between 2^-1000 and 2^1000 inverted as 1 / a."""
    a = as_stack(a)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"cannot invert a {a.shape[-2]}x{a.shape[-1]} matrix")
    if a.shape[-1] == 1 and (2.0**-1000 < np.abs(a)).all() and (np.abs(a) < 2.0**1000).all():
        return 1.0 / a
    if not np.isfinite(a).all():
        raise FactorizationFailure("inverse failure: Array must not contain infs or NaNs")
    sv = np.linalg.svd(a, compute_uv=False)
    singular = sv[..., -1] <= SINGULAR_RATIO * sv[..., 0]
    if not np.all(~singular):
        top, bottom = sv[singular][0, [0, -1]]
        raise SingularMatrix(
            f"matrix is numerically singular (sigma_min/sigma_max = "
            f"{0.0 if top == 0.0 else bottom / top:.3e})"
        )
    return np.linalg.inv(a)


def _outcome(fn, a):
    try:
        out = fn(a)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


def _conditioned(rng, n, cond, scale=1.0):
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = scale * np.geomspace(1.0, 1.0 / cond, n)
    return (u * s) @ v.conj().T


def _inverse_cases():
    rng = _rng(21)
    conds = [10.0**e for e in range(17)] + [3e11, 9e11, 2e12, 5e12, 9.9e12, 1.01e13, 3e13]
    cases = [_conditioned(rng, n, c) for c in conds for n in (2, 3, 5)]
    cases += [np.stack([_conditioned(rng, 3, c) for c in conds])]
    cases += [
        np.zeros((1, 1)),
        np.zeros((3, 1, 1)),
        np.array([[1.0, 1.0], [1.0, 1.0]]),  # exact zero pivot
        np.array([[0.0, 1.0], [1.0, 0.0]]),  # zero leading entry, pivoted away
        np.array([[0.0, 0.0], [0.0, 1.0]]),
        np.array([[np.nan]]),
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[np.inf]]),
        np.array([[complex(1.0, np.inf)]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[-np.inf, 1.0], [2.0, np.inf]]),
        np.diag([1.0, 1.0, np.inf]),  # its LU inverse was the finite diag(1, 1, 0)
        np.array([[5e-324]]),
        np.array([[1e-320, 0.0], [0.0, 1.0]]),
    ]
    for scale in (1e-300, 1e-200, 1e-150, 1e150, 1e200, 1e300):
        cases += [_conditioned(rng, n, c, scale) for c in (1.0, 1e6, 1e12, 1e14) for n in (1, 2, 4)]
    good = np.stack([_conditioned(rng, 3, 10.0) for _ in range(4)])
    for bad in (np.zeros((3, 3)), np.full((3, 3), np.nan), np.diag([1.0, 1.0, np.inf]),
                _conditioned(rng, 3, 5e12), _conditioned(rng, 3, 1e15), 1e200 * good[0]):
        for k in (0, 2, 4):
            cases.append(np.insert(good, k, bad, axis=0))
    return cases


def test_inverse_equals_the_svd_then_lu_rule():
    # same class and message, or bitwise the same values, as the
    # singular-value rule run first; and no warning at any scale
    cases = _inverse_cases()
    for a in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = _outcome(_inverse_svd_then_lu, a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(inverse, a) == expected, a
    raised = {_outcome(inverse, a)[0] for a in cases}
    assert raised == {np.dtype(complex), SingularMatrix, FactorizationFailure}
    for bad in (np.array([[np.nan]]), np.diag([1.0, 1.0, np.inf]), np.stack([np.eye(3), np.diag([1.0, 1.0, np.inf])])):
        with pytest.raises(FactorizationFailure, match="infs or NaNs"):
            inverse(bad)


def test_inverse_skips_the_svd_when_the_lu_is_well_conditioned(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    rng = _rng(4)
    inverse(np.stack([_conditioned(rng, 4, 1e11) for _ in range(3)]))
    inverse(np.array([[2.0 + 1.0j]]))
    assert calls == []
    inverse(np.stack([_conditioned(rng, 4, 1e11), _conditioned(rng, 4, 3e12)]))
    assert calls == [1]


@pytest.mark.parametrize("shape", [(1, 1), (81, 1, 1), (41, 2, 1, 1)], ids=str)
def test_a_1x1_inverse_is_the_reciprocal_without_a_lapack_call(monkeypatch, shape):
    # sigma_min = sigma_max on a 1 x 1 matrix, so a nonzero one in range is inverted by Smith's division
    calls = []
    for name in ("inv", "svd"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, fn=fn, name=name, **kw: calls.append(name) or fn(*a, **kw))
    rng = _rng(22)
    scales = np.array([1e-200, 1e-8, 1.0, 1e8, 1e200, 1e300])
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * rng.choice(scales, shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = inverse(a)
    want = 1.0 / a
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert calls == []
    lapack = np.linalg.inv(a)
    assert (np.abs(got - lapack) <= 2.0 * np.finfo(float).eps * np.abs(lapack)).all()
    last = (-1,) * len(shape)  # the last entry, so that the rows before it are fine
    for bad, error, message in (
        (0.0, SingularMatrix, r"matrix is numerically singular (sigma_min/sigma_max = 0.000e+00)"),
        (np.inf, FactorizationFailure, "inverse failure: Array must not contain infs or NaNs"),
        (complex(1.0, np.nan), FactorizationFailure, "inverse failure: Array must not contain infs or NaNs"),
    ):
        broken = a.copy()
        broken[last] = bad
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            inverse(broken)
    # out of range, an entry takes the LU as it does alone, with no warning; the others stay reciprocals
    others = np.arange(a.size).reshape(shape) != a.size - 1
    for extreme in (1e-310, 1e-305j, 1e305, complex(1e308, 1e308)):
        mixed = a.copy()
        mixed[last] = extreme
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inverse(mixed)
            alone = np.linalg.inv(np.full((1, 1), extreme, dtype=complex))
        assert got[last].tobytes() == alone.tobytes()
        assert got[others].tobytes() == want[others].tobytes()


def test_is_singular_is_the_rule_inverse_raises_on():
    rng = _rng(23)
    conds = [1.0, 1e6, 9.9e12, 1.01e13, 1e15]
    stack = np.stack([_conditioned(rng, 3, c) for c in conds] + [np.zeros((3, 3))])
    assert is_singular(stack).tolist() == [False, False, False, True, True, True]
    assert is_singular(np.eye(2)) is False and is_singular(np.zeros((1, 1))) is True
    for m in stack:
        if is_singular(m):
            with pytest.raises(SingularMatrix):
                inverse(m)
        else:
            inverse(m)
    with pytest.raises(FactorizationFailure, match="^inverse failure: Array must not contain infs or NaNs$"):
        is_singular(np.array([[np.nan]]))


def _float_values():
    neg_nan = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0]
    return [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.5, -2.0, 1e308,
            np.inf, -np.inf, np.nan, neg_nan]


def test_herm_eigvals_is_eigvalsh_bitwise():
    vals = _float_values()
    for dtype in (np.complex128, np.float64, np.complex64, np.float32):
        with np.errstate(over="ignore"):  # 1e308 is inf in single precision
            parts = np.array(vals).astype(np.empty(0, dtype).real.dtype)
        h = np.zeros((len(vals), len(vals), 1, 1), dtype=dtype)
        h.real = parts[:, None, None, None]
        if np.iscomplexobj(h):
            h.imag = parts[None, :, None, None]
        for stack in (h, h[0], h[0, 0]):
            got, want = herm_eigvals(stack), np.linalg.eigvalsh(stack)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    rng = _rng(5)
    for n in (2, 3, 5):
        for stack in (_hermitian(rng, n), np.stack([_hermitian(rng, n) for _ in range(4)])):
            np.testing.assert_array_equal(herm_eigvals(stack), np.linalg.eigvalsh(stack))
    # the result is a new array, not a view of the input
    h = np.array([[[3.0 + 0.0j]]])
    herm_eigvals(h)[0, 0] = 7.0
    assert h[0, 0, 0] == 3.0


def _package_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(Path(ncmetric.__file__).parent.glob("*.py"))}


def test_every_module_constant_is_read_by_code():
    # a tolerance or budget that only a docstring names is enforced nowhere
    trees = _package_trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{name}: {target.id}"
        for name, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(target, ast.Name) and target.id.isupper() and target.id not in read
    ]
    assert unread == []


def test_no_function_imports_from_the_package():
    # a function-local import hides a dependency between modules, and the
    # cycle it may close, from the imports at the top of the file
    offenders = set()
    for name, tree in _package_trees().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ncmetric"))
                    or isinstance(node, ast.Import) and any(a.name.split(".")[0] == "ncmetric" for a in node.names)
                ):
                    offenders.add(f"{name}:{node.lineno}")
    assert sorted(offenders) == []


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore keeps a name to its module; a rule that two
    # modules need gets a public owner
    offenders = []
    for name, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ncmetric")):
                offenders += [f"{name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []


# each module's package-internal imports: freeprob, the free-probability
# layer, stands on matcore and ncpoint alone, and a new edge between
# modules is a deliberate edit of this table
_IMPORTS = {
    "__init__": {"domains", "freeprob", "matcore", "metric", "ncfunc", "ncpoint", "props", "sampling"},
    "cli": {"domains", "freeprob", "matcore", "metric", "ncpoint", "props", "sampling"},
    "domains": {"matcore", "ncfunc", "ncpoint", "sampling"},
    "freeprob": {"matcore", "ncpoint"},
    "matcore": set(),
    "metric": {"domains", "matcore", "ncfunc", "ncpoint"},
    "ncfunc": {"matcore", "ncpoint"},
    "ncpoint": {"matcore"},
    "props": {"domains", "freeprob", "matcore", "metric", "ncfunc", "ncpoint", "sampling"},
    "sampling": {"matcore", "ncpoint"},
}


def _internal_imports(tree) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ncmetric")):
            # from .x import ..., from . import x, and their absolute forms
            module = (node.module or "").removeprefix("ncmetric").strip(".")
            out |= {module.split(".")[0]} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("ncmetric.")}
    return out


def test_each_module_imports_only_the_modules_pinned_for_it():
    got = {name.removesuffix(".py"): _internal_imports(tree) for name, tree in _package_trees().items()}
    assert got == _IMPORTS


def test_only_matcore_calls_the_lapack_choke_points():
    # eigvalsh, eigh, eigvals, svd, inv, cond and cholesky are called, and a
    # LinAlgError is seen, in matcore alone, behind herm_eigvals, herm_eig,
    # spectrum, operator_norm, condition_number, is_singular, inverse and
    # whitener, which hold to one rule for numerical failure; numpy.linalg is
    # reached as np.linalg only, so no alias slips past
    choke = {"eigvalsh", "eigh", "eigvals", "svd", "inv", "cond", "cholesky"}
    offenders = []
    for name, tree in _package_trees().items():
        if name == "matcore.py":
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute) and node.attr in choke
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                or isinstance(node, ast.Attribute) and node.attr == "LinAlgError"
                or isinstance(node, ast.Name) and node.id == "LinAlgError"
                or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
                or isinstance(node, ast.Import) and any(a.name.startswith("numpy.") for a in node.names)
            ):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_only_ncpoint_asks_if_a_point_is_single_and_only_members_calls_inside():
    # a single point is a stack of one (ncpoint.rows, ncpoint.per_row), and
    # every membership test goes through domains.members
    src = Path(ncmetric.__file__).parent
    offenders = []

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, path, child.name)
                continue
            where = f"{path.name}:{getattr(child, 'lineno', '?')}"
            if (
                isinstance(child, ast.Attribute) and child.attr == "ndim"
                and isinstance(child.value, ast.Attribute) and child.value.attr == "mat"
                and path.name != "ncpoint.py"
            ):
                offenders.append(f"{where}: .mat.ndim")
            if (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr == "_inside" and (path.name, owner) != ("domains.py", "members")
            ):
                offenders.append(f"{where}: _inside called in {owner}")
            visit(child, path, owner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert offenders == []


def test_condition_number_is_cond_bitwise():
    rng = _rng(12)
    for n in range(1, 13):
        for _ in range(25):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            # the intertwiner shape check_axioms draws, and a plain random matrix
            for s in (np.eye(n) + 0.2 * g / max(1.0, operator_norm(g)), g):
                assert condition_number(s) == float(np.linalg.cond(s))
    stack = np.stack([np.eye(3) + 0.1 * k * np.diag([1.0, 2.0, 3.0]) for k in range(4)])
    np.testing.assert_array_equal(condition_number(stack), np.linalg.cond(stack))

