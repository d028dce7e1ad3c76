import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncmetric.matcore import from_json, to_json

from ncmetric.ncpoint import (
    BaseDimMismatch,
    DimMismatch,
    NcDirection,
    NcPoint,
    NotUnitary,
    amplify,
    block_upper,
    direct_sum,
    direction,
    point,
    unitary_conjugate,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _cmat(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_point_infers_level():
    p = point(np.zeros((6, 6)), base_dim=2)
    assert p.level == 3 and p.dim == 6


def test_point_rejects_ragged_dims():
    with pytest.raises(DimMismatch):
        point(np.zeros((5, 5)), base_dim=2)


def test_scalar_promotes_to_level_one():
    p = point(0.25)
    assert (p.base_dim, p.level, p.mat.shape) == (1, 1, (1, 1))


def test_direct_sum_levels_add():
    a = point(np.eye(2))
    c = point(3.0 * np.eye(3))
    s = direct_sum(a, c)
    assert s.level == 5
    np.testing.assert_allclose(s.mat, np.diag([1.0, 1.0, 3.0, 3.0, 3.0]))


def test_direct_sum_needs_matching_base():
    with pytest.raises(BaseDimMismatch):
        direct_sum(point(np.eye(2), base_dim=2), point(np.eye(2), base_dim=1))


def test_amplify_is_kron():
    rng = _rng(2)
    z = _cmat(rng, 2, 2)
    b = point(_cmat(rng, 3, 3))
    big = amplify(z, b)
    assert big.level == 6
    np.testing.assert_allclose(big.mat, np.kron(z, b.mat))


def test_block_upper_corner_placement():
    rng = _rng(3)
    a = point(_cmat(rng, 2, 2))
    c = point(_cmat(rng, 1, 1))
    b = direction(_cmat(rng, 2, 1))
    m = block_upper(a, b, c)
    assert m.level == 3
    np.testing.assert_allclose(m.mat[:2, :2], a.mat)
    np.testing.assert_allclose(m.mat[:2, 2:], b.mat)
    np.testing.assert_allclose(m.mat[2:, 2:], c.mat)
    np.testing.assert_allclose(m.mat[2:, :2], 0.0)


def test_block_upper_checks_direction_shape():
    a = point(np.eye(2))
    c = point(np.eye(2))
    bad = direction(np.zeros((2, 4)))
    with pytest.raises(DimMismatch):
        block_upper(a, bad, c)


def test_unitary_conjugate_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        unitary_conjugate(2.0 * np.eye(2), point(np.eye(2)))


def test_unitary_conjugate_acts_per_level():
    rng = _rng(4)
    p = point(_cmat(rng, 4, 4), base_dim=2)
    q, _ = np.linalg.qr(_cmat(rng, 2, 2))
    out = unitary_conjugate(q, p)
    u = np.kron(q, np.eye(2))
    np.testing.assert_allclose(out.mat, u @ p.mat @ u.conj().T)


def test_point_json_round_trip():
    rng = _rng(5)
    p = point(_cmat(rng, 4, 4), base_dim=2)
    back = from_json(to_json(p), "point")
    assert (back.base_dim, back.level) == (2, 2)
    np.testing.assert_allclose(back.mat, p.mat)


def test_direction_json_round_trip():
    rng = _rng(6)
    b = NcDirection(2, 1, 2, _cmat(rng, 2, 4))
    back = from_json(to_json(b), "direction")
    assert (back.base_dim, back.row_level, back.col_level) == (2, 1, 2)
    np.testing.assert_allclose(back.mat, b.mat)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_direct_sum_spectrum_is_union(d, n, m, seed):
    rng = _rng(seed)
    a = NcPoint(d, n, _cmat(rng, n * d, n * d))
    c = NcPoint(d, m, _cmat(rng, m * d, m * d))
    merged = np.sort_complex(np.linalg.eigvals(direct_sum(a, c).mat))
    split = np.sort_complex(
        np.concatenate([np.linalg.eigvals(a.mat), np.linalg.eigvals(c.mat)])
    )
    np.testing.assert_allclose(merged, split, atol=1e-8)


def _points(rng, d, level, count):
    return [NcPoint(d, level, _cmat(rng, level * d, level * d)) for _ in range(count)]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=2),
    st.lists(st.integers(min_value=1, max_value=2), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_direct_sum_is_associative_to_the_bit(d, levels, seed):
    rng = _rng(seed)
    a, b, c = (_points(rng, d, level, 1)[0] for level in levels)
    left, right = direct_sum(direct_sum(a, b), c), direct_sum(a, direct_sum(b, c))
    assert left.level == right.level == sum(levels)
    np.testing.assert_array_equal(left.mat, right.mat)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_amplify_is_a_mixed_product(d, level, k, seed):
    # kron(z1, a) kron(z2, c) = kron(z1 z2, a c), relative to 1e-12 in operator norm
    rng = _rng(seed)
    a, c = (NcPoint(d, level, p.mat * (0.75 / np.linalg.norm(p.mat, 2))) for p in _points(rng, d, level, 2))
    z1, z2 = _cmat(rng, k, k) / np.sqrt(2.0), _cmat(rng, k, k) / np.sqrt(2.0)
    lhs = amplify(z1, a).mat @ amplify(z2, c).mat
    rhs = np.kron(z1 @ z2, a.mat @ c.mat)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-12 * max(1.0, np.linalg.norm(rhs, 2))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_unitary_conjugate_keeps_the_spectrum(d, level, seed):
    rng = _rng(seed)
    g = 2.0 * _cmat(rng, level * d, level * d)
    h = NcPoint(d, level, (g + g.conj().T) / 2)
    q, _ = np.linalg.qr(_cmat(rng, level, level))
    after = np.linalg.eigvalsh(unitary_conjugate(q, h).mat)
    np.testing.assert_allclose(after, np.linalg.eigvalsh(h.mat), rtol=0, atol=1e-9)
