from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncmetric.domains import (
    BallKernel,
    ComposedBallKernel,
    ComposedHalfPlaneKernel,
    HalfPlaneKernel,
    KernelDomain,
    NilpotentCone,
    NormBound,
    PointOutsideDomain,
    SpectralDisk,
    ball_delta,
    ball_domain,
    contains,
    gram,
    halfplane_delta,
    halfplane_domain,
    kernel_diffs,
    kernel_eval,
    members,
    require_inside,
)
from ncmetric.freeprob import ScalarLaw, ScalarPower, picard_ratio, subordination_solve
from ncmetric.matcore import from_json
from ncmetric.metric import delta_auto, delta_kernel, delta_ray, delta_routes, delta_tilde
from ncmetric.ncfunc import MoebiusBall, Polynomial, delta_f, eval_point
from ncmetric.ncpoint import DimMismatch, NcDirection, NcPoint, direction, point


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _cmat(rng, rows, cols=None, scale=1.0):
    cols = rows if cols is None else cols
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return scale * g / np.sqrt(2)


def test_ball_kernel_at_origin_is_identity():
    z = point(np.zeros((2, 2)))
    np.testing.assert_allclose(kernel_eval(BallKernel(), z, z), np.eye(2))


def test_halfplane_kernel_at_i_is_one():
    a = point([[1j]])
    np.testing.assert_allclose(kernel_eval(HalfPlaneKernel(), a, a), [[1.0]])


def test_ball_kernel_scalar_half():
    a = point([[0.5]])
    np.testing.assert_allclose(kernel_eval(BallKernel(), a, a), [[0.75]])


def test_kernel_eval_rejects_bad_p_shape():
    a = point(np.zeros((2, 2)))
    with pytest.raises(DimMismatch):
        kernel_eval(BallKernel(), a, a, np.zeros((2, 3)))


def test_ball_membership_booleans():
    dom = ball_domain()
    assert contains(dom, point([[0.5]]))
    assert not contains(dom, point([[1.0]]))


def test_halfplane_membership_booleans():
    dom = halfplane_domain()
    assert contains(dom, point([[1j]]))
    assert not contains(dom, point([[-1j]]))


def test_scaled_ball_domain_rescales_membership():
    dom = ball_domain(2.0)
    assert contains(dom, point([[1.5]]))
    assert not contains(dom, point([[2.5]]))


def test_graded_disk_accepts_big_but_not_corner():
    # norm 3 clears the level-4 cap yet violates the level-2 cap
    dom = SpectralDisk(0.0, 1.0, NormBound("level", 1.0))
    big = np.zeros((4, 4))
    big[0, 2] = 3.0
    big[1, 3] = 0.5
    small = np.array([[0.0, 3.0], [0.0, 0.0]])
    assert contains(dom, point(big))
    assert not contains(dom, point(small))


def test_nilpotent_cone_membership():
    strict = np.array([[0.0, 2.0, 1.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    assert contains(NilpotentCone(), point(strict))
    assert not contains(NilpotentCone(), point(np.eye(2)))


@pytest.mark.parametrize(
    "domain",
    [
        ball_domain(),
        halfplane_domain(),
        KernelDomain(ComposedBallKernel(MoebiusBall(0.5))),
        SpectralDisk(0.0, 0.5, NormBound("constant", 1.0)),
        NilpotentCone(),
    ],
)
def test_membership_of_a_stack_matches_rows(domain):
    rng = _rng(12)
    rows = [0.4 * _cmat(rng, 2), 0.9 * np.eye(2), 1j * np.eye(2), 2.0 * np.eye(2),
            np.array([[0.0, 3.0], [0.0, 0.0]]), _cmat(rng, 2)]
    # 2 I sits on the pole of the Moebius map: that row cannot be evaluated
    stack = NcPoint(1, 2, np.stack(rows))
    got = contains(domain, stack)
    assert got.dtype == bool and got.shape == (len(rows),)
    assert got.tolist() == [contains(domain, point(r)) for r in rows]
    assert True in got.tolist() and False in got.tolist()
    # each row's score is its score alone, the failed stack's rows included
    inside, score, _ = members(domain, stack)
    assert inside.tolist() == got.tolist()
    alone = [members(domain, NcPoint(1, 2, r[None]))[1][0] for r in rows]
    assert np.array_equal(score, alone, equal_nan=True)
    known = ~np.isnan(score)
    if isinstance(domain, NilpotentCone):
        assert not known.any()
    elif isinstance(domain, KernelDomain):  # positive exactly inside; NaN only where evaluation fails
        assert ((score > 0.0) == got)[known].all() and known.sum() >= len(rows) - 1
    else:  # the disk's score is its norm cap's: positive wherever the point is inside
        assert known.all() and (score > 0.0)[got].all() and not (score > 0.0).all()


def test_spectral_disk_stack_matches_rows_on_each_failing_test():
    disk = SpectralDisk(0.0, 0.5, NormBound("constant", 1.0))
    rows = [
        np.diag([0.1, 0.2]),  # inside
        np.array([[0.1, 1.5], [0.0, 0.1]]),  # spectrum inside, norm over the bound
        np.diag([0.7, 0.1]),  # norm under the bound, spectrum outside
        np.array([[0.8, 1.2], [0.0, 0.1]]),  # both
        0.3 * np.eye(2) + np.array([[0.0, 0.2], [0.0, 0.0]]),  # inside
    ]
    one_by_one = [contains(disk, point(r)) for r in rows]
    assert one_by_one == [True, False, False, False, True]
    assert contains(disk, NcPoint(1, 2, np.stack(rows))).tolist() == one_by_one
    # a non-finite row fails the stacked test, and the stack is retried by halves
    rows.append(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    assert contains(disk, NcPoint(1, 2, np.stack(rows))).tolist() == one_by_one + [False]


_NON_FINITE = [np.array([[np.nan, 0.0], [0.0, 0.0]]), np.array([[0.0, np.inf], [0.0, 0.0]])]


@pytest.mark.parametrize("domain", [SpectralDisk(0.0, 0.5, NormBound("constant", 1.0)), NilpotentCone()])
@pytest.mark.parametrize("bad", _NON_FINITE)
def test_non_finite_points_are_outside_without_raising(domain, bad):
    assert contains(domain, point(bad)) is False
    good = np.array([[0.0, 0.3], [0.0, 0.0]])  # nilpotent and inside the disk
    got = contains(domain, NcPoint(1, 2, np.stack([good, bad, good])))
    assert got.tolist() == [True, False, True]
    with pytest.raises(PointOutsideDomain, match="infs or NaNs"):
        require_inside(domain, point(bad))


def test_a_disk_ray_point_that_cannot_be_evaluated_is_outside(monkeypatch):
    disk = SpectralDisk(0.0, 0.5, NormBound("constant", 1.0))
    good = np.array([[0.1, 0.9], [0.0, 0.2]])
    for bad in _NON_FINITE + [1e200 * np.eye(2)]:
        assert not contains(disk, point(bad))
        assert contains(disk, NcPoint(1, 2, np.stack([good, bad, good]))).tolist() == [True, False, True]
    svd = np.linalg.svd
    unlucky = np.array([[0.1, 0.7], [0.0, 0.2]])  # inside, but LAPACK fails on its norm

    def fails_on_unlucky(m, **kw):
        if (m == unlucky).all(axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(m, **kw)

    # matcore turns the LinAlgError into a NumericalFailure, which members reports
    monkeypatch.setattr(np.linalg, "svd", fails_on_unlucky)
    assert members(disk, NcPoint(1, 2, unlucky[None]))[::2] == ([False], ["norm failure: SVD did not converge"])
    assert contains(disk, NcPoint(1, 2, np.stack([good, unlucky, good]))).tolist() == [True, False, True]


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_a_non_finite_norm_cap_is_rejected(value):
    # an infinite cap would leave the disk's delta without a ball to exit
    with pytest.raises(ValueError, match="norm_bound value must be finite"):
        NormBound("level", value)


def test_nilpotent_bound_past_the_float_range_does_not_raise():
    big = np.array([[0.0, 1e200], [0.0, 0.0]])
    with np.errstate(over="ignore"):
        assert contains(NilpotentCone(), point(big))
        assert contains(NilpotentCone(), NcPoint(1, 2, np.stack([big, np.eye(2)]))).tolist() == [True, False]


def test_require_inside_names_the_row_of_a_stack():
    stack = NcPoint(1, 1, np.array([[[0.2]], [[0.5]], [[1.2]]]))
    require_inside(ball_domain(), NcPoint(1, 1, stack.mat[:2]))
    with pytest.raises(PointOutsideDomain, match="row 2"):
        require_inside(ball_domain(), stack, name="src")


def test_require_inside_raises_outside():
    with pytest.raises(PointOutsideDomain):
        require_inside(ball_domain(), point([[1.2]]), name="src")


_RNG = _rng(41)
_A, _C = (point(r * g / np.linalg.norm(g, 2)) for r, g in ((0.4, _cmat(_RNG, 2)), (0.3, _cmat(_RNG, 2))))
_B = direction(_cmat(_RNG, 2))
_HA, _HC = (point(g + g.conj().T + 1j * np.eye(2)) for g in (_cmat(_RNG, 2), _cmat(_RNG, 2)))
_DA, _DC = (point(np.diag(d)) for d in ([0.1, -0.2], [0.05, 0.15]))
_NA, _NC = (point(np.triu(_cmat(_RNG, 2), 1)) for _ in range(2))
_Z = point([[0.3 + 1.2j]])
_LAW, _RHO = ScalarLaw("bernoulli"), ScalarPower(2.0)
_DISK = SpectralDisk(0.0, 0.5, NormBound("constant", 1.0))
_MOEBIUS = KernelDomain(ComposedBallKernel(MoebiusBall(0.5)))
_NAN = np.array([[np.nan, 0.0], [0.0, 0.0]])

# every call the ncpoint row contract covers: (call, its single-point arguments)
_ROW_ROUTES = {
    "delta_ray ball": (partial(delta_ray, ball_domain()), (_A, _C, _B)),
    "delta_ray cone": (partial(delta_ray, NilpotentCone()), (_NA, _NC, _B)),
    "delta_kernel": (partial(delta_kernel, _MOEBIUS.kernel), (_A, _C, _B)),
    "delta_tilde": (partial(delta_tilde, HalfPlaneKernel()), (_HA, _HC)),
    "delta_auto disk": (partial(delta_auto, _DISK), (_DA, _DC, _B)),
    "delta_auto composed": (partial(delta_auto, ball_domain(0.5)), (_A, _C, _B)),
    "delta_routes ball": (partial(delta_routes, ball_domain()), (_A, _C, _B)),
    "delta_routes half-plane": (partial(delta_routes, halfplane_domain()), (_HA, _HC, direction(np.eye(2)))),
    "picard_ratio": (partial(picard_ratio, _LAW, _RHO), (_Z, subordination_solve(_LAW, _RHO, _Z)[0])),
}
# contains on single points: (domain, points, how the diagnostic each
# point's test leaves begins, or None where the test evaluates)
_ROW_MEMBERSHIP = {
    "contains ball": (ball_domain(), [_A.mat, 1.2 * np.eye(2), _C.mat, _NAN],
                      [None] * 3 + ["eigenvalue failure: Array must not contain infs or NaNs"]),
    "contains moebius pole": (_MOEBIUS, [_A.mat, 2.0 * np.eye(2), 0.9 * np.eye(2)],
                              [None, "composing function failed", None]),
    "contains disk": (_DISK, [_DA.mat, _NAN, 1e200 * np.eye(2)],
                      [None, "norm failure: Array must not contain infs or NaNs", None]),
    "contains cone": (NilpotentCone(), [_NA.mat, np.eye(2), _NAN],
                      [None, None, "norm failure: Array must not contain infs or NaNs"]),
}


def _row0(out):
    row = out[0]
    return row.item() if isinstance(row, np.generic) else row


@pytest.mark.parametrize("case", [*_ROW_ROUTES, *_ROW_MEMBERSHIP])
def test_the_row_contract(case):
    # a single-point call is row 0 of the same call on its stack of one
    if case in _ROW_ROUTES:
        call, args = _ROW_ROUTES[case]
        single = call(*args)
        stacked = call(*(replace(x, mat=x.mat[None]) for x in args))
        if case.startswith("delta_routes"):
            assert [repr(r) for r in single] == [repr(_row0(r)) for r in stacked]
        else:
            assert repr(single) == repr(_row0(stacked))
        return
    domain, mats, diagnostics = _ROW_MEMBERSHIP[case]
    inside = []
    for m, diagnostic in zip(mats, diagnostics):
        single = contains(domain, point(m))
        assert type(single) is bool and single is _row0(contains(domain, NcPoint(1, 2, m[None])))
        (got,) = members(domain, NcPoint(1, 2, m[None]))[2]
        assert (got is None) if diagnostic is None else got.startswith(diagnostic)
        inside.append(single)
        # require_inside raises exactly where contains is False, with the diagnostic
        if single:
            require_inside(domain, point(m), name="p")
        else:
            extra = f" ({got})" if got else ""
            with pytest.raises(PointOutsideDomain) as exc:
                require_inside(domain, point(m), name="p")
            assert str(exc.value) == f"p is not strictly inside the domain{extra}"
    # a stack names its first row outside, with that row's diagnostic
    stack = NcPoint(1, 2, np.stack(mats))
    assert contains(domain, stack).tolist() == inside
    first = inside.index(False)
    diagnostic = members(domain, stack)[2][first]
    assert diagnostic == members(domain, NcPoint(1, 2, stack.mat[first : first + 1]))[2][0]
    extra = f" ({diagnostic})" if diagnostic else ""
    with pytest.raises(PointOutsideDomain) as exc:
        require_inside(domain, stack, name="p")
    assert str(exc.value) == f"p row {first} is not strictly inside the domain{extra}"
    require_inside(domain, NcPoint(1, 2, stack.mat[:first]), name="p")


def _diff_setup(seed, na=2, mc=3):
    rng = _rng(seed)
    a = point(0.5 * _cmat(rng, na))
    c = point(0.5 * _cmat(rng, mc))
    b = direction(_cmat(rng, na, mc))
    return a, c, b


def test_ball_diffs_closed_form():
    a, c, b = _diff_setup(10)
    d0, d1, d01 = kernel_diffs(BallKernel(), a, c, b)
    cs = c.mat.conj().T
    bs = b.mat.conj().T
    np.testing.assert_allclose(d0, -b.mat @ cs, atol=1e-14)
    np.testing.assert_allclose(d1, -c.mat @ bs, atol=1e-14)
    np.testing.assert_allclose(d01, -b.mat @ bs, atol=1e-14)


def test_halfplane_diffs_closed_form():
    a, c, b = _diff_setup(11)
    d0, d1, d01 = kernel_diffs(HalfPlaneKernel(), a, c, b)
    np.testing.assert_allclose(d0, b.mat / 2.0j, atol=1e-14)
    np.testing.assert_allclose(d1, -b.mat.conj().T / 2.0j, atol=1e-14)
    np.testing.assert_allclose(d01, np.zeros((a.dim, a.dim)), atol=1e-14)


@pytest.mark.parametrize("half", [False, True])
def test_composed_diffs_reduce_to_difference_quotient(half):
    g = Polynomial((0.1, 0.8, 0.3))
    kernel = ComposedHalfPlaneKernel(g) if half else ComposedBallKernel(g)
    a, c, b = _diff_setup(12)
    d0, d1, d01 = kernel_diffs(kernel, a, c, b)
    dg = delta_f(g, a, c, b).mat
    gc = eval_point(g, c).mat
    if half:
        np.testing.assert_allclose(d0, dg / 2.0j, atol=1e-12)
        np.testing.assert_allclose(d1, -dg.conj().T / 2.0j, atol=1e-12)
        np.testing.assert_allclose(d01, np.zeros((a.dim, a.dim)), atol=1e-12)
    else:
        np.testing.assert_allclose(d0, -dg @ gc.conj().T, atol=1e-12)
        np.testing.assert_allclose(d1, -gc @ dg.conj().T, atol=1e-12)
        np.testing.assert_allclose(d01, -dg @ dg.conj().T, atol=1e-12)


def test_gram_respects_direct_sums():
    rng = _rng(13)
    a = point(0.6 * _cmat(rng, 2))
    c = point(0.6 * _cmat(rng, 3))
    both = np.zeros((5, 5), dtype=np.complex128)
    both[:2, :2] = a.mat
    both[2:, 2:] = c.mat
    g = gram(BallKernel(), point(both))
    np.testing.assert_allclose(g[:2, :2], gram(BallKernel(), a), atol=1e-14)
    np.testing.assert_allclose(g[2:, 2:], gram(BallKernel(), c), atol=1e-14)
    np.testing.assert_allclose(g[:2, 2:], np.zeros((2, 3)), atol=1e-14)


def test_domain_json_rejects_unknown_variant():
    with pytest.raises(ValueError):
        from_json({"variant": "torus"}, "domain")


def test_norm_bound_rules():
    assert NormBound("constant", 2.0).at_level(5) == 2.0
    assert NormBound("level", 1.5).at_level(4) == 6.0
    with pytest.raises(ValueError):
        NormBound("cubic", 1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.05, max_value=0.9),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_ball_membership_tracks_norm(n, target, seed):
    rng = _rng(seed)
    g = _cmat(rng, n)
    m = target * g / max(np.linalg.norm(g, 2), 1e-12)
    assert contains(ball_domain(), point(m))
    assert not contains(ball_domain(), point(m / target * 1.1))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_free_gram_block_matches_self_gram(n, seed):
    # bottom-left block of the derivative evaluation reproduces gram(c)
    rng = _rng(seed)
    a = point(0.5 * _cmat(rng, n))
    c = point(0.5 * _cmat(rng, n))
    b = direction(_cmat(rng, n))
    for kernel in (BallKernel(), HalfPlaneKernel()):
        d0, d1, d01 = kernel_diffs(kernel, a, c, b)
        assert d0.shape == (n, n) and d1.shape == (n, n) and d01.shape == (n, n)


def _unitary(rng, n):
    q, r = np.linalg.qr(_cmat(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("g", [1e-2, 1e-4, 1e-6, 1e-8])
def test_closed_forms_near_the_boundary_meet_the_diagonal_value(g):
    # a = U diag(1 - g_a) V* and c = W diag(1 - g_c) X* on the ball, and
    # b = U diag(beta) X*, make the closed form's operand diagonal:
    # delta = max beta_i / sqrt(g_a,i (2 - g_a,i) g_c,i (2 - g_c,i)), with no
    # cancellation; on the half-plane Im a = U diag(g_a) U* and Im c =
    # W diag(g_c) W* give max beta_i / (2 sqrt(g_a,i g_c,i)). Rounding the
    # points to floats alone moves delta by about eps / g relative.
    eps = np.finfo(float).eps
    rng = _rng(17)
    n = 3
    for _ in range(10):
        u, v, w, x = (_unitary(rng, n) for _ in range(4))
        ga = np.array([g, *rng.uniform(0.2, 0.9, n - 1)])
        gc = np.array([g * rng.uniform(1.0, 2.0), *rng.uniform(0.2, 0.9, n - 1)])
        beta = rng.uniform(0.5, 1.0, n)
        da, dc = ga * (2.0 - ga), gc * (2.0 - gc)
        a = NcPoint(1, n, u @ np.diag(1.0 - ga) @ v.conj().T)
        c = NcPoint(1, n, w @ np.diag(1.0 - gc) @ x.conj().T)
        cases = [
            (ball_delta(a, c, NcDirection(1, n, n, u @ np.diag(beta) @ x.conj().T)), beta / np.sqrt(da * dc)),
            (ball_delta(a, a, NcDirection(1, n, n, u @ np.diag(beta) @ v.conj().T)), beta / da),
        ]
        a = NcPoint(1, n, rng.uniform(-1.0, 1.0) * np.eye(n) + 1j * (u @ np.diag(ga) @ u.conj().T))
        c = NcPoint(1, n, rng.uniform(-1.0, 1.0) * np.eye(n) + 1j * (w @ np.diag(gc) @ w.conj().T))
        cases += [
            (halfplane_delta(a, c, NcDirection(1, n, n, u @ np.diag(beta) @ w.conj().T)),
             beta / (2.0 * np.sqrt(ga * gc))),
            (halfplane_delta(a, a, NcDirection(1, n, n, u @ np.diag(beta) @ u.conj().T)), beta / (2.0 * ga)),
        ]
        for got, diagonal in cases:
            exact = diagonal.max()
            assert abs(got - exact) <= 8.0 * eps / g * exact
