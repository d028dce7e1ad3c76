import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncmetric.domains
import ncmetric.metric
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
    halfplane_domain,
)
from ncmetric.matcore import NcmetricError, operator_norm
from ncmetric.metric import (
    RAY_TOL,
    DeltaResult,
    NestingViolation,
    PathBlocked,
    check_contraction,
    compare_nested,
    d_upper,
    delta_auto,
    delta_auto_tilde,
    delta_closed,
    delta_kernel,
    delta_ray,
    delta_tilde,
    dtilde_upper,
)
from ncmetric.ncfunc import (
    CayleyLike,
    DomainViolation,
    MoebiusBall,
    Polynomial,
    delta_f,
    eval_point,
)
from ncmetric.ncpoint import DimMismatch, NcDirection, NcPoint, direction, point
from ncmetric.domains import sample_triples

import oracles

RAY_TEST_TOL = 1e-7
EPS = np.finfo(float).eps


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _cmat(rng, rows, cols=None, scale=1.0):
    cols = rows if cols is None else cols
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return scale * g / np.sqrt(2)


def _ball_triple(rng, n, fill=0.6):
    a = _cmat(rng, n)
    c = _cmat(rng, n)
    a = fill * rng.uniform(0.2, 1.0) * a / np.linalg.norm(a, 2)
    c = fill * rng.uniform(0.2, 1.0) * c / np.linalg.norm(c, 2)
    return point(a), point(c), direction(_cmat(rng, n))


def _hp_point(rng, n):
    h = _cmat(rng, n)
    h = (h + h.conj().T) / 2
    w = _cmat(rng, n)
    return point(h + 1j * (w @ w.conj().T / n + 0.4 * np.eye(n)))


def test_tilde_ball_frozen_value():
    res = delta_tilde(BallKernel(), point([[0.0]]), point([[0.5]]))
    assert res.method == "closed_ball"
    assert res.value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)


def test_halfplane_closed_frozen_value():
    res = delta_closed(HalfPlaneKernel(), point([[1j]]), point([[1j]]), direction([[1.0]]))
    assert res.value == pytest.approx(0.5, abs=1e-14)


def test_ray_matches_closed_ball():
    rng = _rng(20)
    for n in (1, 2, 3):
        a, c, b = _ball_triple(rng, n)
        ray = delta_ray(ball_domain(), a, c, b, tol=RAY_TEST_TOL)
        closed = delta_closed(BallKernel(), a, c, b)
        assert ray.value == pytest.approx(closed.value, abs=5e-6)
        lo, hi = ray.bracket
        assert lo <= closed.value <= hi + 5e-6


def test_ray_matches_closed_halfplane():
    rng = _rng(21)
    for n in (1, 2):
        a, c = _hp_point(rng, n), _hp_point(rng, n)
        b = direction(_cmat(rng, n))
        ray = delta_ray(halfplane_domain(), a, c, b, tol=RAY_TEST_TOL)
        closed = delta_closed(HalfPlaneKernel(), a, c, b)
        assert ray.value == pytest.approx(closed.value, abs=5e-6)


def test_ray_matches_independent_root_finder():
    rng = _rng(22)
    a, c, b = _ball_triple(rng, 2)
    ray = delta_ray(ball_domain(), a, c, b, tol=RAY_TEST_TOL)
    want = oracles.ray_delta_by_margin_root(oracles.ball_margin, a.mat, c.mat, b.mat)
    assert ray.value == pytest.approx(want, abs=1e-6)
    ah, ch = _hp_point(rng, 2), _hp_point(rng, 2)
    bh = direction(_cmat(rng, 2))
    rayh = delta_ray(halfplane_domain(), ah, ch, bh, tol=RAY_TEST_TOL)
    wanth = oracles.ray_delta_by_margin_root(oracles.halfplane_margin, ah.mat, ch.mat, bh.mat)
    assert rayh.value == pytest.approx(wanth, abs=1e-6)


def test_ray_zero_direction():
    a = point([[0.2]])
    res = delta_ray(ball_domain(), a, a, direction([[0.0]]))
    assert res.value == 0.0
    assert res.note == "zero direction"


def test_ray_reports_zero_on_unbounded_ray():
    # nilpotent blocks stay nilpotent for every scaling of the corner
    zero = point([[0.0]])
    res = delta_ray(NilpotentCone(), zero, zero, direction([[1.0]]))
    assert res.value == 0.0
    assert res.note == "zero within search cap"


def test_kernel_formula_matches_closed_forms():
    rng = _rng(23)
    a, c, b = _ball_triple(rng, 2)
    got = delta_kernel(BallKernel(), a, c, b).value
    assert got == pytest.approx(delta_closed(BallKernel(), a, c, b).value, abs=1e-10)
    ah, ch = _hp_point(rng, 2), _hp_point(rng, 2)
    bh = direction(_cmat(rng, 2))
    goth = delta_kernel(HalfPlaneKernel(), ah, ch, bh).value
    assert goth == pytest.approx(delta_closed(HalfPlaneKernel(), ah, ch, bh).value, abs=1e-10)


def test_composed_ball_three_routes_agree():
    # radius-1/2 ball as a composed kernel: ray, kernel formula, and the
    # closed form on rescaled data must coincide
    rng = _rng(24)
    kernel = ComposedBallKernel(Polynomial((0.0, 2.0)))
    dom = KernelDomain(kernel)
    a, c, b = _ball_triple(rng, 2, fill=0.3)
    via_kernel = delta_kernel(kernel, a, c, b).value
    via_ray = delta_ray(dom, a, c, b, tol=RAY_TEST_TOL).value
    scaled = delta_closed(
        BallKernel(),
        point(2.0 * a.mat),
        point(2.0 * c.mat),
        direction(2.0 * b.mat),
    ).value
    assert via_kernel == pytest.approx(scaled, abs=1e-10)
    assert via_ray == pytest.approx(via_kernel, abs=5e-6)


def test_delta_auto_dispatch_methods():
    rng = _rng(25)
    a, c, b = _ball_triple(rng, 2, fill=0.3)
    assert delta_auto(ball_domain(), a, c, b).method == "closed_ball"
    composed = KernelDomain(ComposedBallKernel(Polynomial((0.0, 2.0))))
    assert delta_auto(composed, a, c, b).method == "kernel"
    disk = SpectralDisk(0.0, 1.0, NormBound("constant", 1.0))
    assert delta_auto(disk, a, c, b).method == "exact"
    zero = point(np.zeros((2, 2)))
    assert delta_auto(NilpotentCone(), zero, zero, b) == DeltaResult(0.0, "exact", (0.0, 0.0), 0)


def test_delta_positive_homogeneity():
    rng = _rng(26)
    a, c, b = _ball_triple(rng, 2)
    b3 = direction(3.0 * b.mat)
    base = delta_closed(BallKernel(), a, c, b).value
    assert delta_closed(BallKernel(), a, c, b3).value == pytest.approx(3.0 * base, rel=1e-12)
    ray3 = delta_ray(ball_domain(), a, c, b3, tol=RAY_TEST_TOL).value
    assert ray3 == pytest.approx(3.0 * base, abs=2e-5)


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
def test_division_distance_ordering(r):
    a, c = point([[0.0]]), point([[r]])
    bound = dtilde_upper(ball_domain(), a, c, refinement_budget=5)
    single = r / math.sqrt(1.0 - r * r)
    assert bound.stage_values[0] == pytest.approx(single, abs=1e-9)
    target = math.atanh(r)
    assert bound.value <= bound.stage_values[0] + 1e-12
    assert target - 1e-9 <= bound.value <= target + 1e-3
    # the bound is the best straight-line stage, returned with its division
    assert bound.value == min(bound.stage_values)
    m = [0, 1, 2, 4, 8, 16, 32][bound.stage_values.index(bound.value)]
    pts = bound.division
    assert len(pts) == m + 2
    for k, p in enumerate(pts):
        t = k / (m + 1)
        np.testing.assert_allclose(p.mat, (1.0 - t) * a.mat + t * c.mat, atol=1e-15)


def test_division_bound_at_coarse_refinement():
    # stages with 0, 1, 2 interior points; the last is the best
    bound = dtilde_upper(ball_domain(), point([[0.0]]), point([[0.6]]), refinement_budget=1)
    assert bound.stage_values[-1] == pytest.approx(0.6996142096206097, rel=1e-12)
    assert bound.value == bound.stage_values[-1]
    got = [complex(p.mat[0, 0]) for p in bound.division]
    np.testing.assert_allclose(got, [0.0, 0.2, 0.4, 0.6], atol=1e-15)


def test_negative_refinement_budget_is_value_error(monkeypatch):
    # budget 0 is the two stages with 0 and 1 interior points
    bound = dtilde_upper(ball_domain(), point([[0.0]]), point([[0.6]]), refinement_budget=0)
    assert len(bound.stage_values) == 2 and bound.value == min(bound.stage_values)

    def no_membership_test(*args, **kwargs):
        raise AssertionError("a membership test ran")

    for name in ("require_inside", "contains", "members"):
        monkeypatch.setattr(ncmetric.metric, name, no_membership_test)
    with pytest.raises(ValueError, match="^refinement_budget must be at least 0, got -3$"):
        dtilde_upper(ball_domain(), point([[0.0]]), point([[0.6]]), refinement_budget=-3)


def test_path_distance_straight_ball():
    a, c = point([[0.0]]), point([[0.5]])
    got = d_upper(ball_domain(), a, c, quad_points=256)
    assert got.value == pytest.approx(math.atanh(0.5), abs=1e-4)
    assert got.points_used == 256
    assert got.quad_estimate < 1e-3


def test_path_distance_halfplane_segment():
    a, c = point([[1j]]), point([[2j]])
    got = d_upper(halfplane_domain(), a, c, quad_points=256)
    assert got.value == pytest.approx(0.5 * math.log(2.0), abs=1e-4)


def test_path_blocked_at_an_endpoint():
    # an endpoint outside is an input error, as on every other route
    inside, outside = point([[0.2]]), point([[1.5]])
    with pytest.raises(PointOutsideDomain, match=r"^a is not strictly inside the domain$"):
        d_upper(ball_domain(), outside, inside)
    with pytest.raises(PointOutsideDomain, match=r"^c is not strictly inside the domain$"):
        d_upper(ball_domain(), inside, outside)
    with pytest.raises(DimMismatch, match=r"^endpoints must live at the same level and base$"):
        d_upper(ball_domain(), inside, point(0.2 * np.eye(2)))


@pytest.mark.parametrize("a, c", [(point([[1.5]]), point([[0.2]])), (point([[0.2]]), point([[1.5]]))])
def test_both_distance_drivers_reject_an_outside_endpoint_alike(a, c):
    with pytest.raises(NcmetricError) as upper:
        d_upper(ball_domain(), a, c)
    with pytest.raises(NcmetricError) as tilde:
        dtilde_upper(ball_domain(), a, c)
    assert type(upper.value) is type(tilde.value) is PointOutsideDomain
    assert str(upper.value) == str(tilde.value)


# (value, quad_estimate, points_used) at quad_points 1, 7 and 256, frozen
# while d_upper still took piecewise-linear paths with this segment as default
# (ball, composed and disk re-pinned when delta whitened with a Cholesky
# factor, not an eigendecomposition; D_UPPER_EIGH holds what they read before)
D_UPPER_FROZEN = [
    (
        ball_domain(),
        np.array([[0.3, 0.1j], [-0.2, 0.1]]),
        np.array([[-0.25, 0.0], [0.1, 0.4j]]),
        [
            (0.7094133284006553, 0.0, 1),
            (0.7413209088464744, 0.00347385990743887, 7),
            (0.7421236034328739, 1.8113484153703396e-06, 256),
        ],
    ),
    (
        halfplane_domain(),
        np.array([[0.5 + 1j, 0.2], [0.2, -0.3 + 2j]]),
        np.array([[-1 + 0.5j, 0.1j], [-0.1j, 1.5j]]),
        [
            (1.0621906306472801, 0.0, 1),
            (1.1031263988399214, 0.004366813602201702, 7),
            (1.1041310952442513, 2.2652209594742345e-06, 256),
        ],
    ),
    (
        KernelDomain(ComposedBallKernel(Polynomial((0.0, 2.0)))),
        np.array([[0.1, 0.05], [0.0, -0.1j]]),
        np.array([[0.2, -0.1], [0.05, 0.15]]),
        [
            (0.5003026741383799, 0.0, 1),
            (0.5113583604359444, 0.0011151950132728405, 7),
            (0.5116123034174193, 5.713945907537266e-07, 256),
        ],
    ),
    (
        SpectralDisk(0.0, 0.5, NormBound("constant", 1.0)),
        np.array([[0.2, 0.05], [0.0, -0.1]]),
        np.array([[-0.15, 0.0], [0.1, 0.25j]]),
        [
            (0.39109871744932906, 0.0, 1),
            (0.3961987109817395, 0.0004955779482213596, 7),
            (0.39631087435329326, 2.5208515502805895e-07, 256),
        ],
    ),
]


# (value, quad_estimate) of D_UPPER_FROZEN at quad_points 1, 7 and 256 where they moved
D_UPPER_EIGH = {
    "ball": [(0.7094133284006555, 0.0), (0.7413209088464746, 0.00347385990743887),
             (0.742123603432874, 1.8113484153703396e-06)],
    "composed": [(0.50030267413838, 0.0), (0.5113583604359444, 0.0011151950132728405),
                 (0.5116123034174191, 5.713945907537266e-07)],
    "disk": [(0.39109871744932906, 0.0), (0.3961987109817394, 0.0004955779482213041),
             (0.39631087435329326, 2.5208515502805895e-07)],
}
D_UPPER_IDS = ["ball", "halfplane", "composed", "disk"]


@pytest.mark.parametrize("kind, domain, a, c, want", [(k, *row) for k, row in zip(D_UPPER_IDS, D_UPPER_FROZEN)],
                         ids=D_UPPER_IDS)
def test_path_distance_frozen_to_the_bit(kind, domain, a, c, want):
    before = D_UPPER_EIGH.get(kind, [w[:2] for w in want])
    for q, frozen, (value, quad) in zip((1, 7, 256), want, before):
        got = d_upper(domain, point(a), point(c), quad_points=q)
        assert (got.value, got.quad_estimate, got.points_used) == frozen, q
        # a mean of deltas, each the same number up to a few eps of roundoff,
        # and the difference of two such means
        assert got.value == pytest.approx(value, rel=8 * EPS, abs=0.0), q
        assert abs(got.quad_estimate - quad) <= 8 * EPS * got.value, q


def test_path_distance_of_a_point_to_itself_uses_no_node():
    got = d_upper(ball_domain(), point([[0.3]]), point([[0.3]]), quad_points=7)
    assert (got.value, got.quad_estimate, got.points_used) == (0.0, 0.0, 0)


def test_path_blocked_at_quadrature_node():
    # both endpoints are nilpotent, every node between them is not
    a = point(np.array([[0.0, 1.0], [0.0, 0.0]]))
    c = point(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(PathBlocked, match=r"t = 0\.062500 "):
        d_upper(NilpotentCone(), a, c, quad_points=8)


@pytest.mark.parametrize("q", [0, -3])
def test_path_needs_a_quadrature_node(q):
    with pytest.raises(ValueError, match="quad_points"):
        d_upper(ball_domain(), point([[0.0]]), point([[0.5]]), quad_points=q)


def test_path_estimate_is_not_a_bound():
    # a midpoint rule on a convex integrand reads low; one node has no
    # half-resolution rerun to differ from
    got = d_upper(ball_domain(), point([[0.0]]), point([[0.5]]), quad_points=1)
    assert got.value == pytest.approx(0.5 / 0.9375, rel=1e-15)
    assert got.value < math.atanh(0.5)
    assert got.quad_estimate == 0.0


def test_path_distance_frozen_values():
    disk = SpectralDisk(0.0, 0.5, NormBound("constant", 1.0))
    a = point(np.array([[0.2, 0.05], [0.0, -0.1]]))
    c = point(np.array([[-0.15, 0.0], [0.1, 0.25j]]))
    got = d_upper(disk, a, c, quad_points=16)
    assert (got.value, got.quad_estimate, got.points_used) == (
        0.39628945210267297,
        6.445793563836233e-05,
        16,
    )
    # the ray search froze 0.3962894664325218 and 6.441199808421283e-05:
    # means of midpoints below 1, each within RAY_TOL / 2 of its delta
    assert abs(got.value - 0.3962894664325218) <= RAY_TOL / 2
    assert abs(got.quad_estimate - 6.441199808421283e-05) <= RAY_TOL
    composed = KernelDomain(ComposedBallKernel(Polynomial((0.0, 2.0))))
    a = point(np.array([[0.1, 0.05], [0.0, -0.1j]]))
    c = point(np.array([[0.2, -0.1], [0.05, 0.15]]))
    got = d_upper(composed, a, c, quad_points=32)
    assert (got.value, got.quad_estimate, got.points_used) == (
        0.51160030542711,
        3.654853598455965e-05,
        32,
    )
    # frozen at 3.654853598444863e-05 while delta whitened with an
    # eigendecomposition: a difference of two means near 0.5
    assert abs(got.quad_estimate - 3.654853598444863e-05) <= 8 * EPS * got.value


def test_path_distance_evaluates_each_gram_once(monkeypatch):
    # the membership test and the kernel formula each evaluate the node
    # stack's gram once; delta(x, x) reuses the gram of x for both sides
    shapes = []
    real_gram = ncmetric.domains.gram

    def counted(kernel, a):
        shapes.append(a.mat.shape[:-2])
        return real_gram(kernel, a)

    monkeypatch.setattr(ncmetric.domains, "gram", counted)
    monkeypatch.setattr(ncmetric.metric, "gram", counted)
    composed = KernelDomain(ComposedBallKernel(Polynomial((0.0, 2.0))))
    d_upper(composed, point([[0.1]]), point([[0.3j]]), quad_points=8)
    # the two path endpoints, each a stack of one, then the 8 and the 4
    # nodes as one stack, for the membership test and the kernel formula
    assert shapes == [(1,), (1,), (12,), (12,)]


@dataclass(frozen=True)
class _PuncturedBall:
    """The unit ball less the scalars within 1e-9 of hole: a domain whose
    straight-line divisions and quadrature nodes can be blocked one by one."""

    hole: float
    kernel = None

    def _inside(self, a, margin):
        inside, score = ball_domain()._inside(a, margin)
        return inside & (np.abs(a.mat[:, 0, 0] - self.hole) > 1e-9), score

    def _delta(self, a, c, b):
        return ball_delta(a, c, b)


def test_distance_drivers_make_one_membership_test_and_one_evaluation(monkeypatch):
    calls = []
    real_contains, real_chain = ncmetric.metric.contains, ncmetric.metric._chain_values

    def contains(domain, x):
        calls.append(("contains", len(x.mat)))
        return real_contains(domain, x)

    def chain(domain, x, y):
        calls.append(("chain", len(x.mat)))
        return real_chain(domain, x, y)

    monkeypatch.setattr(ncmetric.metric, "contains", contains)
    monkeypatch.setattr(ncmetric.metric, "_chain_values", chain)
    # 0.6 t = 0.2 at t = 1/3: interior point 1 of the 2-point stage and 3 of the 8-point one
    domain, a, c = _PuncturedBall(0.2), point([[0.0]]), point([[0.6]])
    bound = dtilde_upper(domain, a, c, refinement_budget=3)
    # the 0 + 1 + 2 + 4 + 8 interior points, then the 1 + 2 + 5 pairs of the open stages
    assert calls == [("contains", 15), ("chain", 8)]
    assert bound.diagnostics == (
        "stage with 2 interior points blocked at indices [1]",
        "stage with 8 interior points blocked at indices [3]",
    )
    # each stage sums what its chain of pairs gives alone, left to right
    want = []
    for m in (0, 1, 4):
        pts = np.concatenate([[0.0], 0.6 * ((np.arange(m) + 1) / (m + 1)), [0.6]])[:, None, None] + 0j
        want.append(float(np.cumsum(real_chain(domain, NcPoint(1, 1, pts[:-1]), NcPoint(1, 1, pts[1:])))[-1]))
    assert list(bound.stage_values) == want
    # d_upper: the 8 nodes and the 4 of its rerun in one test and one evaluation;
    # a blocked rerun node is named as when the rerun was tested on its own
    calls.clear()
    monkeypatch.setattr(ncmetric.metric, "_delta_values", lambda *args: calls.append("delta") or np.ones(12))
    assert d_upper(domain, a, c, quad_points=8).value == 1.0
    assert calls == [("contains", 12), "delta"]
    with pytest.raises(PathBlocked, match=r"^quadrature node at t = 0\.125000 is outside the domain$"):
        d_upper(_PuncturedBall(0.6 * 0.125), a, c, quad_points=8)


def _stacked(items):
    """The rows as one stacked point or direction."""
    first = items[0]
    mats = np.stack([x.mat for x in items])
    if isinstance(first, NcDirection):
        return NcDirection(first.base_dim, first.row_level, first.col_level, mats)
    return NcPoint(first.base_dim, first.level, mats)


def _assert_rows(route, triples):
    stacked = route(*(_stacked(list(part)) for part in zip(*triples)))
    assert stacked == [route(*t) for t in triples]


def test_closed_forms_on_stacks_match_rows():
    rng = _rng(40)
    triples = [_ball_triple(rng, 2) for _ in range(5)]
    _assert_rows(lambda a, c, b: delta_closed(BallKernel(), a, c, b), triples)
    _assert_rows(lambda a, c, b: delta_tilde(BallKernel(), a, c), triples)
    hp = [(_hp_point(rng, 2), _hp_point(rng, 2), direction(_cmat(rng, 2))) for _ in range(5)]
    _assert_rows(lambda a, c, b: delta_closed(HalfPlaneKernel(), a, c, b), hp)


def test_kernel_formula_on_stacks_matches_rows():
    rng = _rng(41)
    kernel = ComposedBallKernel(Polynomial((0.0, 2.0)))
    triples = [_ball_triple(rng, 2, fill=0.3) for _ in range(5)]
    _assert_rows(lambda a, c, b: delta_kernel(kernel, a, c, b), triples)
    # a = c rows of the gauge are exactly zero, as on their own
    pairs = [(a, a if i % 2 else c, b) for i, (a, c, b) in enumerate(triples)]
    _assert_rows(lambda a, c, b: delta_tilde(kernel, a, c), pairs)


def test_ray_search_on_stacks_matches_rows():
    # lockstep rows visit the scalings of their own search: equal
    # values, brackets and iteration counts, whatever the other rows do
    rng = _rng(42)
    disk = SpectralDisk(0.0, 0.5, NormBound("constant", 1.0))
    triples = []
    for k in range(6):
        a, c, _ = _ball_triple(rng, 2, fill=0.3)
        b = direction(_cmat(rng, 2, scale=10.0 ** (k - 3)) if k != 4 else np.zeros((2, 2)))
        triples.append((a, c, b))
    _assert_rows(lambda a, c, b: delta_ray(disk, a, c, b), triples)
    notes = [r.note for r in delta_ray(disk, *(_stacked(list(p)) for p in zip(*triples)))]
    assert "zero direction" in notes
    zero = point(np.zeros((2, 2)))
    nilpotent = [
        (point(t * np.array([[0.0, 1.0], [0.0, 0.0]])), zero, direction(_cmat(rng, 2)))
        for t in (0.0, 0.5, 2.0)
    ]
    _assert_rows(lambda a, c, b: delta_ray(NilpotentCone(), a, c, b), nilpotent)


def _ray_cases(rng):
    """(domain, triples) on every kind; each domain's triples share shapes."""
    disk = SpectralDisk(0.0, 0.5, NormBound("constant", 1.0))
    moebius = KernelDomain(ComposedBallKernel(MoebiusBall(0.3 - 0.2j)))
    cases = []
    for dom, fill in ((ball_domain(), 0.6), (disk, 0.3), (moebius, 0.6)):
        triples = []
        # zero direction, zero within the growth cap, no exit above the shrink floor
        for scale in (0.0, 1e-10, 1e-2, 0.3, 1.0, 1e14):
            a, c, b = _ball_triple(rng, 2, fill)
            triples.append((a, c, direction(scale * b.mat / operator_norm(b.mat))))
        cases.append((dom, triples))
    hp = [(_hp_point(rng, 2), _hp_point(rng, 2), direction(_cmat(rng, 2, scale=s))) for s in (0.1, 1.0, 5.0)]
    zero = point(np.zeros((2, 2)))
    cone = [(point(t * np.array([[0.0, 1.0], [0.0, 0.0]])), zero, direction(_cmat(rng, 2))) for t in (0.0, 2.0)]
    return cases + [(halfplane_domain(), hp), (NilpotentCone(), cone)]


def _ray_reprs(cases):
    # repr tells every float apart bit for bit, -0.0 from 0.0 included
    out = []
    for dom, triples in cases:
        out += [repr(delta_ray(dom, *t)) for t in triples]
        out.append(repr(delta_ray(dom, *(_stacked(list(p)) for p in zip(*triples)))))
    return out


def test_the_predicted_exit_only_steers_the_batching(monkeypatch):
    cases = _ray_cases(_rng(70))
    want = _ray_reprs(cases)
    for guess in (1e-9, 1e9, math.nan):
        with monkeypatch.context() as m:
            m.setattr(ncmetric.metric, "_predict", lambda *args: guess)
            assert _ray_reprs(cases) == want, guess


def test_a_ball_ray_search_takes_a_few_stacked_membership_calls(monkeypatch):
    # one membership call per test would make about 21 at RAY_TOL
    calls = []
    real = ncmetric.metric.members

    def counted(domain, a, *args, **kwargs):
        calls.append(a.mat.shape)
        return real(domain, a, *args, **kwargs)

    # the search's own rounds; the endpoint checks go through domains.members
    monkeypatch.setattr(ncmetric.metric, "members", counted)
    rng = _rng(71)
    for n in (1, 2, 3):
        for _ in range(4):
            calls.clear()
            res = delta_ray(ball_domain(), *_ball_triple(rng, n))
            assert res.iterations >= 19 and 2 <= len(calls) <= 6, (res, calls)
            assert all(len(shape) == 3 for shape in calls)


def test_a_pole_past_the_exit_leaves_the_ray_search_unchanged(monkeypatch):
    # the ray of a Moebius-composed ball stays inside past s = 8, so the
    # search batches its doubling chain to the growth cap; there the
    # pole's resolvent is numerically singular, the stacked evaluation
    # fails and members tests the stack again by halves
    calls = []
    real = ncmetric.domains.members

    def counted(domain, a, *args, **kwargs):
        out = real(domain, a, *args, **kwargs)
        calls.append((len(a.mat), out))
        return out

    # one _inside evaluation per members call, its halves' calls included
    monkeypatch.setattr(ncmetric.domains, "members", counted)
    monkeypatch.setattr(ncmetric.metric, "members", counted)
    dom = KernelDomain(ComposedBallKernel(MoebiusBall(0.9)))
    res = delta_ray(dom, point([[0.1]]), point([[0.1]]), direction([[0.05]]))
    # the search one test at a time gave this result, bit for bit
    assert repr(res) == (
        "DeltaResult(value=0.05050523733091272, method='ray', "
        "bracket=(0.050504925956523346, 0.0505055487053021), iterations=22, note=None)"
    )
    # the endpoints, 7 + 24 + 16 + 6 rows of the search, and 10 halves of the 24:
    # testing the 24 rows one at a time would be 30 evaluations
    assert [n for n, _ in calls] == [1, 1, 7, 12, 6, 3, 1, 1, 1, 2, 3, 6, 12, 24, 16, 6]
    assert any(n == 1 and not inside[0] and diagnostics[0] for n, (inside, _, diagnostics) in calls)


def _rim_point(rng, level, lam):
    """U (lam I + N) U*, N the nilpotent shift: dense, non-normal, spectrum {lam}."""
    u, _ = np.linalg.qr(_cmat(rng, level))
    return point(u @ (lam * np.eye(level) + np.eye(level, k=1)) @ u.conj().T)


def _cone_point(rng, level):
    """U N U* with N strictly upper triangular: dense and nilpotent."""
    u, _ = np.linalg.qr(_cmat(rng, level))
    return point(u @ np.triu(_cmat(rng, level), 1) @ u.conj().T)


def _in_bracket(exact, ray):
    pairs = zip(exact, ray) if isinstance(ray, list) else [(exact, ray)]
    for e, r in pairs:
        assert e.method == "exact" and e.bracket == (e.value, e.value)
        assert r.bracket[0] <= e.value <= r.bracket[1]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_exact_delta_lies_in_the_ray_bracket(level):
    # disk and cone deltas in closed form against the definition, the
    # membership-only ray search, on Hermitian, dense non-normal and
    # nilpotent points, single and stacked
    rng = _rng(60 + level)
    radius = 0.25
    disks = [SpectralDisk(0.05j, radius, NormBound("level", 1.0)),
             SpectralDisk(0.05j, radius, NormBound("constant", 1.5))]
    for lc in (1, 2):
        disk_triples, cone_triples = [], []
        for k in range(4):
            b = direction(_cmat(rng, level, lc, scale=10.0 ** (k - 2)))
            h = [_cmat(rng, n) for n in (level, lc)]
            a, c = (point(0.2 * (m + m.conj().T) / (2 * operator_norm(m)) + 0.05j * np.eye(len(m))) for m in h)
            disk_triples.append((a, c, b))
            phase = np.exp(2j * np.pi * rng.uniform(size=2))
            a, c = (_rim_point(rng, n, 0.05j + (radius - 1e-3) * z) for n, z in zip((level, lc), phase))
            disk_triples.append((a, c, b))
            cone_triples.append((_cone_point(rng, level), _cone_point(rng, lc), b))
        for dom, triples in [(d, disk_triples) for d in disks] + [(NilpotentCone(), cone_triples)]:
            for a, c, b in triples:
                _in_bracket(delta_auto(dom, a, c, b), delta_ray(dom, a, c, b))
                if lc == level:
                    _in_bracket(delta_auto_tilde(dom, a, c), delta_ray(dom, a, c, NcDirection(1, level, lc, a.mat - c.mat)))
            for a, c, b in triples[::2]:  # inside at a wide margin too, which lowers the cap
                cone = isinstance(dom, NilpotentCone)
                exact = 0.0 if cone else ball_delta(a, c, b, dom.norm_bound.at_level(a.level + c.level) - 0.05)
                ray = delta_ray(dom, a, c, b, margin=0.05)
                assert ray.bracket[0] <= exact <= ray.bracket[1]
            stacks = [_stacked(list(part)) for part in zip(*triples)]
            _in_bracket(delta_auto(dom, *stacks), delta_ray(dom, *stacks))
            _assert_rows(lambda a, c, b: delta_auto(dom, a, c, b), triples)
            if lc == level:
                _assert_rows(lambda a, c, b: delta_auto_tilde(dom, a, c), triples)


def test_moebius_is_an_isometry_of_the_ball():
    rng = _rng(27)
    triples = [_ball_triple(rng, n, fill=0.6) for n in (1, 2, 2)]
    f = MoebiusBall(0.3 - 0.2j)
    rep = check_contraction(f, ball_domain(), ball_domain(), triples, equality=True, tol=1e-6)
    assert rep["ok"], rep
    assert rep["worst_abs_gap"] <= 1e-6


def test_half_square_strictly_contracts():
    rng = _rng(28)
    triples = [_ball_triple(rng, n, fill=0.7) for n in (1, 2, 3)]
    f = Polynomial((0.0, 0.0, 0.5))
    rep = check_contraction(f, ball_domain(), ball_domain(), triples, tol=1e-7)
    assert rep["ok"], rep
    assert rep["worst_excess"] <= 1e-7


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_contraction_rejects_a_tolerance_that_passes_or_fails_any_map(tol):
    triples = [_ball_triple(_rng(28), 1, fill=0.7)]
    with pytest.raises(ValueError, match="^tol must be finite and at least 0, got "):
        check_contraction(Polynomial((0.0, 0.5)), ball_domain(), ball_domain(), triples, tol=tol)
    assert check_contraction(Polynomial((0.0, 0.5)), ball_domain(), ball_domain(), triples, tol=0.0)["ok"]


def test_contraction_flags_target_escape():
    rng = _rng(29)
    triples = [_ball_triple(rng, 1, fill=0.9)]
    double = CayleyLike(2.0, 0.0)
    rep = check_contraction(double, ball_domain(), ball_domain(), triples)
    assert not rep["ok"]
    assert rep["violations"]


def test_nested_balls_comparison():
    rng = _rng(30)
    pairs = []
    for n in (1, 2):
        a, c, _ = _ball_triple(rng, n, fill=0.4)
        pairs.append((a, c))
    rep = compare_nested(ball_domain(0.5), ball_domain(), 1.0, 0.5, pairs)
    assert rep["k"] == pytest.approx(2.0 / 3.0)
    assert rep["ok"], rep


def test_nested_comparison_rejects_escapes():
    pairs = [(point([[0.8]]), point([[0.1]]))]
    with pytest.raises(NestingViolation):
        compare_nested(ball_domain(), ball_domain(0.5), 0.5, 1.0, pairs)


SPECTRAL = SpectralDisk(0.0, 0.5, NormBound("constant", 1.0))
COMPOSED = KernelDomain(ComposedBallKernel(Polynomial((0.0, 2.0))))


def _mixed_triples(rng, domain, count=9):
    """Triples inside the domain; levels 1, 2, 3 interleave, three samples per base dim 1, 2, 1, ..."""
    triples = []
    for start in range(0, count, 3):
        base = 1 + (start // 3) % 2
        triples += sample_triples(domain, rng, [1, 2, 3], min(3, count - start), base)
    return triples


def _assert_contraction_parity(f, src, dst, triples):
    full = check_contraction(f, src, dst, triples, equality=True)
    alone = [check_contraction(f, src, dst, [t], equality=True) for t in triples]
    assert full["rows"] == [row for rep in alone for row in rep["rows"]]
    # a one-triple report names its triple sample 0
    assert full["violations"] == [
        m.replace("sample 0:", f"sample {i}:", 1)
        for i, rep in enumerate(alone)
        for m in rep["violations"]
    ]
    rows = [rep for rep in alone if rep["rows"]]
    assert full["worst_excess"] == max((rep["worst_excess"] for rep in rows), default=None)
    assert full["worst_abs_gap"] == max((rep["worst_abs_gap"] for rep in rows), default=None)
    assert full["ok"] == all(rep["ok"] for rep in alone)
    return full


@pytest.mark.parametrize(
    "f, domain",
    [
        (MoebiusBall(0.3 - 0.2j), ball_domain()),
        (CayleyLike(1.5, 0.3), halfplane_domain()),
        (Polynomial((0.0, 0.5)), COMPOSED),
        (Polynomial((0.0, 0.5)), SPECTRAL),
    ],
)
def test_contraction_report_matches_per_triple_reports(f, domain):
    triples = _mixed_triples(_rng(50), domain)
    full = _assert_contraction_parity(f, domain, domain, triples)
    assert full["samples"] == len(triples) and not full["violations"]
    # each row is what the public routes give on the triple's plain points
    for (a, c, b), row in zip(triples, full["rows"]):
        fa, fc = eval_point(f, a), eval_point(f, c)
        lhs = delta_auto(domain, fa, fc, delta_f(f, a, c, b)).value
        assert row == (lhs, delta_auto(domain, a, c, b).value)


def _escape_triples(rng):
    # level 1 and level 2 samples; doubling sends 2 and 4 out of the ball
    small = [_ball_triple(rng, n, fill=0.4) for n in (1, 2, 2, 1, 1, 2)]
    out_a = (point(np.diag([0.7, 0.1])), point(np.diag([0.1, 0.2])), direction(np.eye(2)))
    out_both = (point([[0.6]]), point([[-0.7]]), direction([[1.0]]))
    return small[:2] + [out_a] + small[2:4] + [out_both] + small[4:]


def test_contraction_escape_keeps_its_index():
    triples = _escape_triples(_rng(51))
    full = _assert_contraction_parity(CayleyLike(2.0, 0.0), ball_domain(), ball_domain(), triples)
    assert full["violations"] == [
        "sample 2: f(a) outside the target domain",
        "sample 5: f(a), f(c) outside the target domain",
    ]
    assert full["samples"] == len(triples) - 2 and not full["ok"]


def test_contraction_names_the_first_source_point_outside():
    rng = _rng(53)
    triples = [_ball_triple(rng, n, fill=0.4) for n in (1, 2, 2, 1, 1)]
    triples[2] = (point(np.diag([1.2, 0.1])),) + triples[2][1:]
    triples[3] = (triples[3][0], point([[1.5]]), triples[3][2])
    f = MoebiusBall(0.3)
    with pytest.raises(PointOutsideDomain) as exc:
        check_contraction(f, ball_domain(), ball_domain(), triples)
    assert str(exc.value) == "sample 2 point a is not strictly inside the domain"


def test_contraction_raises_at_a_moebius_pole():
    # 1 - conj(alpha) z is singular at z = 2i, a point of the half-plane
    rng = _rng(54)
    f = MoebiusBall(0.5j)
    hp = halfplane_domain()
    triples = _mixed_triples(rng, hp, count=4)
    triples.insert(3, (point([[2j]]), point([[1j]]), direction([[1.0]])))
    with pytest.raises(DomainViolation) as exc:
        check_contraction(f, hp, hp, triples)
    with pytest.raises(DomainViolation) as alone:
        eval_point(f, point([[2j]]))
    assert str(exc.value) == str(alone.value)


def _mixed_pairs(rng, domain, count=9):
    return [(a, c) for a, c, _ in _mixed_triples(rng, domain, count)]


@pytest.mark.parametrize(
    "inner, outer, big_m, small_m",
    [
        (ball_domain(0.5), ball_domain(), 1.0, 0.5),
        (SpectralDisk(0.0, 0.25, NormBound("constant", 1.0)), SPECTRAL, 0.5, 0.25),
    ],
)
def test_nesting_report_matches_per_pair_reports(inner, outer, big_m, small_m):
    pairs = _mixed_pairs(_rng(55), inner)
    full = compare_nested(inner, outer, big_m, small_m, pairs)
    alone = [compare_nested(inner, outer, big_m, small_m, [p]) for p in pairs]
    assert full["rows"] == [row for rep in alone for row in rep["rows"]]
    assert full["min_margin"] == min(rep["min_margin"] for rep in alone)
    assert full["ok"] == all(rep["ok"] for rep in alone)
    for (a, c), row in zip(pairs, full["rows"]):
        assert row == (delta_auto_tilde(inner, a, c).value, delta_auto_tilde(outer, a, c).value)


def test_nesting_violation_names_the_first_escaping_pair():
    # inner ball of radius 1, outer of radius 0.5: pair 1 (level 2) and
    # pair 2 (level 1) escape, the level-1 group is stacked first
    rng = _rng(56)
    pairs = [(a, c) for a, c, _ in (_ball_triple(rng, n, fill=0.3) for n in (1, 2, 1, 1))]
    pairs[1] = (pairs[1][0], point(np.diag([0.1, 0.8])))
    pairs[2] = (point([[0.9]]), pairs[2][1])
    with pytest.raises(NestingViolation) as exc:
        compare_nested(ball_domain(), ball_domain(0.5), 0.5, 1.0, pairs)
    assert str(exc.value) == (
        "pair 1 point c lies in the inner domain but escapes the outer one"
    )


def test_tilde_dominates_norm_gap():
    rng = _rng(31)
    for n in (1, 2, 3):
        a, c, _ = _ball_triple(rng, n, fill=0.8)
        val = delta_tilde(BallKernel(), a, c).value
        assert val >= operator_norm(a.mat - c.mat) - 1e-9


def test_tilde_vanishes_on_the_diagonal():
    rng = _rng(32)
    a, _, _ = _ball_triple(rng, 2)
    assert delta_tilde(BallKernel(), a, a).value == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**31 - 1))
def test_closed_ball_unitary_invariance(n, seed):
    rng = _rng(seed)
    a, c, b = _ball_triple(rng, n)
    g = _cmat(rng, n)
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    base = delta_closed(BallKernel(), a, c, b).value
    rot = delta_closed(
        BallKernel(),
        point(q @ a.mat @ q.conj().T),
        point(q @ c.mat @ q.conj().T),
        direction(q @ b.mat @ q.conj().T),
    ).value
    assert rot == pytest.approx(base, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_ray_rejects_a_tolerance_that_cannot_work(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        delta_ray(ball_domain(), point([[0.0]]), point([[0.5]]), direction([[1.0]]), tol=tol)


@pytest.mark.parametrize("tol", [1e-16, 1e-300])
def test_ray_bisection_stops_when_no_float_is_left_between(tol):
    # a tolerance below roundoff ends the bisection at adjacent scalings;
    # at margin 0 the exit on the unit ball is where 1 - s^2 rounds to 0
    for a, c in ((0.0, 0.0), (0.3, -0.2)):
        triple = (point([[a]]), point([[c]]), direction([[1.0]]))
        res = delta_ray(ball_domain(), *triple, tol=tol, margin=0.0)
        assert res.iterations < 100
        assert res.bracket[0] <= delta_closed(BallKernel(), *triple).value <= res.bracket[1]


@pytest.mark.parametrize(
    "kind",
    ["disk", "Ball", "half_plane", "", "ball",
     pytest.param(ComposedBallKernel(Polynomial((0.0, 2.0))), id="composed_ball"),
     pytest.param(ComposedHalfPlaneKernel(Polynomial((-1j, 1.0))), id="composed_half_plane"),
     pytest.param(KernelDomain(BallKernel()), id="kernel_domain")],
)
def test_unknown_closed_form_kind_is_a_value_error(kind):
    # a closed form is a kernel's own; a name, even "ball", is no kernel
    a, c = point([[0.1]]), point([[0.2 + 0.5j]])
    with pytest.raises(ValueError, match=re.escape(f"{kind!r} has no closed form")):
        delta_closed(kind, a, c, direction([[1.0]]))
