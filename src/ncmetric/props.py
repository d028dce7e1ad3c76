"""Cross-module invariant suite.

Each check draws its own samples from a named Philox substream of the
run seed, computes a scalar "worst" defect, and passes when that
defect is at most its tolerance. The suite is what `ncmetric props`
runs; with a fixed seed the report is byte-identical across runs,
because each check's substreams depend only on the seed and its name.

A check is declared once, as a function check_<name>(rng) under
@_check(tol). Its name, the function name without "check_", is its
report row and picks its substream: the decorator hands the body
rng_stream(seed, name), and the body draws from nothing else. The
decorator also appends the check to CHECKS, so run_suite runs the
checks in definition order, and any check run alone gives its row of
the suite.

Count-valued checks (membership agreement and the like) report the
number of offending samples as the defect.

Checks whose evaluation draws no random numbers draw all their samples
first, exactly as a sample-by-sample loop would, normalise the draws
of their point and direction samplers together (sampling.scaled), and
then evaluate them as stacks, one stacked call per route and shape
group (see _stacked). Each sample's values equal those of its
evaluation alone, and the worst defect is folded in sample order, so
the report is the same as that of evaluating one sample at a time.
The exceptions evaluate sample by sample: the six matcore and ncpoint
rows, which test numpy's factorizations one matrix at a time;
function_axioms, whose check_axioms draws as it evaluates;
moebius_ball_image, whose samples each bring their own map;
kernel_direct_sum_blocks and kernel_unitary_intertwine, whose five
samples per kernel spread over up to four shape groups, so that a
stack would hold one or two rows; and ordering_chain, omega_direct_sum
and fixed_point_range, which run a distance bound or a solver on a few
fixed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .domains import (
    BallKernel,
    ComposedBallKernel,
    ComposedHalfPlaneKernel,
    HalfPlaneKernel,
    KernelDomain,
    NormBound,
    SpectralDisk,
    ball_domain,
    contains,
    gram,
    halfplane_delta,
    halfplane_domain,
    kernel_eval,
)
from .freeprob import (
    KrausAugment,
    MatrixModel,
    ScalarLaw,
    ScalarPower,
    cauchy_G,
    expectation,
    F_and_h,
    k0_and_fixed_point,
    make_h0,
    picard_ratio,
    subordination_solve,
)
from .matcore import (
    direct_sum_mats,
    herm_eig,
    herm_eigvals,
    herm_part,
    imag_part,
    inverse,
    operator_norm,
    psd_inv_sqrt,
)
from .metric import (
    check_contraction,
    compare_nested,
    d_upper,
    delta_closed,
    delta_kernel,
    delta_ray,
    delta_auto_tilde,
    delta_tilde,
    dtilde_upper,
)
from .ncfunc import Composition, MoebiusBall, Polynomial, ScalarCalculus, check_axioms, delta_f, eval_point
from .ncpoint import (
    NcDirection,
    NcPoint,
    amplify,
    block_upper,
    direct_sum,
    point,
    sample_outcomes,
    unitary_conjugate,
)
from .sampling import (
    Draw,
    ball_draw,
    complex_matrix,
    direction_draw,
    halfplane_point,
    hermitian_matrix,
    rng_stream,
    scaled,
    selfadjoint_disk_draw,
    unitary_matrix,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    worst: float
    tol: float
    passed: bool


# every check in definition order, filled by @_check; the report's row order
CHECKS = []


def _check(tol: float):
    """Register the decorated check_<name>(rng) as the check <name>.

    The body draws from the rng it is given and returns (samples, worst).
    The registered check_<name>(seed) gives it the seed's substream
    named <name> and reports the check as passed when worst <= tol.
    """

    def register(body):
        name = body.__name__.removeprefix("check_")

        def check(seed: int) -> CheckResult:
            samples, worst = body(rng_stream(seed, name))
            worst = float(worst)
            return CheckResult(name, samples, worst, float(tol), bool(worst <= tol))

        check.__name__ = check.__qualname__ = body.__name__
        CHECKS.append(check)
        return check

    return register


def _stacked(samples, *routes):
    """Per sample in sample order, the tuple of each route's value on it.

    A sample holds one tuple of arguments (points and directions) per
    route, and routes[i], a metric route or another stacked evaluation,
    is called on the sample's i-th tuple; each gives one DeltaResult or
    float per row, read with float(). The samples go through
    ncpoint.sample_outcomes: one stacked call of each route per shape
    group, and a group whose stacked call raises is redone one sample
    at a time, so the first failing sample raises what it raises alone.
    """
    sizes = [len(args) for args in samples[0]] if samples else []

    def evaluate(*parts):
        # the sample name sample_outcomes appends goes unused: the
        # routes name the points they reject themselves
        values, pos = [], 0
        for route, size in zip(routes, sizes):
            values.append([float(r) for r in route(*parts[pos : pos + size])])
            pos += size
        return list(zip(*values))

    flat = [tuple(x for args in sample for x in args) for sample in samples]
    return sample_outcomes(flat, evaluate, "sample")


# ---------------------------------------------------------------- matcore


@_check(1e-10)
def check_eig_reconstruction(rng):
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = hermitian_matrix(rng, n, scale=2.0)
        w, v = herm_eig(a)
        scale = max(1.0, operator_norm(a))
        worst = max(
            worst,
            operator_norm(v @ np.diag(w) @ v.conj().T - a) / scale,
            operator_norm(v.conj().T @ v - np.eye(n)),
        )
    return 20, worst


@_check(1e-10)
def check_norm_unitary_invariance(rng):
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = complex_matrix(rng, n, n, scale=3.0)
        u, v = unitary_matrix(rng, n), unitary_matrix(rng, n)
        worst = max(worst, abs(operator_norm(u @ a @ v) - operator_norm(a)) / max(1.0, operator_norm(a)))
    return 20, worst


@_check(1e-8)
def check_psd_inv_sqrt(rng):
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        w = complex_matrix(rng, n, n)
        a = w @ w.conj().T / n + 0.1 * np.eye(n)
        s = psd_inv_sqrt(a)
        worst = max(worst, operator_norm(s @ a @ s - np.eye(n)))
    return 20, worst


# ---------------------------------------------------------------- ncpoint


@_check(0.0)
def check_direct_sum_assoc(rng):
    drawn = []
    for _ in range(10):
        d = int(rng.integers(1, 3))
        drawn.append([ball_draw(rng, int(rng.integers(1, 3)), d) for _ in range(3)])
    worst = 0.0
    for ps in scaled(drawn):
        left = direct_sum(direct_sum(ps[0], ps[1]), ps[2])
        right = direct_sum(ps[0], direct_sum(ps[1], ps[2]))
        worst = max(worst, float(np.max(np.abs(left.mat - right.mat))))
    return 10, worst


@_check(1e-12)
def check_amplify_product(rng):
    drawn = []
    for _ in range(10):
        d, lvl, k = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(2, 4))
        a = ball_draw(rng, lvl, d)
        c = ball_draw(rng, lvl, d)
        drawn.append((a, c, complex_matrix(rng, k, k), complex_matrix(rng, k, k)))
    worst = 0.0
    for a, c, z1, z2 in scaled(drawn):
        lhs = amplify(z1, a).mat @ amplify(z2, c).mat
        rhs = np.kron(z1 @ z2, a.mat @ c.mat)
        worst = max(worst, operator_norm(lhs - rhs) / max(1.0, operator_norm(rhs)))
    return 10, worst


@_check(1e-9)
def check_unitary_conj_spectrum(rng):
    worst = 0.0
    for _ in range(15):
        d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        h = NcPoint(d, lvl, hermitian_matrix(rng, lvl * d, scale=2.0))
        u = unitary_matrix(rng, lvl)
        before = herm_eigvals(h.mat)
        after = herm_eigvals(unitary_conjugate(u, h).mat)
        worst = max(worst, float(np.max(np.abs(before - after))))
    return 15, worst


# ---------------------------------------------------------------- ncfunc


_FDC_FUNCS = (
    Polynomial((0.3, 0.5, 0.0, 0.25)),
    MoebiusBall(0.3 + 0.1j),
    Composition((Polynomial((0.0, 0.5, 0.2)), MoebiusBall(-0.2j))),
)


def _fdc_defects(f, a: NcPoint, c: NcPoint):
    corner = delta_f(f, a, c, NcDirection(a.base_dim, a.level, c.level, a.mat - c.mat)).mat
    diff = eval_point(f, a).mat - eval_point(f, c).mat
    return operator_norm(corner - diff) / np.maximum(1.0, operator_norm(diff))


@_check(1e-9)
def check_fdc_identity(rng):
    # corner of f on the block point must reproduce f(a) - f(c) at b = a - c
    drawn = scaled([(pair,) for pair in _pairs(rng, partial(ball_draw, fill=0.6), 6 * len(_FDC_FUNCS))])
    worst = 0.0
    for i, f in enumerate(_FDC_FUNCS):
        for (defect,) in _stacked(drawn[6 * i : 6 * i + 6], partial(_fdc_defects, f)):
            worst = max(worst, defect)
    return len(drawn), worst


@_check(1e-8)
def check_function_axioms(rng):
    exp_like = ScalarCalculus(tuple(1.0 / math.factorial(k) for k in range(12)), radius=6.0)
    worst = 0.0
    n = 0
    for f in (Polynomial((0.1, 0.7, 0.0, 0.2)), exp_like, _FDC_FUNCS[2]):
        pts = scaled([ball_draw(rng, int(rng.integers(1, 3)), 1, fill=0.6) for _ in range(4)])
        rep = check_axioms(f, pts, rng=rng)
        worst = max(worst, rep["direct_sum_max"], rep["swap_max"], rep["intertwining_max"])
        n += len(pts)
    return n, worst


@_check(0.0)
def check_moebius_ball_image(rng):
    drawn = []
    for _ in range(20):
        alpha = 0.85 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        drawn.append((MoebiusBall(complex(alpha)), ball_draw(rng, int(rng.integers(1, 4)), 1, fill=0.85)))
    worst = -1.0
    for f, a in scaled(drawn):
        worst = max(worst, operator_norm(eval_point(f, a).mat) - 1.0)
    return 20, worst


# ---------------------------------------------------------------- domains


# each kernel with the sampler of its test points, a draw or a point
_PROP_KERNELS = (
    (BallKernel(), ball_draw),
    (HalfPlaneKernel(), halfplane_point),
    (ComposedBallKernel(Polynomial((0.0, 2.0))), partial(ball_draw, radius=0.5, fill=0.7)),
    (ComposedHalfPlaneKernel(Polynomial((0.2j, 1.0))), halfplane_point),
)


@_check(1e-12)
def check_kernel_direct_sum_blocks(rng):
    drawn = [pair for _, sample in _PROP_KERNELS for pair in _pairs(rng, sample, 5)]
    worst = 0.0
    for i, (a1, a2) in enumerate(scaled(drawn)):
        kernel = _PROP_KERNELS[i // 5][0]
        q = gram(kernel, direct_sum(a1, a2))
        blocks = direct_sum_mats(gram(kernel, a1), gram(kernel, a2))
        worst = max(worst, operator_norm(q - blocks) / max(1.0, operator_norm(q)))
    return len(drawn), worst


@_check(1e-10)
def check_kernel_unitary_intertwine(rng):
    drawn = []
    for _, sample in _PROP_KERNELS:
        for _ in range(5):
            d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            a, c = sample(rng, lvl, d), sample(rng, lvl, d)
            p = complex_matrix(rng, lvl * d, lvl * d)
            drawn.append((d, a, c, p, unitary_matrix(rng, lvl), unitary_matrix(rng, lvl)))
    worst = 0.0
    for i, (d, a, c, p, u, v) in enumerate(scaled(drawn)):
        kernel = _PROP_KERNELS[i // 5][0]
        ua, vc = unitary_conjugate(u, a), unitary_conjugate(v, c)
        uk = np.kron(u, np.eye(d))
        vk = np.kron(v, np.eye(d))
        lhs = kernel_eval(kernel, ua, vc, uk @ p @ vk.conj().T)
        rhs = uk @ kernel_eval(kernel, a, c, p) @ vk.conj().T
        worst = max(worst, operator_norm(lhs - rhs) / max(1.0, operator_norm(rhs)))
    return len(drawn), worst


@_check(0.0)
def check_ball_membership_norm(rng):
    drawn, expected = [], []
    for _ in range(30):
        d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        g = complex_matrix(rng, lvl * d, lvl * d)
        target = float(rng.uniform(0.3, 1.3))
        if abs(target - 1.0) >= 1e-6:
            drawn.append(((Draw(g, target, partial(NcPoint, d, lvl)),),))
            expected.append(target < 1.0)
    bad = 0
    for want, (inside,) in zip(expected, _stacked(scaled(drawn), partial(contains, ball_domain()))):
        bad += inside != want
    return 30, bad


@_check(0.0)
def check_halfplane_membership(rng):
    samples = []
    for _ in range(20):
        d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        p = halfplane_point(rng, lvl, d)
        samples.append(((p,), (NcPoint(d, lvl, p.mat.conj().T),)))
    bad = 0
    inside = partial(contains, halfplane_domain())
    for p_inside, flipped_inside in _stacked(samples, inside, inside):
        bad += int(not p_inside) + int(flipped_inside)
    return 40, bad


# ---------------------------------------------------------------- metric


# the kernels with a closed form, each with the sampler of its points
CLOSED_KERNELS = ((BallKernel(), ball_draw), (HalfPlaneKernel(), halfplane_point))


def _pairs(rng, sample, count: int) -> list:
    """count pairs (a, c) at random base dims and levels, before scaling."""
    out = []
    for _ in range(count):
        d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        out.append((sample(rng, lvl, d), sample(rng, lvl, d)))
    return out


def _oracle_draws(rng, sample, count: int) -> list:
    """count triples (a, c, b) at random base dims and levels, before scaling."""
    out = []
    for _ in range(count):
        d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a = sample(rng, lvl, d)
        c = sample(rng, lvl, d)
        out.append((a, c, direction_draw(rng, d, lvl, lvl)))
    return out


def _oracle_worst(kernel, triples) -> float:
    worst = 0.0
    for ray, closed, kern in _stacked(
        [(t, t, t) for t in triples],
        partial(delta_ray, KernelDomain(kernel), tol=1e-7),
        partial(delta_closed, kernel),
        partial(delta_kernel, kernel),
    ):
        worst = max(worst, abs(ray - closed), abs(ray - kern))
    return worst


@_check(5e-6)
def check_oracle_ball(rng):
    return 12, _oracle_worst(BallKernel(), scaled(_oracle_draws(rng, ball_draw, 12)))


@_check(5e-6)
def check_oracle_halfplane(rng):
    return 12, _oracle_worst(HalfPlaneKernel(), scaled(_oracle_draws(rng, halfplane_point, 12)))


@_check(1e-9)
def check_delta_homogeneity(rng):
    kernel = ComposedBallKernel(Polynomial((0.0, 2.0)))
    scales = (0.5, 2.0)
    samples = []
    for a, c, b in scaled(_oracle_draws(rng, partial(ball_draw, radius=0.5, fill=0.7), 10)):
        samples.append(((a, c, b), *((a, c, replace(b, mat=s * b.mat)) for s in scales)))
    worst = 0.0
    n = 0
    route = partial(delta_kernel, kernel)
    for base, *multiples in _stacked(samples, route, route, route):
        for s, val in zip(scales, multiples):
            worst = max(worst, abs(val - s * base) / max(1e-12, s * base))
            n += 1
    return n, worst


@_check(1e-8)
def check_delta_unitary_invariance(rng):
    worst = 0.0
    n = 0
    for kernel, sample in CLOSED_KERNELS:
        drawn = []
        for _ in range(8):
            d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            a, c = sample(rng, lvl, d), sample(rng, lvl, d)
            b = direction_draw(rng, d, lvl, lvl)
            drawn.append((d, lvl, a, c, b, unitary_matrix(rng, lvl), unitary_matrix(rng, lvl)))
        samples = []
        for d, lvl, a, c, b, u, v in scaled(drawn):
            uk, vk = np.kron(u, np.eye(d)), np.kron(v, np.eye(d))
            conjugated = (
                unitary_conjugate(u, a),
                unitary_conjugate(v, c),
                NcDirection(d, lvl, lvl, uk @ b.mat @ vk.conj().T),
            )
            samples.append(((a, c, b), conjugated))
        route = partial(delta_closed, kernel)
        for before, after in _stacked(samples, route, route):
            worst = max(worst, abs(before - after))
            n += 1
    return n, worst


@_check(1e-8)
def check_delta_direct_sum_max(rng):
    drawn = []
    for _ in range(10):
        d = int(rng.integers(1, 3))
        lvl = int(rng.integers(1, 3))
        drawn.append([(ball_draw(rng, lvl, d), ball_draw(rng, lvl, d)) for _ in range(2)])
    samples = []
    for pairs in scaled(drawn):
        big_a = direct_sum(pairs[0][0], pairs[1][0])
        big_c = direct_sum(pairs[0][1], pairs[1][1])
        samples.append((*pairs, (big_a, big_c)))
    worst = 0.0
    route = partial(delta_tilde, BallKernel())
    for *parts, whole in _stacked(samples, route, route, route):
        worst = max(worst, abs(whole - max(parts)))
    return 10, worst


@_check(1e-8)
def check_delta_amplification(rng):
    drawn = []
    for _ in range(8):
        d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a, c = ball_draw(rng, lvl, d), ball_draw(rng, lvl, d)
        b = direction_draw(rng, d, lvl, lvl)
        drawn.append((d, lvl, a, c, b, [complex_matrix(rng, k, k) for k in (2, 3)]))
    samples, z_norms = [], []
    for d, lvl, a, c, b, zs in scaled(drawn):
        sample, norms = [(a, c, b)], []
        for z in zs:
            k = len(z)
            big_b = NcDirection(d, k * lvl, k * lvl, np.kron(z, b.mat))
            sample.append((amplify(np.eye(k), a), amplify(np.eye(k), c), big_b))
            norms.append(operator_norm(z))
        samples.append(sample)
        z_norms.append(norms)
    worst = 0.0
    n = 0
    route = partial(delta_closed, BallKernel())
    for (base, *vals), norms in zip(_stacked(samples, route, route, route), z_norms):
        for val, z_norm in zip(vals, norms):
            worst = max(worst, abs(val - z_norm * base))
            n += 1
    return n, worst


@_check(0.0)
def check_delta_nondegeneracy(rng):
    drawn = []
    for _ in range(15):
        d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        drawn.append((ball_draw(rng, lvl, d), direction_draw(rng, d, lvl, lvl)))
    samples = [((a, a, b),) for a, b in scaled(drawn)]
    min_val = float("inf")
    for (val,) in _stacked(samples, partial(delta_closed, BallKernel())):
        min_val = min(min_val, val)
    return 15, 1e-9 - min_val


@_check(1e-8)
def check_tilde_matches_delta(rng):
    worst = 0.0
    n = 0
    for kernel, sample in CLOSED_KERNELS:
        samples = []
        for a, c in scaled(_pairs(rng, sample, 8)):
            samples.append(((a, c), (a, c, NcDirection(a.base_dim, a.level, c.level, a.mat - c.mat))))
        for tilde, closed in _stacked(samples, partial(delta_tilde, kernel), partial(delta_closed, kernel)):
            worst = max(worst, abs(tilde - closed))
            n += 1
    return n, worst


@_check(1e-9)
def check_ordering_chain(_rng):
    dom = ball_domain()
    worst = 0.0
    for r in (0.3, 0.45):
        a = point(np.zeros((1, 1)))
        c = point(np.array([[r]]))
        bound = dtilde_upper(dom, a, c, refinement_budget=4)
        stages = [s for s in bound.stage_values if np.isfinite(s)]
        for earlier, later in zip(stages, stages[1:]):
            worst = max(worst, later - earlier - 1e-9)
        path = d_upper(dom, a, c, quad_points=128)
        worst = max(worst, bound.value - path.value - 1e-4)
    return 2, worst


@_check(1e-9)
def check_norm_lower_bound(rng):
    samples = [((a, c), (a, c)) for a, c in scaled(_pairs(rng, ball_draw, 20))]
    worst = 0.0
    routes = (lambda a, c: operator_norm(a.mat - c.mat), partial(delta_tilde, BallKernel()))
    for gap, tilde in _stacked(samples, *routes):
        worst = max(worst, gap - tilde)
    return 20, worst


@_check(1e-3)
def check_upper_semicontinuity(rng):
    drawn = []
    for _ in range(5):
        d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a = ball_draw(rng, lvl, d, fill=0.6)
        c = ball_draw(rng, lvl, d, fill=0.6)
        b = direction_draw(rng, d, lvl, lvl)
        e = Draw(complex_matrix(rng, lvl * d, lvl * d), 0.1, partial(NcDirection, d, lvl, lvl))
        drawn.append((a, c, b, e))
    samples = []
    for a, c, b, e in scaled(drawn):
        samples.append(((a, c, b), (NcPoint(a.base_dim, a.level, a.mat + (2.0**-8) * e.mat), c, b)))
    worst = -float("inf")
    route = partial(delta_closed, BallKernel())
    for base, moved in _stacked(samples, route, route):
        worst = max(worst, moved - base)
    return 5, worst


@_check(0.0)
def check_boundary_blowup(_rng):
    zero = point(np.zeros((1, 1)))
    samples = [((zero, point(np.array([[1.0 - 2.0**-j]]))),) for j in range(4, 11)]
    vals = [val for (val,) in _stacked(samples, partial(delta_tilde, BallKernel()))]
    worst = max(earlier - later for earlier, later in zip(vals, vals[1:]))
    worst = max(worst, 10.0 - vals[-1])
    return len(vals), worst


@_check(1e-9)
def check_spectral_disk_bounded(rng):
    # delta~ stays below 4/3 on the self-adjoint slice even though the
    # points approach the boundary of the spectral disk
    dom = SpectralDisk(0.0, 0.25, NormBound("constant", 1.0))
    drawn = [(pair,) for pair in _pairs(rng, partial(selfadjoint_disk_draw, radius=0.25), 25)]
    worst = -float("inf")
    for (val,) in _stacked(scaled(drawn), partial(delta_auto_tilde, dom)):
        worst = max(worst, val - 4.0 / 3.0)
    return 25, worst


@_check(1e-8)
def check_nesting_halves(rng):
    inner, outer = ball_domain(0.5), ball_domain(1.0)
    pairs = _pairs(rng, partial(ball_draw, radius=0.5, fill=0.9), 20)
    rep = compare_nested(inner, outer, big_m=0.5, small_m=0.5, pairs=scaled(pairs))
    return rep["samples"], -rep["min_margin"]


@_check(1e-6)
def check_moebius_isometry(rng):
    dom = ball_domain()
    drawn = []
    for _ in range(4):
        alpha = 0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        drawn.append((MoebiusBall(complex(alpha)), _oracle_draws(rng, ball_draw, 3)))
    worst = 0.0
    n = 0
    for f, triples in scaled(drawn):
        rep = check_contraction(f, dom, dom, triples, equality=True, tol=1e-6)
        worst = max(worst, rep["worst_abs_gap"])
        n += rep["samples"]
    return n, worst


@_check(1e-7)
def check_polynomial_contraction(rng):
    dom = ball_domain()
    triples = scaled(_oracle_draws(rng, ball_draw, 12))
    rep = check_contraction(Polynomial((0.0, 0.0, 0.5)), dom, dom, triples, tol=1e-7)
    return rep["samples"], rep["worst_excess"]


# ---------------------------------------------------------------- freeprob


def _sample_model(rng) -> MatrixModel:
    x = hermitian_matrix(rng, 6, scale=1.0)
    return MatrixModel(x, (2, 2, 2))


def _block_scalar(rng, blocks, im_floor: float | None = None) -> np.ndarray:
    # an element of the diagonal block algebra B: one scalar per block
    parts = []
    for width in blocks:
        z = complex(rng.standard_normal(), rng.standard_normal())
        if im_floor is not None:
            z = complex(z.real, float(rng.uniform(im_floor, im_floor + 1.0)))
        parts.append(z * np.eye(width, dtype=np.complex128))
    return direct_sum_mats(*parts)


def _resolvent_imag_tops(model, b: NcPoint):
    return herm_eigvals(imag_part(cauchy_G(model, b).mat))[..., -1]


@_check(0.0)
def check_resolvent_negative_imag(rng):
    model = _sample_model(rng)
    samples = []
    for _ in range(15):
        lvl = int(rng.integers(1, 3))
        samples.append(((halfplane_point(rng, lvl, 6),),))
    worst = -float("inf")
    for (top,) in _stacked(samples, partial(_resolvent_imag_tops, model)):
        worst = max(worst, top)
    return 15, worst


def _expectation_defects(model, m: NcPoint, b1: NcPoint, b2: NcPoint, _name: str) -> list:
    """Per row: E idempotent, a bimodule map over b1 and b2, *-preserving and positive."""
    m, b1, b2 = m.mat, b1.mat, b2.mat
    em = expectation(model, m)
    idempotent = operator_norm(expectation(model, em) - em)
    bimodule = operator_norm(expectation(model, b1 @ m @ b2) - b1 @ em @ b2)
    star = operator_norm(expectation(model, m.conj().mT) - em.conj().mT)
    low = herm_eigvals(herm_part(expectation(model, m @ m.conj().mT)))[..., 0]
    positive = [max(0.0, -x) for x in low.tolist()]
    return list(zip(idempotent.tolist(), bimodule.tolist(), star.tolist(), positive))


@_check(1e-12)
def check_expectation_axioms(rng):
    model = _sample_model(rng)
    samples = []
    for _ in range(10):
        lvl = int(rng.integers(1, 3))
        m = complex_matrix(rng, 6 * lvl, 6 * lvl, scale=2.0)
        # bimodule over matrices with block-scalar entries
        b1 = np.kron(complex_matrix(rng, lvl, lvl), np.diag(np.repeat(rng.standard_normal(3), 2)).astype(complex))
        b2 = np.kron(complex_matrix(rng, lvl, lvl), np.diag(np.repeat(rng.standard_normal(3), 2)).astype(complex))
        samples.append(tuple(NcPoint(6, lvl, x) for x in (m, b1, b2)))
    worst = 0.0
    for defects in sample_outcomes(samples, partial(_expectation_defects, model), "sample"):
        worst = max(worst, *defects)
    worst = max(worst, operator_norm(expectation(model, np.eye(6)) - np.eye(6)))
    return 10, worst


@_check(1e-8)
def check_omega_direct_sum(rng):
    worst = 0.0
    # scalar law
    law = ScalarLaw("bernoulli")
    rho = ScalarPower(2.0)
    b1 = point(np.array([[0.3 + 1.2j]]))
    w1, _ = subordination_solve(law, rho, b1)
    b2 = NcPoint(1, 2, np.kron(np.eye(2), b1.mat))
    w2, _ = subordination_solve(law, rho, b2)
    worst = max(worst, operator_norm(w2.mat - np.kron(np.eye(2), w1.mat)))
    # matrix model with a Kraus augmentation
    model = _sample_model(rng)
    v = np.diag(np.repeat([0.8, 0.5, 0.9], 2)).astype(complex)
    rho_m = KrausAugment((v,))
    mb1 = NcPoint(6, 1, _block_scalar(rng, model.blocks, im_floor=1.0))
    mw1, _ = subordination_solve(model, rho_m, mb1)
    mb2 = NcPoint(6, 2, np.kron(np.eye(2), mb1.mat))
    mw2, _ = subordination_solve(model, rho_m, mb2)
    worst = max(worst, operator_norm(mw2.mat - np.kron(np.eye(2), mw1.mat)))
    return 2, worst


# a Picard ratio below this is ~0: compared with it, a bound tests nothing
PICARD_RATIO_FLOOR = 0.01


@_check(0.0)
def check_subordination_certificate(rng):
    worst = -float("inf")
    n = 0
    for law_kind, t in (("bernoulli", 2.0), ("bernoulli", 3.0), ("semicircle", 2.0)):
        law = ScalarLaw(law_kind)
        rho = ScalarPower(t)
        zs = [complex(rng.uniform(-2.0, 2.0), rng.uniform(0.4, 2.0)) for _ in range(5)]
        pts = [(point(np.array([[z]])),) for z in zs]
        for ratio, bound in sample_outcomes(pts, partial(_certificates, law, rho), "sample"):
            if not ratio > PICARD_RATIO_FLOOR:
                worst = math.inf  # a ratio of ~0 would pass any bound
            elif bound is not None:
                worst = max(worst, ratio - bound - 0.05)
            n += 1
    return n, worst


def _certificates(law, rho, b: NcPoint, name: str) -> list:
    """(Picard ratio near the solution, contraction bound) at each row of b."""
    solved = subordination_solve(law, rho, b)
    omega = NcPoint(b.base_dim, b.level, np.stack([w.mat for w, _ in solved]))
    return list(zip(picard_ratio(law, rho, b, omega).tolist(), [t.contraction_bound for _, t in solved]))


def _h0_pair_defects(h0, a: NcPoint, c: NcPoint, b: NcDirection):
    # scale b so the block point stays well inside the half-plane
    g_raw = 2.0 * halfplane_delta(a, c, b)
    tau = np.minimum(1.0, 1.8 / np.maximum(1e-12, g_raw))
    b = NcDirection(a.base_dim, a.level, c.level, tau[:, None, None] * b.mat)
    gauge = g_raw * tau
    big = h0(block_upper(a, b, c))
    corner = NcDirection(a.base_dim, a.level, c.level, big.mat[..., : a.dim, a.dim :])
    ha, hc = h0(a), h0(c)
    lhs = 2.0 * halfplane_delta(ha, hc, corner)
    factor_a = 1.0 - h0.eps0 / herm_eigvals(imag_part(ha.mat))[..., -1]
    factor_c = 1.0 - h0.eps0 / herm_eigvals(imag_part(hc.mat))[..., -1]
    rhs_sq = gauge * gauge * factor_a * factor_c
    return lhs * lhs - rhs_sq * (1.0 + 1e-9) - 1e-12


@_check(0.0)
def check_schwarz_pick_h0(rng):
    h0_scalar = make_h0(ScalarLaw("bernoulli"), ScalarPower(2.0), point(np.array([[1.0j]])))
    scalar_samples = []
    for _ in range(8):
        a = halfplane_point(rng, 1, 1, im_floor=0.4)
        c = halfplane_point(rng, 1, 1, im_floor=0.4)
        scalar_samples.append(((a, c, NcDirection(1, 1, 1, complex_matrix(rng, 1, 1))),))
    model = _sample_model(rng)
    v = np.diag(np.repeat([0.7, 1.0, 0.4], 2)).astype(complex)
    h0_mat = make_h0(model, KrausAugment((v,)), NcPoint(6, 1, 1.5j * np.eye(6)))
    block_samples = []
    for _ in range(6):
        # operands must live in the block algebra for h to be a map on H+(B)
        a, c, b = (_block_scalar(rng, model.blocks, im_floor) for im_floor in (0.4, 0.4, None))
        block_samples.append(((NcPoint(6, 1, a), NcPoint(6, 1, c), NcDirection(6, 1, 1, b)),))
    worst = -float("inf")
    for h0, samples in ((h0_scalar, scalar_samples), (h0_mat, block_samples)):
        for (defect,) in _stacked(samples, partial(_h0_pair_defects, h0)):
            worst = max(worst, defect)
    return len(scalar_samples) + len(block_samples), worst


def _im_h_norms(model, b: NcPoint):
    return operator_norm(imag_part(F_and_h(model, b)[1].mat))


@_check(0.0)
def check_imh_decay(rng):
    worst = -float("inf")
    heights = (2.0, 8.0, 32.0, 128.0)
    for model in (ScalarLaw("semicircle"), _sample_model(rng)):
        d = model.base_dim
        if d == 1:
            u = hermitian_matrix(rng, 1)
        else:
            u = np.real(_block_scalar(rng, model.blocks)).astype(complex)
        samples = [((NcPoint(d, 1, u + 1j * y * np.eye(d)),),) for y in heights]
        ratios = [norm / y for (norm,), y in zip(_stacked(samples, partial(_im_h_norms, model)), heights)]
        worst = max(worst, max(later - earlier for earlier, later in zip(ratios, ratios[1:])))
        worst = max(worst, ratios[-1] - 1e-3)
    return 8, worst


def _gauge(a: NcPoint, c: NcPoint):
    """The half-plane gauge ||(Im a)^(-1/2) (a - c) (Im c)^(-1/2)|| per row of the stacks."""
    return 2.0 * halfplane_delta(a, c, NcDirection(a.base_dim, a.level, c.level, a.mat - c.mat))


@_check(1e-10)
def check_gauge_matches_delta(rng):
    samples = [((a, c), (a, c), (a, a)) for a, c in _pairs(rng, halfplane_point, 15)]
    worst = 0.0
    routes = (_gauge, partial(delta_tilde, HalfPlaneKernel()), _gauge)
    for gauge, tilde, zero in _stacked(samples, *routes):
        worst = max(worst, abs(gauge - 2.0 * tilde))
        worst = max(worst, zero)
    return 15, worst


@_check(0.0)
def check_fixed_point_range(rng):
    h0 = make_h0(ScalarLaw("bernoulli"), ScalarPower(2.0), point(np.array([[2.0j]])))
    worst = -float("inf")
    n = 0
    for a_mat in (
        np.array([[1.0j]]),
        np.array([[0.5 + 0.8j]]),
        hermitian_matrix(rng, 2) + 1.0j * np.eye(2),
    ):
        a = NcPoint(1, a_mat.shape[0], a_mat)
        res = k0_and_fixed_point(h0, a)
        # the returned point must solve x = a + k0(x) and keep k0 in its disk
        recompute = a.mat - inverse(h0(NcPoint(1, a.level, -inverse(res.x.mat))).mat)
        worst = max(worst, operator_norm(recompute - res.x.mat) - 1e-9)
        n += 1
    return n, worst


def run_suite(seed: int) -> tuple[CheckResult, ...]:
    """Run every check in registry order."""
    return tuple(chk(seed) for chk in CHECKS)


def report_csv(results) -> str:
    lines = ["check,samples,worst,tol,status"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name},{r.samples},{r.worst!r},{r.tol!r},{status}")
    return "\n".join(lines) + "\n"


def all_passed(results) -> bool:
    return all(r.passed for r in results)
