"""Acceptance suite: twelve numbered criteria, one report line each.

Every criterion asserts its stated tolerance directly; run with -s
(or read the failure output) to see the report lines.
"""

import io
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from ncmetric.cli import main as cli_main
from ncmetric.domains import (
    BallKernel,
    HalfPlaneKernel,
    NormBound,
    SpectralDisk,
    ball_domain,
    contains,
    halfplane_domain,
)
from ncmetric.freeprob import (
    KrausAugment,
    MatrixModel,
    ScalarLaw,
    ScalarPower,
    _solve_stack,
    cauchy_G,
    density_grid,
    expectation,
    picard_ratio,
    subordination_solve,
    support_interval,
)
from ncmetric.matcore import herm_part, operator_norm
from ncmetric.metric import (
    delta_auto_tilde,
    delta_closed,
    delta_kernel,
    delta_ray,
    delta_tilde,
    d_upper,
    dtilde_upper,
)
from ncmetric.ncfunc import MoebiusBall, Polynomial, delta_f, eval_point
from ncmetric.ncpoint import NcDirection, NcPoint, amplify, direct_sum, point, unitary_conjugate
from ncmetric.sampling import (
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

SEED = 7
# a Picard ratio below this is ~0, and a certificate compared with it tests nothing
RATIO_FLOOR = 0.01


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _block_scalar(rng, blocks, im_floor=None):
    out = np.zeros((sum(blocks), sum(blocks)), dtype=np.complex128)
    pos = 0
    for width in blocks:
        z = complex(rng.standard_normal(), rng.standard_normal())
        if im_floor is not None:
            z = complex(z.real, float(rng.uniform(im_floor, im_floor + 1.0)))
        out[pos : pos + width, pos : pos + width] = z * np.eye(width)
        pos += width
    return out


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    rng = rng_stream(SEED, "acc_oracle")
    worst = 0.0
    for kernel, dom, sample in (
        (BallKernel(), ball_domain(), ball_draw),
        (HalfPlaneKernel(), halfplane_domain(), halfplane_point),
    ):
        for _ in range(100):
            lvl = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            a, c = scaled((sample(rng, lvl, d), sample(rng, lvl, d)))
            b = scaled(direction_draw(rng, d, lvl, lvl))
            ray = delta_ray(dom, a, c, b, tol=1e-7).value
            closed = delta_closed(kernel, a, c, b).value
            kern = delta_kernel(kernel, a, c, b).value
            worst = max(worst, abs(ray - closed), abs(ray - kern))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "oracle equivalence",
        worst <= 5e-6 and elapsed <= 60.0,
        f"worst route gap {worst:.2e} over 200 triples, {elapsed:.1f} s",
    )


def test_criterion_02_invariance_rules():
    rng = rng_stream(SEED, "acc_rules")
    worst_u = worst_d = worst_a = 0.0
    kinds = ((BallKernel(), ball_draw), (HalfPlaneKernel(), halfplane_point))
    for i in range(50):
        kernel, sample = kinds[i % 2]
        d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a, c = scaled((sample(rng, lvl, d), sample(rng, lvl, d)))
        b = scaled(direction_draw(rng, d, lvl, lvl))
        u, v = unitary_matrix(rng, lvl), unitary_matrix(rng, lvl)
        uk, vk = np.kron(u, np.eye(d)), np.kron(v, np.eye(d))
        before = delta_closed(kernel, a, c, b).value
        after = delta_closed(
            kernel,
            unitary_conjugate(u, a),
            unitary_conjugate(v, c),
            NcDirection(d, lvl, lvl, uk @ b.mat @ vk.conj().T),
        ).value
        worst_u = max(worst_u, abs(before - after))
    for i in range(50):
        kernel, sample = kinds[i % 2]
        d = int(rng.integers(1, 3))
        lv1, lv2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a1, c1 = scaled((sample(rng, lv1, d), sample(rng, lv1, d)))
        a2, c2 = scaled((sample(rng, lv2, d), sample(rng, lv2, d)))
        b1 = scaled(direction_draw(rng, d, lv1, lv1))
        b2 = scaled(direction_draw(rng, d, lv2, lv2))
        big_b = np.zeros((a1.dim + a2.dim, c1.dim + c2.dim), dtype=np.complex128)
        big_b[: a1.dim, : c1.dim] = b1.mat
        big_b[a1.dim :, c1.dim :] = b2.mat
        parts = (delta_closed(kernel, a1, c1, b1).value, delta_closed(kernel, a2, c2, b2).value)
        whole = delta_closed(
            kernel,
            direct_sum(a1, a2),
            direct_sum(c1, c2),
            NcDirection(d, lv1 + lv2, lv1 + lv2, big_b),
        ).value
        worst_d = max(worst_d, abs(whole - max(parts)))
    for _ in range(50):
        d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        k = int(rng.integers(2, 4))
        a, c = scaled(ball_draw(rng, lvl, d)), scaled(ball_draw(rng, lvl, d))
        b = scaled(direction_draw(rng, d, lvl, lvl))
        z = complex_matrix(rng, k, k)
        base = delta_closed(BallKernel(), a, c, b).value
        val = delta_closed(
            BallKernel(),
            amplify(np.eye(k), a),
            amplify(np.eye(k), c),
            NcDirection(d, k * lvl, k * lvl, np.kron(z, b.mat)),
        ).value
        worst_a = max(worst_a, abs(val - operator_norm(z) * base))
    worst = max(worst_u, worst_d, worst_a)
    _report(
        2,
        "invariance rules",
        worst <= 1e-8,
        f"unitary {worst_u:.2e}, direct sum {worst_d:.2e}, amplification {worst_a:.2e}",
    )


def test_criterion_03_matrix_convexity_counterexample():
    graded = SpectralDisk(0.0, 1.0, NormBound("level", 1.0))
    big = np.zeros((4, 4))
    big[0, 2] = 3.0
    big[1, 3] = 0.5
    small = np.array([[0.0, 3.0], [0.0, 0.0]])
    accepted = contains(graded, point(big))
    rejected = not contains(graded, point(small))
    _report(
        3,
        "matrix convexity counterexample",
        accepted and rejected,
        f"level 4 accepted {accepted}, level 2 rejected {rejected}",
    )


def test_criterion_04_bounded_tilde_counterexample():
    disk = SpectralDisk(0.0, 0.25, NormBound("constant", 1.0))
    rng = rng_stream(SEED, "acc_bounded")
    worst = 0.0
    for _ in range(200):
        lvl = int(rng.integers(1, 3))
        a = scaled(selfadjoint_disk_draw(rng, lvl, 1, 0.25))
        c = scaled(selfadjoint_disk_draw(rng, lvl, 1, 0.25))
        worst = max(worst, delta_auto_tilde(disk, a, c).value)
    blow = delta_tilde(BallKernel(), point([[0.0]]), point([[1.0 - 1e-3]])).value
    _report(
        4,
        "bounded tilde counterexample",
        worst <= 4.0 / 3.0 + 1e-9 and blow > 10.0,
        f"disk max {worst:.6f} vs 4/3, ball blow-up {blow:.2f}",
    )


def test_criterion_05_schwarz_pick():
    rng = rng_stream(SEED, "acc_schwarz")
    worst_eq = 0.0
    for _ in range(50):
        alpha = 0.85 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        f = MoebiusBall(complex(alpha))
        d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a, c = scaled(ball_draw(rng, lvl, d)), scaled(ball_draw(rng, lvl, d))
        b = scaled(direction_draw(rng, d, lvl, lvl))
        lhs = delta_closed(BallKernel(), eval_point(f, a), eval_point(f, c), delta_f(f, a, c, b)).value
        rhs = delta_closed(BallKernel(), a, c, b).value
        worst_eq = max(worst_eq, abs(lhs - rhs))
    half_square = Polynomial((0.0, 0.0, 0.5))
    worst_ex = -float("inf")
    for _ in range(50):
        d, lvl = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a, c = scaled(ball_draw(rng, lvl, d)), scaled(ball_draw(rng, lvl, d))
        b = scaled(direction_draw(rng, d, lvl, lvl))
        lhs = delta_closed(
            BallKernel(), eval_point(half_square, a), eval_point(half_square, c), delta_f(half_square, a, c, b)
        ).value
        rhs = delta_closed(BallKernel(), a, c, b).value
        worst_ex = max(worst_ex, lhs - rhs)
    _report(
        5,
        "Schwarz-Pick",
        worst_eq <= 1e-6 and worst_ex <= 1e-7,
        f"Moebius equality gap {worst_eq:.2e}, z^2/2 excess {worst_ex:.2e}",
    )


def test_criterion_06_distance_ordering():
    worst_single = 0.0
    ok_chain = True
    worst_path = 0.0
    for r in (0.3, 0.5, 0.7):
        a, c = point([[0.0]]), point([[r]])
        bound = dtilde_upper(ball_domain(), a, c, refinement_budget=6)
        single = r / math.sqrt(1.0 - r * r)
        worst_single = max(worst_single, abs(bound.stage_values[0] - single))
        stages = bound.stage_values
        ok_chain = ok_chain and all(s1 <= s0 + 1e-12 for s0, s1 in zip(stages, stages[1:]))
        ok_chain = ok_chain and bound.value <= math.atanh(r) + 1e-3
        path = d_upper(ball_domain(), a, c, quad_points=256)
        worst_path = max(worst_path, abs(path.value - math.atanh(r)))
        ok_chain = ok_chain and path.points_used == 256
    _report(
        6,
        "distance ordering",
        worst_single <= 1e-9 and ok_chain and worst_path <= 1e-4,
        f"single-division gap {worst_single:.2e}, path gap {worst_path:.2e}, chain ordering {ok_chain}",
    )


@pytest.fixture(scope="module")
def convolution_runs():
    t0 = time.perf_counter()
    grids = {}
    for t in (2.0, 4.0):
        xr = 0.02 * math.ceil((2.0 * math.sqrt(t) + 0.6) / 0.02)
        pts = int(round(2.0 * xr / 0.02)) + 1
        grids[t] = density_grid(
            ScalarLaw("semicircle"), ScalarPower(t), -xr, xr, points=pts, eps=3e-3
        )
    reals = np.linspace(-2.4, 2.4, 10)
    zs = [complex(x, 0.5) for x in reals] + [complex(x, 1.3) for x in reals]
    bern, bern_omegas = [], []
    law = ScalarLaw("bernoulli")
    for z in zs:
        omega, trace = subordination_solve(law, ScalarPower(2.0), point([[z]]))
        g = complex(cauchy_G(law, omega).mat[0, 0])
        bern.append((z, g, trace))
        bern_omegas.append(omega)
    return {"grids": grids, "bern": bern, "bern_omegas": bern_omegas, "elapsed": time.perf_counter() - t0}


def test_criterion_07_free_convolution_closed_forms(convolution_runs):
    worst_g = 0.0
    max_iters = 0
    all_converged = True
    for z, g, trace in convolution_runs["bern"]:
        want = 1.0 / (np.sqrt(z - 2.0) * np.sqrt(z + 2.0))
        worst_g = max(worst_g, abs(g - want))
        max_iters = max(max_iters, trace.iterations)
        all_converged = all_converged and trace.converged
    worst_edge = 0.0
    for t, grid in convolution_runs["grids"].items():
        all_converged = all_converged and all(r.converged for r in grid.rows)
        max_iters = max(max_iters, max(r.iterations for r in grid.rows))
        lo, hi = support_interval(grid, threshold=0.012)
        worst_edge = max(worst_edge, abs(lo + 2.0 * math.sqrt(t)), abs(hi - 2.0 * math.sqrt(t)))
    elapsed = convolution_runs["elapsed"]
    _report(
        7,
        "free convolution closed forms",
        worst_g <= 1e-8 and worst_edge <= 2e-2 and all_converged and max_iters <= 200 and elapsed <= 30.0,
        f"G gap {worst_g:.2e}, edge gap {worst_edge:.4f}, max iterations {max_iters}, {elapsed:.1f} s",
    )


def test_criterion_08_convergence_certificate(convolution_runs):
    # the plain Picard map's residual ratio near each solution against the
    # stated per-step factor; scalar fibers: ||1 - eps0 (Im w)^(-1)|| = 1 - eps0/Im w
    ratios, stated = [], []
    for t, grid in convolution_runs["grids"].items():
        law, rho = ScalarLaw("semicircle"), ScalarPower(t)
        b = NcPoint(1, 1, np.array([[[complex(row.x, grid.eps)]] for row in grid.rows]))
        omega, _ = _solve_stack(law, rho, b, tol=1e-9, max_iter=200)  # density_grid's defaults
        for row, ratio in zip(grid.rows, picard_ratio(law, rho, b, omega)):
            if row.converged and row.contraction_bound is not None:
                ratios.append(ratio)
                stated.append(row.contraction_bound)
    law = ScalarLaw("bernoulli")
    for (z, _, trace), omega in zip(convolution_runs["bern"], convolution_runs["bern_omegas"]):
        if trace.converged:
            ratios.append(picard_ratio(law, ScalarPower(2.0), point([[z]]), omega))
            stated.append(1.0 - trace.epsilon0 / trace.omega_im_min)
    ratios, stated = np.array(ratios), np.array(stated)
    _report(
        8,
        "convergence certificate",
        # ratios near 0 (or NaN) would make the comparison vacuous
        ratios.size > 0 and bool(np.all(ratios <= stated + 0.05) and np.all(ratios > RATIO_FLOOR)),
        f"worst ratio excess {np.max(ratios - stated - 0.05):.3f}, smallest ratio "
        f"{np.min(ratios):.3f} over {ratios.size} converged solves",
    )


def test_criterion_09_matrix_model_sanity():
    rng = rng_stream(SEED, "acc_model")
    model = MatrixModel(hermitian_matrix(rng, 6, scale=1.0), (2, 2, 2))
    worst_im = -float("inf")
    for _ in range(50):
        b = halfplane_point(rng, 1, 6)
        g = cauchy_G(model, b)
        im = (g.mat - g.mat.conj().T) / 2j
        worst_im = max(worst_im, float(np.linalg.eigvalsh(im)[-1]))
    worst_e = 0.0
    for _ in range(10):
        lvl = int(rng.integers(1, 3))
        m = complex_matrix(rng, 6 * lvl, 6 * lvl, scale=2.0)
        em = expectation(model, m)
        worst_e = max(worst_e, operator_norm(expectation(model, em) - em))
        b1 = np.kron(complex_matrix(rng, lvl, lvl), _block_scalar(rng, model.blocks))
        b2 = np.kron(complex_matrix(rng, lvl, lvl), _block_scalar(rng, model.blocks))
        worst_e = max(worst_e, operator_norm(expectation(model, b1 @ m @ b2) - b1 @ em @ b2))
        worst_e = max(worst_e, operator_norm(expectation(model, m.conj().T) - em.conj().T))
        pos = expectation(model, m @ m.conj().T)
        worst_e = max(worst_e, max(0.0, -float(np.linalg.eigvalsh(herm_part(pos))[0])))
    worst_e = max(worst_e, operator_norm(expectation(model, np.eye(6)) - np.eye(6)))
    v = np.diag(np.repeat([0.8, 0.5, 0.9], 2)).astype(complex)
    rho = KrausAugment((v,))
    b1 = NcPoint(6, 1, _block_scalar(rng, model.blocks, im_floor=1.0))
    b2 = NcPoint(6, 1, _block_scalar(rng, model.blocks, im_floor=1.0))
    w1, _ = subordination_solve(model, rho, b1)
    w2, _ = subordination_solve(model, rho, b2)
    wboth, _ = subordination_solve(model, rho, direct_sum(b1, b2))
    expect = np.zeros((12, 12), dtype=np.complex128)
    expect[:6, :6] = w1.mat
    expect[6:, 6:] = w2.mat
    worst_w = operator_norm(wboth.mat - expect)
    wamp, _ = subordination_solve(model, rho, NcPoint(6, 2, np.kron(np.eye(2), b1.mat)))
    worst_w = max(worst_w, operator_norm(wamp.mat - np.kron(np.eye(2), w1.mat)))
    _report(
        9,
        "matrix model sanity",
        worst_im < 0.0 and worst_e <= 1e-12 and worst_w <= 1e-8,
        f"max Im G eig {worst_im:.2e}, E defect {worst_e:.2e}, omega defect {worst_w:.2e}",
    )


def test_criterion_10_nesting_constant():
    rng = rng_stream(SEED, "acc_nesting")
    inner = ball_domain(0.5).kernel
    min_margin = float("inf")
    for _ in range(100):
        lvl = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        a = scaled(ball_draw(rng, lvl, d, radius=0.5, fill=0.95))
        c = scaled(ball_draw(rng, lvl, d, radius=0.5, fill=0.95))
        di = delta_tilde(inner, a, c).value
        do = delta_tilde(BallKernel(), a, c).value
        min_margin = min(min_margin, 0.5 * di - do)
    _report(
        10,
        "nesting constant",
        min_margin >= -1e-8,
        f"min k*inner - outer margin {min_margin:.2e} with k = 1/2",
    )


def test_criterion_11_norm_lower_bound():
    rng = rng_stream(SEED, "acc_norm_bound")
    min_margin = float("inf")
    for _ in range(100):
        lvl = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        a = scaled(ball_draw(rng, lvl, d, fill=0.9))
        c = scaled(ball_draw(rng, lvl, d, fill=0.9))
        val = delta_tilde(BallKernel(), a, c).value
        min_margin = min(min_margin, val - operator_norm(a.mat - c.mat))
    _report(
        11,
        "norm lower bound",
        min_margin >= -1e-9,
        f"min tilde - norm margin {min_margin:.2e} over 100 samples",
    )


def test_criterion_12_determinism():
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["props", "--seed", "7"])
        assert code == 0
        outs.append(buf.getvalue())
    _report(
        12,
        "determinism",
        bool(outs[0]) and outs[0] == outs[1],
        f"two props runs, {len(outs[0])} bytes each, identical {outs[0] == outs[1]}",
    )
