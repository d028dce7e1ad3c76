"""Independent oracle implementations for test expectations.

Deliberately written against raw numpy/scipy only, with different
algorithms than the package where possible (root finding on margin
functions instead of membership bisection, explicit summation formulas
instead of block evaluation), so agreement is evidence and not an
identity check.
"""

import warnings

import numpy as np
from scipy.optimize import brentq, fsolve


def op_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))


def inv_sqrt_psd(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T


def ball_delta(a, c, b) -> float:
    a, c, b = (np.asarray(x, dtype=complex) for x in (a, c, b))
    left = inv_sqrt_psd(np.eye(a.shape[0]) - a @ a.conj().T)
    right = inv_sqrt_psd(np.eye(c.shape[0]) - c.conj().T @ c)
    return op_norm(left @ b @ right)


def halfplane_delta(a, c, b) -> float:
    a, c, b = (np.asarray(x, dtype=complex) for x in (a, c, b))
    ima = (a - a.conj().T) / 2j
    imc = (c - c.conj().T) / 2j
    return 0.5 * op_norm(inv_sqrt_psd(ima) @ b @ inv_sqrt_psd(imc))


def _block(a, c, b, s: float) -> np.ndarray:
    n, m = a.shape[0], c.shape[0]
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n] = a
    out[n:, n:] = c
    out[:n, n:] = s * b
    return out


def ray_delta_by_margin_root(margin_fn, a, c, b, s_hi_start=1.0) -> float:
    """sup 1/s over s with margin(block(s)) > 0, located as the first
    zero of the margin along the ray via brentq."""
    a, c, b = (np.asarray(x, dtype=complex) for x in (a, c, b))

    def g(s: float) -> float:
        return margin_fn(_block(a, c, b, s))

    lo, hi = 0.0, s_hi_start
    while g(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e9:
            return 0.0
    s_star = brentq(g, lo if lo > 0 else 1e-12, hi, xtol=1e-13, rtol=1e-14)
    return 1.0 / s_star


def ball_margin(m) -> float:
    return 1.0 - op_norm(m)


def halfplane_margin(m) -> float:
    im = (m - m.conj().T) / 2j
    return float(np.linalg.eigvalsh(im)[0])


def poly_delta(coeffs, a, c, b) -> np.ndarray:
    """Difference-differential of a polynomial by the explicit sum
    sum_k coeff_k sum_i a^i b c^(k-1-i)."""
    a, c, b = (np.asarray(x, dtype=complex) for x in (a, c, b))
    out = np.zeros_like(b)
    for k, coeff in enumerate(coeffs):
        if k == 0 or coeff == 0:
            continue
        for i in range(k):
            out += coeff * np.linalg.matrix_power(a, i) @ b @ np.linalg.matrix_power(c, k - 1 - i)
    return out


# ---- scalar free probability ----------------------------------------


def semicircle_G(z: complex, variance: float = 1.0) -> complex:
    # factored square roots keep the branch right on all of C+; G is the
    # root of v g^2 - z g + 1 = 0 that decays, 1 / (v g_big) by Vieta, where
    # g_big = (z + s) / 2v does not cancel (z - s would, far from the support)
    s = np.sqrt(z - 2 * np.sqrt(variance)) * np.sqrt(z + 2 * np.sqrt(variance))
    g_big = (z + s) / (2.0 * variance)
    return 1.0 / (variance * g_big)


def arcsine_G(z: complex) -> complex:
    return 1.0 / (np.sqrt(z - 2.0) * np.sqrt(z + 2.0))


def semicircle_G_prime(z: complex, variance: float = 1.0) -> complex:
    # differentiate v g^2 - z g + 1 = 0
    g = semicircle_G(z, variance)
    return g / (2.0 * variance * g - z)


def arcsine_G_prime(z: complex) -> complex:
    # g = (z^2 - 4)^(-1/2)
    return -z * arcsine_G(z) ** 3


def semicircle_G_divided(z1: complex, z2: complex, variance: float = 1.0) -> complex:
    # (G1 - G2) / (z1 - z2) with no cancellation at close points: z = v g + 1/g
    # gives z1 - z2 = (G1 - G2)(v - 1 / (G1 G2)); it is G' at z1 = z2
    g12 = semicircle_G(z1, variance) * semicircle_G(z2, variance)
    return g12 / (variance * g12 - 1.0)


def arcsine_G_divided(z1: complex, z2: complex) -> complex:
    # (G1 - G2) / (z1 - z2) with no cancellation at close points: 1 / g^2 = z^2 - 4
    # gives (z1 - z2)(z1 + z2) = (G2 - G1)(G2 + G1) / (G1 G2)^2; it is G' at z1 = z2
    g1, g2 = arcsine_G(z1), arcsine_G(z2)
    return -(z1 + z2) * (g1 * g2) ** 2 / (g1 + g2)


def bernoulli_G(z: complex) -> complex:
    return 0.5 * (1.0 / (z - 1.0) + 1.0 / (z + 1.0))


def bernoulli_power2_omega(z: complex) -> complex:
    # omega solves w = z - 1/w; the branch with Im w > Im z
    w = (z + np.sqrt(z * z - 4.0)) / 2.0
    if w.imag < z.imag:
        w = (z - np.sqrt(z * z - 4.0)) / 2.0
    return w


def semicircle_density(x: float, variance: float = 1.0) -> float:
    supp = 4.0 * variance - x * x
    return float(np.sqrt(supp) / (2.0 * np.pi * variance)) if supp > 0 else 0.0


def bernoulli_t2_fixed_point(a: complex, b0: complex) -> complex:
    # x = a - 1/(b0 + x); for bernoulli with t = 2 this is a quadratic
    disc = np.sqrt((b0 - a) ** 2 - 4.0 * (1.0 - a * b0))
    for root in ((a - b0 + disc) / 2.0, (a - b0 - disc) / 2.0):
        if root.imag > 0 and abs(root - a + 1.0 / (b0 + root)) < 1e-9:
            return complex(root)
    raise AssertionError("no upper-half-plane root solves the fixed point")


# ---- matrix models at level one --------------------------------------


def _block_traces(x, blocks, w):
    """G_k(w) = tr_k((diag(w_j I_{k_j}) - x)^(-1)) / k_k for each partition block k."""
    sizes = np.asarray(blocks)
    owner = np.repeat(np.arange(len(blocks)), blocks)
    diag = np.diag(np.linalg.inv(np.diag(w[owner]) - x))
    return (np.bincount(owner, diag.real) + 1j * np.bincount(owner, diag.imag)) / sizes


def matrix_model_omega(x, blocks, ts, z: complex) -> np.ndarray:
    """The level-one subordination point of a matrix model at z I, one entry per block.

    On the block-scalar algebra the fixed point w = z + (rho - Id)(1/G(w) - w)
    splits into one equation per block: t_k w_k - (t_k - 1) / G_k(w) = z,
    with t_k = 1 + (the weight of rho - Id on block k). Solved by fsolve
    on its real and imaginary parts, following Im z from 3 down to Im z in
    40 geometric steps, so that each solve starts next to the branch it
    continues.
    """
    x, ts, k = np.asarray(x, dtype=complex), np.asarray(ts, dtype=float), len(blocks)

    def equations(v, zz):
        w = v[:k] + 1j * v[k:]
        e = ts * w - (ts - 1.0) / _block_traces(x, blocks, w) - zz
        return np.concatenate((e.real, e.imag))

    v = np.concatenate((np.full(k, z.real), np.full(k, 3.0)))
    for y in np.geomspace(3.0, z.imag, 40):
        with warnings.catch_warnings():
            # MINPACK warns when xtol is below what it can reach; the residual decides below
            warnings.simplefilter("ignore", RuntimeWarning)
            v = fsolve(equations, v, args=(complex(z.real, y),), xtol=1e-14)
    w = v[:k] + 1j * v[k:]
    residual = np.abs(equations(v, z)).max()
    if residual > 1e-11 * max(1.0, np.abs(w).max()):
        raise AssertionError(f"the block equations were not solved at z = {z}: residual {residual:.3e}")
    return w


def matrix_model_density(x, blocks, ts, z: complex) -> float:
    """-Im tr(G(w)) / (d pi) at the subordination point w of z I (see matrix_model_omega)."""
    g = _block_traces(np.asarray(x, dtype=complex), blocks, matrix_model_omega(x, blocks, ts, z))
    return float(-(np.asarray(blocks) @ g).imag / (sum(blocks) * np.pi))
