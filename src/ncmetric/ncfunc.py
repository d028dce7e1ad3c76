"""Matrix functions that respect direct sums and intertwinings.

Variants: polynomials, a ball Moebius map, affine maps, scalar
calculus from a coefficient list with a convergence radius, and
compositions. Each evaluates itself in _eval, behind eval_mat, and
registers its JSON form (see matcore.variant). Evaluation is plain
matrix substitution, so the direct-sum and intertwining laws hold
automatically; check_axioms measures them anyway on supplied samples.

delta_f extracts the difference-differential from one evaluation at
an upper-triangular 2x2 block point: the (1,2) corner of
f([[a, b], [0, c]]) is Delta f(a, c)(b).

eval_mat, eval_point and delta_f take stacks of matrices over leading
axes and evaluate each matrix of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    InputError,
    NumericalFailure,
    SingularMatrix,
    as_stack,
    complex_from_json,
    condition_number,
    direct_sum_mats,
    each,
    finite,
    inverse,
    json_number,
    of_family,
    operator_norm,
    variant,
)
from .ncpoint import NcDirection, NcPoint, block_upper

# Ball Moebius parameters must stay this far inside the disk.
MOEBIUS_ALPHA_MAX = 1.0 - 1e-9
# Scalar-calculus truncation: stop once the coefficient-majorant tail
# at the argument's norm drops below this.
SERIES_TAIL_TOL = 1e-12
# check_axioms passes when every defect is at most this, relative to scale.
AXIOM_TOL = 1e-10


class DomainViolation(InputError):
    """The function cannot be evaluated at the given point."""


class SeriesNotConverged(NumericalFailure):
    """The argument lies outside the stated convergence radius."""


@variant("function", "polynomial", coeffs=each(complex_from_json))
@dataclass(frozen=True)
class Polynomial:
    """p(z) = sum coeffs[k] z^k, evaluated by Horner substitution."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(finite("coeffs", complex(c)) for c in self.coeffs))

    def _eval(self, m: np.ndarray, eye: np.ndarray) -> np.ndarray:
        if not self.coeffs:
            return np.zeros_like(m)
        acc = self.coeffs[-1] * eye
        for c in reversed(self.coeffs[:-1]):
            acc = acc @ m + c * eye
        # a constant polynomial never met m
        return acc if acc.shape == m.shape else np.broadcast_to(acc, m.shape).copy()


@variant("function", "moebius_ball", alpha=complex_from_json)
@dataclass(frozen=True)
class MoebiusBall:
    """z -> (z - alpha)(1 - conj(alpha) z)^(-1), an automorphism of the ball.

    The two factor orders agree: both are rational functions of the
    same matrix, so they commute. Evaluation uses resolvent-first,
    (b - alpha) @ (1 - conj(alpha) b)^(-1); equality of the orders is
    covered by tests.
    """

    alpha: complex

    def __post_init__(self):
        a = finite("alpha", complex(self.alpha))
        object.__setattr__(self, "alpha", a)
        if abs(a) >= MOEBIUS_ALPHA_MAX:
            raise ValueError(f"|alpha| = {abs(a):.12f} must be < {MOEBIUS_ALPHA_MAX}")

    def _eval(self, m: np.ndarray, eye: np.ndarray) -> np.ndarray:
        try:
            res = inverse(eye - np.conj(self.alpha) * m)
        except SingularMatrix as exc:
            raise DomainViolation(f"Moebius pole proximity: {exc}") from None
        return (m - self.alpha * eye) @ res


@variant("function", "cayley_like", beta=complex_from_json, gamma=complex_from_json)
@dataclass(frozen=True)
class CayleyLike:
    """Affine map z -> beta z + gamma."""

    beta: complex
    gamma: complex

    def __post_init__(self):
        object.__setattr__(self, "beta", finite("beta", complex(self.beta)))
        object.__setattr__(self, "gamma", finite("gamma", complex(self.gamma)))

    def _eval(self, m: np.ndarray, eye: np.ndarray) -> np.ndarray:
        return self.beta * m + self.gamma * eye


@variant("function", "scalar_calculus", coeffs=each(complex_from_json), radius=json_number)
@dataclass(frozen=True)
class ScalarCalculus:
    """Power series sum coeffs[k] z^k with a stated convergence radius.

    Evaluation requires ||a|| < radius and truncates once the
    majorant tail sum_{j>=k} |c_j| ||a||^j falls below SERIES_TAIL_TOL;
    no eigendecomposition of the argument is used.
    """

    coeffs: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(finite("coeffs", complex(c)) for c in self.coeffs))
        object.__setattr__(self, "radius", finite("radius", float(self.radius)))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def _eval(self, m: np.ndarray, eye: np.ndarray) -> np.ndarray:
        if m.ndim > 2:
            # the truncation depends on each matrix's norm
            rows = [eval_mat(self, row) for row in m.reshape((-1,) + m.shape[-2:])]
            return np.array(rows, dtype=np.complex128).reshape(m.shape)
        r = operator_norm(m)
        if r >= self.radius:
            raise SeriesNotConverged(f"||a|| = {r:.6g} is not inside radius {self.radius:.6g}")
        majorant = np.array([abs(c) for c in self.coeffs], dtype=np.float64)
        powers = r ** np.arange(len(self.coeffs))
        # tails[k] = sum_{j >= k} |c_j| r^j
        tails = np.concatenate([np.cumsum((majorant * powers)[::-1])[::-1], [0.0]])
        acc = np.zeros_like(m)
        term = eye
        for k, c in enumerate(self.coeffs):
            if tails[k] < SERIES_TAIL_TOL:
                break
            acc = acc + c * term
            term = term @ m
        return acc


@variant("function", "composition", parts=each(of_family("function")))
@dataclass(frozen=True)
class Composition:
    """parts applied left to right: f = parts[-1] o ... o parts[0]."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("composition needs at least one part")

    def _eval(self, m: np.ndarray, eye: np.ndarray) -> np.ndarray:
        for part in self.parts:
            m = eval_mat(part, m)
        return m


def eval_mat(f, m: np.ndarray) -> np.ndarray:
    """Evaluate f at a plain square matrix, or at each matrix of a stack.

    Raises DomainViolation or SeriesNotConverged when any matrix of a
    stack cannot be evaluated.
    """
    m = as_stack(m)
    return f._eval(m, np.eye(m.shape[-1], dtype=np.complex128))


def eval_point(f, a: NcPoint) -> NcPoint:
    """Evaluate f at a point; the result lives at the same level."""
    return NcPoint(a.base_dim, a.level, eval_mat(f, a.mat))


def delta_f(f, a: NcPoint, c: NcPoint, b: NcDirection) -> NcDirection:
    """Difference-differential Delta f(a, c)(b) by block evaluation.

    Only evaluability of f at the block point is needed, not domain
    membership of the block. The result is linear in b and satisfies
    Delta f(a, c)(a - c) = f(a) - f(c).
    """
    big = eval_mat(f, block_upper(a, b, c).mat)
    corner = big[..., : a.dim, a.dim :]
    return NcDirection(a.base_dim, a.level, c.level, corner)


def check_axioms(f, points, rng) -> dict:
    """Measure the direct-sum and intertwining laws on sample points.

    For each consecutive pair of points the direct-sum defect
    ||f(a (+) c) - f(a) (+) f(c)|| is recorded, along with the
    permutation-swap defect. For each point an invertible level matrix
    S, drawn from rng, produces c = S^(-1) a S and the intertwining
    defect ||f(a) S - S f(c)||, scaled by the conditioning of S.

    Returns a report dict; report["ok"] is True when every defect is
    within AXIOM_TOL of scale.
    """
    points = list(points)
    direct_sum_defects = []
    swap_defects = []
    intertwine_defects = []
    for a, c in zip(points, points[1:]):
        fa, fc = eval_mat(f, a.mat), eval_mat(f, c.mat)
        fboth = eval_mat(f, direct_sum_mats(a.mat, c.mat))
        expect = direct_sum_mats(fa, fc)
        scale = max(1.0, float(np.linalg.norm(expect)))
        direct_sum_defects.append(float(np.linalg.norm(fboth - expect)) / scale)
        # Swapped order reproduces the diagonal blocks up to an ulp; blas
        # reduction grouping shifts with the block offset when dims differ.
        fswapped = eval_mat(f, direct_sum_mats(c.mat, a.mat))
        swap = max(
            float(np.max(np.abs(fswapped[c.dim :, c.dim :] - fboth[: a.dim, : a.dim]))),
            float(np.max(np.abs(fswapped[: c.dim, : c.dim] - fboth[a.dim :, a.dim :]))),
        )
        swap_defects.append(swap)
    for a in points:
        # Well-conditioned S keeps c = S^(-1) a S evaluable for every variant.
        g = rng.standard_normal((a.dim, a.dim)) + 1j * rng.standard_normal((a.dim, a.dim))
        s = np.eye(a.dim, dtype=np.complex128) + 0.2 * g / max(1.0, operator_norm(g))
        c = inverse(s) @ a.mat @ s
        lhs = eval_mat(f, a.mat) @ s
        rhs = s @ eval_mat(f, c)
        scale = max(1.0, float(np.linalg.norm(lhs))) * condition_number(s)
        intertwine_defects.append(float(np.linalg.norm(lhs - rhs)) / scale)
    worst = max(direct_sum_defects + intertwine_defects, default=0.0)
    worst_swap = max(swap_defects, default=0.0)
    return {
        "samples": len(points),
        "direct_sum_max": max(direct_sum_defects, default=0.0),
        "swap_max": worst_swap,
        "intertwining_max": max(intertwine_defects, default=0.0),
        "ok": bool(worst <= AXIOM_TOL and worst_swap <= AXIOM_TOL),
    }

