"""Kernels, the domains they cut out, and kernel derivatives.

A kernel K assigns to a pair of points (a, c) a linear map in P:

    half_plane:           K(a,c)(P) = (a P - P c*) / 2i
    ball:                 K(a,c)(P) = P - a P c*
    composed_ball:        K(a,c)(P) = P - G(a) P G(c)*
    composed_half_plane:  K(a,c)(P) = (G(a) P - P G(c)*) / 2i

The "1" of the classical kernels is the identity component, so every
variant is linear in P; both the direct-sum block law and the
intertwining law depend on that.

KernelDomain(K) is the set where K(a,a)(I) is strictly positive.
SpectralDisk and NilpotentCone are the two non-kernel domains used by
the counterexample reproductions. A ray [[a, s b], [0, c]] keeps the
spectrum of a and c, so on a disk only the norm cap ends it and on the
cone nothing does; both give delta exactly.

Each variant is one class that registers its JSON form (see
matcore.variant) and carries its behaviour. A kernel's _pair(x, y, p)
is the affine pairing H(x, y)(P), y on the starred side (K(a, c)(P) at
y = c*; the composed kernels apply z -> G(z*)* there, so block
evaluations stay matrix arithmetic), and its _propose(rng, level,
base_dim) draws candidate matrices from the ball or the half-plane it
pulls back. The ball and half-plane kernels carry their closed form,
_closed_form(a, c, b) = delta(a, c)(b), labelled by closed ("ball",
"halfplane"); the composed kernels have closed = None.

A domain kind, here or outside the package, has a kernel attribute
(the kernel that cuts it out, or None), _propose(rng, level, base_dim)
for sample_triples, optionally _delta(a, c, b) = delta(a, c)(b)
exactly at MEMBERSHIP_MARGIN, and _inside(a, margin). _inside always
receives a stack (N, n, n) (see ncpoint) and returns (inside, score),
N bools and N floats, or raises a NumericalFailure when some row
cannot be tested (matcore's rule fails a factored matrix that is not
finite; a 1x1 gram is not factored, and one that is not finite scores
outside).
The score is positive inside and, along a ray [[a, s b], [0, c]],
changes sign where the ray leaves (kernel domains: lambda_min of the
gram less its margin term; spectral disks: the norm cap less ||X||,
the spectrum of a ray being fixed); NaN for a kind without one. The
ray search predicts its exit from it (metric.delta_ray). members is
the one caller of _inside, and contains and require_inside are views
of it. Kernel evaluation and kernel_diffs take stacks too.

sample_triples draws the samples (a, c, b) of `contract` in proposal
rounds. A domain's _propose returns the tuple of candidate matrices of
one proposal, or a sampling.Draw whose make yields that tuple from the
scaled matrix, so that sampling.scaled normalises it together with the
other draws of its round. Round 1 draws, sample by sample, the proposal
for a, the one for c and the direction b; the round's draws are scaled
together and one stacked contains per level tests every candidate of
the round. Each point keeps its first candidate inside. Points with
none inside propose again in the next round, after all of the round's
draws, in sample order (a before c); a point that misses for
SAMPLE_TRIES rounds fails.

kernel_diffs assembles the three first-order kernel derivatives in a
single evaluation: with X = [[a, b], [0, c]], Y = [[c*, b*], [0, a*]]
and P arranged to put the identity in the lower-left block, the four
blocks of the affine pairing H(X, Y)(P) are exactly D0, D01, the
self-gram of c, and D1; every unwanted summand vanishes because the
kernels are linear in P.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .matcore import (
    InputError,
    NumericalFailure,
    as_matrix,
    complex_from_json,
    finite,
    herm_eigvals,
    herm_part,
    imag_part,
    json_number,
    of_family,
    operator_norm,
    positivity_score,
    spectrum,
    variant,
    whitener,
)
from .ncfunc import DomainViolation, Polynomial, SeriesNotConverged, eval_mat
from .ncpoint import BaseDimMismatch, DimMismatch, NcDirection, NcPoint, block_upper, per_row, rows
from .sampling import (
    SamplingFailure,
    ball_draw,
    direction_draw,
    halfplane_point,
    nilpotent_point,
    scaled,
    selfadjoint_disk_draw,
)

# Default membership margin (relative on kernel domains, via positivity_score).
MEMBERSHIP_MARGIN = 1e-9
# ||a^m|| <= NILPOTENT_TOL * ||a||^m counts as nilpotent at size m.
NILPOTENT_TOL = 1e-10
# sample_triples' number of proposal rounds before it gives up.
SAMPLE_TRIES = 200


class EvaluationFailure(NumericalFailure):
    """A kernel (or its composing function) failed to evaluate."""


class PointOutsideDomain(InputError):
    """An operation required a point strictly inside a domain."""


def _apply_g(g, m: np.ndarray) -> np.ndarray:
    try:
        return eval_mat(g, m)
    except (DomainViolation, SeriesNotConverged) as exc:
        raise EvaluationFailure(f"composing function failed: {exc}") from None


class _HalfPlaneForm:
    def _pair(self, x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return (x @ p - p @ y) / 2.0j

    def _propose(self, rng, level: int, base_dim: int) -> tuple:
        p = halfplane_point(rng, level, base_dim).mat
        # composed domains can be much smaller, or far up (g(z) = z - 5i needs Im a > 5)
        return (p, p * 0.2, *(p + 1j * s * np.eye(len(p)) for s in (4, 16, 64)))


class _BallForm:
    def _pair(self, x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return p - x @ p @ y

    def _propose(self, rng, level: int, base_dim: int):
        # composed domains can be much smaller
        return replace(ball_draw(rng, level, base_dim, radius=1.0, fill=0.7), make=lambda p: (p, p * 0.2))


def _composed(g, x: np.ndarray, y: np.ndarray) -> tuple:
    """(G(x), G(y*)*): the pairing's arguments pulled back through g."""
    return _apply_g(g, x), _apply_g(g, y.conj().mT).conj().mT


@variant("kernel", "half_plane")
@dataclass(frozen=True)
class HalfPlaneKernel(_HalfPlaneForm):
    closed = "halfplane"

    def _closed_form(self, a: NcPoint, c: NcPoint, b: NcDirection):
        return halfplane_delta(a, c, b)


@variant("kernel", "ball")
@dataclass(frozen=True)
class BallKernel(_BallForm):
    closed = "ball"

    def _closed_form(self, a: NcPoint, c: NcPoint, b: NcDirection):
        return ball_delta(a, c, b)


@variant("kernel", "composed_ball", g=of_family("function"))
@dataclass(frozen=True)
class ComposedBallKernel(_BallForm):
    g: object
    closed = None

    def _pair(self, x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return super()._pair(*_composed(self.g, x, y), p)


@variant("kernel", "composed_half_plane", g=of_family("function"))
@dataclass(frozen=True)
class ComposedHalfPlaneKernel(_HalfPlaneForm):
    g: object
    closed = None

    def _pair(self, x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return super()._pair(*_composed(self.g, x, y), p)


@variant("domain", "kernel_domain", kernel=of_family("kernel"))
@dataclass(frozen=True)
class KernelDomain:
    kernel: object

    def _inside(self, a: NcPoint, margin: float):
        g = gram(self.kernel, a)
        # herm_part(g) is Hermitian by construction
        score = positivity_score(herm_eigvals(herm_part(g)), margin)
        return score > 0.0, score

    def _propose(self, rng, level: int, base_dim: int):
        return self.kernel._propose(rng, level, base_dim)


@variant("norm_bound", value=json_number)
@dataclass(frozen=True)
class NormBound:
    """Norm bound rule: 'constant' uses value, 'level' uses value * level."""

    rule: str
    value: float = 1.0

    def __post_init__(self):
        if self.rule not in ("constant", "level"):
            raise ValueError(f"unknown norm bound rule {self.rule!r}")
        object.__setattr__(self, "value", finite("norm_bound value", float(self.value)))
        if self.value <= 0:
            raise ValueError("norm_bound value must be positive")

    def at_level(self, level: int) -> float:
        return self.value if self.rule == "constant" else self.value * level


@variant("domain", "spectral_disk", center=complex_from_json, radius=json_number, norm_bound=of_family("norm_bound"))
@dataclass(frozen=True)
class SpectralDisk:
    """Points whose spectrum sits in an open disk, with a norm cap.

    The membership test checks the norm cap first and the spectrum
    only where the norm cap holds.
    """

    center: complex
    radius: float
    norm_bound: NormBound
    kernel = None

    def __post_init__(self):
        object.__setattr__(self, "center", finite("center", complex(self.center)))
        object.__setattr__(self, "radius", finite("radius", float(self.radius)))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def _inside(self, a: NcPoint, margin: float):
        cap = self.norm_bound.at_level(a.level) - margin
        norm = operator_norm(a.mat)
        inside = norm < cap
        if inside.any():
            inside[inside] = np.abs(spectrum(a.mat[inside]) - self.center).max(-1) < self.radius - margin
        return inside, cap - norm

    def _delta(self, a: NcPoint, c: NcPoint, b: NcDirection):
        # the ray leaves at the cap of its level; a and c inside have
        # norms below it under either rule, so both factors are definite
        return ball_delta(a, c, b, self.norm_bound.at_level(a.level + c.level) - MEMBERSHIP_MARGIN)

    def _propose(self, rng, level: int, base_dim: int):
        draw = selfadjoint_disk_draw(rng, level, base_dim, self.radius)
        return replace(draw, make=lambda p: (p + self.center * np.eye(len(p)) if self.center else p,))


@variant("domain", "nilpotent_cone")
@dataclass(frozen=True)
class NilpotentCone:
    kernel = None

    def _inside(self, a: NcPoint, margin: float):
        m = a.dim
        norm = operator_norm(a.mat)
        power = np.linalg.matrix_power(a.mat, m)
        # np.power: a bound past the float range is inf, not an OverflowError
        inside = operator_norm(power) <= NILPOTENT_TOL * np.power(norm, m)
        return inside, np.full(inside.shape, np.nan)

    def _delta(self, a: NcPoint, c: NcPoint, b: NcDirection):
        return np.zeros(np.broadcast_shapes(a.mat.shape[:-2], c.mat.shape[:-2], b.mat.shape[:-2]))

    def _propose(self, rng, level: int, base_dim: int):
        return (nilpotent_point(rng, level, base_dim).mat,)


def kernel_eval(kernel, a: NcPoint, c: NcPoint, p=None) -> np.ndarray:
    """K(a, c)(P). P defaults to the identity (square case only)."""
    if a.base_dim != c.base_dim:
        raise BaseDimMismatch(f"base dims {a.base_dim} != {c.base_dim}")
    if p is None:
        if a.dim != c.dim:
            raise DimMismatch("identity P needs matching point sizes")
        p = np.eye(a.dim, dtype=np.complex128)
    p = as_matrix(p)
    if p.shape != (a.dim, c.dim):
        raise DimMismatch(f"P has shape {p.shape}, expected {(a.dim, c.dim)}")
    return kernel._pair(a.mat, c.mat.conj().mT, p)


def gram(kernel, a: NcPoint) -> np.ndarray:
    """The self-gram K(a, a)(I), which decides membership."""
    return kernel_eval(kernel, a, a)


def kernel_diffs(kernel, a: NcPoint, c: NcPoint, b: NcDirection):
    """First-order kernel derivatives (D0, D1, D01) from one evaluation.

    D0  perturbs the left argument of K(., c)(., 1) at a along b;
    D1  perturbs the right argument of K(c, .)(1, .) at a along b;
    D01 is the mixed second derivative. Shapes: D0 is a.dim x c.dim,
    D1 is c.dim x a.dim, D01 is a.dim x a.dim.
    """
    x = block_upper(a, b, c).mat
    y = np.zeros(x.shape, dtype=np.complex128)
    na, mc = a.dim, c.dim
    y[..., :mc, :mc] = c.mat.conj().mT
    y[..., :mc, mc:] = b.mat.conj().mT
    y[..., mc:, mc:] = a.mat.conj().mT
    p = np.zeros((na + mc, mc + na), dtype=np.complex128)
    p[na:, :mc] = np.eye(mc)
    r = kernel._pair(x, y, p)
    d0 = r[..., :na, :mc]
    d01 = r[..., :na, mc:]
    d1 = r[..., na:, mc:]
    return d0, d1, d01


def members(domain, a: NcPoint, margin: float = MEMBERSHIP_MARGIN):
    """(inside, score, diagnostics), one entry per row of the stack a
    (N, n, n), with the positivity margin; never raises.

    The stack is tested in one _inside call. If that call fails, it is
    split in halves and each half tested again the same way, so a half
    that evaluates is tested once. A single row that fails is outside,
    with a NaN score and the failure (a composing function blowing up,
    a non-finite matrix) as its diagnostic; every other diagnostic is None.
    """
    try:
        inside, score = domain._inside(a, margin)
    except NumericalFailure as exc:
        if len(a.mat) == 1:
            return np.zeros(1, dtype=bool), np.full(1, np.nan), [str(exc)]
        half = len(a.mat) // 2
        low, high = (members(domain, replace(a, mat=m), margin) for m in (a.mat[:half], a.mat[half:]))
        return np.concatenate([low[0], high[0]]), np.concatenate([low[1], high[1]]), low[2] + high[2]
    return inside, score, [None] * len(inside)


@per_row
def contains(domain, a: NcPoint):
    """Strict membership at MEMBERSHIP_MARGIN: a bool for a point, one
    per row for a stack (see members); never raises."""
    return members(domain, a)[0]


def require_inside(domain, a: NcPoint, margin: float = MEMBERSHIP_MARGIN, name: str = "point"):
    """PointOutsideDomain unless every row of a lies inside at margin.

    The message names the first row outside, by its index where a has
    more than one row, with that row's diagnostic.
    """
    inside, _, diagnostics = members(domain, rows(a), margin)
    if not inside.all():
        row = int(np.flatnonzero(~inside)[0])
        where = f"{name} row {row}" if len(inside) > 1 else name
        extra = f" ({diagnostics[row]})" if diagnostics[row] else ""
        raise PointOutsideDomain(f"{where} is not strictly inside the domain{extra}")


def sample_triples(domain, rng, levels, count: int, base_dim: int) -> list:
    """count triples (a, c, b), a and c strictly inside the domain, sample i
    at level levels[i % len(levels)], drawn in proposal rounds as the
    module docstring says. TypeError if the domain has no _propose,
    SamplingFailure if a point has no candidate inside after
    SAMPLE_TRIES rounds."""
    propose = getattr(domain, "_propose", None)
    if propose is None:
        raise TypeError(f"no sampler for {type(domain).__name__}")
    # point 2i is a of sample i, point 2i + 1 its c
    point_levels = [levels[k // 2 % len(levels)] for k in range(2 * count)]
    points = [None] * (2 * count)
    first = []
    for i in range(count):
        lvl = point_levels[2 * i]
        first.append((propose(rng, lvl, base_dim), propose(rng, lvl, base_dim), direction_draw(rng, base_dim, lvl, lvl)))
    first = scaled(first)
    # the points still missing, each with its candidates of the round
    pending = {k: first[k // 2][k % 2] for k in range(2 * count)}
    for round_ in range(SAMPLE_TRIES):
        if round_:
            pending = dict(zip(pending, scaled([propose(rng, point_levels[k], base_dim) for k in pending])))
        by_level = {}
        for k in pending:
            by_level.setdefault(point_levels[k], []).append(k)
        for lvl, keys in by_level.items():
            stack = np.stack([m for k in keys for m in pending[k]])
            inside = iter(contains(domain, NcPoint(base_dim, lvl, stack)).tolist())
            for k in keys:
                hits = [m for m in pending[k] if next(inside)]
                if hits:
                    points[k] = NcPoint(base_dim, lvl, hits[0])
                    del pending[k]
        if not pending:
            return [(points[2 * i], points[2 * i + 1], first[i][2]) for i in range(count)]
    raise SamplingFailure(f"could not hit {type(domain).__name__} in {SAMPLE_TRIES} tries")


def ball_delta(a: NcPoint, c: NcPoint, b: NcDirection, radius: float = 1.0):
    """delta(a, c)(b) = r ||(r^2 - a a*)^(-1/2) b (r^2 - c* c)^(-1/2)|| on the
    ball of radius r, per row of the stacks; at r = 1.0 it is the unit ball's.
    The norm is unitarily invariant, so it is taken as r ||W_a b W_c*||
    with matcore.whitener's factor of each gram."""
    r2 = radius * radius
    qa = herm_part(r2 * np.eye(a.dim, dtype=np.complex128) - a.mat @ a.mat.conj().mT)
    qc = herm_part(r2 * np.eye(c.dim, dtype=np.complex128) - c.mat.conj().mT @ c.mat)  # right gram
    return radius * operator_norm(whitener(qa) @ b.mat @ whitener(qc).conj().mT)


def halfplane_delta(a: NcPoint, c: NcPoint, b: NcDirection):
    """delta(a, c)(b) = ||(Im a)^(-1/2) b (Im c)^(-1/2)|| / 2 on the upper
    half-plane, per row of the stacks, taken as ||W_a b W_c*|| / 2 with
    matcore.whitener's factors (one, when c is a)."""
    wa = whitener(imag_part(a.mat))
    wc = wa if c is a else whitener(imag_part(c.mat))
    return 0.5 * operator_norm(wa @ b.mat @ wc.conj().mT)


def ball_domain(radius: float = 1.0) -> KernelDomain:
    """The operator ball of the given radius as a kernel domain."""
    if radius == 1.0:
        return KernelDomain(BallKernel())
    return KernelDomain(ComposedBallKernel(Polynomial((0.0, 1.0 / radius))))


def halfplane_domain() -> KernelDomain:
    return KernelDomain(HalfPlaneKernel())

