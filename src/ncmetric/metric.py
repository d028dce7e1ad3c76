"""Infinitesimal pseudometrics and the distances built from them.

delta_ray is the definition: the reciprocal first-exit parameter of
the ray s -> [[a, s b], [0, c]] out of the domain. delta_closed gives
the two classical closed forms (ball, half-plane), delta_kernel the
general kernel-domain formula; all three must agree on their common
ground, and the test suite treats the routes as independent.

delta_tilde is the two-point gauge delta(a, c)(a - c) in closed form;
dtilde_upper and d_upper produce certified upper bounds for the
division and path distances it generates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import (
    BallKernel,
    ComposedBallKernel,
    ComposedHalfPlaneKernel,
    HalfPlaneKernel,
    KernelDomain,
    MEMBERSHIP_MARGIN,
    contains,
    gram,
    kernel_diffs,
    kernel_eval,
    require_inside,
)
from .matcore import (
    NcmetricError,
    herm_part,
    imag_part,
    inverse,
    operator_norm,
    psd_inv_sqrt,
)
from .ncfunc import delta_f as func_delta, eval_point
from .ncpoint import DimMismatch, NcDirection, NcPoint, block_upper, direction

# Ray search: grow the exit bracket by doubling up to this cap ...
RAY_GROWTH_CAP = 1e8
# ... and shrink down to this floor before declaring no exit.
RAY_SHRINK_FLOOR = 1e-12
# Default relative tolerance on the ray bracket width.
RAY_TOL = 1e-6


class PathBlocked(NcmetricError):
    """A quadrature or division point left the domain."""


class MappingViolation(NcmetricError):
    """The function failed to map the source domain into the target."""


class NestingViolation(NcmetricError):
    """A sample of the inner domain escaped the outer domain."""


@dataclass(frozen=True)
class DeltaResult:
    """One pseudometric evaluation.

    bracket is (lower, upper); for ray results its width is at most
    the requested tolerance times max(1, value). Closed-form and
    kernel results carry a degenerate bracket.
    """

    value: float
    method: str
    bracket: tuple
    iterations: int
    note: str | None = None


@dataclass(frozen=True)
class Division:
    """A chain of points; consecutive pairs feed delta_tilde."""

    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("a division needs at least two points")


@dataclass(frozen=True)
class Path:
    """Piecewise-linear path: times strictly increasing from 0 to 1."""

    times: tuple
    points: tuple

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        pts = tuple(self.points)
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "points", pts)
        if len(ts) != len(pts) or len(ts) < 2:
            raise ValueError("path needs matching times and points, at least two")
        if ts[0] != 0.0 or ts[-1] != 1.0:
            raise ValueError("path times must start at 0 and end at 1")
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise ValueError("path times must be strictly increasing")


@dataclass(frozen=True)
class DtildeBound:
    value: float
    division: Division
    stage_values: tuple
    diagnostics: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class PathBound:
    value: float
    quad_estimate: float
    points_used: int


def _check_triple(a: NcPoint, c: NcPoint, b: NcDirection):
    if b.row_level != a.level or b.col_level != c.level:
        raise DimMismatch(
            f"direction levels {(b.row_level, b.col_level)} do not join "
            f"point levels {(a.level, c.level)}"
        )


def delta_ray(
    domain,
    a: NcPoint,
    c: NcPoint,
    b: NcDirection,
    tol: float = RAY_TOL,
    margin: float = MEMBERSHIP_MARGIN,
) -> DeltaResult:
    """Pseudometric by ray search: 1 / sup{t : the block ray stays inside}.

    The bracket is located by doubling/halving from s = 1 and then
    bisected until its width is below tol * max(1, value). Membership
    that persists to the growth cap is reported as value 0 with a
    note; no exit above the shrink floor reports +inf. The first exit
    decides for non-convex domains.
    """
    _check_triple(a, c, b)
    require_inside(domain, a, margin, "a")
    require_inside(domain, c, margin, "c")
    if operator_norm(b.mat) == 0.0:
        return DeltaResult(0.0, "ray", (0.0, 0.0), 0, note="zero direction")

    evals = 0

    def member(s: float) -> bool:
        nonlocal evals
        evals += 1
        scaled = NcDirection(b.base_dim, b.row_level, b.col_level, s * b.mat)
        return contains(domain, block_upper(a, scaled, c), margin).inside

    if member(1.0):
        lo = 1.0
        hi = None
        while hi is None:
            nxt = lo * 2.0
            if nxt > RAY_GROWTH_CAP:
                if member(RAY_GROWTH_CAP):
                    return DeltaResult(
                        0.0,
                        "ray",
                        (0.0, 1.0 / RAY_GROWTH_CAP),
                        evals,
                        note="zero within search cap",
                    )
                hi = RAY_GROWTH_CAP
            elif member(nxt):
                lo = nxt
            else:
                hi = nxt
    else:
        hi = 1.0
        lo = None
        while lo is None:
            nxt = hi / 2.0
            if nxt < RAY_SHRINK_FLOOR:
                return DeltaResult(
                    float("inf"),
                    "ray",
                    (1.0 / hi, float("inf")),
                    evals,
                    note="no exit above shrink floor",
                )
            if member(nxt):
                lo = nxt
            else:
                hi = nxt

    while (1.0 / lo - 1.0 / hi) > tol * max(1.0, 1.0 / hi):
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
        if evals > 10_000:  # bisection cannot stall; belt and braces
            break
    lower, upper = 1.0 / hi, 1.0 / lo
    return DeltaResult(0.5 * (lower + upper), "ray", (lower, upper), evals)


def _closed_ball(a: NcPoint, c: NcPoint, b: NcDirection) -> float:
    eye_a = np.eye(a.dim, dtype=np.complex128)
    eye_c = np.eye(c.dim, dtype=np.complex128)
    qa = herm_part(eye_a - a.mat @ a.mat.conj().T)
    qc = herm_part(eye_c - c.mat.conj().T @ c.mat)  # right gram: 1 - c* c
    sa, sc = psd_inv_sqrt(qa), psd_inv_sqrt(qc)
    return operator_norm(sa @ b.mat @ sc)


def _closed_halfplane(a: NcPoint, c: NcPoint, b: NcDirection) -> float:
    sa = psd_inv_sqrt(imag_part(a.mat))
    sc = psd_inv_sqrt(imag_part(c.mat))
    return 0.5 * operator_norm(sa @ b.mat @ sc)


def delta_closed(
    kind: str,
    a: NcPoint,
    c: NcPoint,
    b: NcDirection,
    margin: float = MEMBERSHIP_MARGIN,
) -> DeltaResult:
    """Closed form on the operator ball ('ball') or half-plane ('halfplane')."""
    _check_triple(a, c, b)
    if kind == "ball":
        dom = KernelDomain(BallKernel())
        require_inside(dom, a, margin, "a")
        require_inside(dom, c, margin, "c")
        val = _closed_ball(a, c, b)
        return DeltaResult(val, "closed_ball", (val, val), 0)
    if kind == "halfplane":
        dom = KernelDomain(HalfPlaneKernel())
        require_inside(dom, a, margin, "a")
        require_inside(dom, c, margin, "c")
        val = _closed_halfplane(a, c, b)
        return DeltaResult(val, "closed_halfplane", (val, val), 0)
    raise ValueError(f"unknown closed-form kind {kind!r}")


def delta_kernel(
    kernel,
    a: NcPoint,
    c: NcPoint,
    b: NcDirection,
    margin: float = MEMBERSHIP_MARGIN,
) -> DeltaResult:
    """Kernel-domain pseudometric from the three kernel derivatives.

    The spectral operand is symmetrized and its top eigenvalue clipped
    at zero before the square root, so roundoff below zero cannot
    poison the result.
    """
    _check_triple(a, c, b)
    dom = KernelDomain(kernel)
    require_inside(dom, a, margin, "a")
    require_inside(dom, c, margin, "c")
    qa = herm_part(gram(kernel, a))
    qc = herm_part(gram(kernel, c))
    d0, d1, d01 = kernel_diffs(kernel, a, c, b)
    sa = psd_inv_sqrt(qa)
    operand = d0 @ inverse(qc) @ d1 - d01
    sym = herm_part(sa @ operand @ sa)
    top = float(np.linalg.eigvalsh(sym)[-1])
    val = float(np.sqrt(max(0.0, top)))
    return DeltaResult(val, "kernel", (val, val), 0)


def _tilde_value(kernel, a: NcPoint, c: NcPoint) -> float:
    qa = herm_part(gram(kernel, a))
    qc = herm_part(gram(kernel, c))
    cross = kernel_eval(kernel, a, c)
    sa = psd_inv_sqrt(qa)
    m = sa @ cross @ inverse(qc) @ cross.conj().T @ sa - np.eye(a.dim)
    top = float(np.linalg.eigvalsh(herm_part(m))[-1])
    return float(np.sqrt(max(0.0, top)))


def delta_tilde(
    kernel_or_kind,
    a: NcPoint,
    c: NcPoint,
    margin: float = MEMBERSHIP_MARGIN,
) -> DeltaResult:
    """Two-point gauge delta(a, c)(a - c), evaluated from cross grams.

    Accepts 'ball' / 'halfplane' or any kernel spec. Agrees with
    delta(a, c)(a - c) and vanishes exactly at a = c.
    """
    if a.level != c.level or a.base_dim != c.base_dim:
        raise DimMismatch("delta_tilde needs points at the same level and base")
    kernel = kernel_or_kind
    method = "kernel"
    if kernel_or_kind == "ball":
        kernel, method = BallKernel(), "closed_ball"
    elif kernel_or_kind == "halfplane":
        kernel, method = HalfPlaneKernel(), "closed_halfplane"
    elif isinstance(kernel_or_kind, BallKernel):
        method = "closed_ball"
    elif isinstance(kernel_or_kind, HalfPlaneKernel):
        method = "closed_halfplane"
    dom = KernelDomain(kernel)
    require_inside(dom, a, margin, "a")
    require_inside(dom, c, margin, "c")
    if np.array_equal(a.mat, c.mat):
        # the operand is exactly the identity; computing it would turn
        # eigenvalue roundoff into a sqrt(eps) noise floor
        return DeltaResult(0.0, method, (0.0, 0.0), 0)
    val = _tilde_value(kernel, a, c)
    return DeltaResult(val, method, (val, val), 0)


def delta_auto(domain, a: NcPoint, c: NcPoint, b: NcDirection, **kw) -> DeltaResult:
    """Dispatch to the closed form, kernel formula, or ray search."""
    if isinstance(domain, KernelDomain):
        k = domain.kernel
        if isinstance(k, BallKernel):
            return delta_closed("ball", a, c, b, **kw)
        if isinstance(k, HalfPlaneKernel):
            return delta_closed("halfplane", a, c, b, **kw)
        if isinstance(k, (ComposedBallKernel, ComposedHalfPlaneKernel)):
            return delta_kernel(k, a, c, b, **kw)
    return delta_ray(domain, a, c, b, **kw)


def delta_auto_tilde(domain, a: NcPoint, c: NcPoint, **kw) -> DeltaResult:
    if isinstance(domain, KernelDomain):
        return delta_tilde(domain.kernel, a, c, **kw)
    diff = direction(a.mat - c.mat, a.base_dim)
    return delta_ray(domain, a, c, diff, **kw)


def _between(a: NcPoint, c: NcPoint, t: float) -> NcPoint:
    return NcPoint(a.base_dim, a.level, (1.0 - t) * a.mat + t * c.mat)


def dtilde_upper(
    domain,
    a: NcPoint,
    c: NcPoint,
    refinement_budget: int = 6,
    margin: float = MEMBERSHIP_MARGIN,
) -> DtildeBound:
    """Upper bound on the division distance between a and c.

    Straight-line divisions with 0, 1, 2, 4, ..., 2^refinement_budget
    interior points are summed; stage values are recorded in that
    order. Every stage sum is itself an upper bound, so the result is
    the smallest stage value together with that stage's division; a
    larger refinement_budget tightens it. Blocked stages (an interior
    point outside the domain) are skipped and reported in diagnostics.
    """
    if a.level != c.level or a.base_dim != c.base_dim:
        raise DimMismatch("endpoints must live at the same level and base")
    require_inside(domain, a, margin, "a")
    require_inside(domain, c, margin, "c")

    diagnostics = []
    stage_values = []
    best_val, best_pts = float("inf"), None
    counts = [0] + [2**j for j in range(refinement_budget + 1)]
    for m in counts:
        pts = [a] + [_between(a, c, (i + 1) / (m + 1)) for i in range(m)] + [c]
        blocked = [
            i for i, p in enumerate(pts[1:-1], 1) if not contains(domain, p, margin).inside
        ]
        if blocked:
            diagnostics.append(
                f"stage with {m} interior points blocked at indices {blocked}"
            )
            continue
        val = sum(
            delta_auto_tilde(domain, x, y, margin=margin).value
            for x, y in zip(pts, pts[1:])
        )
        stage_values.append(val)
        if val < best_val:
            best_val, best_pts = val, pts

    if best_pts is None:
        raise PathBlocked(
            "every straight-line division leaves the domain; " + "; ".join(diagnostics)
        )

    return DtildeBound(
        best_val, Division(tuple(best_pts)), tuple(stage_values), tuple(diagnostics)
    )


def straight_path(a: NcPoint, c: NcPoint) -> Path:
    return Path((0.0, 1.0), (a, c))


def d_upper(
    domain,
    a: NcPoint,
    c: NcPoint,
    path: Path | None = None,
    quad_points: int = 256,
    margin: float = MEMBERSHIP_MARGIN,
) -> PathBound:
    """Upper bound on the path distance along a piecewise-linear path.

    Composite midpoint quadrature per segment; the chord is the exact
    derivative of a linear segment, and positive homogeneity of delta
    absorbs the segment length, so each segment contributes
    mean_m delta(x_m, x_m)(chord). The quadrature estimate is the
    difference against a half-resolution re-evaluation.

    Raises PathBlocked (with the offending parameter) when a
    quadrature node leaves the domain.
    """
    if path is None:
        path = straight_path(a, c)
    scale = max(1.0, operator_norm(a.mat), operator_norm(c.mat))
    if operator_norm(path.points[0].mat - a.mat) > 1e-10 * scale:
        raise ValueError("path must start at a")
    if operator_norm(path.points[-1].mat - c.mat) > 1e-10 * scale:
        raise ValueError("path must end at c")
    for t, p in zip(path.times, path.points):
        if not contains(domain, p, margin).inside:
            raise PathBlocked(f"path sample at t = {t} is outside the domain")

    def integrate(total_points: int) -> tuple[float, int]:
        val = 0.0
        used = 0
        for (t0, p0), (t1, p1) in zip(
            zip(path.times, path.points), zip(path.times[1:], path.points[1:])
        ):
            q = max(1, round(total_points * (t1 - t0)))
            chord = direction(p1.mat - p0.mat, a.base_dim)
            if operator_norm(chord.mat) == 0.0:
                continue
            seg = 0.0
            for m in range(q):
                x = NcPoint(a.base_dim, a.level, p0.mat + ((m + 0.5) / q) * chord.mat)
                if not contains(domain, x, margin).inside:
                    raise PathBlocked(
                        f"quadrature node at t = {t0 + (m + 0.5) / q * (t1 - t0):.6f} "
                        "is outside the domain"
                    )
                seg += delta_auto(domain, x, x, chord, margin=margin).value
            val += seg / q
            used += q
        return val, used

    value, used = integrate(quad_points)
    half, _ = integrate(max(1, quad_points // 2))
    return PathBound(value, abs(value - half), used)


def check_contraction(
    f,
    d_src,
    d_dst,
    triples,
    equality: bool = False,
    tol: float = 1e-8,
    margin: float = MEMBERSHIP_MARGIN,
    raise_on_violation: bool = False,
) -> dict:
    """Schwarz-Pick check: delta(f(a), f(c))(Delta f(a,c)(b)) <= delta(a, c)(b).

    Each triple (a, c, b) must lie in the source domain. Images
    leaving the target domain are collected as violations (raised as
    MappingViolation when requested). The report carries the worst
    excess lhs - rhs, and in equality mode the worst |lhs - rhs|.
    """
    rows = []
    violations = []
    worst_excess = -float("inf")
    worst_gap = 0.0
    for idx, (a, c, b) in enumerate(triples):
        require_inside(d_src, a, margin, f"sample {idx} point a")
        require_inside(d_src, c, margin, f"sample {idx} point c")
        fa, fc = eval_point(f, a), eval_point(f, c)
        bad = [
            name
            for name, img in (("f(a)", fa), ("f(c)", fc))
            if not contains(d_dst, img, margin).inside
        ]
        if bad:
            msg = f"sample {idx}: {', '.join(bad)} outside the target domain"
            if raise_on_violation:
                raise MappingViolation(msg)
            violations.append(msg)
            continue
        fb = func_delta(f, a, c, b)
        lhs = delta_auto(d_dst, fa, fc, fb, margin=margin).value
        rhs = delta_auto(d_src, a, c, b, margin=margin).value
        rows.append((lhs, rhs))
        worst_excess = max(worst_excess, lhs - rhs)
        worst_gap = max(worst_gap, abs(lhs - rhs))
    report = {
        "samples": len(rows),
        "violations": violations,
        "worst_excess": worst_excess if rows else None,
        "ok": bool(not violations and rows and worst_excess <= tol),
        "rows": rows,
    }
    if equality:
        report["worst_abs_gap"] = worst_gap if rows else None
        report["ok"] = bool(report["ok"] and worst_gap <= tol)
    return report


def compare_nested(
    d_inner,
    d_outer,
    big_m: float,
    small_m: float,
    pairs,
    tol: float = 1e-8,
    margin: float = MEMBERSHIP_MARGIN,
) -> dict:
    """Nested-domain comparison: k delta~_inner >= delta~_outer, k = M/(m+M).

    Pairs must lie in the inner domain; a pair escaping the outer
    domain raises NestingViolation since the premise D' subset D
    failed on data.
    """
    if not (big_m > 0 and small_m > 0):
        raise ValueError("radii M and m must be positive")
    k = big_m / (small_m + big_m)
    min_margin = float("inf")
    rows = []
    for idx, (a, c) in enumerate(pairs):
        require_inside(d_inner, a, margin, f"pair {idx} point a")
        require_inside(d_inner, c, margin, f"pair {idx} point c")
        for name, p in (("a", a), ("c", c)):
            if not contains(d_outer, p, margin).inside:
                raise NestingViolation(
                    f"pair {idx} point {name} lies in the inner domain "
                    "but escapes the outer one"
                )
        di = delta_auto_tilde(d_inner, a, c, margin=margin).value
        do = delta_auto_tilde(d_outer, a, c, margin=margin).value
        rows.append((di, do))
        min_margin = min(min_margin, k * di - do)
    return {
        "k": k,
        "samples": len(rows),
        "min_margin": min_margin if rows else None,
        "ok": bool(rows and min_margin >= -tol),
        "rows": rows,
    }
