"""Infinitesimal pseudometrics and the distances built from them.

delta_ray is the definition: the reciprocal first-exit parameter of
the ray s -> [[a, s b], [0, c]] out of the domain, found from
membership tests alone. Each round of its search tests, in one stacked
membership call, the bisection path toward the exit it predicts from the
domain's membership score; only the real answers along its own path
move the search, so it returns what testing one scaling at a time
returns. delta_closed gives the two classical closed forms, each
carried by its kernel (BallKernel, HalfPlaneKernel), delta_kernel the
general kernel-domain formula, and a domain's own _delta its exact
value (spectral disks, nilpotent cone); each must agree with the ray
search, and the test suite treats the routes as independent.
delta_routes gives every route that applies, as `ncmetric delta`
prints them. delta_auto and the distances take the exact route; only
kinds without one search the ray.

delta_tilde is the two-point gauge delta(a, c)(a - c) in closed form.
dtilde_upper gives certified upper bounds on the division distance it
generates; d_upper estimates the distance along the segment from a to c
by midpoint quadrature. delta_ray and delta_routes take the membership
margin that `delta --margin` sets; the other routes, the gauges, the
distances and the reports test membership at MEMBERSHIP_MARGIN.

The routes compute on stacks of points (N, n, n) and directions and
return one result per row, equal to what the route returns on that
row alone; a single point is a stack of one (see ncpoint.per_row).
d_upper and dtilde_upper use this to evaluate the quadrature nodes of
both rules, or the pairs of every division, in one stacked call.
check_contraction and compare_nested stack their samples per shape
group (base dimension, the levels of the points, the shape of the
direction) through ncpoint.sample_outcomes; a group whose stacked
evaluation raises is evaluated again as stacks of one, in sample
order, so the first failing sample raises what it raises alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .domains import (
    KernelDomain,
    MEMBERSHIP_MARGIN,
    contains,
    gram,
    kernel_diffs,
    kernel_eval,
    members,
    require_inside,
)
from .matcore import (
    InputError,
    NumericalFailure,
    finite_at_least_zero,
    herm_eigvals,
    herm_part,
    inverse,
    operator_norm,
    positive_finite,
    whitener,
)
from .ncfunc import delta_f as func_delta, eval_point
from .ncpoint import DimMismatch, NcDirection, NcPoint, block_upper, direction, per_row, sample_outcomes

# Ray search: grow the exit bracket by doubling up to this cap ...
RAY_GROWTH_CAP = 1e8
# ... and shrink down to this floor before declaring no exit.
RAY_SHRINK_FLOOR = 1e-12
# Default relative tolerance on the ray bracket width.
RAY_TOL = 1e-6
# The scalings a ray search tests in its first round: s = 1 and its
# doubling and halving chains to 2^3 and 2^-3.
RAY_FIRST_ROUND = (1.0, 2.0, 4.0, 8.0, 0.5, 0.25, 0.125)
# compare_nested's slack on k delta~_inner - delta~_outer >= 0.
NESTING_TOL = 1e-8
# check_contraction's default slack on lhs - rhs.
CONTRACTION_TOL = 1e-8
# The defaults of dtilde_upper (up to 2^6 interior points) and d_upper.
REFINEMENT_BUDGET = 6
QUAD_POINTS = 256


class PathBlocked(NumericalFailure):
    """A quadrature or division point left the domain."""


class NestingViolation(InputError):
    """A sample of the inner domain escaped the outer domain."""


@dataclass(frozen=True)
class DeltaResult:
    """One pseudometric evaluation.

    bracket is (lower, upper); for ray results its width is at most
    the requested tolerance times max(1, value). Closed-form and
    kernel results carry a degenerate bracket. float() of a result is
    its value.
    """

    value: float
    method: str
    bracket: tuple
    iterations: int
    note: str | None = None

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class DtildeBound:
    value: float
    division: tuple  # its points, from a to c
    stage_values: tuple
    diagnostics: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class PathBound:
    value: float
    quad_estimate: float
    points_used: int


def _require_endpoints(
    domain, a: NcPoint, c: NcPoint, b: NcDirection | None = None, margin: float = MEMBERSHIP_MARGIN
):
    """DimMismatch unless b joins a to c (or, without b, a and c share level
    and base), PointOutsideDomain unless both lie inside at margin."""
    if b is None:
        if a.level != c.level or a.base_dim != c.base_dim:
            raise DimMismatch("endpoints must live at the same level and base")
    elif b.row_level != a.level or b.col_level != c.level:
        raise DimMismatch(
            f"direction levels {(b.row_level, b.col_level)} do not join "
            f"point levels {(a.level, c.level)}"
        )
    require_inside(domain, a, margin, "a")
    require_inside(domain, c, margin, "c")


@per_row
def _formula(method: str, values, *args) -> list:
    """The DeltaResults of a route given by a formula: one per row of values(*args)."""
    return [DeltaResult(v, method, (v, v), 0) for v in values(*args).tolist()]


class _RaySearch:
    """The first-exit search of one ray, as delta_ray describes it.

    lo and hi bracket the exit: the largest scaling tested inside and
    the smallest tested outside, None before the first. scores holds
    the domain's score at every scaling tested. path() lists the
    scalings the search would test next, in order, if the exit were
    where _predict puts it; walk() then moves the search by the real
    answers, up to the first scaling it has none for.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.lo = self.hi = None
        self.scores = {}
        self.evals = 0

    def _next(self, lo, hi):
        """The scaling tested next on the bracket (lo, hi); None once the search ends."""
        if hi is None:  # grow by doubling, up to the cap
            if lo is None:
                return 1.0
            return None if lo >= RAY_GROWTH_CAP else min(2.0 * lo, RAY_GROWTH_CAP)
        if lo is None:  # shrink by halving, down to the floor
            nxt = hi / 2.0
            return None if nxt < RAY_SHRINK_FLOOR else nxt
        if not (1.0 / lo - 1.0 / hi) > self.tol * max(1.0, 1.0 / hi):
            return None
        mid = 0.5 * (lo + hi)
        return mid if lo < mid < hi else None  # no float left between them: tol is below roundoff

    def path(self):
        if not self.evals:
            return RAY_FIRST_ROUND
        guess = _predict(self.lo, self.hi, self.scores)
        lo, hi = self.lo, self.hi
        path = []
        s = self._next(lo, hi)
        while s is not None:
            path.append(s)
            if s < guess:
                lo = s
            else:
                hi = s
            s = self._next(lo, hi)
        return path

    def walk(self, inside: dict, scores: dict) -> bool:
        """Take the answers {scaling: inside} along the search; True once it ends."""
        self.scores.update(scores)
        s = self._next(self.lo, self.hi)
        while s in inside:
            self.evals += 1
            if inside[s]:
                self.lo = s
            else:
                self.hi = s
            s = self._next(self.lo, self.hi)
        return s is None

    def result(self) -> DeltaResult:
        if self.hi is None:
            return DeltaResult(
                0.0, "ray", (0.0, 1.0 / RAY_GROWTH_CAP), self.evals, note="zero within search cap"
            )
        if self.lo is None:
            return DeltaResult(
                float("inf"),
                "ray",
                (1.0 / self.hi, float("inf")),
                self.evals,
                note="no exit above shrink floor",
            )
        lower, upper = 1.0 / self.hi, 1.0 / self.lo
        return DeltaResult(0.5 * (lower + upper), "ray", (lower, upper), self.evals)


def _predict(lo, hi, scores: dict) -> float:
    """Where a ray search expects its exit, from the domain's scores at
    the scalings {s: score} it tested.

    Past the bracket's open end while it has one; else the root in
    (lo, hi) of the quadratic through the scores at lo, hi and the
    tested scaling nearest the bracket, or failing that regula falsi
    between lo and hi; NaN where their scores do not change sign.
    """
    if hi is None:
        return np.inf
    if lo is None:
        return 0.0
    f_lo, f_hi, h = scores[lo], scores[hi], hi - lo
    if not f_lo > 0.0 >= f_hi:
        return np.nan
    guess = lo + h * (f_lo / (f_lo - f_hi))
    far = [s for s, f in scores.items() if (s < lo or s > hi) and math.isfinite(f)]
    if not far:
        return guess
    x = min(far, key=lambda s: max(lo - s, s - hi))
    # the quadratic f_lo + d1 t + d2 t (t - h) in t = s - lo, by divided differences
    d1 = (f_hi - f_lo) / h
    d2 = ((scores[x] - f_hi) / (x - hi) - d1) / (x - lo)
    b = d1 - d2 * h
    disc = b * b - 4.0 * d2 * f_lo
    if not disc >= 0.0:
        return guess
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    for t in (q / d2 if d2 else np.nan, f_lo / q if q else np.nan):
        if 0.0 < t < h:
            return lo + t
    return guess


@per_row
def delta_ray(
    domain,
    a: NcPoint,
    c: NcPoint,
    b: NcDirection,
    tol: float = RAY_TOL,
    margin: float = MEMBERSHIP_MARGIN,
) -> DeltaResult | list[DeltaResult]:
    """Pseudometric by ray search: 1 / sup{t : the block ray stays inside}.

    The bracket is located by doubling/halving from s = 1 and then
    bisected until its width is below tol * max(1, value). A ray that
    stays inside to the growth cap is reported as value 0 with a
    note; no exit above the shrink floor reports +inf. The first exit
    decides for non-convex domains. Only membership tests are used,
    so the route stays independent of the closed forms; iterations
    counts the tests along this sequential search.

    Each round tests, with one stacked members call, the scalings the
    search would visit if the exit were at the scaling _predict
    interpolates from the domain's membership scores (see members).
    The search then follows the real answers up to the first scaling
    not tested, so a wrong prediction costs rows, never a different
    result, and every round moves each search by at least one test.
    The first round tests RAY_FIRST_ROUND; while its bracket is open
    at one end, a search batches the rest of its doubling or halving
    chain, which takes the nilpotent cone (no exit, no score) to the
    growth cap in two calls.

    Stacks (N, ...) of a, c and b (broadcast against each other) are
    searched together, the rows of every unfinished search in one
    call per round, and give a list of N results; row i equals the
    call on row i alone. Raises ValueError unless tol is positive and
    finite.
    """
    positive_finite("tol", tol)
    _require_endpoints(domain, a, c, b, margin)
    return _ray(domain, a, c, b, tol, margin)


def _ray(domain, a: NcPoint, c: NcPoint, b: NcDirection, tol: float, margin: float) -> list:
    """delta_ray's search on stacks, for a and c already known to lie inside at margin."""
    na, level = a.dim, a.level + c.level
    base = block_upper(a, b, c).mat
    bm = np.broadcast_to(b.mat, base.shape[:1] + b.mat.shape[-2:])
    results = [None] * len(base)
    searches = {}
    for i, nonzero in enumerate(operator_norm(bm) != 0.0):
        if nonzero:
            searches[i] = _RaySearch(tol)
        else:
            results[i] = DeltaResult(0.0, "ray", (0.0, 0.0), 0, note="zero direction")
    while searches:
        paths = {i: search.path() for i, search in searches.items()}
        owners = [i for i, path in paths.items() for _ in path]
        scalings = np.array([s for path in paths.values() for s in path])
        ray = base[owners]  # a copy, whose corners take the scaled direction
        ray[:, :na, na:] = scalings[:, None, None] * bm[owners]
        inside, scores, _ = members(domain, NcPoint(a.base_dim, level, ray), margin)
        inside, scores = iter(inside.tolist()), iter(scores.tolist())
        for i, path in paths.items():
            if searches[i].walk(dict(zip(path, inside)), dict(zip(path, scores))):
                results[i] = searches.pop(i).result()
    return results


def delta_closed(kernel, a: NcPoint, c: NcPoint, b: NcDirection) -> DeltaResult | list[DeltaResult]:
    """The kernel's closed form: BallKernel() for the operator ball,
    HalfPlaneKernel() for the upper half-plane.

    Stacks give a list with one result per row. Raises ValueError naming
    a kernel without one.
    """
    if not getattr(kernel, "closed", None):
        raise ValueError(f"{kernel!r} has no closed form")
    return delta_auto(KernelDomain(kernel), a, c, b)


def delta_kernel(kernel, a: NcPoint, c: NcPoint, b: NcDirection) -> DeltaResult | list[DeltaResult]:
    """Kernel-domain pseudometric from the three kernel derivatives.

    The spectral operand is symmetrized and its top eigenvalue clipped
    at zero before the square root, so roundoff below zero cannot
    poison the result. Stacks give a list with one result per row.
    """
    _require_endpoints(KernelDomain(kernel), a, c, b)
    return _formula("kernel", partial(_kernel_value, kernel), a, c, b)


def delta_routes(
    domain,
    a: NcPoint,
    c: NcPoint,
    b: NcDirection,
    tol: float = RAY_TOL,
    margin: float = MEMBERSHIP_MARGIN,
) -> list:
    """delta by every route that applies to the domain, in this order:
    delta_ray, and on a kernel domain delta_closed (where the kernel
    has a closed form) and delta_kernel. Each entry is what that route
    returns alone, and raises what it would; the endpoints are checked
    once, by delta_ray.
    """
    results = [delta_ray(domain, a, c, b, tol, margin)]
    k = domain.kernel
    if k is not None:
        if k.closed:
            results.append(_formula(f"closed_{k.closed}", k._closed_form, a, c, b))
        results.append(_formula("kernel", partial(_kernel_value, k), a, c, b))
    return results


def _sqrt_top(sym: np.ndarray) -> np.ndarray:
    """sqrt of the top eigenvalue of each Hermitian matrix, clipped at zero."""
    top = herm_eigvals(sym)[..., -1]
    return np.sqrt(np.where(top > 0.0, top, 0.0))


def _kernel_value(kernel, a: NcPoint, c: NcPoint, b: NcDirection) -> np.ndarray:
    """sqrt lambda_max(W (D0 Q_c^-1 D1 - D01) W*) for W = whitener(Q_a),
    which is the kernel formula's lambda_max under Q_a^(-1/2) by unitary
    invariance; when c is a, Q_c^-1 = W* W from the same factor."""
    wa = whitener(herm_part(gram(kernel, a)))
    qc_inv = wa.conj().mT @ wa if c is a else inverse(herm_part(gram(kernel, c)))
    d0, d1, d01 = kernel_diffs(kernel, a, c, b)
    return _sqrt_top(herm_part(wa @ (d0 @ qc_inv @ d1 - d01) @ wa.conj().mT))


def _tilde_value(kernel, a: NcPoint, c: NcPoint) -> np.ndarray:
    """sqrt lambda_max(W K(a, c) Q_c^-1 K(a, c)* W* - I) for W = whitener(Q_a)."""
    wa = whitener(herm_part(gram(kernel, a)))
    qc = herm_part(gram(kernel, c))
    cross = kernel_eval(kernel, a, c)
    m = wa @ cross @ inverse(qc) @ cross.conj().mT @ wa.conj().mT - np.eye(a.dim)
    return _sqrt_top(herm_part(m))


def delta_tilde(kernel, a: NcPoint, c: NcPoint) -> DeltaResult | list[DeltaResult]:
    """Two-point gauge delta(a, c)(a - c) on the kernel's domain, evaluated
    from cross grams.

    Agrees with delta(a, c)(a - c) and vanishes exactly at a = c; the
    method is labelled by the kernel's closed form, if it has one. Stacks
    give a list with one result per row.
    """
    _require_endpoints(KernelDomain(kernel), a, c)
    method = f"closed_{kernel.closed}" if kernel.closed else "kernel"
    return _formula(method, partial(_tilde_values, kernel), a, c)


def _tilde_values(kernel, a: NcPoint, c: NcPoint) -> np.ndarray:
    # where a = c the operand is exactly the identity; computing it
    # would turn eigenvalue roundoff into a sqrt(eps) noise floor
    same = np.all(a.mat == c.mat, axis=(-2, -1))
    if same.all():
        return np.zeros(same.shape)
    return np.where(same, 0.0, _tilde_value(kernel, a, c))


def _route(domain):
    """delta_auto's route on the domain: (method, values).

    values(a, c, b) is delta(a, c)(b) per row of the stacks, for a and
    c already known to lie inside at MEMBERSHIP_MARGIN.
    """
    exact = getattr(domain, "_delta", None)
    if exact is not None:
        return "exact", exact
    k = domain.kernel
    if k is None:
        return "ray", partial(_ray_values, domain)
    if k.closed:
        return f"closed_{k.closed}", k._closed_form
    return "kernel", partial(_kernel_value, k)


def _ray_values(domain, a: NcPoint, c: NcPoint, b: NcDirection) -> np.ndarray:
    return np.array([r.value for r in _ray(domain, a, c, b, RAY_TOL, MEMBERSHIP_MARGIN)])


def _difference(a: NcPoint, c: NcPoint) -> NcDirection:
    return NcDirection(a.base_dim, a.level, c.level, a.mat - c.mat)


def delta_auto(domain, a: NcPoint, c: NcPoint, b: NcDirection) -> DeltaResult | list[DeltaResult]:
    """delta by the domain's exact route: its own _delta, its kernel's
    closed form, or the kernel formula; the ray search for a kind with
    none of them. Stacks give a list with one result per row."""
    method, values = _route(domain)
    if method == "ray":
        return delta_ray(domain, a, c, b)
    _require_endpoints(domain, a, c, b)
    return _formula(method, values, a, c, b)


def delta_auto_tilde(domain, a: NcPoint, c: NcPoint) -> DeltaResult | list[DeltaResult]:
    """delta_auto(domain, a, c, a - c); a kernel domain's by delta_tilde."""
    if domain.kernel is not None:
        return delta_tilde(domain.kernel, a, c)
    return delta_auto(domain, a, c, _difference(a, c))


def _delta_values(domain, a: NcPoint, c: NcPoint, b: NcDirection) -> np.ndarray:
    """delta_auto's values per row of the stacks, for points already known inside."""
    return _route(domain)[1](a, c, b)


def _chain_values(domain, x: NcPoint, y: NcPoint) -> np.ndarray:
    """delta_auto_tilde's values per row of the stacks x, y, already known to lie inside."""
    if domain.kernel is not None:
        return _tilde_values(domain.kernel, x, y)
    return _delta_values(domain, x, y, _difference(x, y))


def dtilde_upper(domain, a: NcPoint, c: NcPoint, refinement_budget: int = REFINEMENT_BUDGET) -> DtildeBound:
    """Upper bound on the division distance between a and c.

    Straight-line divisions with 0, 1, 2, 4, ..., 2^refinement_budget
    interior points are summed; stage values are recorded in that
    order. Every stage sum is itself an upper bound, so the result is
    the smallest stage value together with that stage's division; a
    larger refinement_budget tightens it. Blocked stages (an interior
    point outside the domain) are skipped and reported in diagnostics.

    The interior points of every stage are tested with one stacked
    contains call, and the chains of pairs of every unblocked stage are
    evaluated with one stacked call; each stage is then summed left to
    right. Raises ValueError when refinement_budget < 0.
    """
    if refinement_budget < 0:
        raise ValueError(f"refinement_budget must be at least 0, got {refinement_budget}")
    _require_endpoints(domain, a, c)

    counts = [0] + [2**j for j in range(refinement_budget + 1)]
    t = np.concatenate([(np.arange(m) + 1) / (m + 1) for m in counts])
    interior = (1.0 - t)[:, None, None] * a.mat + t[:, None, None] * c.mat
    inside = contains(domain, NcPoint(a.base_dim, a.level, interior))
    diagnostics, stages = [], []
    for m, start in zip(counts, np.cumsum([0] + counts).tolist()):
        blocked = (np.flatnonzero(~inside[start : start + m]) + 1).tolist()
        if blocked:
            diagnostics.append(f"stage with {m} interior points blocked at indices {blocked}")
        else:
            stages.append(np.concatenate([a.mat[None], interior[start : start + m], c.mat[None]]))

    # the pairs of every unblocked stage in one evaluation; the 0-point stage is never blocked
    x = NcPoint(a.base_dim, a.level, np.concatenate([pts[:-1] for pts in stages]))
    y = NcPoint(a.base_dim, a.level, np.concatenate([pts[1:] for pts in stages]))
    splits = np.cumsum([len(pts) - 1 for pts in stages])[:-1]
    stage_values = []
    best_val, best_pts = float("inf"), None
    for pts, values in zip(stages, np.split(_chain_values(domain, x, y), splits)):
        val = float(np.cumsum(values)[-1])  # left to right, not pairwise
        stage_values.append(val)
        if val < best_val:
            best_val, best_pts = val, pts

    if best_pts is None:
        raise PathBlocked(
            "every straight-line division leaves the domain; " + "; ".join(diagnostics)
        )

    division = tuple(NcPoint(a.base_dim, a.level, p) for p in best_pts)
    return DtildeBound(best_val, division, tuple(stage_values), tuple(diagnostics))


def d_upper(domain, a: NcPoint, c: NcPoint, quad_points: int = QUAD_POINTS) -> PathBound:
    """Midpoint-rule estimate of the path length along the segment from a to c.

    Composite midpoint quadrature; the chord c - a is the exact
    derivative of the segment, and positive homogeneity of delta
    absorbs its length, so the value is mean_m delta(x_m, x_m)(chord).
    The quad_points nodes and the quad_points // 2 nodes of the
    half-resolution rerun are tested and evaluated as one stack.

    The value is an estimate, not a bound: where delta is convex along
    the segment the midpoint rule reads below the path length (on the
    ball from 0 to 0.5 it gives 0.5333 at 1 node against
    atanh(0.5) = 0.5493). quad_estimate is the difference against a
    half-resolution re-evaluation, and is 0 at quad_points = 1, where
    both use the same node. a = c gives (0, 0) with no node used.

    Raises ValueError when quad_points < 1, DimMismatch unless a and c
    share level and base, PointOutsideDomain when an endpoint lies
    outside the domain, and PathBlocked (with the offending parameter)
    when a quadrature node does.
    """
    if quad_points < 1:
        raise ValueError(f"quad_points must be at least 1, got {quad_points}")
    _require_endpoints(domain, a, c)
    chord = direction(c.mat - a.mat, a.base_dim)
    if operator_norm(chord.mat) == 0.0:
        return PathBound(0.0, 0.0, 0)

    half = max(1, quad_points // 2)
    frac = np.concatenate([(np.arange(q) + 0.5) / q for q in (quad_points, half)])
    x = NcPoint(a.base_dim, a.level, a.mat + frac[:, None, None] * chord.mat)
    inside = contains(domain, x)
    if not inside.all():
        m = int(np.flatnonzero(~inside)[0])
        raise PathBlocked(f"quadrature node at t = {frac[m]:.6f} is outside the domain")
    deltas = _delta_values(domain, x, x, chord)
    # each rule summed left to right, not pairwise as np.sum would
    value = float(np.cumsum(deltas[:quad_points])[-1]) / quad_points
    coarse = float(np.cumsum(deltas[quad_points:])[-1]) / half
    return PathBound(value, abs(value - coarse), quad_points)


def check_contraction(
    f,
    d_src,
    d_dst,
    triples,
    equality: bool = False,
    tol: float = CONTRACTION_TOL,
) -> dict:
    """Schwarz-Pick check: delta(f(a), f(c))(Delta f(a,c)(b)) <= delta(a, c)(b).

    Each triple (a, c, b) must lie in the source domain. Images
    leaving the target domain are reported as violations, one message
    per triple in sample order, and make the report not ok. The report
    carries the worst excess lhs - rhs, and in equality mode the worst
    |lhs - rhs|. Raises ValueError unless tol is finite and at least 0.

    The triples are evaluated per shape group: one stacked membership
    test of a and of c, one stacked evaluation of f on each, one
    membership test of each image, and on the rows whose images stay
    inside one difference-differential and one delta per side. A group
    whose stacked evaluation raises is redone triple by triple, so
    errors, violations and their sample indices are those of checking
    the triples one at a time in order.
    """
    finite_at_least_zero("tol", tol)

    def evaluate(a, c, b, name):
        # per row: (lhs, rhs), or the names of the images outside the target
        require_inside(d_src, a, name=f"{name} point a")
        require_inside(d_src, c, name=f"{name} point c")
        fa, fc = eval_point(f, a), eval_point(f, c)
        out_a, out_c = ~contains(d_dst, fa), ~contains(d_dst, fc)
        escaped = [
            ", ".join(img for img, out in (("f(a)", oa), ("f(c)", oc)) if out)
            for oa, oc in zip(out_a, out_c)
        ]
        keep = ~(out_a | out_c)
        if not keep.any():
            return escaped
        if not keep.all():
            a, c, b, fa, fc = (replace(x, mat=x.mat[keep]) for x in (a, c, b, fa, fc))
        fb = func_delta(f, a, c, b)
        lhs = _delta_values(d_dst, fa, fc, fb).tolist()
        pairs = zip(lhs, _delta_values(d_src, a, c, b).tolist())
        return [e or next(pairs) for e in escaped]

    rows = []
    violations = []
    for idx, out in enumerate(sample_outcomes(triples, evaluate, "sample")):
        if isinstance(out, str):
            violations.append(f"sample {idx}: {out} outside the target domain")
        else:
            rows.append(out)
    worst_excess = -float("inf")
    worst_gap = 0.0
    for lhs, rhs in rows:
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


def compare_nested(d_inner, d_outer, big_m: float, small_m: float, pairs) -> dict:
    """Nested-domain comparison: k delta~_inner >= delta~_outer, k = M/(m+M).

    Pairs must lie in the inner domain; a pair escaping the outer
    domain raises NestingViolation since the premise D' subset D
    failed on data. The report is ok when every k delta~_inner -
    delta~_outer is at least -NESTING_TOL.

    The pairs are evaluated per shape group, with one stacked
    membership test and one stacked gauge evaluation per domain and
    point; a group whose stacked evaluation raises is redone pair by
    pair, so the first failing pair raises what it raises alone.
    """
    if not (big_m > 0 and small_m > 0):
        raise ValueError("radii M and m must be positive")
    k = big_m / (small_m + big_m)

    def evaluate(a, c, name):
        # per row: (delta~ on the inner domain, delta~ on the outer one)
        require_inside(d_inner, a, name=f"{name} point a")
        require_inside(d_inner, c, name=f"{name} point c")
        for part, p in (("a", a), ("c", c)):
            if not contains(d_outer, p).all():
                raise NestingViolation(
                    f"{name} point {part} lies in the inner domain but escapes the outer one"
                )
        return list(zip(_chain_values(d_inner, a, c).tolist(), _chain_values(d_outer, a, c).tolist()))

    rows = list(sample_outcomes(pairs, evaluate, "pair"))
    min_margin = float("inf")
    for di, do in rows:
        min_margin = min(min_margin, k * di - do)
    return {
        "k": k,
        "samples": len(rows),
        "min_margin": min_margin if rows else None,
        "ok": bool(rows and min_margin >= -NESTING_TOL),
        "rows": rows,
    }
