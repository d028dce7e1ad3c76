"""Operator-valued free convolution via subordination.

Two model kinds supply the Cauchy transform G(b) = E[(b - X)^(-1)]:
a MatrixModel (deterministic Hermitian X with E the per-block
normalized trace onto block-scalar matrices) and a ScalarLaw
(semicircle, symmetric Bernoulli, arcsine, point mass; atoms are
summed exactly, continuous laws use weight-matched Gauss-Chebyshev
quadrature at matrix levels and closed forms at level one).

subordination_solve iterates w -> b + (rho - Id) h(w) from w0 = b
with adaptive damping and keeps a full trace: residuals, consecutive
ratios, gauge steps, and the contraction certificate driven by
eps0 = lambda_min(Im b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    NcmetricError,
    NonHermitianInput,
    SingularMatrix,
    as_matrix,
    imag_part,
    inverse,
    is_hermitian,
    is_strictly_positive,
    mat_from_json,
    mat_to_json,
    operator_norm,
    psd_inv_sqrt,
)
from .ncpoint import NcPoint

# Relative margin for "strictly inside the upper half-plane".
HALF_PLANE_MARGIN = 1e-10
# Quadrature nodes for continuous scalar laws at matrix levels.
QUAD_NODES = 256
# Im h may dip this far below zero before we call it broken.
H_IMAG_SLACK = 1e-6


class NotInHalfPlane(NcmetricError):
    """The argument does not lie strictly in the upper half-plane."""


class SingularResolvent(NcmetricError):
    """(b - X) failed to invert, or a transform lost its sign."""


class RangeViolation(NcmetricError):
    """k0 left its certified range ball; eps0 was overestimated."""


class MaxIterExceeded(NcmetricError):
    """Iteration budget exhausted; carries the best iterate and trace."""

    def __init__(self, message: str, omega=None, trace=None):
        super().__init__(message)
        self.omega = omega
        self.trace = trace


@dataclass(frozen=True)
class MatrixModel:
    """Hermitian X in M_d with E compressing onto block-scalar matrices.

    blocks partitions d; E multiplies each diagonal partition block by
    its normalized trace and the identity, which makes E unital,
    idempotent, positive, and a bimodule map over the block-scalar
    algebra.
    """

    x: np.ndarray
    blocks: tuple

    def __post_init__(self):
        x = as_matrix(self.x)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "blocks", tuple(int(k) for k in self.blocks))
        if not is_hermitian(x):
            raise NonHermitianInput("MatrixModel needs a Hermitian x")
        if any(k < 1 for k in self.blocks) or sum(self.blocks) != x.shape[0]:
            raise ValueError(
                f"blocks {self.blocks} do not partition dimension {x.shape[0]}"
            )

    @property
    def base_dim(self) -> int:
        return self.x.shape[0]


SCALAR_KINDS = ("semicircle", "bernoulli", "arcsine", "point_mass")


@dataclass(frozen=True)
class ScalarLaw:
    """A classical law fed in as the scalar-valued model (base_dim 1)."""

    kind: str
    variance: float = 1.0
    atom: complex = 0.0
    quad_nodes: int = QUAD_NODES

    def __post_init__(self):
        if self.kind not in SCALAR_KINDS:
            raise ValueError(f"unknown scalar law {self.kind!r}")
        object.__setattr__(self, "variance", float(self.variance))
        object.__setattr__(self, "atom", complex(self.atom))
        if self.kind == "semicircle" and self.variance <= 0:
            raise ValueError("semicircle variance must be positive")
        if int(self.quad_nodes) < 2:
            raise ValueError("need at least two quadrature nodes")
        object.__setattr__(self, "quad_nodes", int(self.quad_nodes))

    @property
    def base_dim(self) -> int:
        return 1


def model_base_dim(model) -> int:
    if isinstance(model, (MatrixModel, ScalarLaw)):
        return model.base_dim
    raise TypeError(f"not a model spec: {type(model).__name__}")


def _block_slices(blocks):
    out = []
    off = 0
    for k in blocks:
        out.append(slice(off, off + k))
        off += k
    return out


def expectation(model: MatrixModel, m: np.ndarray) -> np.ndarray:
    """Apply Id_n (x) E to an (n d) x (n d) matrix, entrywise in levels."""
    m = as_matrix(m)
    d = model.base_dim
    if m.shape[0] != m.shape[1] or m.shape[0] % d:
        raise ValueError(f"shape {m.shape} is not a level matrix over base {d}")
    n = m.shape[0] // d
    sls = _block_slices(model.blocks)
    out = np.zeros_like(m)
    for i in range(n):
        for j in range(n):
            q = m[i * d : (i + 1) * d, j * d : (j + 1) * d]
            eq = np.zeros((d, d), dtype=np.complex128)
            for sl, k in zip(sls, model.blocks):
                eq[sl, sl] = (np.trace(q[sl, sl]) / k) * np.eye(k)
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = eq
    return out


def law_atoms(law: ScalarLaw):
    """Exact atoms (nodes, weights) for the purely atomic laws."""
    if law.kind == "bernoulli":
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    if law.kind == "point_mass":
        return np.array([law.atom]), np.array([1.0])
    raise ValueError(f"{law.kind} is not atomic")


def law_quadrature(law: ScalarLaw):
    """Weight-matched Gauss-Chebyshev nodes for the continuous laws.

    Semicircle (variance v, support [-2 sqrt v, 2 sqrt v]) uses the
    second kind: the sqrt weight is the density itself. Arcsine
    (support [-2, 2]) uses the first kind for the same reason. Both
    weight vectors sum to one exactly.
    """
    n = law.quad_nodes
    if law.kind == "semicircle":
        k = np.arange(1, n + 1)
        theta = k * np.pi / (n + 1)
        nodes = 2.0 * np.sqrt(law.variance) * np.cos(theta)
        weights = 2.0 / (n + 1) * np.sin(theta) ** 2
        return nodes, weights
    if law.kind == "arcsine":
        k = np.arange(1, n + 1)
        theta = (2 * k - 1) * np.pi / (2 * n)
        return 2.0 * np.cos(theta), np.full(n, 1.0 / n)
    return law_atoms(law)


def _scalar_G_closed(law: ScalarLaw, z: complex) -> complex:
    """Closed forms at level one; branch cuts split per endpoint factor."""
    if law.kind == "semicircle":
        v = law.variance
        root = np.sqrt(z - 2 * np.sqrt(v)) * np.sqrt(z + 2 * np.sqrt(v))
        return (z - root) / (2 * v)
    if law.kind == "arcsine":
        return 1.0 / (np.sqrt(z - 2.0) * np.sqrt(z + 2.0))
    raise ValueError(f"no closed form for {law.kind}")


def _require_upper(b: NcPoint):
    im = imag_part(b.mat)
    if not is_strictly_positive(im, HALF_PLANE_MARGIN):
        raise NotInHalfPlane(
            f"lambda_min(Im b) = {float(np.linalg.eigvalsh(im)[0]):.3e} "
            "is not strictly positive"
        )


def cauchy_G(model, b: NcPoint) -> NcPoint:
    """G(b) = (Id (x) E)[(b - X)^(-1)] for b strictly in the half-plane."""
    if b.base_dim != model_base_dim(model):
        raise ValueError(
            f"point base_dim {b.base_dim} != model base_dim {model_base_dim(model)}"
        )
    _require_upper(b)
    if isinstance(model, MatrixModel):
        big = np.kron(np.eye(b.level), model.x)
        try:
            res = inverse(b.mat - big)
        except SingularMatrix as exc:
            raise SingularResolvent(str(exc)) from None
        g = expectation(model, res)
    else:
        if b.level == 1 and model.kind in ("semicircle", "arcsine"):
            g = np.array([[_scalar_G_closed(model, complex(b.mat[0, 0]))]])
        else:
            nodes, weights = law_quadrature(model)
            eye = np.eye(b.dim, dtype=np.complex128)
            g = np.zeros_like(b.mat)
            try:
                for s, w in zip(nodes, weights):
                    g = g + w * inverse(b.mat - s * eye)
            except SingularMatrix as exc:
                raise SingularResolvent(str(exc)) from None
    if float(np.linalg.eigvalsh(imag_part(g))[-1]) >= 0.0:
        raise SingularResolvent("Cauchy transform lost strict negativity of Im G")
    return NcPoint(b.base_dim, b.level, g)


def F_and_h(model, b: NcPoint) -> tuple[NcPoint, NcPoint]:
    """F = G^(-1) and h = F - b; Im h stays (numerically) nonnegative."""
    g = cauchy_G(model, b)
    try:
        f = inverse(g.mat)
    except SingularMatrix as exc:
        raise SingularResolvent(str(exc)) from None
    h = f - b.mat
    if float(np.linalg.eigvalsh(imag_part(h))[0]) < -H_IMAG_SLACK:
        raise SingularResolvent(
            "Im h dropped below zero beyond roundoff; "
            "b is likely outside the half-plane of the block algebra"
        )
    return NcPoint(b.base_dim, b.level, f), NcPoint(b.base_dim, b.level, h)


@dataclass(frozen=True)
class ScalarPower:
    """rho = t Id with t >= 1, so rho - Id = (t - 1) Id is cp."""

    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        if self.t < 1.0:
            raise ValueError("ScalarPower needs t >= 1")


@dataclass(frozen=True)
class KrausAugment:
    """rho(m) = m + sum V_i* m V_i with every V_i in the model algebra."""

    vs: tuple

    def __post_init__(self):
        object.__setattr__(self, "vs", tuple(as_matrix(v) for v in self.vs))
        if not self.vs:
            raise ValueError("KrausAugment needs at least one V")


def validate_rho(model, rho):
    """KrausAugment factors must be square over the model's block algebra."""
    d = model_base_dim(model)
    if isinstance(rho, ScalarPower):
        return
    if not isinstance(rho, KrausAugment):
        raise TypeError(f"not a cp-map spec: {type(rho).__name__}")
    for i, v in enumerate(rho.vs):
        if v.shape != (d, d):
            raise ValueError(f"V[{i}] has shape {v.shape}, expected {(d, d)}")
        if isinstance(model, MatrixModel):
            proj = expectation(model, v)
            if operator_norm(v - proj) > 1e-12 * max(1.0, operator_norm(v)):
                raise ValueError(f"V[{i}] is not block-scalar over blocks {model.blocks}")


def rho_minus_id(model, rho, m: np.ndarray, level: int) -> np.ndarray:
    """(rho - Id) applied entrywise in levels."""
    m = as_matrix(m)
    if isinstance(rho, ScalarPower):
        return (rho.t - 1.0) * m
    if isinstance(rho, KrausAugment):
        out = np.zeros_like(m)
        for v in rho.vs:
            big = np.kron(np.eye(level), v)
            out = out + big.conj().T @ m @ big
        return out
    raise TypeError(f"not a cp-map spec: {type(rho).__name__}")


def halfplane_gauge(a: NcPoint, c: NcPoint) -> float:
    """||(Im a)^(-1/2) (a - c) (Im c)^(-1/2)||; zero exactly when a = c."""
    if a.level != c.level or a.base_dim != c.base_dim:
        raise ValueError("gauge needs points at the same level and base")
    for name, p in (("a", a), ("c", c)):
        if not is_strictly_positive(imag_part(p.mat), HALF_PLANE_MARGIN):
            raise NotInHalfPlane(f"point {name} is not strictly in the half-plane")
    sa = psd_inv_sqrt(imag_part(a.mat))
    sc = psd_inv_sqrt(imag_part(c.mat))
    return operator_norm(sa @ (a.mat - c.mat) @ sc)


@dataclass(frozen=True)
class SolveTrace:
    iterations: int
    converged: bool
    residuals: tuple
    ratios: tuple
    gauge_steps: tuple
    epsilon0: float
    omega_im_min: float
    contraction_bound: float | None
    tail_ratio: float | None
    certificate_ok: bool
    damping_events: int = 0


def _tail_ratio(ratios) -> float | None:
    usable = [r for r in ratios[-10:] if 0.0 < r < 10.0]
    if not usable:
        return None
    return float(np.exp(np.mean(np.log(usable))))


def _contraction_bound(eps0: float, im_omega: np.ndarray) -> float | None:
    """||1 - eps0 (Im omega)^(-1)||, the provable per-step factor.

    For scalar fibers this is 1 - eps0 / Im omega. The operator form
    is the one the Schwarz-Pick derivation actually yields; collapsing
    the norm onto lambda_min only works when Im omega is a scalar.
    """
    w = np.linalg.eigvalsh(im_omega)
    if w[0] <= 0:
        return None
    return float(max(0.0, np.max(np.abs(1.0 - eps0 / w))))


def subordination_solve(
    model,
    rho,
    b: NcPoint,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[NcPoint, SolveTrace]:
    """Solve w = b + (rho - Id) h(w) from w0 = b.

    The base step is damped Picard (step halved after a residual
    increase, reset on decrease); when two consecutive residual
    vectors are available, a secant extrapolation of the fixed-point
    update is preferred, guarded so the iterate stays properly inside
    the half-plane. The extrapolation is what keeps the iteration
    count flat near spectral edges, where the plain Picard factor
    crawls toward one.

    The trace records full-step residuals ||g(w_k) - w_k||, their
    ratios, per-step gauge distances, and the contraction certificate
    against ||1 - eps0 (Im omega)^(-1)|| with eps0 = lambda_min(Im b),
    refreshed only downward along Im h0(w_k) as a roundoff guard.

    Raises MaxIterExceeded (carrying the best iterate and trace) when
    the budget runs out.
    """
    validate_rho(model, rho)
    _require_upper(b)
    eps0 = float(np.linalg.eigvalsh(imag_part(b.mat))[0])
    im_floor = 0.1 * eps0
    w = NcPoint(b.base_dim, b.level, b.mat.copy())
    residuals: list[float] = []
    gauge_steps: list[float] = []
    prev_g = prev_f = None
    alpha = 1.0
    damping_events = 0
    converged = False
    for _ in range(max_iter):
        _, h = F_and_h(model, w)
        upd = b.mat + rho_minus_id(model, rho, h.mat, b.level)
        eps0 = min(eps0, float(np.linalg.eigvalsh(imag_part(upd))[0]))
        f = upd - w.mat
        r = float(np.linalg.norm(f))
        residuals.append(r)
        if r <= tol:
            gauge_steps.append(halfplane_gauge(NcPoint(b.base_dim, b.level, upd), w) if r > 0 else 0.0)
            w = NcPoint(b.base_dim, b.level, upd)
            converged = True
            break
        cand = None
        if len(residuals) >= 2 and r > residuals[-2]:
            alpha = max(alpha / 2.0, 1.0 / 64.0)
            damping_events += 1
        else:
            alpha = 1.0
            if prev_f is not None:
                df = f - prev_f
                den = float(np.real(np.vdot(df, df)))
                if den > 0.0:
                    gamma = complex(np.vdot(df, f) / den)
                    if abs(gamma) <= 8.0:
                        trial = upd - gamma * (upd - prev_g)
                        if float(np.linalg.eigvalsh(imag_part(trial))[0]) > im_floor:
                            cand = trial
        if cand is None:
            cand = w.mat + alpha * f
        prev_g, prev_f = upd, f
        new = NcPoint(b.base_dim, b.level, cand)
        gauge_steps.append(halfplane_gauge(new, w) if r > 0 else 0.0)
        w = new
    ratios = tuple(
        r1 / r0 for r0, r1 in zip(residuals, residuals[1:]) if r0 > 0.0
    )
    im_min = float(np.linalg.eigvalsh(imag_part(w.mat))[0])
    bound = _contraction_bound(eps0, imag_part(w.mat))
    tail = _tail_ratio(ratios)
    cert = bool(tail is None or (bound is not None and tail <= bound + 0.05))
    trace = SolveTrace(
        iterations=len(residuals),
        converged=converged,
        residuals=tuple(residuals),
        ratios=ratios,
        gauge_steps=tuple(gauge_steps),
        epsilon0=eps0,
        omega_im_min=im_min,
        contraction_bound=bound,
        tail_ratio=tail,
        certificate_ok=cert,
        damping_events=damping_events,
    )
    if not converged:
        raise MaxIterExceeded(
            f"no convergence in {max_iter} iterations "
            f"(last residual {residuals[-1]:.3e})",
            omega=w,
            trace=trace,
        )
    return w, trace


def convolved_G(model, rho, b: NcPoint, tol: float = 1e-10, max_iter: int = 200) -> NcPoint:
    """Cauchy transform of the rho-convolved model: G_rho(b) = G(omega(b))."""
    omega, _ = subordination_solve(model, rho, b, tol=tol, max_iter=max_iter)
    return cauchy_G(model, omega)


@dataclass(frozen=True)
class DensityRow:
    x: float
    density: float
    residual: float
    iterations: int
    converged: bool
    tail_ratio: float | None
    contraction_bound: float | None


@dataclass(frozen=True)
class DensityResult:
    rows: tuple
    eps: float
    mass: float
    state: str


def _state_value(model, g: np.ndarray, state) -> complex:
    if state == "trace":
        return complex(np.trace(g) / g.shape[0])
    if isinstance(state, tuple) and state and state[0] == "block":
        if not isinstance(model, MatrixModel):
            raise ValueError("block states need a MatrixModel")
        sl = _block_slices(model.blocks)[state[1]]
        return complex(np.trace(g[sl, sl]) / model.blocks[state[1]])
    raise ValueError(f"unknown state {state!r}")


def density_grid(
    model,
    rho,
    xmin: float,
    xmax: float,
    points: int = 501,
    eps: float = 5e-3,
    state="trace",
    tol: float = 1e-9,
    max_iter: int = 200,
) -> DensityResult:
    """Spectral density of the convolved model on a regular grid.

    Each grid row solves subordination at x + i eps (level one, scalar
    multiple of the identity, so the point lies in the model algebra)
    and evaluates density(x) = -Im phi(G_rho) / pi. Unconverged rows
    are recorded, not raised. The mass field integrates the density by
    the trapezoid rule.
    """
    d = model_base_dim(model)
    xs = np.linspace(float(xmin), float(xmax), int(points))
    rows = []
    for x in xs:
        b = NcPoint(d, 1, (x + 1j * eps) * np.eye(d, dtype=np.complex128))
        try:
            omega, trace = subordination_solve(model, rho, b, tol=tol, max_iter=max_iter)
        except MaxIterExceeded as exc:
            omega, trace = exc.omega, exc.trace
        g = cauchy_G(model, omega)
        phi = _state_value(model, g.mat, state)
        rows.append(
            DensityRow(
                x=float(x),
                density=float(-phi.imag / np.pi),
                residual=float(trace.residuals[-1]) if trace.residuals else 0.0,
                iterations=trace.iterations,
                converged=trace.converged,
                tail_ratio=trace.tail_ratio,
                contraction_bound=trace.contraction_bound,
            )
        )
    dens = np.array([r.density for r in rows])
    mass = float(np.trapezoid(dens, xs))
    return DensityResult(tuple(rows), float(eps), mass, str(state))


def support_interval(result: DensityResult, threshold: float = 0.015):
    """Estimated support endpoints by linear threshold crossing."""
    xs = np.array([r.x for r in result.rows])
    ds = np.array([r.density for r in result.rows])
    above = ds >= threshold
    if not above.any():
        return None
    i0 = int(np.argmax(above))
    i1 = len(ds) - 1 - int(np.argmax(above[::-1]))

    def cross(i_out, i_in):
        x0, x1, d0, d1 = xs[i_out], xs[i_in], ds[i_out], ds[i_in]
        if d1 == d0:
            return float(x1)
        return float(x0 + (threshold - d0) * (x1 - x0) / (d1 - d0))

    lo = cross(i0 - 1, i0) if i0 > 0 else float(xs[0])
    hi = cross(i1 + 1, i1) if i1 < len(ds) - 1 else float(xs[-1])
    return lo, hi


@dataclass(frozen=True)
class H0Map:
    """h0(w) = b0 + (rho - Id) h(w), with eps0 = lambda_min(Im b0)."""

    model: object
    rho: object
    b0: NcPoint
    eps0: float

    def __call__(self, w: NcPoint) -> NcPoint:
        _, h = F_and_h(self.model, w)
        return NcPoint(
            w.base_dim,
            w.level,
            self.b0_at(w.level) + rho_minus_id(self.model, self.rho, h.mat, w.level),
        )

    def b0_at(self, level: int) -> np.ndarray:
        if level == self.b0.level:
            return self.b0.mat
        if self.b0.level == 1:
            return np.kron(np.eye(level), self.b0.mat)
        raise ValueError(f"b0 at level {self.b0.level} cannot serve level {level}")


def make_h0(model, rho, b0: NcPoint) -> H0Map:
    validate_rho(model, rho)
    _require_upper(b0)
    eps0 = float(np.linalg.eigvalsh(imag_part(b0.mat))[0])
    return H0Map(model, rho, b0, eps0)


@dataclass(frozen=True)
class FixedPointResult:
    x: NcPoint
    iterations: int
    residual: float
    k0_radius: float


def k0_and_fixed_point(
    h0,
    a: NcPoint,
    eps0: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 500,
    allow_boundary: bool = False,
) -> FixedPointResult:
    """Iterate x = a + k0(x) with k0(w) = -h0(-w^(-1))^(-1).

    h0 is an H0Map (or any callable on points, with eps0 passed
    explicitly). Every k0 value must stay in the ball
    ||k0 - i/(2 eps0)|| < 1/(2 eps0) + 1e-9, else RangeViolation:
    that ball is what certifies the contraction, so leaving it means
    eps0 was overestimated. a with Im a not strictly positive is only
    accepted under allow_boundary (experimental): the iteration still
    lives in the half-plane because k0 pushes upward.
    """
    if eps0 is None:
        if not isinstance(h0, H0Map):
            raise ValueError("pass eps0 explicitly for a bare-callable h0")
        eps0 = h0.eps0
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    if not allow_boundary and not is_strictly_positive(imag_part(a.mat), HALF_PLANE_MARGIN):
        raise NotInHalfPlane(
            "Im a is not strictly positive; pass allow_boundary=True to try anyway"
        )
    eye = np.eye(a.dim, dtype=np.complex128)
    center = (1j / (2.0 * eps0)) * eye
    radius_cap = 1.0 / (2.0 * eps0) + 1e-9

    def k0(w: NcPoint) -> np.ndarray:
        inner = NcPoint(a.base_dim, a.level, -inverse(w.mat))
        val = -inverse(h0(inner).mat)
        rad = operator_norm(val - center)
        if rad >= radius_cap:
            raise RangeViolation(
                f"||k0 - i/(2 eps0)|| = {rad:.6g} >= {radius_cap:.6g}; "
                "eps0 was overestimated"
            )
        return val

    start = NcPoint(a.base_dim, a.level, a.mat + 1j * eye)
    x = NcPoint(a.base_dim, a.level, a.mat + k0(start))
    last_rad = 0.0
    for it in range(1, max_iter + 1):
        k = k0(x)
        last_rad = operator_norm(k - center)
        new = NcPoint(a.base_dim, a.level, a.mat + k)
        r = float(np.linalg.norm(new.mat - x.mat))
        x = new
        if r <= tol:
            return FixedPointResult(x, it, r, last_rad)
    raise MaxIterExceeded(f"fixed point not reached in {max_iter} iterations", omega=x)


def model_to_json(model) -> dict:
    if isinstance(model, MatrixModel):
        return {
            "variant": "matrix_model",
            "x": mat_to_json(model.x),
            "blocks": list(model.blocks),
        }
    if isinstance(model, ScalarLaw):
        return {
            "variant": "scalar_law",
            "law": model.kind,
            "variance": model.variance,
            "atom": [model.atom.real, model.atom.imag],
            "quad_nodes": model.quad_nodes,
        }
    raise TypeError(f"not a model spec: {type(model).__name__}")


def model_from_json(obj):
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ValueError("model JSON must be an object with a 'variant' tag")
    v = obj["variant"]
    try:
        if v == "matrix_model":
            return MatrixModel(mat_from_json(obj["x"]), tuple(obj["blocks"]))
        if v == "scalar_law":
            atom = obj.get("atom", [0.0, 0.0])
            return ScalarLaw(
                obj["law"],
                float(obj.get("variance", 1.0)),
                complex(float(atom[0]), float(atom[1])),
                int(obj.get("quad_nodes", QUAD_NODES)),
            )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed model JSON: {exc}") from None
    raise ValueError(f"unknown model variant {v!r}")


def rho_to_json(rho) -> dict:
    if isinstance(rho, ScalarPower):
        return {"variant": "scalar_power", "t": rho.t}
    if isinstance(rho, KrausAugment):
        return {"variant": "kraus_augment", "vs": [mat_to_json(v) for v in rho.vs]}
    raise TypeError(f"not a cp-map spec: {type(rho).__name__}")


def rho_from_json(obj):
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ValueError("cp-map JSON must be an object with a 'variant' tag")
    v = obj["variant"]
    try:
        if v == "scalar_power":
            return ScalarPower(float(obj["t"]))
        if v == "kraus_augment":
            return KrausAugment(tuple(mat_from_json(m) for m in obj["vs"]))
    except KeyError as exc:
        raise ValueError(f"cp-map JSON missing field {exc}") from None
    raise ValueError(f"unknown cp-map variant {v!r}")
