"""Operator-valued free convolution via subordination.

Two model kinds supply the Cauchy transform G(b) = E[(b - X)^(-1)]:
a MatrixModel (deterministic Hermitian X with E the per-block
normalized trace onto block-scalar matrices) and a ScalarLaw
(semicircle, symmetric Bernoulli, arcsine, point mass; atoms are
summed exactly, continuous laws use their closed forms at every
level, through a principal matrix square root above level one).

subordination_solve solves w = b + (rho - Id) h(w) from w0 = b by
Newton's method in the coordinates of the model algebra B (one n x n
matrix per partition block at level n, see _coords), with a plain
Picard step wherever a Newton step would leave the half-plane. The
fixed point lies in B, so a b off B is an input error. Each solved row
gets one SolveTrace: step count, last residual, Picard step count, and
the contraction bound driven by eps0 = lambda_min(Im b); a DensityRow
of density_grid is a SolveTrace with its x and density. picard_ratio
measures the plain Picard contraction near a solution, which that
bound bounds. The transforms take stacks of points (..., n, n);
density_grid solves all its grid rows as one stack, each row on its
own trajectory. subordination_solve takes a stack of points too, and
solves its rows in one such stack, whose steps make the same numpy
calls for any number of rows (see _solve_stack).

Models and cp maps register their JSON forms (see matcore.variant). A
model's _G_dG(b, jacobian) gives its Cauchy transform G(b) and, when
jacobian is set, the exact derivative at b at every unit coordinate
B_j of B (see _units) that the Newton loop asks for, all in the
coordinates of B (a scalar law's are its matrices). A matrix model
takes both from one resolvent r = (b - X)^(-1): G = E(r), and
DG[B_j] = -E(r B_j r) from products of the entries of r, with no
product of matrices (see _unit_dG). A discrete law takes them from the
resolvents of all its atoms, from one inverse call; a continuous law
from one closed form at level one (above it, the closed form of b and
of the block points [[b, e], [0, b]]). cauchy_G asks for no
derivative; it and F_and_h form their matrices at the public boundary.
A cp map's _weights(model) is rho - Id on B, one weight per partition
block, and raises ValueError unless the map acts on the model.

Each point is checked for the half-plane once. The public functions
check the points they are given (NotInHalfPlane, an input error, also
for a point off B where rho - Id is applied); the solver checks its
input, then each iterate it keeps (SingularResolvent: the map keeps
the half-plane, so only roundoff leaves it; an overflow fails
matcore's rule where the eigenvalues of Im are taken, or, at 1 x 1,
this test, which names an Im that is not finite); the transforms
beneath them check no point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    InputError,
    NcmetricError,
    NonHermitianInput,
    NumericalFailure,
    POS_MARGIN,
    SingularMatrix,
    as_matrix,
    as_stack,
    complex_from_json,
    each,
    finite,
    herm_eigvals,
    imag_part,
    inverse,
    is_hermitian,
    json_int,
    json_number,
    mat_from_json,
    operator_norm,
    positive_finite,
    positivity_score,
    principal_sqrt,
    variant,
)
from .ncpoint import NcPoint, per_row

# Im h may dip this far below zero before we call it broken.
H_IMAG_SLACK = 1e-6
# ||m - E(m)|| / max(1, ||m||) above this puts m off the model algebra.
ALGEBRA_TOL = 1e-12
# Defaults: subordination_solve's and density_grid's tolerances, and their step budget.
SOLVE_TOL = 1e-10
DENSITY_TOL = 1e-9
SOLVE_MAX_ITER = 200
# density_grid's default grid size and height above the real axis.
DENSITY_POINTS = 501
DENSITY_EPS = 5e-3
# k0_and_fixed_point's step budget.
K0_MAX_ITER = 500


class NotInHalfPlane(InputError):
    """The argument does not lie strictly in the upper half-plane (of the model algebra, where one is needed)."""


class SingularResolvent(NumericalFailure):
    """(b - X) failed to invert, or a transform lost its sign."""


class RangeViolation(NumericalFailure):
    """k0 left its certified range ball; eps0 was overestimated."""


class MaxIterExceeded(NumericalFailure):
    """Iteration budget exhausted; carries the best iterate and trace."""

    def __init__(self, message: str, omega=None, trace=None):
        super().__init__(message)
        self.omega = omega
        self.trace = trace


@variant("model", "matrix_model", x=mat_from_json, blocks=each(json_int))
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

    def _G_dG(self, b: NcPoint, jacobian: bool):
        r = inverse(b.mat - _lift(self.x, b.level))
        g = _coords(self.blocks, r)
        if not jacobian:
            return g, np.zeros(g.shape[:-3] + (0,) + g.shape[-3:], dtype=np.complex128)
        return g, _unit_dG(self.blocks, r)


SCALAR_KINDS = ("semicircle", "bernoulli", "arcsine", "point_mass")


@variant("model", "scalar_law", atom=complex_from_json, variance=json_number)
@dataclass(frozen=True)
class ScalarLaw:
    """A classical law fed in as the scalar-valued model (base_dim 1)."""

    kind: str = field(metadata={"json": "law"})
    variance: float = 1.0
    atom: complex = 0.0
    base_dim = 1
    blocks = (1,)  # its algebra, the scalars, is one block of size one

    def __post_init__(self):
        if self.kind not in SCALAR_KINDS:
            raise ValueError(f"unknown scalar law {self.kind!r}")
        object.__setattr__(self, "variance", finite("variance", float(self.variance)))
        object.__setattr__(self, "atom", finite("atom", complex(self.atom)))
        if self.kind == "semicircle" and self.variance <= 0:
            raise ValueError("semicircle variance must be positive")
        # a parameter the law ignores would print the rows of the default
        if self.kind != "semicircle" and self.variance != 1.0:
            raise ValueError(f"variance applies to the semicircle law only, got {self.variance} for {self.kind}")
        if self.kind != "point_mass" and self.atom != 0:
            raise ValueError(f"atom applies to the point_mass law only, got {self.atom} for {self.kind}")

    def _G_dG(self, b: NcPoint, jacobian: bool):
        dirs = _units((1,), b.dim)[:, 0] if jacobian else np.zeros((0, b.dim, b.dim), dtype=np.complex128)
        if self.kind not in ("semicircle", "arcsine"):
            w, shifts = _atoms(self.kind, self.atom, b.dim)
            rs = inverse(b.mat[..., None, :, :] - shifts)  # (..., atom, n, n), from one inverse call
            r4 = rs[..., None, :, :]
            # summed over the atoms in order: 0 + w_1 r_1 + w_2 r_2, and 0 - w_1 r_1 D r_1 - w_2 r_2 D r_2
            g = np.add.reduce(w * rs, -3, initial=0)
            dg = np.subtract.reduce(w[..., None] * (r4 @ dirs @ r4), -4, initial=0)
        elif b.level == 1:
            z = b.mat
            g = _scalar_G_closed(self, z)
            if self.kind == "semicircle":
                dg = g / (2.0 * self.variance * g - z)  # differentiate v g^2 - z g + 1 = 0
            else:
                dg = -_product(z, _product(g, _product(g, g)))  # g = (z^2 - 4)^(-1/2)
            dg = dg[..., None, :, :] * dirs
        else:
            # the block identity: G([[b, e], [0, b]]) holds DG(b)[e] in its corner
            n = b.dim
            big = np.zeros(b.mat.shape[:-2] + (len(dirs), 2 * n, 2 * n), dtype=np.complex128)
            big[..., :n, :n] = big[..., n:, n:] = b.mat[..., None, :, :]
            big[..., :n, n:] = dirs
            g, dg = self._G_matrix(b.mat), self._G_matrix(big)[..., :n, n:]
        # the scalars are one block of size one, whose coordinates are the matrices
        return g[..., None, :, :], dg[..., None, :, :]

    def _G_matrix(self, m: np.ndarray) -> np.ndarray:
        """A continuous law's G per matrix of a stack, for levels above one."""
        # R = i (-i(B - c))^(1/2) (-i(B + c))^(1/2) = i (c^2 - B^2)^(1/2), both roots far from the cut
        # (see principal_sqrt); the semicircle's (B - R) / 2v is 2 (B + R)^-1, which cannot cancel
        c = (2.0 * np.sqrt(self.variance) if self.kind == "semicircle" else 2.0) * np.eye(m.shape[-1])
        (lo, hi), (lo_inv, hi_inv) = principal_sqrt(np.stack((-1j * (m - c), -1j * (m + c))))
        if self.kind == "semicircle":
            return 2.0 * inverse(m + 1j * (lo @ hi))
        return -1j * (hi_inv @ lo_inv)


@functools.cache
def _atoms(kind: str, atom: complex, dim: int):
    """An atomic law's weights (atom, 1, 1) and its nodes times I_dim (atom, dim, dim) (cached: read only)."""
    nodes, weights = ((-1.0, 1.0), (0.5, 0.5)) if kind == "bernoulli" else ((atom,), (1.0,))
    return np.reshape(weights, (-1, 1, 1)), np.reshape(nodes, (-1, 1, 1)) * np.eye(dim, dtype=np.complex128)


def _lift(m: np.ndarray, level: int) -> np.ndarray:
    """kron(I_level, m), which is m itself at level one."""
    return m if level == 1 else np.kron(np.eye(level), m)


def _sum_plan(labels: np.ndarray):
    """How _label_sums adds the entries of a last axis that carry each label 0, 1, ... (all present).

    groups: per label count s, (s, the positions of its labels, label by
    label); order: the groups' sums back in label order (None for one
    group); counts: the entries per label, as complex divisors.
    """
    counts = np.bincount(labels)
    by_count = {s: np.flatnonzero(counts == s) for s in dict.fromkeys(counts.tolist())}
    groups = [(s, np.concatenate([np.flatnonzero(labels == g) for g in gs])) for s, gs in by_count.items()]
    order = np.argsort(np.concatenate(list(by_count.values()))) if len(groups) > 1 else None
    return groups, order, counts.astype(np.complex128)


def _label_sums(x: np.ndarray, plan) -> np.ndarray:
    """The sums of the entries of x's last axis per label (see _sum_plan), on a last axis of labels.

    Each label count takes one C-ordered copy and one sum over its
    contiguous last axis, which numpy adds pairwise, as np.trace adds a
    diagonal, in the same order for any number of leading rows.
    """
    groups, order, _ = plan
    parts = [x.take(at, -1).reshape(x.shape[:-1] + (len(at) // s, s)).sum(-1) for s, at in groups]
    return parts[0] if order is None else np.concatenate(parts, -1)[..., order]


@functools.cache
def _layout(blocks: tuple):
    """The index plans of a partition of d for _coords and _from_coords (cached: read only).

    diagonal: _sum_plan of the diagonal positions by block; pos, own,
    unit: per pair (a, b) inside one block, a d + b, the block and
    eye(d)[a, b].
    """
    owner = np.repeat(np.arange(len(blocks)), blocks)
    a, b = np.nonzero(owner[:, None] == owner)
    return _sum_plan(owner), a * len(owner) + b, owner[a], (a == b) * 1.0


def _coords(blocks, m: np.ndarray) -> np.ndarray:
    """m's coordinates in the model algebra, per matrix of a stack (..., n d, n d).

    Entry [..., k, i, j] is the normalized trace of partition block k of
    level block (i, j): the coefficient of kron(E_ij, P_k), with P_k the
    projection onto block k, when m lies in the algebra. Those basis
    matrices are orthogonal, so off the algebra this is the orthogonal
    projection's coordinates. The algebra is the direct sum over k of
    the n x n matrices [..., k, :, :], which multiply and invert block by
    block. The traces are _label_sums of one diagonal view. The scalars,
    one block of size one, are their own coordinates: m is read as it is.
    """
    if blocks == (1,):
        return m[..., None, :, :]
    d = sum(blocks)
    n = m.shape[-1] // d
    diag = np.diagonal(m.reshape(m.shape[:-2] + (n, d, n, d)), axis1=-3, axis2=-1)
    plan = _layout(blocks)[0]
    c = _label_sums(diag, plan) / plan[2]  # [..., i, j, k]
    return c.swapaxes(-1, -3).swapaxes(-1, -2)  # views: cheaper than np.moveaxis


def _from_coords(blocks, c: np.ndarray) -> np.ndarray:
    """sum c[..., k, i, j] kron(E_ij, P_k): the inverse of _coords on the algebra."""
    if blocks == (1,):
        return c[..., 0, :, :]
    d, n = sum(blocks), c.shape[-1]
    _, pos, own, unit = _layout(blocks)
    out = np.zeros(c.shape[:-3] + (n, n, d * d), dtype=np.complex128)  # [..., i, j, a d + b]
    out[..., pos] = c.swapaxes(-3, -1).swapaxes(-3, -2)[..., own] * unit
    return out.reshape(c.shape[:-3] + (n, n, d, d)).swapaxes(-3, -2).reshape(c.shape[:-3] + (n * d, n * d))


@functools.cache
def _units(blocks: tuple, n: int) -> np.ndarray:
    """The unit coordinates (K n n, K, n, n) at level n, in the order of c.reshape(-1) (cached: read only).

    Unit (k, i, l) is the coordinate stack of B = kron(E_il, P_k).
    """
    m = len(blocks) * n * n
    units = np.eye(m, dtype=np.complex128).reshape(m, len(blocks), n, n)
    units.flags.writeable = False
    return units


@functools.cache
def _jacobian_plan(blocks: tuple, n: int):
    """_unit_dG's _sum_plan and divisors at level n (cached: read only): position (i, l, c, i', l', a)
    of its product adds to entry (k, i, l, k', i', l'), c in block k and a in block k', divided by -k_k'."""
    owner, k = np.repeat(np.arange(len(blocks)), blocks), len(blocks)
    i, l, c, i2, l2, a = np.indices((n, n, len(owner), n, n, len(owner))).reshape(6, -1)
    plan = _sum_plan((((owner[c] * n + i) * n + l) * k + owner[a]) * n * n + i2 * n + l2)
    divisors = np.tile(-np.repeat(np.array(blocks, np.complex128), n * n), k * n * n)
    return plan, divisors


def _unit_dG(blocks, r: np.ndarray) -> np.ndarray:
    """A matrix model's DG = -E(r B r) at each unit coordinate B (see _units), in coordinates
    (..., K n n, K, n, n), from its resolvents r (..., n d, n d), G = E(r).

    With r[(i, a), (l, c)] the entry at level (i, l) and base (a, c),
    coordinate [k', i', l'] of DG[kron(E_il, P_k)] is -(1 / k_k') times
    the sum over c in block k and a in block k' of
    r[(i', a), (i, c)] r[(l, c), (l', a)]: one elementwise product and
    its _label_sums. At level one, the block sums of r.T * r.
    """
    lead, d = r.shape[:-2], sum(blocks)
    n, k = r.shape[-1] // d, len(blocks)
    left = r.mT.reshape(lead + (n, d, n, d))  # r[(i', a), (i, c)] at [i, c, i', a]
    right = r.reshape(lead + (n, d, n, d))  # r[(l, c), (l', a)] at [l, c, l', a]
    terms = left[..., :, None, :, :, None, :] * right[..., None, :, :, None, :, :]  # [i, l, c, i', l', a]
    plan, divisors = _jacobian_plan(blocks, n)
    sums = _label_sums(terms.reshape(lead + (-1,)), plan) / divisors
    return sums.reshape(lead + (k * n * n, k, n, n))


def expectation(model: MatrixModel, m: np.ndarray) -> np.ndarray:
    """Apply Id_n (x) E to an (n d) x (n d) matrix, entrywise in levels.

    A stack of such matrices is taken per matrix.
    """
    m = as_stack(m)
    d = model.base_dim
    if m.shape[-2] != m.shape[-1] or m.shape[-1] % d:
        raise ValueError(f"shape {m.shape} is not a level matrix over base {d}")
    return _from_coords(model.blocks, _coords(model.blocks, m))


def _product(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a * c elementwise, rounded as a product of two complex scalars is.

    numpy's array multiply may fuse the multiply-adds, which changes the
    last bit of about a third of the products.
    """
    out = np.empty(np.broadcast(a, c).shape, dtype=np.complex128)
    out.real = a.real * c.real - a.imag * c.imag
    out.imag = a.real * c.imag + a.imag * c.real
    return out


def _scalar_G_closed(law: ScalarLaw, z: np.ndarray) -> np.ndarray:
    """Closed forms at level one, elementwise; branch cuts split per endpoint factor."""
    if law.kind == "semicircle":
        v = law.variance
        root = _product(np.sqrt(z - 2 * np.sqrt(v)), np.sqrt(z + 2 * np.sqrt(v)))
        return 2.0 / (z + root)  # = (z - root) / 2v, which cancels far from the support
    return 1.0 / _product(np.sqrt(z - 2.0), np.sqrt(z + 2.0))


def _require_upper(p: NcPoint, name: str = "b") -> np.ndarray:
    """The ascending eigenvalues of Im p, or of each Im of a stack, once each is strictly positive.

    NotInHalfPlane names the point otherwise. The rule is
    positivity_score's at POS_MARGIN; imag_part is Hermitian by
    construction, and a non-finite Im is outside.
    """
    im = imag_part(p.mat)
    if not np.isfinite(im).all():
        raise NotInHalfPlane(f"point {name} is not strictly in the half-plane: Im {name} is not finite")
    return _upper(herm_eigvals(im), NotInHalfPlane, f"point {name} is not strictly in the half-plane", name)


def _upper(eigs: np.ndarray, error, head: str, name: str) -> np.ndarray:
    """eigs (..., n), the ascending eigenvalues of Im name, once each row passes the half-plane rule;
    otherwise error("head: ...") shows the rule's own quantity at the first row that fails, or says
    that Im name is not finite there."""
    inside = positivity_score(eigs, POS_MARGIN) > 0.0
    if not inside.all():
        row = eigs.reshape(-1, eigs.shape[-1])[np.argmin(np.ravel(inside))]
        if not np.isfinite(row).all():  # the rule's quantity would drop a NaN, which sorts last
            raise error(f"{head}: Im {name} is not finite")
        lo, hi = float(row[0]), float(row[-1])
        ratio = lo / max(1.0, -lo, hi)
        raise error(f"{head}: lambda_min(Im {name}) / max(1, ||Im {name}||) = {ratio:.3e}, not above {POS_MARGIN:g}")
    return eigs


def _algebra_coords(blocks, m: np.ndarray, error, head: str, name: str) -> np.ndarray:
    """The coordinates of m (see _coords), once every matrix of the stack lies in the model algebra.

    The rule: ||m - E(m)|| <= ALGEBRA_TOL max(1, ||m||); otherwise
    error("head: ...") shows the rule's own quantity, at its largest.
    """
    c = _coords(blocks, m)
    off = m - _from_coords(blocks, c)
    if off.any():  # the norms are needed only where E moved m at all
        ratio = np.max(operator_norm(off) / np.maximum(1.0, operator_norm(m)))
        if ratio > ALGEBRA_TOL:
            raise error(
                f"{head}: ||{name} - E({name})|| / max(1, ||{name}||) = {ratio:.3e}, not at most {ALGEBRA_TOL:g}"
            )
    return c


def _point_coords(model, p: NcPoint, name: str) -> np.ndarray:
    """p's coordinates in the model algebra; NotInHalfPlane names p where it lies off the algebra."""
    head = f"point {name} is not in the model algebra over blocks {model.blocks}"
    return _algebra_coords(model.blocks, p.mat, NotInHalfPlane, head, name)


def _transform(model, b: NcPoint, jacobian=False):
    """G(b) at a b its caller has checked, with DG(b) at every unit coordinate from the same evaluation
    when jacobian is set (empty otherwise).

    Both are in coordinates (see _coords): G (..., K, n, n), DG (..., K n n, K, n, n) in the order of _units.
    """
    if b.base_dim != model.base_dim:
        raise ValueError(f"point base_dim {b.base_dim} != model base_dim {model.base_dim}")
    try:
        g, dg = model._G_dG(b, jacobian)
    except SingularMatrix as exc:
        raise SingularResolvent(str(exc)) from None
    if (herm_eigvals(imag_part(g))[..., -1] >= 0.0).any():
        raise SingularResolvent("Cauchy transform lost strict negativity of Im G")
    return g, dg


def cauchy_G(model, b: NcPoint) -> NcPoint:
    """G(b) = (Id (x) E)[(b - X)^(-1)] for b strictly in the half-plane.

    b may hold a stack of points; each gets the checks a single point
    gets, and a check that fails on any point raises.
    """
    _require_upper(b)
    return NcPoint(b.base_dim, b.level, _from_coords(model.blocks, _transform(model, b)[0]))


def _F(model, b: NcPoint, jacobian=False):
    """F(b) = G(b)^(-1) and DG(b) (see _transform), in coordinates; F inverts block by block."""
    g, dg = _transform(model, b, jacobian)
    try:
        return inverse(g), dg
    except SingularMatrix as exc:
        raise SingularResolvent(str(exc)) from None


def _h_checked(h: np.ndarray) -> np.ndarray:
    """h = F - b, once Im h is nonnegative up to H_IMAG_SLACK per matrix of the stack."""
    if (herm_eigvals(imag_part(h))[..., 0] < -H_IMAG_SLACK).any():
        raise SingularResolvent(
            "Im h dropped below zero beyond roundoff; the point is likely "
            "outside the half-plane of the block algebra, or F - b cancelled"
        )
    return h


def F_and_h(model, b: NcPoint) -> tuple[NcPoint, NcPoint]:
    """F = G^(-1) and h = F - b; Im h stays (numerically) nonnegative.

    Stacks are taken per point, as in cauchy_G.
    """
    _require_upper(b)
    f = _from_coords(model.blocks, _F(model, b)[0])
    return NcPoint(b.base_dim, b.level, f), NcPoint(b.base_dim, b.level, _h_checked(f - b.mat))


@variant("cp-map", "scalar_power", t=json_number)
@dataclass(frozen=True)
class ScalarPower:
    """rho = t Id with t >= 1, so rho - Id = (t - 1) Id is cp."""

    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", finite("t", float(self.t)))
        if self.t < 1.0:
            raise ValueError("ScalarPower needs t >= 1")

    def _weights(self, model) -> np.ndarray:
        return np.full((len(model.blocks), 1, 1), self.t - 1.0)


@variant("cp-map", "kraus_augment", vs=each(mat_from_json))
@dataclass(frozen=True)
class KrausAugment:
    """rho(m) = m + sum V_i* m V_i with every V_i in the model algebra.

    On the algebra, V_i = sum_k v_ik P_k, so rho - Id multiplies
    coordinate block k by sum_i |v_ik|^2.
    """

    vs: tuple

    def __post_init__(self):
        object.__setattr__(self, "vs", tuple(as_matrix(v) for v in self.vs))
        if not self.vs:
            raise ValueError("KrausAugment needs at least one V")

    def _weights(self, model) -> np.ndarray:
        d, total = model.base_dim, 0.0
        for i, v in enumerate(self.vs):
            if v.shape != (d, d):
                raise ValueError(f"V[{i}] has shape {v.shape}, expected {(d, d)}")
            head = f"V[{i}] is not block-scalar over blocks {model.blocks}"
            c = _algebra_coords(model.blocks, v, ValueError, head, "V")  # (K, 1, 1)
            total = total + (c.real * c.real + c.imag * c.imag)
        return total


@dataclass(frozen=True)
class SolveTrace:
    """One solved row; contraction_bound is ||1 - eps0 (Im omega)^(-1)||.

    That operator form is the provable per-step factor the Schwarz-Pick
    derivation yields; collapsing it onto lambda_min, to 1 - eps0 / Im
    omega, holds only where Im omega is a scalar. None for a row with
    lambda_min(Im omega) <= 0.
    """

    iterations: int
    converged: bool
    residual: float  # of the last step
    epsilon0: float
    omega_im_min: float
    contraction_bound: float | None
    picard_steps: int


def _check_budget(tol: float, max_iter: int):
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    positive_finite("tol", tol)


def _frobenius(c: np.ndarray, blocks) -> np.ndarray:
    """||m||_F of the matrix m of each point of a coordinate stack (N, K, n, n), by strided dot products;
    coordinate block k stands for k_k equal diagonal entries, so its sum of squares counts k_k times."""
    flat = c.reshape(len(c), len(blocks), -1)
    return np.sqrt((np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag)) @ np.array(blocks, float))


def _im_eigs(c: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of Im m per point of a coordinate stack (N, K, n, n), its blocks' together."""
    return np.sort(herm_eigvals(imag_part(c)).reshape(len(c), -1), 1)


def _picard(model, weights, b: np.ndarray, w: np.ndarray, jacobian=False):
    """F(w), the Picard update b + (rho - Id) h(w) and DG(w) (see _transform), per point of the coordinate stack w.

    rho - Id is rho._weights(model), one weight per coordinate block;
    the matrix of w is formed for the resolvent only.
    """
    f, dg = _F(model, NcPoint(model.base_dim, w.shape[-1], _from_coords(model.blocks, w)), jacobian)
    return f, b + weights * _h_checked(f - w), dg


def _solve_stack(model, rho, b: NcPoint, tol: float, max_iter: int):
    """Solve w = b + (rho - Id) h(w) for every point of the stack b (N, n d, n d).

    Newton's method on Phi(w) = b + (rho - Id) h(w) - w over the model
    algebra, in its coordinates (see _coords): each point is K blocks of
    n x n, on which F = G^-1, the eigenvalues of Im and rho - Id (a
    weight per block, rho._weights) act block by block. The Jacobian has
    columns coords(DPhi[B_j]) at the unit coordinates B_j, with
    Dh[e] = -F DG[e] F - e. A row whose Newton point would come within
    im_floor = eps0 / 10 of the half-plane's edge takes the plain Picard
    point instead, which stays inside; that step is the globally
    convergent one. A row stops at its Picard update once the residual
    ||update - w||_F of the n d x n d matrices is at most tol.

    The input b is checked once: _require_upper, whose lambda_min(Im b)
    starts the trace, then the rule that b lies in the model algebra,
    where the fixed point lives (NotInHalfPlane names b otherwise). Each
    iterate a row keeps is then tested by the half-plane rule on the
    eigenvalues of its Im that the step computes anyway
    (SingularResolvent if outside).

    One loop advances the rows that have not converged, held in arrays
    that shrink only on steps where rows stop. A step forms the n d x n d
    matrices for the resolvents only. It makes three inverse calls (one
    stack of resolvents, one per atom or none for a closed form, giving
    G and DG at every B_j: a matrix model's DG from elementwise products
    of resolvent entries, with no matrix product per row or direction;
    F = G^-1; the Jacobians) and four eigenvalue calls on the blocks of
    every row (Im of G, h, the Picard and the Newton points; none at
    n = 1, so none at level one). At level one the inverses of G are
    1 x 1, which matcore.inverse returns without a conditioning test.
    Each row keeps its own state,
    so it takes exactly the steps, and reaches exactly the values, that
    it reaches when solved alone. Returns the final iterates as a stack
    and SolveTrace's columns (one list per field); unconverged rows are
    reported, not raised.
    """
    n_rows, level, blocks = len(b.mat), b.level, model.blocks
    eps0 = _require_upper(b)[:, 0].copy()
    bc = _point_coords(model, b, "b")
    units = _units(blocks, level)
    m = len(units)
    # each row's final state, written when it stops; im holds the eigenvalues of its kept iterate's Im
    w, im, picard = bc.copy(), np.empty((n_rows, len(blocks) * level)), np.zeros(n_rows, dtype=int)
    iterations, residual, converged = np.full(n_rows, max_iter), np.zeros(n_rows), np.zeros(n_rows, dtype=bool)
    # the state of the rows that go on
    rows, ba, wa, im_floor, eps0a, picard_a = np.arange(n_rows), bc, bc, 0.1 * eps0, eps0, picard

    def stop(sel, ws, eigs, r):
        at = rows[sel]
        w[at], im[at], residual[at], eps0[at], picard[at] = ws[sel], eigs[sel], r[sel], eps0a[sel], picard_a[sel]
        return at

    # an iterate that overflows fails where its Im is tested, and the bound divides by lambda_min 0;
    # a weight of rho - Id may overflow as well, and its iterates fail the same way
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weights = rho._weights(model)
        for it in range(1, max_iter + 1):
            f, upd, dg = _picard(model, weights, ba, wa, True)
            upd_eigs = _im_eigs(upd)
            lam = upd_eigs[:, 0]
            eps0a = np.where(lam < eps0a, lam, eps0a)
            step = upd - wa
            r = _frobenius(step, blocks)
            done = r <= tol
            if done.any():
                _upper(upd_eigs[done], SingularResolvent, "an iterate left the half-plane", "w")
                at = stop(done, upd, upd_eigs, r)
                converged[at], iterations[at] = True, it
                if done.all():
                    break
                go = ~done
                rows, ba, wa, upd, upd_eigs, f, dg, step, r = (x[go] for x in (rows, ba, wa, upd, upd_eigs, f, dg, step, r))
                im_floor, eps0a, picard_a = im_floor[go], eps0a[go], picard_a[go]
            f4 = f[:, None]
            dphi = weights * (-(f4 @ dg @ f4) - units) - units  # DPhi[B_j] per row and j
            c = np.concatenate((dphi, step[:, None]), 1).reshape(len(rows), m + 1, m)
            # c[:, j] holds coords(DPhi[B_j]), so DPhi's matrix is the transpose of c[:, :m]; c[:, m] is Phi's
            delta = -(inverse(c[:, :m].mT) @ c[:, m:].mT)
            cand = wa + delta.reshape(wa.shape)
            cand_eigs = _im_eigs(cand)
            newton = cand_eigs[:, 0] > im_floor
            kept = np.where(newton[:, None], cand_eigs, upd_eigs)
            _upper(kept, SingularResolvent, "an iterate left the half-plane", "w")
            wa = np.where(newton.reshape(-1, 1, 1, 1), cand, upd)
            picard_a = picard_a + ~newton
        else:  # the budget ran out: the rows left keep their last iterate, unconverged
            stop(slice(None), wa, kept, r)
        bound = np.fmax(0.0, np.abs(1.0 - eps0[:, None] / im).max(-1))
    lo = im[:, 0]
    columns = (iterations, converged, residual, eps0, lo, np.where(lo > 0, bound, None), picard)
    return NcPoint(b.base_dim, level, _from_coords(blocks, w)), [c.tolist() for c in columns]


@per_row
def subordination_solve(
    model,
    rho,
    b: NcPoint,
    tol: float = SOLVE_TOL,
    max_iter: int = SOLVE_MAX_ITER,
) -> tuple[NcPoint, SolveTrace]:
    """Solve w = b + (rho - Id) h(w) from w0 = b.

    Newton's method over the model algebra, with the exact derivative
    of the model's Cauchy transform; a step whose Newton point would
    leave the half-plane (lambda_min(Im) <= eps0 / 10) is a plain
    Picard step instead, and the trace counts those. The iteration
    ends at the Picard update once the residual ||g(w_k) - w_k||_F is
    at most tol.

    The trace records the last residual and the contraction bound
    ||1 - eps0 (Im omega)^(-1)|| with eps0 = lambda_min(Im b),
    refreshed only downward along Im h0(w_k) as a roundoff guard. The
    bound bounds the plain Picard map's contraction near omega, which
    picard_ratio measures.

    A stack of points b gives one (omega, trace) per row, each that of
    solving the row alone; the rows are solved as one stack.

    Raises MaxIterExceeded (carrying the best iterate and trace of the
    first row, in row order, that did not converge) when the budget runs
    out, and ValueError when max_iter < 1 or tol is not positive and
    finite.
    """
    _check_budget(tol, max_iter)
    omega, columns = _solve_stack(model, rho, b, tol, max_iter)
    out = [(NcPoint(b.base_dim, b.level, w), trace) for w, trace in zip(omega.mat, map(SolveTrace, *columns))]
    for w, trace in out:
        if not trace.converged:
            message = f"no convergence in {max_iter} iterations (last residual {trace.residual:.3e})"
            raise MaxIterExceeded(message, omega=w, trace=trace)
    return out


@per_row
def picard_ratio(model, rho, b: NcPoint, omega: NcPoint):
    """Residual ratio r_4 / r_3 of four plain Picard steps.

    The steps iterate w -> b + (rho - Id) h(w) from omega + 1e-3 i Im omega,
    near the solution omega of that map, so the ratio measures the map's
    contraction there: the quantity that contraction_bound bounds.
    b and omega may hold stacks of points; then one ratio per point.
    Both lie in the model algebra (NotInHalfPlane names either otherwise).
    """
    weights, bc, w = rho._weights(model), _point_coords(model, b, "b"), _point_coords(model, omega, "omega")
    w = w + 1e-3j * imag_part(w)
    r = []
    for _ in range(4):
        _require_upper(NcPoint(b.base_dim, b.level, _from_coords(model.blocks, w)), "w")
        upd = _picard(model, weights, bc, w)[1]
        r.append(_frobenius(upd - w, model.blocks))
        w = upd
    return r[-1] / r[-2]


@dataclass(frozen=True)
class DensityRow(SolveTrace):
    """A grid row: the trace of its solve, its x and its density."""

    x: float
    density: float


@dataclass(frozen=True)
class DensityResult:
    rows: tuple
    eps: float
    mass: float


def _density_rows(model, rho, xs, bs, tol, max_iter) -> list:
    """Grid rows at the level-one points bs (N, d, d), solved as one stack."""
    omega, columns = _solve_stack(model, rho, NcPoint(bs.shape[-1], 1, bs), tol, max_iter)
    g = _transform(model, omega)[0]  # the solver has checked omega; coordinates (N, K, 1, 1)
    density = -(g.imag.reshape(len(g), -1) @ np.array(model.blocks, float)) / model.base_dim / np.pi  # Im tr(G) / d
    return list(map(DensityRow, *columns, xs.tolist(), density.tolist()))


def density_grid(
    model,
    rho,
    xmin: float,
    xmax: float,
    points: int = DENSITY_POINTS,
    eps: float = DENSITY_EPS,
    tol: float = DENSITY_TOL,
    max_iter: int = SOLVE_MAX_ITER,
) -> DensityResult:
    """Spectral density of the convolved model on a regular grid.

    Each grid row solves subordination at x + i eps (level one, scalar
    multiple of the identity, so the point lies in the model algebra)
    and evaluates density(x) = -Im tr(G_rho) / (d pi) at base dimension
    d. All rows are solved as one stack; each row gets exactly the
    values of its own solve. Unconverged rows are recorded, not
    raised. The mass field integrates the density by the trapezoid
    rule. Raises ValueError when xmin or xmax is not finite, xmin >
    xmax, max_iter < 1, tol or eps is not positive and finite, or eps
    puts the rows within the solver's half-plane margin.
    """
    if finite("xmin", xmin) > finite("xmax", xmax):
        raise ValueError(f"xmin {xmin} exceeds xmax {xmax}")
    _check_budget(tol, max_iter)
    positive_finite("eps", eps)
    if positivity_score(np.array([eps]), POS_MARGIN) <= 0.0:  # the solver's rule for Im b = eps I
        raise ValueError(f"eps must exceed the half-plane margin {POS_MARGIN:g}, got {eps}")
    d = model.base_dim
    xs = np.linspace(float(xmin), float(xmax), int(points))
    if not xs.size:
        return DensityResult((), float(eps), 0.0)
    bs = (xs + 1j * eps)[:, None, None] * np.eye(d, dtype=np.complex128)
    try:
        rows = _density_rows(model, rho, xs, bs, tol, max_iter)
    except NcmetricError:
        # one row at a time in grid order, so the first failing row
        # raises what it raises when solved alone
        rows = [
            row
            for i in range(xs.size)
            for row in _density_rows(model, rho, xs[i : i + 1], bs[i : i + 1], tol, max_iter)
        ]
    return DensityResult(tuple(rows), float(eps), float(np.trapezoid([r.density for r in rows], xs)))


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
    """h0(w) = b0 + (rho - Id) h(w), with eps0 = lambda_min(Im b0), for b0 and w in the model algebra.

    rho - Id (weights) and the coordinates of b0 (b0c) are computed once, at construction;
    ValueError unless rho acts on the model, NotInHalfPlane unless b0 lies in its algebra.
    """

    model: object
    rho: object
    b0: NcPoint
    eps0: float
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    b0c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", self.rho._weights(self.model))
        object.__setattr__(self, "b0c", _point_coords(self.model, self.b0, "b0"))

    def __call__(self, w: NcPoint) -> NcPoint:
        """h0(w) for w strictly in the half-plane of the model algebra (NotInHalfPlane otherwise)."""
        _require_upper(w, "w")
        wc = _point_coords(self.model, w, "w")
        if self.b0.level not in (1, w.level):
            raise ValueError(f"b0 at level {self.b0.level} cannot serve level {w.level}")
        # kron(I, b0) has the coordinates kron(I, b0c)
        upd = _picard(self.model, self.weights, _lift(self.b0c, w.level // self.b0.level), wc)[1]
        return NcPoint(w.base_dim, w.level, _from_coords(self.model.blocks, upd))


def make_h0(model, rho, b0: NcPoint) -> H0Map:
    return H0Map(model, rho, b0, float(_require_upper(b0, "b0")[0]))


@dataclass(frozen=True)
class FixedPointResult:
    x: NcPoint
    iterations: int
    residual: float
    k0_radius: float


def k0_and_fixed_point(h0: H0Map, a: NcPoint) -> FixedPointResult:
    """Iterate x = a + k0(x) with k0(w) = -h0(-w^(-1))^(-1).

    eps0 is h0.eps0. Every k0 value must stay in the ball
    ||k0 - i/(2 eps0)|| < 1/(2 eps0) + 1e-9, else RangeViolation:
    that ball is what certifies the contraction, so leaving it means
    eps0 was overestimated. The iteration stops once a step moves x by
    at most SOLVE_TOL in Frobenius norm; MaxIterExceeded after
    K0_MAX_ITER steps. Raises NotInHalfPlane unless Im a is strictly
    positive.
    """
    eps0 = h0.eps0
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    _require_upper(a, "a")
    eye = np.eye(a.dim, dtype=np.complex128)
    center = (1j / (2.0 * eps0)) * eye
    radius_cap = 1.0 / (2.0 * eps0) + 1e-9

    def k0(w: NcPoint):
        """(k0(w), ||k0(w) - i/(2 eps0)||)."""
        inner = NcPoint(a.base_dim, a.level, -inverse(w.mat))
        val = -inverse(h0(inner).mat)
        rad = operator_norm(val - center)
        if rad >= radius_cap:
            raise RangeViolation(
                f"||k0 - i/(2 eps0)|| = {rad:.6g} >= {radius_cap:.6g}; "
                "eps0 was overestimated"
            )
        return val, rad

    start = NcPoint(a.base_dim, a.level, a.mat + 1j * eye)
    x = NcPoint(a.base_dim, a.level, a.mat + k0(start)[0])
    for it in range(1, K0_MAX_ITER + 1):
        k, rad = k0(x)
        new = NcPoint(a.base_dim, a.level, a.mat + k)
        r = float(np.linalg.norm(new.mat - x.mat))
        x = new
        if r <= SOLVE_TOL:
            return FixedPointResult(x, it, r, rad)
    raise MaxIterExceeded(f"fixed point not reached in {K0_MAX_ITER} iterations", omega=x)

