"""Points and directions of a matrix-level graded set.

A point at level n over base dimension d is an (n*d) x (n*d) complex
matrix, thought of as an n x n array of d x d blocks. Directions are
the off-diagonal data: rectangular block matrices joining a row level
to a column level. The structural operations (direct sums, scalar
amplification, upper-triangular block assembly, level-space unitary
conjugation) are what every pseudometric and difference-differential
computation downstream is built from.

Conventions: a scalar level matrix Z of shape k x k acts on base
blocks via the Kronecker product kron(Z, I_d); amplify(Z, b) is
kron(Z, b).

The row contract: a point or direction may hold a stack (N, ...) of
matrices of one shape, the one form the layers built on block_upper
compute with (function and kernel evaluation, membership, the delta
routes); row i of a stack gives what row i alone gives, and a single
point is the stack of one that rows() returns. per_row lets a call
written for stacks take single points and return their row 0.
sample_outcomes evaluates a list of samples as one stack per shape
group and redoes a group that raises one sample at a time, so the
first failing sample raises what it raises alone.

NcPoint and NcDirection are the "point" and "direction" records of the
JSON registry: matcore.from_json and to_json read and write them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .matcore import InputError, NcmetricError, as_matrix, as_stack, direct_sum_mats, json_int, mat_from_json, variant

UNITARY_TOL = 1e-10


class BaseDimMismatch(InputError):
    """Operands live over different base dimensions."""


class DimMismatch(InputError, ValueError):
    """Level or shape mismatch between operands."""


class NotUnitary(InputError):
    """The supplied level matrix is not unitary to tolerance."""


@variant("point", base_dim=json_int, level=json_int, mat=mat_from_json)
@dataclass(frozen=True)
class NcPoint:
    """A level-n point: mat is (level*base_dim) square, or a stack of such."""

    base_dim: int
    level: int
    mat: np.ndarray

    def __post_init__(self):
        m = as_stack(self.mat)
        object.__setattr__(self, "mat", m)
        n = self.level * self.base_dim
        if self.base_dim < 1 or self.level < 1:
            raise ValueError("base_dim and level must be positive")
        if m.shape[-2:] != (n, n):
            raise DimMismatch(
                f"level {self.level} point over base_dim {self.base_dim} "
                f"needs shape {(n, n)}, got {m.shape}"
            )

    @property
    def dim(self) -> int:
        return self.level * self.base_dim


@variant("direction", base_dim=json_int, row_level=json_int, col_level=json_int, mat=mat_from_json)
@dataclass(frozen=True)
class NcDirection:
    """A rectangular block direction from row_level to col_level, or a stack of such."""

    base_dim: int
    row_level: int
    col_level: int
    mat: np.ndarray

    def __post_init__(self):
        m = as_stack(self.mat)
        object.__setattr__(self, "mat", m)
        shape = (self.row_level * self.base_dim, self.col_level * self.base_dim)
        if self.base_dim < 1 or self.row_level < 1 or self.col_level < 1:
            raise ValueError("base_dim, row_level and col_level must be positive")
        if m.shape[-2:] != shape:
            raise DimMismatch(
                f"direction over base_dim {self.base_dim} from row_level {self.row_level} "
                f"to col_level {self.col_level} needs shape {shape}, got {m.shape}"
            )


def rows(x):
    """x as a stack (N, ...) of points or directions: a single one is a
    stack of one, and a stack over several leading axes is flattened."""
    m = x.mat
    return x if m.ndim == 3 else replace(x, mat=m.reshape((-1,) + m.shape[-2:]))


def per_row(call):
    """call, written for stacks, on single points too: each point and
    direction argument reaches it as rows() of itself, and when none was
    a stack, the result is row 0 of call's, a numpy scalar as a Python one."""

    @functools.wraps(call)
    def wrapper(*args, **kwargs):
        parts = [isinstance(x, (NcPoint, NcDirection)) for x in args]
        out = call(*(rows(x) if part else x for x, part in zip(args, parts)), **kwargs)
        if any(part and x.mat.ndim > 2 for x, part in zip(args, parts)):
            return out
        row = out[0]
        return row.item() if isinstance(row, np.generic) else row

    return wrapper


def sample_outcomes(items, evaluate, label: str):
    """evaluate's outcome for each item (a tuple of points and directions), in item order.

    The items are grouped by the shapes of their parts, and each group
    is evaluated as one stack: evaluate(*parts, name) returns one
    outcome per row. If that call raises, the items of the group are
    evaluated again one at a time, as stacks of one named
    f"{label} {idx}", when their turn comes; so the first failing item
    raises what it raises alone, and no item after it is evaluated.
    """
    items = list(items)
    groups = {}
    for idx, item in enumerate(items):
        groups.setdefault(tuple((x.base_dim, x.mat.shape) for x in item), []).append(idx)
    outcomes = [None] * len(items)
    alone = set()
    for idxs in groups.values():
        parts = [
            replace(xs[0], mat=np.stack([x.mat for x in xs]))
            for xs in zip(*(items[i] for i in idxs))
        ]
        try:
            group = evaluate(*parts, label)
        except NcmetricError:
            alone.update(idxs)
            continue
        for idx, row in zip(idxs, group):
            outcomes[idx] = row
    for idx, item in enumerate(items):
        yield evaluate(*map(rows, item), f"{label} {idx}")[0] if idx in alone else outcomes[idx]


def point(mat, base_dim: int = 1) -> NcPoint:
    """Wrap a square matrix as a point, inferring the level."""
    m = as_matrix(mat)
    if m.shape[0] != m.shape[1]:
        raise DimMismatch(f"points are square, got {m.shape}")
    if m.shape[0] % base_dim:
        raise DimMismatch(f"size {m.shape[0]} is not a multiple of base_dim {base_dim}")
    return NcPoint(base_dim, m.shape[0] // base_dim, m)


def direction(mat, base_dim: int = 1) -> NcDirection:
    """Wrap a rectangular matrix as a direction, inferring the levels."""
    m = as_matrix(mat)
    if m.shape[0] % base_dim or m.shape[1] % base_dim:
        raise DimMismatch(f"shape {m.shape} is not a multiple of base_dim {base_dim}")
    return NcDirection(base_dim, m.shape[0] // base_dim, m.shape[1] // base_dim, m)


def direct_sum(a: NcPoint, c: NcPoint) -> NcPoint:
    """diag(a, c) at level a.level + c.level."""
    if a.base_dim != c.base_dim:
        raise BaseDimMismatch(f"base dims {a.base_dim} != {c.base_dim}")
    return NcPoint(a.base_dim, a.level + c.level, direct_sum_mats(a.mat, c.mat))


def amplify(z, b: NcPoint) -> NcPoint:
    """kron(Z, b) for a scalar k x k level matrix Z."""
    z = as_matrix(z)
    if z.shape[0] != z.shape[1]:
        raise DimMismatch(f"level matrix must be square, got {z.shape}")
    return NcPoint(b.base_dim, z.shape[0] * b.level, np.kron(z, b.mat))


def block_upper(a: NcPoint, b: NcDirection, c: NcPoint) -> NcPoint:
    """[[a, b], [0, c]] at level a.level + c.level; stacks broadcast."""
    if a.base_dim != c.base_dim or a.base_dim != b.base_dim:
        raise BaseDimMismatch(
            f"base dims {(a.base_dim, b.base_dim, c.base_dim)} disagree"
        )
    if b.row_level != a.level or b.col_level != c.level:
        raise DimMismatch(
            f"direction levels {(b.row_level, b.col_level)} do not join "
            f"point levels {(a.level, c.level)}"
        )
    n = a.dim + c.dim
    batches = {a.mat.shape[:-2], b.mat.shape[:-2], c.mat.shape[:-2]}
    batch = batches.pop() if len(batches) == 1 else np.broadcast_shapes(*batches)
    out = np.zeros(batch + (n, n), dtype=np.complex128)
    out[..., : a.dim, : a.dim] = a.mat
    out[..., : a.dim, a.dim :] = b.mat
    out[..., a.dim :, a.dim :] = c.mat
    return NcPoint(a.base_dim, a.level + c.level, out)


def unitary_conjugate(u, a: NcPoint) -> NcPoint:
    """(U kron I_d) a (U* kron I_d) for a unitary level matrix U."""
    u = as_matrix(u)
    if u.shape != (a.level, a.level):
        raise DimMismatch(f"level matrix shape {u.shape} != {(a.level, a.level)}")
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(a.level)))
    if defect > UNITARY_TOL:
        raise NotUnitary(f"||U*U - I|| = {defect:.3e}")
    ud = np.kron(u, np.eye(a.base_dim, dtype=np.complex128))
    return NcPoint(a.base_dim, a.level, ud @ a.mat @ ud.conj().T)
