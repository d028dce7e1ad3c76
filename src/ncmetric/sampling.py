"""Seeded samplers used by the invariant suite, the CLI, and tests.

Every sampler draws from a counter-based Philox generator keyed by
(seed, crc32(stream name)), so a given seed fully determines every
sample regardless of execution order. That is what makes repeated
`props --seed N` runs byte-identical.

A normalising sampler comes in two steps. Its draw (ball_draw,
selfadjoint_disk_draw, direction_draw) consumes the generator: the raw
matrix g, then its target operator norm, returned as a Draw. scaled
turns the Draws of a whole batch into their samples,
g * (target / max(1e-12, ||g||)), with one stacked operator_norm per
shape group; a stacked SVD gives each matrix the bits it gets alone, so
a sample is the same however many are scaled with it, and
scaled(<draw>) is one sample. domains.sample_triples, which draws the
samples of `contract` from a domain's proposals, scales the draws of
each proposal round in one call.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .matcore import NumericalFailure, operator_norm
from .ncpoint import NcDirection, NcPoint


class SamplingFailure(NumericalFailure):
    """No proposal of a domain's sampler landed inside it."""


def rng_stream(seed: int, stream: str) -> np.random.Generator:
    """Independent Philox substream for (seed, stream); ValueError unless 0 <= seed < 2^64."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    key = np.array([np.uint64(seed), np.uint64(zlib.crc32(stream.encode()))])
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Draw:
    """A sample before its normalisation: make(g scaled to operator norm
    target) is the sample, make building the point or direction."""

    g: np.ndarray
    target: float
    make: object


def _draws(tree):
    if isinstance(tree, Draw):
        yield tree
    elif isinstance(tree, (list, tuple)):
        for x in tree:
            yield from _draws(x)


def _rebuild(tree, samples):
    if isinstance(tree, Draw):
        return next(samples)
    if isinstance(tree, (list, tuple)):
        return type(tree)(_rebuild(x, samples) for x in tree)
    return tree


def scaled(tree):
    """tree, a Draw or nested lists and tuples holding Draws among other
    values, with each Draw replaced by its sample:
    make(g * (target / max(1e-12, ||g||))). The norms are taken with one
    stacked operator_norm per shape of g."""
    draws = list(_draws(tree))
    groups = {}
    for i, d in enumerate(draws):
        groups.setdefault(d.g.shape, []).append(i)
    samples = [None] * len(draws)
    for idxs in groups.values():
        norms = operator_norm(np.stack([draws[i].g for i in idxs])).tolist()
        for i, norm in zip(idxs, norms):
            d = draws[i]
            samples[i] = d.make(d.g * (d.target / max(1e-12, norm)))
    return _rebuild(tree, iter(samples))


def complex_matrix(rng, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
    # one draw of both parts: the real part's normals, then the imaginary part's
    z = rng.standard_normal((2, rows, cols))
    return scale * (z[0] + 1j * z[1]) / np.sqrt(2.0)


def hermitian_matrix(rng, n: int, scale: float = 1.0) -> np.ndarray:
    g = complex_matrix(rng, n, n, scale)
    return (g + g.conj().T) / 2.0


def unitary_matrix(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_matrix(rng, n, n))
    # Fix the phases so the distribution (and the matrix) is well defined.
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ball_draw(rng, level: int, base_dim: int, radius: float = 1.0, fill: float = 0.75) -> Draw:
    """The draw of a point with operator norm uniform in [0.1, fill] * radius."""
    n = level * base_dim
    g = complex_matrix(rng, n, n)
    return Draw(g, radius * rng.uniform(0.1, fill), partial(NcPoint, base_dim, level))


def halfplane_point(rng, level: int, base_dim: int, im_floor: float = 0.3) -> NcPoint:
    """Re arbitrary Hermitian, Im = positive definite with a floor."""
    n = level * base_dim
    re = hermitian_matrix(rng, n)
    w = complex_matrix(rng, n, n)
    im = w @ w.conj().T / n + rng.uniform(im_floor, im_floor + 1.0) * np.eye(n)
    return NcPoint(base_dim, level, re + 1j * im)


def selfadjoint_disk_draw(rng, level: int, base_dim: int, radius: float, fill: float = 0.9) -> Draw:
    """The draw of a Hermitian point with norm (= spectral radius) below fill * radius."""
    h = hermitian_matrix(rng, level * base_dim)
    return Draw(h, radius * fill * rng.uniform(0.1, 1.0), partial(NcPoint, base_dim, level))


def nilpotent_point(rng, level: int, base_dim: int) -> NcPoint:
    n = level * base_dim
    m = np.zeros((n, n), dtype=np.complex128)
    for i in range(n - 1):
        m[i, i + 1 :] = complex_matrix(rng, 1, n - i - 1)
    return NcPoint(base_dim, level, m)


def direction_draw(rng, base_dim: int, row_level: int, col_level: int) -> Draw:
    """The draw of a direction with operator norm uniform in [0.2, 1]."""
    g = complex_matrix(rng, row_level * base_dim, col_level * base_dim)
    return Draw(g, rng.uniform(0.2, 1.0), partial(NcDirection, base_dim, row_level, col_level))
