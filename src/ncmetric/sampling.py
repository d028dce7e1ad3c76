"""Seeded samplers used by the invariant suite, the CLI, and tests.

Every sampler draws from a counter-based Philox generator keyed by
(seed, crc32(stream name)), so a given seed fully determines every
sample regardless of execution order. That is what makes repeated
`props --seed N` runs byte-identical.

sample_triples draws the samples (a, c, b) of `contract` in proposal
rounds: round 1 draws, sample by sample, the domain's _propose
candidates for a, those for c and the direction b; one stacked contains
per level then tests every candidate of the round, and each point keeps
its first candidate inside. Points with none inside draw new candidates
in the next round, after all of the round's draws, in sample order (a
before c); a point that misses for SAMPLE_TRIES rounds fails.
"""

from __future__ import annotations

import zlib

import numpy as np

from .matcore import NumericalFailure, operator_norm
from .ncpoint import NcDirection, NcPoint


class SamplingFailure(NumericalFailure):
    """No proposal of a domain's sampler landed inside it."""


def rng_stream(seed: int, stream: str) -> np.random.Generator:
    """Independent Philox substream for (seed, stream)."""
    key = np.array([np.uint64(seed), np.uint64(zlib.crc32(stream.encode()))])
    return np.random.Generator(np.random.Philox(key=key))


def complex_matrix(rng, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return scale * (re + 1j * im) / np.sqrt(2.0)


def hermitian_matrix(rng, n: int, scale: float = 1.0) -> np.ndarray:
    g = complex_matrix(rng, n, n, scale)
    return (g + g.conj().T) / 2.0


def unitary_matrix(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_matrix(rng, n, n))
    # Fix the phases so the distribution (and the matrix) is well defined.
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ball_point(rng, level: int, base_dim: int, radius: float = 1.0, fill: float = 0.75) -> NcPoint:
    """A point with operator norm uniform in [0.1, fill] * radius."""
    n = level * base_dim
    g = complex_matrix(rng, n, n)
    target = radius * rng.uniform(0.1, fill)
    return NcPoint(base_dim, level, g * (target / max(1e-12, operator_norm(g))))


def halfplane_point(rng, level: int, base_dim: int, im_floor: float = 0.3) -> NcPoint:
    """Re arbitrary Hermitian, Im = positive definite with a floor."""
    n = level * base_dim
    re = hermitian_matrix(rng, n)
    w = complex_matrix(rng, n, n)
    im = w @ w.conj().T / n + rng.uniform(im_floor, im_floor + 1.0) * np.eye(n)
    return NcPoint(base_dim, level, re + 1j * im)


def selfadjoint_disk_point(rng, level: int, base_dim: int, radius: float, fill: float = 0.9) -> NcPoint:
    """Hermitian point with norm (= spectral radius) below fill * radius."""
    n = level * base_dim
    h = hermitian_matrix(rng, n)
    target = radius * fill * rng.uniform(0.1, 1.0)
    return NcPoint(base_dim, level, h * (target / max(1e-12, operator_norm(h))))


def nilpotent_point(rng, level: int, base_dim: int, scale: float = 1.0) -> NcPoint:
    n = level * base_dim
    m = np.zeros((n, n), dtype=np.complex128)
    for i in range(n - 1):
        m[i, i + 1 :] = complex_matrix(rng, 1, n - i - 1, scale)
    return NcPoint(base_dim, level, m)


def direction_sample(
    rng, base_dim: int, row_level: int, col_level: int, scale: float = 1.0
) -> NcDirection:
    g = complex_matrix(rng, row_level * base_dim, col_level * base_dim)
    target = scale * rng.uniform(0.2, 1.0)
    return NcDirection(
        base_dim, row_level, col_level, g * (target / max(1e-12, operator_norm(g)))
    )


# sample_triples' number of proposal rounds before it gives up.
SAMPLE_TRIES = 200


def sample_triples(domain, rng, levels, count: int, base_dim: int) -> list:
    """count triples (a, c, b), a and c strictly inside the domain, sample i
    at level levels[i % len(levels)], drawn in proposal rounds as the
    module docstring says. TypeError if the domain has no _propose,
    SamplingFailure if a point has no candidate inside after
    SAMPLE_TRIES rounds."""
    from .domains import contains  # domains proposes with the samplers above

    propose = getattr(domain, "_propose", None)
    if propose is None:
        raise TypeError(f"no sampler for {type(domain).__name__}")
    # point 2i is a of sample i, point 2i + 1 its c
    point_levels = [levels[k // 2 % len(levels)] for k in range(2 * count)]
    points = [None] * (2 * count)
    directions = []
    # the points still missing, each with its candidates of the round
    pending = {}
    for i in range(count):
        lvl = point_levels[2 * i]
        pending[2 * i] = propose(rng, lvl, base_dim)
        pending[2 * i + 1] = propose(rng, lvl, base_dim)
        directions.append(direction_sample(rng, base_dim, lvl, lvl))
    for round_ in range(SAMPLE_TRIES):
        if round_:
            pending = {k: propose(rng, point_levels[k], base_dim) for k in pending}
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
            return [(points[2 * i], points[2 * i + 1], directions[i]) for i in range(count)]
    raise SamplingFailure(f"could not hit {type(domain).__name__} in {SAMPLE_TRIES} tries")
