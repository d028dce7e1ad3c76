"""The samplers' bits, and the stacked normalisation they rest on.

scaled normalises a batch of draws with one stacked operator_norm per
shape; every seeded artifact is byte-identical to drawing and scaling
one sample at a time only because a stacked SVD gives each matrix the
bits of a call on it alone, and complex_matrix's single normal draw
gives the bits of separate draws of the real and imaginary parts. A
numpy that changes either fails here first.
"""

import hashlib

import numpy as np
import pytest

import ncmetric.sampling as sampling
from ncmetric.domains import ball_domain, sample_triples
from ncmetric.matcore import operator_norm
from ncmetric.sampling import (
    ball_draw,
    complex_matrix,
    direction_draw,
    hermitian_matrix,
    rng_stream,
    scaled,
    selfadjoint_disk_draw,
)

# square sizes up to a level-3 point over base 4, and the shapes of
# directions between different levels over base dims 1 and 2
_SHAPES = [(n, n) for n in range(1, 13)] + [(1, 2), (2, 1), (1, 3), (3, 2), (2, 4), (4, 2), (2, 6), (6, 4)]


@pytest.mark.parametrize("shape", _SHAPES)
def test_a_stacked_operator_norm_has_the_bits_of_single_calls(shape):
    rng = rng_stream(3, f"norm {shape}")
    stack = np.stack([complex_matrix(rng, *shape) for _ in range(16)])
    if shape[0] == shape[1]:
        hermitian = np.stack([hermitian_matrix(rng, shape[0]) for _ in range(16)])
        stack = np.concatenate([stack, hermitian])
    assert operator_norm(stack).tolist() == [operator_norm(m) for m in stack]


def test_complex_matrix_draws_are_pinned():
    # sha256 of the draws and of the uniform after them, frozen when both
    # parts still came from two standard_normal calls
    rng = rng_stream(11, "complex_matrix")
    shapes = ((1, 1, 1.0), (2, 2, 1.0), (3, 1, 2.0), (4, 4, 1.0), (2, 6, 3.0), (12, 12, 1.0))
    mats = [complex_matrix(rng, rows, cols, scale) for rows, cols, scale in shapes]
    tail = np.float64(rng.uniform(0.1, 0.75))
    digest = hashlib.sha256(b"".join(m.tobytes() for m in mats) + tail.tobytes()).hexdigest()
    assert digest == "200846747c97626d76eab0bc8ff54c0df7743052996f757f735b47c82fe402e4"


def test_scaling_a_batch_gives_each_sample_its_bits_alone():
    def draws(rng):
        out = []
        for k in range(30):
            lvl, d = 1 + k % 3, 1 + k % 2
            out += [ball_draw(rng, lvl, d), selfadjoint_disk_draw(rng, lvl, d, 0.5)]
            out.append(direction_draw(rng, d, lvl, 1 + k % 2))
        return out

    batch = scaled(draws(rng_stream(5, "batch")))
    alone = [scaled(x) for x in draws(rng_stream(5, "batch"))]
    assert [type(p) for p in batch] == [type(q) for q in alone]
    assert [p.mat.tobytes() for p in batch] == [q.mat.tobytes() for q in alone]
    # the rest of the tree is kept, its lists and tuples rebuilt
    one, (two, kept) = scaled((draws(rng_stream(5, "batch"))[0], [alone[1], "kept"]))
    assert one.mat.tobytes() == alone[0].mat.tobytes() and two is alone[1] and kept == "kept"


def test_a_point_sampler_scales_its_draw():
    rng = rng_stream(5, "one")
    a = scaled(ball_draw(rng, 2, 1, fill=0.5))
    assert 0.1 <= operator_norm(a.mat) <= 0.5
    b = scaled(direction_draw(rng, 1, 2, 3))
    assert b.mat.shape == (2, 3) and 0.2 <= operator_norm(b.mat) <= 1.0


def test_sample_triples_takes_one_norm_per_shape_and_round(monkeypatch):
    shapes = []
    real = sampling.operator_norm

    def counted(stack):
        shapes.append(stack.shape)
        return real(stack)

    monkeypatch.setattr(sampling, "operator_norm", counted)
    # ball proposals (norm <= 0.7) all land in the unit ball in round 1
    triples = sample_triples(ball_domain(), rng_stream(1, "contract"), [1, 2, 3], 20, 1)
    assert len(triples) == 20
    # the a, c and b draws of a level share one stack
    assert sorted(shapes, key=lambda shape: shape[1:]) == [(21, 1, 1), (21, 2, 2), (18, 3, 3)]
