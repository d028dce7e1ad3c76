import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ncmetric import freeprob, props
from ncmetric.freeprob import (
    DensityResult,
    DensityRow,
    KrausAugment,
    MatrixModel,
    MaxIterExceeded,
    NotInHalfPlane,
    RangeViolation,
    ScalarLaw,
    ScalarPower,
    SingularResolvent,
    F_and_h,
    cauchy_G,
    density_grid,
    expectation,
    k0_and_fixed_point,
    make_h0,
    picard_ratio,
    subordination_solve,
    support_interval,
)
from ncmetric.matcore import FactorizationFailure, NonHermitianInput, direct_sum_mats
from ncmetric.ncpoint import NcPoint, point
from ncmetric.sampling import halfplane_point

import oracles


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _scalar(z):
    return point([[z]])


def test_semicircle_cauchy_frozen_value():
    g = cauchy_G(ScalarLaw("semicircle"), _scalar(2j))
    assert complex(g.mat[0, 0]) == pytest.approx(1j * (1.0 - math.sqrt(2.0)), abs=1e-12)


def test_bernoulli_cauchy_frozen_value():
    g = cauchy_G(ScalarLaw("bernoulli"), _scalar(3j))
    assert complex(g.mat[0, 0]) == pytest.approx(-0.3j, abs=1e-14)


def test_arcsine_cauchy_frozen_value():
    g = cauchy_G(ScalarLaw("arcsine"), _scalar(3j))
    assert complex(g.mat[0, 0]) == pytest.approx(-1j / math.sqrt(13.0), abs=1e-12)


def test_scalar_closed_forms_match_oracles():
    for z in (0.5 + 0.7j, -1.8 + 0.5j, 3.0 + 2.0j):
        got = complex(cauchy_G(ScalarLaw("semicircle"), _scalar(z)).mat[0, 0])
        assert got == pytest.approx(oracles.semicircle_G(z), abs=1e-12)
        got = complex(cauchy_G(ScalarLaw("arcsine"), _scalar(z)).mat[0, 0])
        assert got == pytest.approx(oracles.arcsine_G(z), abs=1e-12)


def test_closed_forms_frozen_to_the_bit():
    # at these points a fused complex multiply changes the last bit
    cases = [
        (ScalarLaw("semicircle", 1.3), 1.15 + 0.347j, 0.3659231084110736 - 0.6393523210556116j),
        (ScalarLaw("semicircle", 1.3), 1.87 + 0.197j, 0.6141064756593898 - 0.44262247754864703j),
        (ScalarLaw("arcsine"), -0.4 + 0.075j, -0.003977450553683344 - 0.5098904693429489j),
        (ScalarLaw("arcsine"), -0.13 + 0.105j, -0.0017099660670827485 - 0.5003588267548204j),
    ]
    for law, z, want in cases:
        assert complex(cauchy_G(law, _scalar(z)).mat[0, 0]) == want
    stack = NcPoint(1, 1, np.array([[[z]] for _, z, _ in cases[2:]]))
    got = cauchy_G(ScalarLaw("arcsine"), stack).mat[:, 0, 0]
    assert got.tolist() == [want for _, _, want in cases[2:]]


def test_semicircle_far_from_the_support_does_not_cancel():
    z = 1e6 + 1j
    got = complex(cauchy_G(ScalarLaw("semicircle"), _scalar(z)).mat[0, 0])
    want = oracles.semicircle_G(z)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(want - (1 / z + 1 / z**3)) <= 1e-12 * abs(want)  # the Laurent series


def test_matrix_level_diagonal_matches_oracles():
    # a level-2 diagonal point takes the matrix square root route
    law = ScalarLaw("semicircle")
    b = point(np.diag([2j, 0.4 + 1j]))
    g = cauchy_G(law, b)
    assert complex(g.mat[0, 0]) == pytest.approx(oracles.semicircle_G(2j), abs=1e-12)
    assert complex(g.mat[1, 1]) == pytest.approx(oracles.semicircle_G(0.4 + 1j), abs=1e-12)


CONTINUOUS = [ScalarLaw("semicircle"), ScalarLaw("semicircle", 2.5), ScalarLaw("arcsine")]


def _edge(law):
    return 2.0 * math.sqrt(law.variance) if law.kind == "semicircle" else 2.0


def _G_prime(law, z):
    if law.kind == "semicircle":
        return oracles.semicircle_G_prime(z, law.variance)
    return oracles.arcsine_G_prime(z)


@pytest.mark.parametrize("law", CONTINUOUS, ids=lambda law: f"{law.kind}-{law.variance}")
def test_matrix_levels_respect_direct_sums(law):
    # G(kron(I_k, z)) = kron(I_k, G(z)) down to Im z = 1e-4, edge rows included
    for y in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
        for x in (0.0, 0.3, -0.7, 0.995 * _edge(law), -0.995 * _edge(law)):
            z = x + 1j * y
            g1 = complex(cauchy_G(law, _scalar(z)).mat[0, 0])
            for k in (2, 3, 4):
                gk = cauchy_G(law, point(z * np.eye(k))).mat
                assert np.abs(gk - g1 * np.eye(k)).max() <= 1e-12, (x, y, k)


_UPPER = st.builds(complex, st.floats(-4.0, 4.0), st.floats(1e-9, 2.0))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(law=st.sampled_from(CONTINUOUS), zs=st.lists(_UPPER, min_size=2, max_size=4), seed=st.none() | st.integers(0, 2**32))
# c^2 - B^2 had an eigenvalue next to the square root's cut here: SingularResolvent
@example(law=CONTINUOUS[0], zs=[math.sqrt(5.0) + 1e-7j, 0.3 + 1.0j], seed=None)
@example(law=CONTINUOUS[2], zs=[math.sqrt(5.0) + 1e-7j, 0.3 + 1.0j], seed=None)
def test_G_of_a_unitary_conjugate_of_a_diagonal_is_G_of_each_entry(law, zs, seed):
    # G(U diag(z) U*) = U diag(G(z_i)) U* at levels 2-4, near the real axis
    # too; only the edges +-c, where G has a branch point, are left out
    assume(min(abs(abs(z.real) - _edge(law)) for z in zs) >= 1e-3)
    z = np.array(zs)
    rng = _rng(0 if seed is None else seed)
    u = np.eye(len(z))
    if seed is not None:
        u = np.linalg.qr(rng.standard_normal((len(z), 2 * len(z))).view(complex))[0]
    g1 = cauchy_G(law, NcPoint(1, 1, z[:, None, None])).mat[:, 0, 0]
    want = (u * g1) @ u.conj().T
    b = point((u * z) @ u.conj().T)
    got = cauchy_G(law, b).mat
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    # DG(B)[E] by Daleckii-Krein: in the eigenbasis, (U* E U)_ij times the
    # divided difference (G(z_i) - G(z_j)) / (z_i - z_j), and G'(z_i) on the
    # diagonal; for eigenvalues apart, where the quotient is well conditioned
    if min(abs(x - y) for i, x in enumerate(zs) for y in zs[i + 1 :]) < 0.1:
        return
    e = rng.standard_normal((len(z), 2 * len(z))).view(complex)
    dz = z[:, None] - z[None, :]
    quotient = (g1[:, None] - g1[None, :]) / np.where(dz == 0, 1.0, dz)
    np.fill_diagonal(quotient, [_G_prime(law, complex(x)) for x in z])
    want = u @ (quotient * (u.conj().T @ e @ u)) @ u.conj().T
    # DG at the unit coordinates E_ij (a scalar law's coordinates: its matrices, on a block axis of one),
    # summed with the entries of e
    got = np.tensordot(e.reshape(-1), law._G_dG(b.mat, True)[1][:, 0], 1)
    assert np.linalg.norm(got - want, 2) <= 1e-11 * np.linalg.norm(want, 2)


@pytest.mark.parametrize("law", CONTINUOUS, ids=lambda law: f"{law.kind}-{law.variance}")
def test_jordan_block_corner_is_the_derivative(law):
    # G([[z, e], [0, z]]) = [[g, e g'], [0, g]]; |e| = Im z / 2 keeps Im B > 0
    for y in (1.0, 1e-2, 1e-4):
        for x in (0.0, 0.5 * _edge(law), 0.995 * _edge(law), -0.995 * _edge(law)):
            z = x + 1j * y
            e = y / 2
            corner = complex(cauchy_G(law, point(np.array([[z, e], [0.0, z]]))).mat[0, 1])
            assert abs(corner - e * _G_prime(law, z)) <= 1e-12, (x, y)


def _G_oracle(law, z):
    if law.kind == "semicircle":
        return oracles.semicircle_G(z, law.variance)
    return oracles.arcsine_G(z)


_UNITS = np.eye(4, dtype=complex).reshape(4, 2, 2)  # E_11, E_12, E_21, E_22


@pytest.mark.parametrize("law", CONTINUOUS, ids=lambda law: f"{law.kind}-{law.variance}")
def test_continuous_dG_matches_the_derivative_oracles(law):
    zs = [0.3 + 1.0j, -0.995 * _edge(law) + 1e-3j, 2.0 * _edge(law) + 0.5j]
    # level 1: DG(z)[e] = g'(z) e
    got = law._G_dG(np.array(zs)[:, None, None], True)[1]
    for z, dg in zip(zs, got[:, 0, 0, 0, 0]):
        want = _G_prime(law, z)
        assert abs(dg - want) <= 1e-12 * max(1.0, abs(want)), z
    # level 2 at diag(z1, z2): DG[E_ij] = c_ij E_ij, with c_ii = g'(z_i) and
    # c_12 = c_21 the divided difference of g
    for z1, z2 in ((zs[0], zs[1]), (zs[1], zs[2])):
        dd = (_G_oracle(law, z1) - _G_oracle(law, z2)) / (z1 - z2)
        coeff = np.array([_G_prime(law, z1), dd, dd, _G_prime(law, z2)])
        got = law._G_dG(np.diag([z1, z2]), True)[1][:, 0]
        want = coeff[:, None, None] * _UNITS
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), (z1, z2)


@pytest.mark.parametrize("law", CONTINUOUS, ids=lambda law: f"{law.kind}-{law.variance}")
def test_level_two_dG_at_close_eigenvalues_is_daleckii_krein(law):
    # DG(B)[E] = U ((U* E U) o L) U* at B = U diag(z1, z2) U*, where L holds
    # G'(z_i) on its diagonal and the divided difference off it, taken from
    # the oracles' exact forms, since the quotient cancels at close z1, z2
    rng = _rng(91)
    exact = oracles.semicircle_G_divided if law.kind == "semicircle" else oracles.arcsine_G_divided
    args = (law.variance,) if law.kind == "semicircle" else ()
    worst = 0.0
    for gap in 10.0 ** -np.arange(1, 13):
        for z1 in (0.3 + 1.0j, -0.5 * _edge(law) + 1e-2j, 0.995 * _edge(law) + 1e-3j, 2.0 * _edge(law) + 0.5j):
            z2 = z1 + gap * np.exp(1j * rng.uniform(0.0, np.pi))
            u = np.linalg.qr(rng.standard_normal((2, 4)).view(complex))[0]
            dd = exact(z1, z2, *args)
            # the exact form agrees with the naive quotient to the quotient's own roundoff
            g1, g2 = _G_oracle(law, z1), _G_oracle(law, z2)
            assert abs(dd - (g1 - g2) / (z1 - z2)) <= 4.0 * np.finfo(float).eps * (abs(g1) + abs(g2)) / abs(z1 - z2)
            coeff = np.array([[_G_prime(law, z1), dd], [dd, _G_prime(law, z2)]])
            want = u @ ((u.conj().T @ _UNITS @ u) * coeff) @ u.conj().T
            got = law._G_dG((u * [z1, z2]) @ u.conj().T, True)[1][:, 0]
            worst = max(worst, np.abs(got - want).max() / max(1.0, np.abs(want).max()))
    assert worst <= 1e-12


def _block_corner(model, b, dirs):
    # the block identity: G([[b, e], [0, b]]) holds DG(b)[e] in its corner,
    # levels 1..level by level+1..2 level of each coordinate block
    n, level = b.dim, b.level
    big = np.zeros((len(dirs), 2 * n, 2 * n), dtype=complex)
    big[:, :n, :n] = big[:, n:, n:] = b.mat
    big[:, :n, n:] = dirs
    return model._G_dG(big, False)[0][..., :level, level:]


def test_atomic_and_matrix_dG_match_resolvent_sums_and_block_corners():
    # DG at the unit coordinates B_j, the directions the Newton loop asks for
    rng = _rng(61)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    cases = [  # (model, base dim, (node, weight) pairs of an atomic law)
        (ScalarLaw("bernoulli"), 1, ((-1.0, 0.5), (1.0, 0.5))),
        (ScalarLaw("point_mass", atom=0.3 - 0.2j), 1, ((0.3 - 0.2j, 1.0),)),
        (MatrixModel((h + h.conj().T) / 4, (2, 4)), 6, ()),
    ]
    for model, d, atoms in cases:
        for level in (1, 2):
            b = halfplane_point(rng, level, d, im_floor=0.2)
            n = b.dim
            dirs = freeprob._from_coords(model.blocks, freeprob._units(model.blocks, level))
            got = model._G_dG(b.mat[None], True)[1][0]
            np.testing.assert_allclose(got, _block_corner(model, b, dirs), rtol=0, atol=1e-12)
            if atoms:
                want = np.zeros_like(got[:, 0])
                for s, w in atoms:
                    r = np.linalg.inv(b.mat - s * np.eye(n))
                    want -= w * (r @ dirs @ r)
                np.testing.assert_allclose(got[:, 0], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("blocks", [(2, 2), (1, 3), (2, 4)], ids=str)
@pytest.mark.parametrize("level", [1, 2])
def test_matrix_model_jacobian_is_the_coordinates_of_r_b_r(blocks, level):
    # the product of resolvent entries against -E(r B_j r) from explicit GEMMs, per unit coordinate B_j
    rng = _rng(63)
    d = sum(blocks)
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    model = MatrixModel((h + h.conj().T) / 4, blocks)
    b = NcPoint(d, level, np.stack([halfplane_point(rng, level, d, im_floor=0.2).mat for _ in range(3)]))
    got = model._G_dG(b.mat, True)[1]
    basis = freeprob._from_coords(blocks, freeprob._units(blocks, level))
    assert got.shape == (3, len(basis), len(blocks), level, level)
    for row, dg in zip(b.mat, got):
        r = np.linalg.inv(row - np.kron(np.eye(level), model.x))
        want = np.stack([-freeprob._coords(blocks, np.matmul(np.matmul(r, unit), r)) for unit in basis])
        assert np.abs(dg - want).max() <= 1e-13 * np.abs(want).max()


def test_fused_transform_gives_the_bits_of_the_plain_one():
    # the Newton loop takes G from _G_dG with its Jacobian, the density
    # rows from cauchy_G, which asks for none
    rng = _rng(62)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    cases = [
        (ScalarLaw("semicircle", 2.5), 1),
        (ScalarLaw("arcsine"), 1),
        (ScalarLaw("bernoulli"), 1),
        (ScalarLaw("point_mass", atom=0.3 - 0.2j), 1),
        (MatrixModel((h + h.conj().T) / 4, (2, 4)), 6),
    ]
    for model, d in cases:
        for level in (1, 2, 3):
            b = NcPoint(d, level, np.stack([halfplane_point(rng, level, d, im_floor=0.2).mat for _ in range(3)]))
            g = freeprob._from_coords(model.blocks, model._G_dG(b.mat, True)[0])
            np.testing.assert_array_equal(g, cauchy_G(model, b).mat)


def test_matrix_level_transforms_solve_their_equations():
    # semicircle: v G^2 - B G + I = 0; arcsine: G^2 (B^2 - 4) = I
    rng = _rng(60)
    eye = np.eye(4)
    for _ in range(20):
        re = rng.standard_normal((4, 4))
        im = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = (re + re.T) / 2 + 1j * (im @ im.conj().T / 4 + 0.3 * eye)
        for law in CONTINUOUS:
            g = cauchy_G(law, point(b)).mat
            if law.kind == "semicircle":
                residual = law.variance * g @ g - b @ g + eye
            else:
                residual = g @ g @ (b @ b - 4.0 * eye) - eye
            assert np.abs(residual).max() <= 1e-12


def test_scalar_law_validation():
    with pytest.raises(ValueError):
        ScalarLaw("uniform")
    with pytest.raises(ValueError):
        ScalarLaw("semicircle", variance=0.0)
    with pytest.raises(ValueError):
        ScalarPower(0.5)
    with pytest.raises(ValueError):
        KrausAugment(())


def test_cauchy_needs_halfplane():
    with pytest.raises(NotInHalfPlane):
        cauchy_G(ScalarLaw("semicircle"), _scalar(1.0))


def test_a_non_finite_im_is_outside_the_half_plane():
    # eigvalsh of a matrix with a NaN entry returns arbitrary numbers
    bad = NcPoint(1, 2, np.array([[1j, 0.3], [0.3, complex(math.nan, 1.0)]]))
    with pytest.raises(NotInHalfPlane, match="Im b is not finite$"):
        cauchy_G(ScalarLaw("semicircle"), bad)
    with pytest.raises(NotInHalfPlane, match="Im b0 is not finite$"):
        make_h0(ScalarLaw("bernoulli"), ScalarPower(2.0), bad)


def test_the_half_plane_rule_names_a_non_finite_im():
    # NaN sorts last among the eigenvalues, and max() would drop it from the printed ratio
    for eigs in ([[0.5, math.nan]], [[1.0, 2.0], [math.nan, math.nan]], [[-math.inf, 1.0]]):
        with pytest.raises(SingularResolvent, match="^an iterate left the half-plane: Im w is not finite$"):
            freeprob._upper(np.array(eigs), SingularResolvent, "an iterate left the half-plane", "w")
    with pytest.raises(SingularResolvent, match=r"lambda_min\(Im w\) / max\(1, \|\|Im w\|\|\) = -5.000e-01, "):
        freeprob._upper(np.array([[1.0, 2.0], [-0.5, 0.5]]), SingularResolvent, "an iterate left the half-plane", "w")


def test_matrix_model_needs_hermitian():
    with pytest.raises(NonHermitianInput):
        MatrixModel(np.array([[0.0, 1.0], [0.0, 0.0]]), (1, 1))


def test_expectation_is_a_conditional_projection():
    rng = _rng(40)
    model = MatrixModel(np.diag([1.0, -1.0, 0.5, 0.5]), (2, 2))
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    em = expectation(model, m)
    np.testing.assert_allclose(expectation(model, em), em, atol=1e-14)
    np.testing.assert_allclose(expectation(model, np.eye(4)), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(
        expectation(model, m.conj().T), expectation(model, m).conj().T, atol=1e-14
    )


def test_matrix_cauchy_has_negative_imag():
    rng = _rng(41)
    w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    model = MatrixModel((w + w.conj().T) / 2, (1, 2))
    for _ in range(5):
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (h + h.conj().T) / 2
        p = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = NcPoint(3, 1, h + 1j * (p @ p.conj().T / 3 + 0.4 * np.eye(3)))
        g = cauchy_G(model, b)
        im = (g.mat - g.mat.conj().T) / 2j
        assert float(np.linalg.eigvalsh(im)[-1]) < 0.0


def test_imh_guard_names_the_block_algebra():
    # dense b couples the blocks, so b leaves the half-plane of the
    # block-scalar algebra and Im h legitimately dips negative
    model = MatrixModel(np.array([[0.0, 1.0], [1.0, 0.0]]), (1, 1))
    b = NcPoint(2, 1, np.array([[0.2 + 1j, 0.9j], [0.9j, -0.3 + 1j]]))
    with pytest.raises(SingularResolvent, match="block algebra"):
        F_and_h(model, b)


def test_a_point_off_the_model_algebra_is_an_input_error():
    # off the block-scalar algebra there is no fixed point: the solver ran
    # out its budget and raised MaxIterExceeded, a numerical failure
    model = MatrixModel(_X4, (2, 2))
    kraus = KrausAugment((np.diag([0.8, 0.8, 0.6, 0.6]).astype(complex),))
    uneven = NcPoint(4, 1, np.diag([0.1 + 1j, 0.2 + 1.1j, 0.3 + 0.9j, -0.1 + 1j]))
    coupled = NcPoint(4, 1, 1j * np.eye(4) + 0.1 * np.eye(4, k=1))
    head = r"^point {0} is not in the model algebra over blocks \(2, 2\): "
    head += r"\|\|{0} - E\({0}\)\|\| / max\(1, \|\|{0}\|\|\) = "
    for rho, b in ((ScalarPower(2.0), uneven), (kraus, coupled)):
        with pytest.raises(NotInHalfPlane, match=head.format("b") + r"[0-9.e+-]+, not at most 1e-12$"):
            subordination_solve(model, rho, b)
        with pytest.raises(NotInHalfPlane, match=head.format("b0")):
            make_h0(model, rho, b)
        with pytest.raises(NotInHalfPlane, match=head.format("b")):
            picard_ratio(model, rho, b, b)
    h0 = make_h0(model, kraus, NcPoint(4, 1, 1.5j * np.eye(4)))
    with pytest.raises(NotInHalfPlane, match=head.format("w")):
        h0(coupled)
    # the ScalarPower point: ||diag(-0.05 - 0.05i, 0.05 + 0.05i, 0.2 - 0.05i, -0.2 + 0.05i)|| / ||b||
    with pytest.raises(NotInHalfPlane, match=f"= {abs(0.2 - 0.05j) / abs(0.2 + 1.1j):.3e}, "):
        subordination_solve(model, ScalarPower(2.0), uneven)


def test_validate_rho_rejects_dense_kraus_factor():
    model = MatrixModel(np.diag([1.0, -1.0]), (1, 1))
    dense = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match=r"^V\[0\] is not block-scalar over blocks \(1, 1\): "):
        KrausAugment((dense,))._weights(model)
    # rho - Id weighs coordinate block k by sum_i |v_ik|^2
    weights = KrausAugment((np.diag([0.3, 0.7]), np.diag([0.4j, 0.0])))._weights(model)
    np.testing.assert_allclose(weights, [[[0.25]], [[0.49]]], rtol=1e-15)
    assert ScalarPower(2.5)._weights(model).tolist() == [[[1.5]], [[1.5]]]


def test_bernoulli_power_two_subordination_frozen():
    omega, trace = subordination_solve(ScalarLaw("bernoulli"), ScalarPower(2.0), _scalar(3j))
    assert trace.converged
    want = oracles.bernoulli_power2_omega(3j)
    assert complex(omega.mat[0, 0]) == pytest.approx(want, abs=1e-8)
    assert complex(omega.mat[0, 0]) == pytest.approx(1j * (3.0 + math.sqrt(13.0)) / 2.0, abs=1e-8)


def test_bernoulli_power_two_matches_arcsine():
    for z in (3j, 0.7 + 0.9j, -1.1 + 0.6j):
        law = ScalarLaw("bernoulli")
        got = cauchy_G(law, subordination_solve(law, ScalarPower(2.0), _scalar(z))[0])
        assert complex(got.mat[0, 0]) == pytest.approx(oracles.arcsine_G(z), abs=1e-8)


def test_semicircle_power_adds_variance():
    law = ScalarLaw("semicircle")
    got = cauchy_G(law, subordination_solve(law, ScalarPower(4.0), _scalar(5j))[0])
    assert complex(got.mat[0, 0]) == pytest.approx(1j * (5.0 - math.sqrt(41.0)) / 8.0, abs=1e-8)


def test_solver_certificate_fields():
    law, rho, b = ScalarLaw("bernoulli"), ScalarPower(2.0), _scalar(3j)
    omega, trace = subordination_solve(law, rho, b)
    assert trace.epsilon0 == pytest.approx(3.0, abs=1e-9)
    assert trace.contraction_bound is not None and 0.0 < trace.contraction_bound < 1.0
    ratio = picard_ratio(law, rho, b, omega)
    # a ratio near 0 would pass any bound; for bernoulli it equals the bound
    assert 0.01 < ratio <= trace.contraction_bound + 0.05
    assert ratio == pytest.approx(trace.contraction_bound, abs=1e-3)
    assert trace.omega_im_min > trace.epsilon0 - 1e-9


def test_maxiter_carries_best_iterate():
    with pytest.raises(MaxIterExceeded) as exc:
        subordination_solve(ScalarLaw("bernoulli"), ScalarPower(2.0), _scalar(0.1 + 0.05j), max_iter=1)
    err = exc.value
    assert isinstance(err.omega, NcPoint)
    assert err.trace.iterations == 1
    assert not err.trace.converged


def test_density_grid_recovers_arcsine_support():
    res = density_grid(
        ScalarLaw("bernoulli"), ScalarPower(2.0), -2.6, 2.6, points=101, eps=3e-3
    )
    assert isinstance(res, DensityResult)
    assert all(r.converged for r in res.rows)
    lo, hi = support_interval(res, threshold=0.012)
    assert lo == pytest.approx(-2.0, abs=0.1)
    assert hi == pytest.approx(2.0, abs=0.1)
    assert res.mass > 0.9


def test_gauge_frozen_value_and_axioms():
    assert props._gauge(_scalar(2j), _scalar(1j)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert props._gauge(_scalar(2j), _scalar(2j)) == 0.0


def test_fixed_point_frozen_value():
    h0 = make_h0(ScalarLaw("bernoulli"), ScalarPower(2.0), _scalar(2j))
    assert h0.eps0 == pytest.approx(2.0)
    res = k0_and_fixed_point(h0, _scalar(1j))
    want = oracles.bernoulli_t2_fixed_point(1j, 2j)
    assert complex(res.x.mat[0, 0]) == pytest.approx(want, abs=1e-8)
    assert complex(res.x.mat[0, 0]) == pytest.approx(1j * (math.sqrt(13.0) - 1.0) / 2.0, abs=1e-8)
    assert res.k0_radius < 1.0 / (2.0 * h0.eps0) + 1e-9


def test_fixed_point_boundary_start():
    h0 = make_h0(ScalarLaw("bernoulli"), ScalarPower(2.0), _scalar(2j))
    with pytest.raises(NotInHalfPlane):
        k0_and_fixed_point(h0, _scalar(0.5))


def test_overestimated_eps0_is_caught():
    h0 = make_h0(ScalarLaw("bernoulli"), ScalarPower(2.0), _scalar(2j))
    with pytest.raises(RangeViolation):
        k0_and_fixed_point(dataclasses.replace(h0, eps0=50.0), _scalar(1j))


# ---------------------------------------------------------- stacked solver


def _one_row(model, rho, x, eps, tol=1e-9, max_iter=200):
    """A grid row solved alone, as density_grid solved each row before stacking."""
    d = model.base_dim
    b = NcPoint(d, 1, (x + 1j * eps) * np.eye(d, dtype=np.complex128))
    try:
        omega, trace = subordination_solve(model, rho, b, tol=tol, max_iter=max_iter)
    except MaxIterExceeded as exc:
        omega, trace = exc.omega, exc.trace
    g = cauchy_G(model, omega).mat
    phi = complex(np.trace(g) / g.shape[0])
    return DensityRow(**vars(trace), x=float(x), density=float(-phi.imag / np.pi))


_X4 = np.array(
    [
        [0.5, 0.3 + 0.2j, 0.0, 0.1 - 0.4j],
        [0.3 - 0.2j, -0.7, 0.25, 0.0],
        [0.0, 0.25, 0.2, -0.6 + 0.1j],
        [0.1 + 0.4j, 0.0, -0.6 - 0.1j, -0.3],
    ]
)

GRIDS = {
    # x = +-1.99 are grid points just inside the support's edge
    "bernoulli_edge": (ScalarLaw("bernoulli"), ScalarPower(2.0), 2.4875, 21, 1e-3),
    "semicircle": (ScalarLaw("semicircle"), ScalarPower(2.5), 3.6, 25, 3e-3),
    "arcsine": (ScalarLaw("arcsine"), ScalarPower(1.5), 3.0, 25, 1e-2),
    "point_mass": (ScalarLaw("point_mass", atom=0.3), ScalarPower(2.0), 1.5, 13, 1e-2),
    "matrix_power": (MatrixModel(_X4, (2, 2)), ScalarPower(2.2), 3.0, 21, 3e-3),
    "matrix_kraus": (
        MatrixModel(_X4, (2, 2)),
        KrausAugment((np.diag([0.8, 0.8, 0.6, 0.6]).astype(complex),)),
        2.5,
        21,
        1e-2,
    ),
}


def test_omega_matches_the_bernoulli_oracle_up_to_the_edge():
    law, rho = ScalarLaw("bernoulli"), ScalarPower(2.0)
    for z in (3j, 0.5 + 0.01j, 1.99 + 1e-3j, -1.99 + 1e-3j, 2.2 + 1e-3j, 1e-3j):
        omega, trace = subordination_solve(law, rho, _scalar(z))
        assert trace.iterations <= 15, z
        assert complex(omega.mat[0, 0]) == pytest.approx(oracles.bernoulli_power2_omega(z), abs=1e-8)


def _level_two_cases():
    # (model, rho, per-block values of the two level-one points)
    zs = ([0.3 + 0.2j], [-1.1 + 0.05j])
    cases = {f"{law.kind}-{law.variance}": (law, ScalarPower(2.0), zs) for law in CONTINUOUS}
    zs = ([0.3 + 0.2j, -0.5 + 0.3j], [-1.1 + 0.05j, 0.7 + 0.1j])
    for blocks in ((2, 2), (1, 3)):
        v = np.diag(np.repeat([0.8, 0.6], blocks)).astype(complex)
        for rho in (ScalarPower(2.2), KrausAugment((v,))):
            cases[f"{type(rho).__name__}-{blocks}"] = (MatrixModel(_X4, blocks), rho, zs)
    return cases


@pytest.mark.parametrize("case", sorted(_level_two_cases()))
def test_level_two_solve_is_the_direct_sum_of_level_one_solves(case):
    # Newton at level 2 takes DG from the block identity, at level 1 from g';
    # a matrix model's level-2 coordinates are 2 x 2 per partition block
    model, rho, zs = _level_two_cases()[case]
    d = model.base_dim
    b1, b2 = (np.diag(np.repeat(z, model.blocks)) for z in zs)
    w1, _ = subordination_solve(model, rho, NcPoint(d, 1, b1))
    w2, _ = subordination_solve(model, rho, NcPoint(d, 1, b2))
    w, trace = subordination_solve(model, rho, NcPoint(d, 2, direct_sum_mats(b1, b2)))
    assert trace.iterations <= 10
    np.testing.assert_allclose(w.mat, direct_sum_mats(w1.mat, w2.mat), rtol=0, atol=1e-12)
    # the same points conjugated by a level unitary fill the off-diagonal coordinates
    u = np.kron(np.array([[0.6, 0.8j], [0.8j, 0.6]]), np.eye(d))
    wu, _ = subordination_solve(model, rho, NcPoint(d, 2, u @ direct_sum_mats(b1, b2) @ u.conj().T))
    np.testing.assert_allclose(wu.mat, u @ w.mat @ u.conj().T, rtol=0, atol=1e-12)


def test_readme_grid_converges_in_every_row():
    res = density_grid(ScalarLaw("bernoulli"), ScalarPower(2.0), -2.5, 2.5, points=501, eps=1e-3)
    assert all(r.converged for r in res.rows)
    assert sum(r.iterations for r in res.rows) <= 6400
    worst = max(abs(r.density + oracles.arcsine_G(complex(r.x, 1e-3)).imag / math.pi) for r in res.rows)
    assert worst <= 1e-8


def test_matrix_model_rows_take_picard_steps_where_newton_leaves():
    model, rho, half, points, eps = GRIDS["matrix_power"]
    traces = [
        subordination_solve(model, rho, NcPoint(4, 1, (x + 1j * eps) * np.eye(4)), tol=1e-9)[1]
        for x in np.linspace(-half, half, points)
    ]
    assert sum(t.picard_steps for t in traces) > 0
    assert max(t.iterations for t in traces) <= 20


@pytest.mark.parametrize("name", ["bernoulli_edge", "matrix_kraus"])
def test_a_stacked_solve_gives_each_row_its_own_solve(name):
    model, rho, half, _, eps = GRIDS[name]
    d = model.base_dim
    bs = (np.linspace(-half, half, 9) + 1j * eps)[:, None, None] * np.eye(d)
    alone = [subordination_solve(model, rho, NcPoint(d, 1, m), tol=1e-9) for m in bs]
    stacked = subordination_solve(model, rho, NcPoint(d, 1, bs), tol=1e-9)
    assert [(w.mat.tobytes(), trace) for w, trace in stacked] == [(w.mat.tobytes(), trace) for w, trace in alone]
    # a budget that stops the slowest rows: the first of them in row order raises
    budget = max(trace.iterations for _, trace in alone) - 1
    first = next(i for i, (_, trace) in enumerate(alone) if trace.iterations > budget)
    assert first > 0
    with pytest.raises(MaxIterExceeded) as one:
        subordination_solve(model, rho, NcPoint(d, 1, bs[first]), tol=1e-9, max_iter=budget)
    with pytest.raises(MaxIterExceeded) as many:
        subordination_solve(model, rho, NcPoint(d, 1, bs), tol=1e-9, max_iter=budget)
    assert str(many.value) == str(one.value) and many.value.trace == one.value.trace
    assert many.value.omega.mat.tobytes() == one.value.omega.mat.tobytes()


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_stacked_grid_rows_equal_one_row_solves(name):
    model, rho, half, points, eps = GRIDS[name]
    res = density_grid(model, rho, -half, half, points=points, eps=eps)
    want = tuple(_one_row(model, rho, x, eps) for x in np.linspace(-half, half, points))
    assert res.rows == want
    assert all(r.converged for r in res.rows)
    if name == "bernoulli_edge":
        edge = [r for r in res.rows if abs(abs(r.x) - 1.99) < 1e-9]
        assert len(edge) == 2
        for r in edge:
            assert r.density == pytest.approx(-oracles.arcsine_G(complex(r.x, eps)).imag / math.pi, abs=1e-8)


# density_grid(*GRIDS["matrix_power"]) rows as (x, density, residual, iterations)
_MATRIX_POWER_ROWS = [
    (-3.0, 0.00021480679273429228, 1.6028130656590739e-13, 4),
    (-2.7, 0.00033077329414385665, 9.06641401225158e-12, 4),
    (-2.4, 0.000622747669535967, 3.1425797751136203e-16, 5),
    (-2.1, 0.002355259725340346, 2.6838959272580654e-11, 5),
    (-1.8, 0.3533189838580507, 1.3345785898812087e-15, 11),
    (-1.5, 0.3331230093194393, 5.5829312591669285e-12, 16),
    (-1.2000000000000002, 0.28295976003515383, 2.996820796595675e-14, 12),
    (-0.8999999999999999, 0.24826531678520222, 3.2577053834795166e-15, 11),
    (-0.6000000000000001, 0.23030491330549907, 1.0648885158809838e-15, 11),
    (-0.30000000000000027, 0.22282289694512813, 2.6650887953055344e-12, 11),
    (0.0, 0.22332921873386388, 3.3869898829950175e-12, 11),
    (0.2999999999999998, 0.23172360625031393, 6.461225847860154e-10, 9),
    (0.5999999999999996, 0.24949937028521865, 9.735839365096478e-15, 13),
    (0.8999999999999999, 0.275538083874381, 2.6780032868942877e-12, 11),
    (1.2000000000000002, 0.2948758422301553, 1.640488713020998e-11, 10),
    (1.5, 0.29639572849171025, 1.2211985297801132e-10, 11),
    (1.7999999999999998, 0.004093466659616375, 8.070659983686833e-17, 6),
    (2.0999999999999996, 0.0006583586121434214, 4.776076641020629e-10, 4),
    (2.3999999999999995, 0.000334256925720872, 5.059025727348919e-13, 4),
    (2.7, 0.00021423649971737322, 2.5920711908098924e-15, 4),
    (3.0, 0.0001528693038616011, 1.4043490568804553e-15, 4),
]


# t_k per partition block: t for ScalarPower, 1 + |v_k|^2 for the Kraus map diag(0.8, 0.8, 0.6, 0.6)
_BLOCK_TS = {"matrix_power": [2.2, 2.2], "matrix_kraus": [1.0 + 0.8**2, 1.0 + 0.6**2]}


@pytest.mark.parametrize("name", sorted(_BLOCK_TS))
def test_matrix_model_rows_match_the_block_equation_oracle(name):
    model, rho, half, points, eps = GRIDS[name]
    res = density_grid(model, rho, -half, half, points=points, eps=eps)
    for row in res.rows:
        want = oracles.matrix_model_density(_X4, model.blocks, _BLOCK_TS[name], complex(row.x, eps))
        assert row.density == pytest.approx(want, rel=0, abs=1e-8), row.x


def test_matrix_power_grid_frozen_to_the_bit():
    model, rho, half, points, eps = GRIDS["matrix_power"]
    res = density_grid(model, rho, -half, half, points=points, eps=eps)
    assert [(r.x, r.density, r.residual, r.iterations) for r in res.rows] == _MATRIX_POWER_ROWS
    assert all(r.converged for r in res.rows)
    # the frozen figures hold the oracle, so a re-freeze cannot pin a wrong number
    for x, density, _, _ in _MATRIX_POWER_ROWS:
        want = oracles.matrix_model_density(_X4, model.blocks, _BLOCK_TS["matrix_power"], complex(x, eps))
        assert density == pytest.approx(want, rel=0, abs=1e-8), x


SOLVES = pytest.mark.parametrize(
    ("model", "rho", "b", "a", "iterations", "calls"),
    [
        (*GRIDS["matrix_power"][:2], NcPoint(4, 1, (-1.8 + 3e-3j) * np.eye(4)), 1, 11, 32),
        (ScalarLaw("bernoulli"), ScalarPower(2.0), _scalar(0.5 + 0.01j), 1, 12, 35),
        (ScalarLaw("semicircle"), ScalarPower(2.0), _scalar(0.5 + 0.01j), 0, 5, 9),
    ],
    ids=["matrix_model", "bernoulli", "semicircle"],
)


@SOLVES
def test_each_newton_step_inverts_each_resolvent_once(monkeypatch, model, rho, b, a, iterations, calls):
    # a stacked inverse (one for every atom, none for a closed form) gives
    # G and DG, then F = G^-1 and the Jacobian's inverse; the last step
    # converges and builds no Jacobian
    count = []
    real = freeprob.inverse
    monkeypatch.setattr(freeprob, "inverse", lambda m: count.append(1) or real(m))
    _, trace = subordination_solve(model, rho, b)
    k = trace.iterations
    assert (k, len(count)) == (iterations, calls)
    assert len(count) == (a + 2) * (k - 1) + (a + 1)


@SOLVES
def test_a_solve_checks_its_input_once(monkeypatch, model, rho, b, a, iterations, calls):
    # the iterates are tested on the eigenvalues each step computes anyway
    count = []
    real = freeprob._require_upper
    monkeypatch.setattr(freeprob, "_require_upper", lambda *args: count.append(1) or real(*args))
    _, trace = subordination_solve(model, rho, b)
    assert trace.iterations == iterations
    assert len(count) == 1


def test_stacked_transforms_equal_per_point():
    rng = _rng(50)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    cases = [
        (ScalarLaw("semicircle"), 1, 1),
        (ScalarLaw("arcsine"), 1, 2),  # level 2: the matrix square root route
        (ScalarLaw("semicircle", 2.5), 1, 2),
        (ScalarLaw("bernoulli"), 1, 3),
        (MatrixModel((h + h.conj().T) / 4, (2, 4)), 6, 2),
    ]
    for model, d, level in cases:
        n = d * level
        re = rng.standard_normal((5, n, n))
        im = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
        im = im @ im.conj().mT / n + 0.3 * np.eye(n)
        pts = (re + re.mT) / 2 + 1j * im
        if isinstance(model, MatrixModel):
            # block-scalar points keep Im h nonnegative
            pts = np.kron(pts[:, :level, :level], np.eye(d))
        g = cauchy_G(model, NcPoint(d, level, pts)).mat
        _, hs = F_and_h(model, NcPoint(d, level, pts))
        for i, p in enumerate(pts):
            np.testing.assert_array_equal(g[i], cauchy_G(model, NcPoint(d, level, p)).mat)
            np.testing.assert_array_equal(hs.mat[i], F_and_h(model, NcPoint(d, level, p))[1].mat)


def _expectation_loop(model, m):
    # the per-block reference: np.trace of each partition block
    d = model.base_dim
    n = m.shape[0] // d
    out = np.zeros_like(m)
    for i in range(n):
        for j in range(n):
            q = m[i * d : (i + 1) * d, j * d : (j + 1) * d]
            off = 0
            for k in model.blocks:
                sl = slice(off, off + k)
                out[i * d + off : i * d + off + k, j * d + off : j * d + off + k] = (
                    np.trace(q[sl, sl]) / k
                ) * np.eye(k)
                off += k
    return out


def test_stacked_expectation_equals_block_traces():
    rng = _rng(51)
    # a partition block of 9 sums its trace pairwise in numpy
    model = MatrixModel(np.diag(rng.standard_normal(12)), (9, 3))
    ms = rng.standard_normal((3, 24, 24)) + 1j * rng.standard_normal((3, 24, 24))
    stacked = expectation(model, ms)
    for i, m in enumerate(ms):
        np.testing.assert_array_equal(stacked[i], _expectation_loop(model, m))
        np.testing.assert_array_equal(expectation(model, m), stacked[i])


def _coords_loop(blocks, m):
    # the per-block reference: np.trace of each partition block of each level block
    d = sum(blocks)
    n = m.shape[0] // d
    offsets = np.cumsum((0,) + blocks[:-1])
    return np.array([
        [[np.trace(m[i * d + o : i * d + o + k, j * d + o : j * d + o + k]) / k for j in range(n)] for i in range(n)]
        for o, k in zip(offsets, blocks)
    ])


def _bits(a):
    return a.shape, a.dtype, a.tobytes()  # tells -0.0 from 0.0


# from size 8 on, numpy's pairwise summation changes the order of a trace's sum
@pytest.mark.parametrize("blocks", [(1,), (2, 2), (1, 3), (3, 1, 2), (8,), (9, 1)], ids=str)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_coords_and_expectation_are_per_block_traces_to_the_bit(blocks, level):
    rng = _rng(52)
    d = sum(blocks)
    model = MatrixModel(np.diag(rng.standard_normal(d)), blocks)
    for lead in ((4,), (2, 3)):
        ms = rng.standard_normal(lead + (level * d,) * 2) + 1j * rng.standard_normal(lead + (level * d,) * 2)
        coords, expected = freeprob._coords(blocks, ms), expectation(model, ms)
        for idx in np.ndindex(lead):
            assert _bits(coords[idx]) == _bits(_coords_loop(blocks, ms[idx]))
            assert _bits(expected[idx]) == _bits(_expectation_loop(model, ms[idx]))
        # elements sum c_kij kron(E_ij, P_k) of the algebra, with dyadic c so that each trace is exact
        c = (rng.integers(-64, 64, coords.shape) + 1j * rng.integers(-64, 64, coords.shape)) / 16
        m = freeprob._from_coords(blocks, c)
        units = np.eye(level * level).reshape((level,) * 4)  # units[i, j] = E_ij
        projections = np.eye(len(blocks))[np.repeat(range(len(blocks)), blocks)]  # column k: diagonal of P_k
        want = sum(
            c[..., k, i, j, None, None] * np.kron(units[i, j], np.diag(projections[:, k]))
            for i in range(level) for j in range(level) for k in range(len(blocks))
        )
        np.testing.assert_array_equal(m, want)
        assert _bits(freeprob._coords(blocks, m)) == _bits(c)
        assert _bits(freeprob._from_coords(blocks, freeprob._coords(blocks, m))) == _bits(m)


def _count_linalg_calls(monkeypatch):
    calls = dict.fromkeys(("inv", "eigvalsh", "svd"), 0)
    for name in calls:

        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize(
    "grid, per_step",
    [
        # both atoms' resolvents, F = G^-1 and the Jacobian are 1 x 1, so reciprocals; no eigvalsh at 1 x 1
        ("bernoulli_edge", {"inv": 0, "eigvalsh": 0, "svd": 0}),
        # the 4 x 4 resolvent and the K x K Jacobian; F = G^-1 is 1 x 1 per coordinate block at level
        # one, and so are Im G, Im h, Im of the Picard and of the Newton points
        ("matrix_kraus", {"inv": 2, "eigvalsh": 0, "svd": 0}),
    ],
)
def test_np_linalg_calls_per_lockstep_iteration_do_not_grow_with_rows(monkeypatch, grid, per_step):
    model, rho, half, _, _ = GRIDS[grid]
    calls = _count_linalg_calls(monkeypatch)
    for points in (1, 5, 41):
        # a grid stopped after k lockstep iterations, with no row converged,
        # makes the calls of k steps and fixed ones: tell k = 3 from k = 4
        made = []
        for k in (3, 4):
            before = dict(calls)
            res = density_grid(model, rho, -half, half, points=points, eps=1e-3, tol=1e-300, max_iter=k)
            assert not any(row.converged for row in res.rows)
            made.append({name: calls[name] - before[name] for name in calls})
        assert {name: made[1][name] - made[0][name] for name in calls} == per_step, points


def test_a_kraus_solve_reads_im_b_eigenvalues_once(monkeypatch):
    # the input check's eigenvalues of Im b (4 x 4) start the trace; the
    # steps take those of Im G, Im h, the Picard and the Newton points per
    # coordinate block, which is 1 x 1 at level one: no LAPACK call
    model, rho, _, _, _ = GRIDS["matrix_kraus"]
    calls = _count_linalg_calls(monkeypatch)
    _, trace = subordination_solve(model, rho, NcPoint(4, 1, (-1.8 + 3e-3j) * np.eye(4)))
    assert (trace.iterations, calls["eigvalsh"], calls["svd"]) == (5, 1, 0)


def test_a_row_whose_newton_jacobian_is_singular_takes_its_picard_step(monkeypatch):
    # block 1 holds the law 1/4 delta_0 + 3/8 (delta_2 + delta_-2), for which
    # F(z) = z - 3 z / (z^2 - 1), so F'(i y) - 1 = 3 (1 - y^2) / (1 + y^2)^2 is
    # real; at y = 1/2 the weight |v|^2 = (5/6)^2 makes the Jacobian's block-1
    # entry |v|^2 (F' - 1) - 1 vanish up to roundoff at b = i y, the first
    # iterate of row x = 0, while block 2 (a Bernoulli law) keeps its own
    x = np.diag([0.0, 0.0, 2.0, 2.0, 2.0, -2.0, -2.0, -2.0, 1.0, -1.0]).astype(complex)
    v = np.diag([5.0 / 6.0] * 8 + [0.7] * 2).astype(complex)
    model, rho, eps = MatrixModel(x, (8, 2)), KrausAugment((v,)), 0.5
    found = []
    real = freeprob.is_singular
    monkeypatch.setattr(freeprob, "is_singular", lambda a: found.append(real(a).tolist()) or real(a))
    rows = density_grid(model, rho, -1.0, 1.0, points=3, eps=eps).rows
    assert found == [[False, True, False]]
    assert [(r.converged, r.picard_steps) for r in rows] == [(True, 0), (True, 1), (True, 0)]
    for r in rows:
        # each row keeps the bits of its own solve, and holds the block-equation oracle
        alone = density_grid(model, rho, r.x, r.x, points=1, eps=eps).rows[0]
        assert repr(dataclasses.astuple(alone)) == repr(dataclasses.astuple(r))
        want = oracles.matrix_model_density(x, model.blocks, [1.0 + (5.0 / 6.0) ** 2, 1.49], complex(r.x, eps))
        assert r.density == pytest.approx(want, rel=0, abs=1e-8)


def test_failing_rows_raise_in_grid_order(monkeypatch):
    # row 3 fails at its third transform call, row 7 at its first; solved
    # together, row 7 fails first, but row 3 comes first in grid order
    law, rho, eps = ScalarLaw("bernoulli"), ScalarPower(2.0), 1e-3
    xs = np.linspace(-1.0, 1.0, 11)
    starts = {complex(x + 1j * eps): i for i, x in enumerate(xs)}
    fail_at = {3: 3, 7: 1}
    real = freeprob._cauchy
    state = {"row": None, "calls": {}}

    def flaky(model, m, jacobian=False):
        pts = m.reshape(-1)
        if pts.size > 1:
            rows = [starts[complex(z)] for z in pts] if state["row"] is None else []
        elif complex(pts[0]) in starts:
            rows = [starts[complex(pts[0])]]
        else:
            rows = [state["row"]]
        for row in rows:
            state["row"] = row
            state["calls"][row] = state["calls"].get(row, 0) + 1
            if state["calls"][row] >= fail_at.get(row, np.inf):
                raise SingularResolvent(f"planted failure in row {row}")
        return real(model, m, jacobian)

    monkeypatch.setattr(freeprob, "_cauchy", flaky)
    with pytest.raises(SingularResolvent, match="planted failure in row 3$"):
        density_grid(law, rho, -1.0, 1.0, points=11, eps=eps)
    # rows 0-2 were solved alone before row 3 failed
    assert all(state["calls"][row] > 3 for row in (0, 1, 2))


def test_empty_grid_has_no_rows():
    res = density_grid(ScalarLaw("bernoulli"), ScalarPower(2.0), -1.0, 1.0, points=0)
    assert res.rows == ()
    assert res.mass == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda b: density_grid(ScalarLaw("bernoulli"), ScalarPower(2.0), -1.0, 1.0, points=5, max_iter=0),
        lambda b: subordination_solve(ScalarLaw("bernoulli"), ScalarPower(2.0), b, max_iter=0),
    ],
    ids=["density_grid", "subordination_solve"],
)
def test_max_iter_below_one_is_value_error(call):
    with pytest.raises(ValueError, match="^max_iter must be at least 1$"):
        call(_scalar(0.3 + 1j))


def test_gauge_on_stacks_gives_the_values_of_its_rows():
    rng = np.random.Generator(np.random.Philox(8))
    for level, base in ((1, 1), (2, 1), (1, 2)):
        a_mats = np.stack([halfplane_point(rng, level, base).mat for _ in range(5)])
        c_mats = a_mats[::-1].copy()
        a, c = NcPoint(base, level, a_mats), NcPoint(base, level, c_mats)
        rows = [props._gauge(NcPoint(base, level, x), NcPoint(base, level, y)) for x, y in zip(a_mats, c_mats)]
        values = props._gauge(a, c)
        assert values.shape == (5,)
        assert values.tolist() == rows
        assert props._gauge(a, a).tolist() == [0.0] * 5


def _no_solve(*args, **kwargs):
    raise AssertionError("the solver ran")


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_solver_rejects_a_tolerance_that_cannot_work(monkeypatch, tol):
    monkeypatch.setattr(freeprob, "_solve_stack", _no_solve)
    law, rho, b = ScalarLaw("bernoulli"), ScalarPower(2.0), _scalar(0.5 + 0.1j)
    calls = (
        lambda: subordination_solve(law, rho, b, tol=tol),
        lambda: density_grid(law, rho, -1.0, 1.0, points=3, tol=tol),
        lambda: density_grid(law, rho, -1.0, 1.0, points=0, tol=tol),
    )
    for call in calls:
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            call()


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_density_grid_rejects_an_eps_that_cannot_work(monkeypatch, eps):
    monkeypatch.setattr(freeprob, "_solve_stack", _no_solve)
    for points in (3, 0):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            density_grid(ScalarLaw("bernoulli"), ScalarPower(2.0), -1.0, 1.0, points=points, eps=eps)


@pytest.mark.parametrize("eps", [1e-10, 1e-11])
def test_density_grid_rejects_an_eps_within_the_half_plane_margin(monkeypatch, eps):
    law, rho = ScalarLaw("bernoulli"), ScalarPower(2.0)
    with pytest.raises(NotInHalfPlane, match="point b"):  # the solver's own rule rejects the rows
        subordination_solve(law, rho, _scalar(0.5 + 1j * eps))
    monkeypatch.setattr(freeprob, "_solve_stack", _no_solve)
    for points in (3, 0):
        with pytest.raises(ValueError, match=f"^eps must exceed the half-plane margin 1e-10, got {eps}$"):
            density_grid(law, rho, -1.0, 1.0, points=points, eps=eps)


def test_density_grid_rejects_xmin_above_xmax(monkeypatch):
    law, rho = ScalarLaw("bernoulli"), ScalarPower(2.0)
    one_point = density_grid(law, rho, 0.5, 0.5, points=3)
    assert [row.x for row in one_point.rows] == [0.5, 0.5, 0.5] and one_point.mass == 0.0
    monkeypatch.setattr(freeprob, "_solve_stack", _no_solve)
    for points in (5, 0):
        with pytest.raises(ValueError, match="^xmin 1.0 exceeds xmax -1.0$"):
            density_grid(law, rho, 1.0, -1.0, points=points)


def test_kraus_augment_acts_on_a_scalar_law_as_a_scalar_power():
    law, v = ScalarLaw("semicircle"), 0.5
    assert KrausAugment((np.array([[v]]),))._weights(law).tolist() == [[[v * v]]]
    with pytest.raises(ValueError, match="expected"):
        KrausAugment((np.eye(2),))._weights(law)
    b = _scalar(0.3 + 0.2j)
    w_kraus, _ = subordination_solve(law, KrausAugment((np.array([[v]]),)), b)
    w_power, _ = subordination_solve(law, ScalarPower(1.0 + v * v), b)
    np.testing.assert_allclose(w_kraus.mat, w_power.mat, atol=1e-9)


def _level_two_kraus_points(points):
    # kron(Z, I_4) lies in the model algebra; Im Z = diag(1e-3, 2e-3)
    zs = [np.array([[x + 1e-3j, 0.1], [0.1, -x + 2e-3j]]) for x in np.linspace(-2.5, 2.5, points)]
    return NcPoint(4, 2, np.stack([np.kron(z, np.eye(4)) for z in zs]))


def test_np_linalg_calls_per_level_two_kraus_iteration_do_not_grow_with_rows(monkeypatch):
    # at level two the coordinate blocks are 2 x 2: one eigenvalue call takes Im G,
    # Im h and Im of the Picard points together, one those of the Newton points;
    # the inverses are the 8 x 8 resolvents, F = G^-1 and the 8 x 8 Jacobians
    model, rho, _, _, _ = GRIDS["matrix_kraus"]
    calls = _count_linalg_calls(monkeypatch)
    for points in (1, 5, 41):
        b = _level_two_kraus_points(points)
        made = []
        for k in (3, 4):
            before = dict(calls)
            _, columns = freeprob._solve_stack(model, rho, b, 1e-300, k)
            assert not any(columns[1])
            made.append({name: calls[name] - before[name] for name in calls})
        assert {name: made[1][name] - made[0][name] for name in calls} == {"inv": 3, "eigvalsh": 2, "svd": 0}, points


_FAILURES = ("G", "F", "h", "update")


@pytest.mark.parametrize(
    "level, bad",
    [
        (level, set(c))
        for level in (1, 2)
        for r in range(1, 5)
        for c in itertools.combinations(_FAILURES, r)
        # a 1 x 1 eigenvalue is read, not computed, so an update alone that is not finite fails later
        if (level, c) != (1, ("update",))
    ],
    ids=lambda v: "+".join(sorted(v)) if isinstance(v, set) else f"level{v}",
)
def test_the_one_im_pass_fails_in_the_order_of_the_checks(monkeypatch, level, bad):
    # plant failures in the first step: Im G made positive, F = G^-1 raising,
    # Im h pushed far below zero, a Picard update that is not finite (an
    # infinite weight of rho - Id); the first in that order must raise its own
    # message, as when each is checked on its own, also where the eigenvalues
    # of the stacked three fail on the update's infinities (above 1 x 1)
    model = MatrixModel(_X4, (2, 2))
    rho = KrausAugment(((1e200 if "update" in bad else 0.8) * np.eye(4),))
    real_cauchy, real_inverse = freeprob._cauchy, freeprob.inverse

    def cauchy(model, m, jacobian=False):
        g, dg = real_cauchy(model, m, jacobian)
        return (g.conj() if "G" in bad else g), dg

    def inverse(a):
        if a.ndim < 4:  # the resolvents and the Jacobians; G's coordinates are (N, K, n, n)
            return real_inverse(a)
        if "F" in bad:
            raise freeprob.SingularMatrix("planted: G is singular")
        return real_inverse(a) - (10j * np.eye(a.shape[-1]) if "h" in bad else 0.0)

    monkeypatch.setattr(freeprob, "_cauchy", cauchy)
    monkeypatch.setattr(freeprob, "inverse", inverse)
    b = _level_two_kraus_points(3) if level == 2 else NcPoint(4, 1, (np.linspace(-1, 1, 3) + 1e-2j)[:, None, None] * np.eye(4))
    first = next(name for name in _FAILURES if name in bad)
    error, message = {
        "G": (SingularResolvent, "Cauchy transform lost strict negativity of Im G$"),
        "F": (SingularResolvent, "planted: G is singular$"),
        "h": (SingularResolvent, "Im h dropped below zero beyond roundoff"),
        "update": (FactorizationFailure, "eigenvalue failure: Array must not contain infs or NaNs$"),
    }[first]
    with pytest.raises(error, match=message) as raised:
        freeprob._solve_stack(model, rho, b, 1e-9, 5)
    assert type(raised.value) is error


def test_an_unconverged_row_reports_the_norm_of_a_step_whose_squares_overflow():
    # rho - Id weighs the scalars by |v|^2 = 2.5e159, so the last steps are near
    # 1e158: finite, but their squares are not
    rho = KrausAugment((np.array([[0.5e80]]),))
    rows = density_grid(ScalarLaw("bernoulli"), rho, -2.5, 2.5, points=3, eps=0.5, max_iter=5).rows
    assert not any(r.converged for r in rows)
    assert all(1e150 < r.residual < np.inf for r in rows)


def _unit_dG_by_broadcast(blocks, r):
    # the broadcast product of the two views of r, then its block sums, as
    # _unit_dG was first written
    lead, d = r.shape[:-2], sum(blocks)
    n, k = r.shape[-1] // d, len(blocks)
    left = r.mT.reshape(lead + (n, d, n, d))
    right = r.reshape(lead + (n, d, n, d))
    terms = (left[..., :, None, :, :, None, :] * right[..., None, :, :, None, :, :]).reshape(lead + (-1,))
    owner = np.repeat(np.arange(k), blocks)
    i, l, c, i2, l2, a = np.indices((n, n, d, n, n, d)).reshape(6, -1)
    labels = (((owner[c] * n + i) * n + l) * k + owner[a]) * n * n + i2 * n + l2
    sums = np.stack([terms.take(np.flatnonzero(labels == g), -1).sum(-1) for g in range(labels.max() + 1)], -1)
    divisors = np.tile(-np.repeat(np.array(blocks, np.complex128), n * n), k * n * n)
    return (sums / divisors).reshape(lead + (k * n * n, k, n, n))


@pytest.mark.parametrize("blocks", [(2, 2), (1, 3), (3, 1, 2)], ids=str)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_unit_dG_gathers_the_products_of_the_broadcast_to_the_bit(blocks, level):
    # each label's products are summed as one contiguous run in either form;
    # 41 rows at level three make products too large for numpy to compute
    # in a temporary's memory, where a swapped complex product rounds differently
    rng = _rng(93)
    d = sum(blocks)
    for rows in (1, 7, 41):
        r = rng.standard_normal((rows, level * d, level * d)) + 1j * rng.standard_normal((rows, level * d, level * d))
        assert _bits(freeprob._unit_dG(blocks, r)) == _bits(_unit_dG_by_broadcast(blocks, r))
