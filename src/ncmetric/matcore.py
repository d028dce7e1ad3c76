"""Dense complex matrix helpers shared by every other module.

All matrices are numpy complex128 arrays. The functions here wrap
numpy.linalg with the validation and error taxonomy the rest of the
package relies on: Hermiticity checks before spectral calls, explicit
singularity detection, and a PSD inverse square root with a verified
reconstruction. JSON (de)serialization of matrices lives here too so
the wire format has a single owner.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance for accepting a matrix as Hermitian.
HERM_TOL = 1e-12
# Reconstruction tolerance for herm_eig, relative to max(1, ||A||_F).
EIG_RECON_TOL = 1e-10
# sigma_min / sigma_max below this means "numerically singular".
SINGULAR_RATIO = 1e-13
# Default margin for strict positivity, relative to max(1, ||A||).
POS_MARGIN = 1e-10
# psd_inv_sqrt must satisfy ||S A S - I|| <= this.
INV_SQRT_TOL = 1e-9


class NcmetricError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitianInput(NcmetricError):
    """A spectral routine was handed a matrix that is not Hermitian."""


class SingularMatrix(NcmetricError):
    """Inversion was requested for a numerically singular matrix."""


class NotPositiveDefinite(NcmetricError):
    """A positive-definite matrix was required but not supplied."""


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-d complex128 ndarray (scalars become 1x1)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def herm_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2."""
    return (a + a.conj().T) / 2.0


def imag_part(a: np.ndarray) -> np.ndarray:
    """(A - A*)/(2i); Hermitian for any square A."""
    return (a - a.conj().T) / 2.0j


def is_hermitian(a: np.ndarray, tol: float = HERM_TOL) -> bool:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.linalg.norm(a)))
    return float(np.linalg.norm(a - a.conj().T)) <= tol * scale


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, V) with w real ascending and the columns of V
    orthonormal eigenvectors, so V @ diag(w) @ V* reconstructs the
    input to within EIG_RECON_TOL * max(1, ||A||_F).

    Raises NonHermitianInput if the input fails the Hermiticity check.
    """
    a = as_matrix(a)
    if not is_hermitian(a):
        raise NonHermitianInput(
            f"herm_eig needs a Hermitian matrix; asymmetry "
            f"{np.linalg.norm(a - a.conj().T):.3e}"
        )
    w, v = np.linalg.eigh(herm_part(a))
    return w, v


def operator_norm(a) -> float:
    """Largest singular value."""
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def is_strictly_positive(a, margin: float = POS_MARGIN) -> bool:
    """True when the Hermitian input has lambda_min > margin * max(1, ||A||).

    ||A|| is max(|lambda_min|, |lambda_max|), read off the eigenvalues
    already computed. Raises NonHermitianInput for non-Hermitian input;
    symmetrize first if roundoff is expected.
    """
    a = as_matrix(a)
    if not is_hermitian(a):
        raise NonHermitianInput("positivity is only defined for Hermitian matrices")
    w = np.linalg.eigvalsh(herm_part(a))
    scale = max(1.0, abs(float(w[0])), abs(float(w[-1])))
    return bool(w[0] > margin * scale)


def inverse(a) -> np.ndarray:
    """Matrix inverse with explicit singularity detection.

    Raises SingularMatrix when sigma_min <= SINGULAR_RATIO * sigma_max.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"cannot invert a {a.shape[0]}x{a.shape[1]} matrix")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= SINGULAR_RATIO * sv[0]:
        raise SingularMatrix(
            f"matrix is numerically singular (sigma_min/sigma_max = "
            f"{0.0 if sv[0] == 0.0 else sv[-1] / sv[0]:.3e})"
        )
    return np.linalg.solve(a, np.eye(a.shape[0], dtype=np.complex128))


def psd_inv_sqrt(a) -> np.ndarray:
    """Inverse square root S = A^(-1/2) of a positive definite matrix.

    S is Hermitian positive definite, commutes with A, and satisfies
    ||S A S - I|| <= INV_SQRT_TOL.

    Raises NotPositiveDefinite when lambda_min <= 0 (after the
    Hermiticity check, which raises NonHermitianInput).
    """
    a = as_matrix(a)
    w, v = herm_eig(a)
    if w[0] <= 0.0:
        raise NotPositiveDefinite(f"lambda_min = {w[0]:.3e} <= 0")
    s = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return herm_part(s)


def direct_sum_mats(*mats: np.ndarray) -> np.ndarray:
    """Block-diagonal stack of the given matrices."""
    mats = tuple(as_matrix(m) for m in mats)
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols), dtype=np.complex128)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def mat_to_json(a) -> dict:
    """Wire format: {"rows": n, "cols": m, "data": [[[re, im], ...], ...]}."""
    a = as_matrix(a)
    data = [
        [[float(a[i, j].real), float(a[i, j].imag)] for j in range(a.shape[1])]
        for i in range(a.shape[0])
    ]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def mat_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from None
    arr = np.asarray(data, dtype=np.float64)
    if arr.shape != (rows, cols, 2):
        raise ValueError(
            f"matrix JSON data has shape {arr.shape}, expected {(rows, cols, 2)}"
        )
    return (arr[..., 0] + 1j * arr[..., 1]).astype(np.complex128)


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def complex_from_json(obj) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ValueError("complex JSON must be a [re, im] pair")
    return complex(float(obj[0]), float(obj[1]))
