"""Dense complex matrix helpers shared by every other module.

All matrices are numpy complex128 arrays. The functions here wrap
numpy.linalg with the validation and error taxonomy the rest of the
package relies on: Hermiticity checks before spectral calls, explicit
singularity detection, a PSD inverse square root and a whitener. No
other module calls np.linalg.eigvalsh, eigh, eigvals, svd, inv, cond or
cholesky or sees a LinAlgError: herm_eigvals, herm_eig, spectrum,
operator_norm, condition_number, is_singular, inverse and whitener ask
for each factorization, under _factor's one rule for numerical failure.

The wire format has one owner too: the matrix and complex codecs, and
the registry through which to_json and from_json serve every tagged
format (kernel, domain, function, model, cp-map; see variant) and every
untagged record (point, direction, norm_bound).

The linear-algebra helpers also take stacks of matrices (..., n, n):
each matrix gets the checks a single one gets, a check that fails on
any matrix raises, and per-matrix answers come back as arrays over
the leading axes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

# Relative tolerance for accepting a matrix as Hermitian.
HERM_TOL = 1e-12
# sigma_min / sigma_max below this means "numerically singular".
SINGULAR_RATIO = 1e-13
# inverse takes 1 / a for a 1x1 matrix with RECIPROCAL_MIN < |a| < 1 / RECIPROCAL_MIN.
RECIPROCAL_MIN = 2.0**-1000
# Default margin for strict positivity, relative to max(1, ||A||).
POS_MARGIN = 1e-10
# principal_sqrt: ||M - I||_F that has converged (a rise below its root is roundoff too)
SQRT_TOL = 1e-15
SQRT_STEPS = 100  # principal_sqrt fails after this many steps


class NcmetricError(Exception):
    """Base class for all errors raised by this package, each through InputError or NumericalFailure."""


class InputError(NcmetricError):
    """The input breaks a precondition; the CLI exits 3."""


class NumericalFailure(NcmetricError):
    """A computation failed on valid input; the CLI exits 4."""


class NonHermitianInput(InputError):
    """A spectral routine was handed a matrix that is not Hermitian."""


class SingularMatrix(NumericalFailure):
    """Inversion was requested for a numerically singular matrix."""


class NotPositiveDefinite(NumericalFailure):
    """A positive-definite matrix was required but not supplied."""


class FactorizationFailure(NumericalFailure):
    """A factorization met a matrix that is not finite, or LAPACK failed on it."""


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-d complex128 ndarray (scalars become 1x1)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def as_stack(a) -> np.ndarray:
    """Coerce input to a complex128 ndarray of shape (..., n, m).

    A 2-d input is one matrix, a higher-dimensional one a stack of
    matrices over its leading axes; scalars become 1x1.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    return m


def _fro2(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack."""
    flat = a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))
    return np.vecdot(flat, flat).real


def _one(x):
    """A 0-d result as a Python scalar; a stack's result unchanged."""
    return x.item() if x.ndim == 0 else x


def _all(x) -> bool:
    # bool() is much cheaper than a reduction on the 0-d result of a 2-d call
    return bool(x) if x.ndim == 0 else bool(x.all())


def _hermitian_rows(a: np.ndarray, a_star: np.ndarray, tol: float) -> np.ndarray:
    # ||A - A*||_F <= tol * max(1, ||A||_F), compared squared; ||A||_F
    # is needed only where the asymmetry exceeds tol itself
    asym2 = _fro2(a - a_star)
    ok = asym2 <= tol * tol
    if not _all(ok):
        ok = ok | (asym2 <= tol * tol * _fro2(a))
    return ok


def _checked_herm_part(a: np.ndarray, what: str) -> np.ndarray:
    """herm_part(a) once every matrix of a passes the Hermiticity check."""
    if a.shape[-2] != a.shape[-1]:
        raise NonHermitianInput(f"{what}; got shape {a.shape[-2:]}")
    a_star = a.conj().mT
    if not _all(_hermitian_rows(a, a_star, HERM_TOL)):
        asym = float(np.sqrt(_fro2(a - a_star).max()))
        raise NonHermitianInput(f"{what}; asymmetry {asym:.3e}")
    return (a + a_star) / 2.0


def _finite(a: np.ndarray) -> bool:
    return np.count_nonzero(np.isfinite(a)) == np.size(a)  # twice as fast as .all() on small matrices


def _factor(test: str, fn, a: np.ndarray, **kw):
    """fn(a, **kw), or FactorizationFailure "<test> failure: ..." where a is not finite or LAPACK fails."""
    if not _finite(a):
        raise FactorizationFailure(f"{test} failure: Array must not contain infs or NaNs")
    try:
        return fn(a, **kw)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(f"{test} failure: {exc}") from None


def herm_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2, per matrix of a stack."""
    return (a + a.conj().mT) / 2.0


def imag_part(a: np.ndarray) -> np.ndarray:
    """(A - A*)/(2i), per matrix of a stack; Hermitian for any square A."""
    return (a - a.conj().mT) / 2.0j


def is_hermitian(a: np.ndarray):
    """||A - A*||_F <= HERM_TOL * max(1, ||A||_F); one bool per matrix of a stack."""
    a = as_stack(a)
    if a.shape[-2] != a.shape[-1]:
        return _one(np.zeros(a.shape[:-2], dtype=bool))
    return _one(_hermitian_rows(a, a.conj().mT, HERM_TOL))


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack.

    Returns (w, V) with w real ascending and the columns of V
    orthonormal eigenvectors, as np.linalg.eigh gives them; no tolerance
    is enforced here. tests/test_matcore.py checks that V @ diag(w) @ V*
    reconstructs random Hermitian input entrywise to 1e-9.

    Raises NonHermitianInput if any matrix fails the Hermiticity check,
    and FactorizationFailure (see _factor) before it checks.
    """
    what = "herm_eig needs a Hermitian matrix"
    return _factor("eigenvalue", lambda h: np.linalg.eigh(_checked_herm_part(h, what)), as_stack(a))


def herm_eigvals(h: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(h), ascending; the one place that computes it.

    A 1x1 matrix is its own eigenvalue: its real part is read off,
    bitwise what LAPACK returns (-0.0, infinities and NaN included), and
    no LAPACK call is made; a larger one goes through _factor. As in
    eigvalsh, the values read the lower triangle and the real diagonal.
    """
    if h.shape[-1] == 1:
        return h.real[..., 0].copy()
    return _factor("eigenvalue", np.linalg.eigvalsh, h)


def spectrum(a) -> np.ndarray:
    """np.linalg.eigvals(a): the eigenvalues of a square matrix, or of each in a stack."""
    return _factor("eigenvalue", np.linalg.eigvals, a)


def operator_norm(a):
    """Largest singular value; one per matrix of a stack."""
    a = as_stack(a)
    if a.size == 0:
        return _one(np.zeros(a.shape[:-2]))
    return _one(_factor("norm", np.linalg.svd, a, compute_uv=False)[..., 0])


def condition_number(a):
    """sigma_max / sigma_min from one SVD; one per matrix of a stack."""
    sv = _factor("condition number", np.linalg.svd, as_stack(a), compute_uv=False)
    return _one(sv[..., 0] / sv[..., -1])


def positivity_score(w: np.ndarray, margin: float) -> np.ndarray:
    """lambda_min - margin * max(1, ||A||) per row of ascending eigenvalues w.

    Positive exactly where lambda_min > margin * max(1, ||A||): a
    difference of two floats is positive exactly where the first is
    the larger (gradual underflow), and NaN compares false both ways.
    """
    lo, hi = w[..., 0], w[..., -1]
    # eigenvalues ascend, so max(|lo|, |hi|) = max(-lo, hi)
    return lo - margin * np.maximum(1.0, np.maximum(-lo, hi))


def is_singular(a):
    """sigma_min <= SINGULAR_RATIO * sigma_max, from one SVD; one bool per matrix of a stack.

    This is inverse's singular-value rule. Input that is not finite
    raises FactorizationFailure, under _factor's rule.
    """
    return _one(_singular(as_stack(a))[1])


def _singular(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sv = _factor("inverse", np.linalg.svd, a, compute_uv=False)
    return sv, sv[..., -1] <= SINGULAR_RATIO * sv[..., 0]


def inverse(a) -> np.ndarray:
    """Matrix inverse, per matrix of a stack, with explicit singularity detection.

    Raises SingularMatrix when sigma_min <= SINGULAR_RATIO * sigma_max
    for any matrix (is_singular).

    A 1x1 matrix a with RECIPROCAL_MIN < |a| < 1 / RECIPROCAL_MIN is
    inverted as 1 / a, numpy's complex division (Smith's), with no
    LAPACK call: there sigma_min = sigma_max, so it is not singular, and
    neither Smith's denominator nor the reciprocal can overflow. It can
    differ from LAPACK's inverse in the last bit (tests/test_matcore.py
    holds it within 2 eps relative). Every other matrix, a 1x1 one too,
    takes the LU route below. A stack of 1x1 matrices takes each route
    per matrix, so each inverse depends on its matrix alone.

    The LU inverse comes first and is returned as it is when every
    matrix has ||A||_F^2 ||A^-1||_F^2 < (0.1 / SINGULAR_RATIO)^2: since
    sigma_max / sigma_min <= ||A||_F ||A^-1||_F, such a matrix is ten
    times too well conditioned for the singular-value rule to reject,
    and its SVD is not needed. A finite 1x1 stack takes no such test:
    there sigma_min = sigma_max, so only a zero entry is singular, and
    its LU fails. An LU that fails, a product that is not finite or a
    larger one falls back to the singular values, under _factor's rule,
    so singular input raises what it raises under the singular-value
    rule alone and non-finite input FactorizationFailure.
    """
    a = as_stack(a)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"cannot invert a {a.shape[-2]}x{a.shape[-1]} matrix")
    if a.shape[-1] > 1:
        return _lu_inverse(a)
    size = np.abs(a)  # inf for a non-finite entry, nan for a nan; neither is in range
    if RECIPROCAL_MIN < size.min(initial=np.inf) and size.max(initial=0.0) < 1.0 / RECIPROCAL_MIN:
        return 1.0 / a
    inv = _lu_inverse(a)
    np.divide(1.0, a, out=inv, where=(RECIPROCAL_MIN < size) & (size < 1.0 / RECIPROCAL_MIN))
    return inv


def _lu_inverse(a: np.ndarray) -> np.ndarray:
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = None
    else:
        if a.shape[-1] == 1 and _finite(a):
            return inv
        # extreme scales overflow the squared norms; inf and nan fail the test
        with np.errstate(over="ignore", invalid="ignore"):
            if _all(_fro2(a) * _fro2(inv) < (0.1 / SINGULAR_RATIO) ** 2):
                return inv
    sv, singular = _singular(a)
    if not _all(~singular):
        top, bottom = sv[singular][0, [0, -1]]
        raise SingularMatrix(
            f"matrix is numerically singular (sigma_min/sigma_max = "
            f"{0.0 if top == 0.0 else bottom / top:.3e})"
        )
    return _factor("inverse", np.linalg.inv, a) if inv is None else inv


def psd_inv_sqrt(a) -> np.ndarray:
    """Inverse square root S = A^(-1/2) of a positive definite matrix.

    S = V diag(w^(-1/2)) V* from herm_eig, made exactly Hermitian; no
    tolerance is enforced here. tests/test_matcore.py checks that S A S
    is the identity entrywise to 1e-9 on a random positive definite A.
    A stack is taken per matrix.

    Raises NotPositiveDefinite when lambda_min <= 0 for any matrix
    (after the Hermiticity check, which raises NonHermitianInput).
    """
    w, v = herm_eig(a)
    low = w[..., 0]
    if not _all(low > 0.0):
        raise NotPositiveDefinite(f"lambda_min = {low.min():.3e} <= 0")
    s = (v * (1.0 / np.sqrt(w))[..., None, :]) @ v.conj().mT
    return herm_part(s)


def whitener(q) -> np.ndarray:
    """A matrix W with W Q W* = I for a positive definite Q, per matrix of a stack.

    W = L^-1 for the Cholesky factor L (L L* = Q, read from the lower
    triangle and the real diagonal), inverted by inverse. W = U Q^(-1/2)
    for a unitary U, so unitarily invariant forms such as ||Q^(-1/2) B||
    take the same value with W. A matrix that is not finite, or whose L
    or its inverse fails, takes psd_inv_sqrt, also a W, which raises what
    it raises on the whole stack; every other matrix keeps its L^-1.
    """
    q = as_stack(q)
    if _finite(q):
        try:
            return inverse(np.linalg.cholesky(q))
        except (np.linalg.LinAlgError, SingularMatrix):
            if q.ndim > 2 and len(q) > 1:
                psd_inv_sqrt(q)  # raises what the stack raises
                return np.stack([whitener(m) for m in q])
    return psd_inv_sqrt(q)


def principal_sqrt(a) -> tuple[np.ndarray, np.ndarray]:
    """(A^(1/2), A^(-1/2)) with the principal root, per matrix of a stack.

    Product-form Denman-Beavers, one inverse per step (Higham, Functions of
    Matrices, 2008, eq. 6.17). No eigenvalue of A may lie on (-inf, 0]; one
    at distance e from it costs about log2(1/e) steps and up to 1e-16 / e
    of relative accuracy. Its callers, freeprob's continuous laws above level
    one, pass -i(B -+ c) with Im B > 0, whose eigenvalues have real part
    Im lambda(B) > 0 and lie |lambda(B) -+ c| from the cut. Each matrix
    stops on its own, with the bits it gets alone; SingularMatrix if one
    has not after SQRT_STEPS steps.
    """
    a = as_stack(a)
    x = a.reshape((-1,) + a.shape[-2:]).copy()
    eye = np.eye(a.shape[-1])
    m, y = x.copy(), np.broadcast_to(eye, x.shape).astype(np.complex128)
    prev, live = np.full(len(m), np.inf), np.arange(len(m))
    for _ in range(SQRT_STEPS):
        step = (eye + inverse(m[live])) / 2.0
        x[live] = x[live] @ step
        y[live] = y[live] @ step
        m[live] = (eye + m[live]) @ step / 2.0  # (2I + M + M^-1) / 4, no cancelling near M = -I
        r2 = _fro2(m[live] - eye)
        done = (r2 <= SQRT_TOL**2) | ((r2 >= prev[live]) & (prev[live] <= SQRT_TOL))
        prev[live] = r2
        live = live[~done]
        if live.size == 0:
            return x.reshape(a.shape), y.reshape(a.shape)
    raise SingularMatrix(f"no principal square root: {live.size} matrices unconverged after {SQRT_STEPS} steps")


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
    data = np.stack((a.real, a.imag), -1).tolist()
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def mat_from_json(obj) -> np.ndarray:
    known_keys(obj, ("rows", "cols", "data"), "matrix")
    try:
        rows, cols, data = json_int(obj["rows"]), json_int(obj["cols"]), obj["data"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from None
    entries = np.asarray(data, dtype=object)
    if entries.shape != (rows, cols, 2):
        raise ValueError(
            f"matrix JSON data has shape {entries.shape}, expected {(rows, cols, 2)}"
        )
    for x in entries.flat:
        json_number(x)
    arr = entries.astype(np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        raise ValueError(f"matrix JSON entries must be finite, got {float(arr[~finite][0])!r}")
    return (arr[..., 0] + 1j * arr[..., 1]).astype(np.complex128)


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def complex_from_json(obj) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ValueError("complex JSON must be a [re, im] pair")
    return complex(json_number(obj[0]), json_number(obj[1]))


def json_int(x) -> int:
    """A JSON integer as it is; a float, bool or string raises ValueError."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def json_number(x):
    """A JSON number as it is; a bool, a string, anything else or an integer
    too large for a float raises ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, got {x!r}")
    try:
        float(x)
    except OverflowError:
        raise ValueError(f"expected a number, got an integer of {x.bit_length()} bits") from None
    return x


def positive_finite(name: str, value: float):
    """Reject a tolerance that is not a positive finite number."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def finite_at_least_zero(name: str, value: float):
    """Reject a margin or slack that is not a finite number of at least 0."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and at least 0, got {value}")


def known_keys(obj, keys, what: str):
    """ValueError unless obj is a JSON object with no key outside keys; it names the first."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON must be an object")
    extra = [key for key in obj if key not in keys]
    if extra:
        raise ValueError(f"malformed {what} JSON field {extra[0]!r}: expected only {', '.join(keys)}")


def finite(name: str, value):
    """A real or complex number as it is; ValueError naming it if NaN or infinite."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


# family -> {tag: class}, the untagged record under None, and
# class -> (tag or None, field decoders), filled by @variant
VARIANTS: dict[str, dict] = {}
_TAGS: dict[type, tuple] = {}


def variant(family: str, tag: str | None = None, **field_decoders):
    """Class decorator: the frozen dataclass is the `tag` variant of `family`,
    or with no tag the one, untagged, `family` record.

    Its JSON is {"variant": tag} plus a key per field, named by the field's
    "json" metadata or else the field; a record's JSON has no "variant"
    key. to_json encodes values by type; from_json decodes them by
    field_decoders (default: as they are), defaults absent fields that
    have a default and rejects any other key.
    """

    def register(cls):
        VARIANTS.setdefault(family, {})[tag] = cls
        _TAGS[cls] = (tag, field_decoders)
        return cls

    return register


def to_json(obj) -> dict:
    """The JSON object of a registered variant or record."""
    if type(obj) not in _TAGS:
        raise TypeError(f"not a registered variant or record: {type(obj).__name__}")
    return _encode(obj)


def _encode(v):
    if isinstance(v, complex):
        return complex_to_json(v)
    if isinstance(v, np.ndarray):
        return mat_to_json(v)
    if isinstance(v, tuple):
        return [_encode(x) for x in v]
    if not is_dataclass(v):
        return v
    tag = _TAGS.get(type(v), (None,))[0]
    head = {"variant": tag} if tag else {}
    return head | {f.metadata.get("json", f.name): _encode(getattr(v, f.name)) for f in fields(v)}


def from_json(obj, family: str):
    """The variant or record of `family` that obj encodes; ValueError if malformed."""
    tags = VARIANTS[family]
    cls = tags.get(None)
    if cls is None:
        if not isinstance(obj, dict) or "variant" not in obj:
            raise ValueError(f"{family} JSON must be an object with a 'variant' tag")
        tag = obj["variant"]
        cls = tags.get(tag) if isinstance(tag, str) else None
        if cls is None:
            raise ValueError(f"unknown {family} variant {tag!r}")
    tag, decoders = _TAGS[cls]
    kwargs = {}
    keys = {f.metadata.get("json", f.name): f for f in fields(cls)}
    known_keys(obj, ("variant", *keys) if tag else tuple(keys), family)
    for key, f in keys.items():
        if key in obj:
            decode = decoders.get(f.name)
            try:
                kwargs[f.name] = decode(obj[key]) if decode else obj[key]
            except (KeyError, TypeError, IndexError, ValueError) as exc:
                raise ValueError(f"malformed {family} JSON field {key!r}: {exc}") from None
        elif f.default is MISSING:
            raise ValueError(f"{family} JSON missing field {key!r}")
    try:
        return cls(**kwargs)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed {family} JSON: {exc}") from None


def each(decode):
    """Field decoder of a JSON list: a tuple of decode applied to each item."""
    return lambda items: tuple(decode(x) for x in items)


def of_family(family: str):
    """Field decoder of a nested object of `family`, tagged or a record."""
    return lambda obj: from_json(obj, family)
