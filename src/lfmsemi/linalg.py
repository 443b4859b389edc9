"""Dense complex linear algebra kernel.

Everything downstream (map algebra, normal forms, embedding criteria)
runs through the functions in this module.  Matrices and vectors are
plain ``numpy`` arrays of ``complex128``; the wrappers here add input
validation, the decomposition result types, and the matrix-analytic
predicates the rest of the package relies on.

All tolerances are explicit keyword parameters with documented
defaults; there are no hidden constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from .errors import BranchError, DimensionError, DomainError, NumericError

#: eigenvalues with ||lambda| - 1| below this count as unimodular
UNIMODULAR_TOL = 1e-9

#: cutoff (relative to sigma_max in :func:`pinv`, to max(1, |Q|) in
#: :func:`schur_margins`) at or below which a value counts as zero
PINV_RANK_TOL = 1e-10


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Validate and convert *a* to a 2-d complex array.

    Rejects empty shapes, non-finite entries and (optionally)
    non-square shapes.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionError(f"expected a nonempty matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(a) -> np.ndarray:
    """Validate and convert *a* to a 1-d complex array (may be empty)."""
    v = np.atleast_1d(np.asarray(a, dtype=complex))
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    if v.size and not np.all(np.isfinite(v)):
        raise DomainError("vector entries must be finite")
    return v


def hermitian_part(m) -> np.ndarray:
    """(M + M^H) / 2."""
    m = as_matrix(m, square=True)
    return (m + m.conj().T) / 2.0


def spectral_norm(a) -> float:
    """Largest singular value of *a* (operator 2-norm)."""
    a = as_matrix(a)
    return float(np.linalg.svd(a, compute_uv=False)[0])


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    a = as_matrix(a, square=True)
    return float(np.max(np.abs(np.linalg.eigvals(a))))


@dataclass(frozen=True)
class SchurForm:
    """Unitary triangularization ``A = unitary^H @ T @ unitary``."""

    unitary: np.ndarray
    upper_triangular: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.unitary
        return u.conj().T @ self.upper_triangular @ u

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.diag(self.upper_triangular).copy()


def schur_form(a, sort=None) -> SchurForm:
    """Complex Schur decomposition.

    Parameters
    ----------
    a : array_like, square
    sort : callable, optional
        Predicate on eigenvalues; selected ones are moved to the
        leading block of T.

    Returns
    -------
    SchurForm
        With ``unitary^H @ T @ unitary == a`` to working precision and
        the diagonal of T enumerating the spectrum with multiplicity.
    """
    a = as_matrix(a, square=True)
    try:
        if sort is None:
            t, z = scipy.linalg.schur(a, output="complex")
        else:
            t, z, _ = scipy.linalg.schur(a, output="complex", sort=sort)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericError(f"Schur iteration failed: {exc}") from exc
    form = SchurForm(unitary=z.conj().T, upper_triangular=t)
    residual = np.linalg.norm(form.reconstruct() - a)
    if residual > 1e-10 * max(1.0, np.linalg.norm(a)):
        raise NumericError(f"Schur reconstruction residual {residual:.3e}")
    return form


@dataclass(frozen=True)
class SvdForm:
    """``A = left_unitary @ diag(singular_values) @ right_unitary``.

    Singular values are non-negative and sorted descending;
    ``right_unitary`` is the V^H factor.
    """

    left_unitary: np.ndarray
    singular_values: np.ndarray
    right_unitary: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m, n = self.left_unitary.shape[0], self.right_unitary.shape[0]
        s = np.zeros((m, n), dtype=complex)
        k = len(self.singular_values)
        s[:k, :k] = np.diag(self.singular_values)
        return self.left_unitary @ s @ self.right_unitary


def svd_form(a) -> SvdForm:
    """Full singular value decomposition of any matrix."""
    a = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc
    return SvdForm(left_unitary=u, singular_values=s, right_unitary=vh)


def pinv(a, rank_tol: float = PINV_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values below ``rank_tol * sigma_max`` are treated as zero.
    The result satisfies the four Penrose identities to ~1e-9 on
    well-scaled input.
    """
    if rank_tol <= 0:
        raise DomainError("rank_tol must be positive")
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=complex)
    inv = np.where(s > rank_tol * s[0], 1.0 / np.where(s == 0, 1.0, s), 0.0)
    k = len(s)
    return vh.conj().T[:, :k] @ (inv[:, None] * u.conj().T[:k, :])


class SchurMargins(NamedTuple):
    #: least eigenvalue of Q (0 for an empty Q)
    psd: float
    #: the Schur complement s - x^H Q^+ x
    complement: float
    #: minus the length of the part of x off the range of Q
    in_range: float
    #: the eigenvalue cut PINV_RANK_TOL * max(1, |Q|), the scale of rounding
    cut: float


def schur_margins(q, x, s: float) -> SchurMargins:
    """Margins of the bordered test [[Q, x], [x^H, s]] >= 0 for a hermitian,
    possibly empty, Q: it holds exactly when Q >= 0, x lies in the range of
    Q and the Schur complement s - x^H Q^+ x is >= 0.  From one
    eigendecomposition of Q, whose eigenvalues at or below the cut
    ``PINV_RANK_TOL * max(1, |Q|)`` span the complement of the range (a
    negative one too, which the psd margin reports) and the others Q^+."""
    eigs, vecs = np.linalg.eigh(q)
    y = vecs.conj().T @ x
    cut = PINV_RANK_TOL * max(1.0, float(np.max(np.abs(eigs), initial=0.0)))
    live = eigs > cut
    complement = s - float(np.sum(np.abs(y[live]) ** 2 / eigs[live]))
    in_range = 0.0 if live.all() else -float(np.linalg.norm(y[~live]))
    return SchurMargins(float(eigs[0]) if eigs.size else 0.0, complement, in_range, cut)


# The matrix exponential: scaling and squaring with the Pade approximants
# r_m(x) = p_m(x) / p_m(-x) of e^x, the degree m and the scaling s chosen per
# matrix as in Al-Mohy & Higham, "A new scaling and squaring algorithm for
# the matrix exponential", SIAM J. Matrix Anal. Appl. 31 (2009), 970-989.
# theta_m bounds ||2^-s A|| so that the backward error is at most 2^-53.
_PADE_DEGREES = (3, 5, 7, 9, 13)
_PADE_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                        2.097847961257068e0, 5.371920351148152e0])
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
#: per degree, the coefficients of X^2, X^4, X^6, I in the four sums of the
#: degree-13 scheme (zero above the degree): U inside the X^6 (...) term,
#: V inside it, U outside it, V outside it
_PADE_SUMS = np.array([[np.append(b[9::2], 0.0), np.append(b[8:13:2], 0.0),
                        np.append(b[3:8:2], b[1]), np.append(b[2:7:2], b[0])]
                       for b in (np.array(c + (0.0,) * (13 - m)) for m, c in _PADE_COEFFS.items())])
#: |c_{2m+1}| / 2^-53, with c_{2m+1} = (m!)^2 / ((2m)! (2m+1)!) the leading
#: coefficient of e^x - r_m(x): it sets the extra squarings ell(A, m)
_PADE_ELL_FACTOR = np.array([
    math.factorial(m) ** 2 / (math.factorial(2 * m) * math.factorial(2 * m + 1)) * 2.0 ** 53
    for m in _PADE_DEGREES])[:, None]
#: each degree's bounds on ||A^p||, p = 1, 4, 6, 8, 10: with
#: d_p = ||A^p||^(1/p), eta_3 = eta_5 = max(d_4, d_6) and
#: eta_7 = eta_9 = max(d_6, d_8) are at most theta_m; 13 always passes
_PADE_BOUNDS = np.array([[theta ** p if p in tested else np.inf for p in (1, 4, 6, 8, 10)]
                         for theta, tested in zip(_PADE_THETA, ((4, 6), (4, 6), (6, 8), (6, 8), ()))
                         ])[:, :, None]
#: theta_13^p for p = 6, 8, 10, 1, and the divisors that turn the
#: ceil(log2(.)) of alpha_m and of ||A^p|| / theta_13^p into ell(A, m) and
#: ceil(log2(d_p / theta_13))
_PADE_THETA_13 = _PADE_THETA[4] ** np.array([6.0, 8.0, 10.0, 1.0])[:, None]
_PADE_LOG_DIVISORS = np.array([2.0 * m for m in _PADE_DEGREES] + [6.0, 8.0, 10.0, 1.0])[:, None]
_PADE_SCALE_POWERS = np.array([1.0, 2.0, 4.0, 6.0])
_EYE6 = np.eye(6)
#: doubles per stack of real forms in one batched pass (of at least 64
#: matrices), so that a pass's temporaries stay small
_EXP_PASS_DOUBLES = 4096


def _real_form(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(K, n, n) complex -> (K, 2n, 2n) real, each entry z replaced by
    [[Re z, Im z], [-Im z, Re z]]: a ring homomorphism, so exp commutes
    with it, and rows 0, 2, 4, ... viewed as complex give back the matrix.
    *out*, if given, is a (K, 2n, 2n) float view with contiguous rows."""
    k, n = a.shape[0], a.shape[-1]
    if out is None:
        out = np.empty((k, 2 * n, 2 * n))
    pairs = out.view(np.complex128).reshape(k, n, 2, n)
    pairs[:, :, 0] = a
    np.multiply(a, 1j, out=pairs[:, :, 1])
    return out


def _complex_form(r: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_real_form` (a view)."""
    return r[:, ::2].view(np.complex128)


def _max_last(x: np.ndarray) -> np.ndarray:
    """Maximum over the last axis of a (K, P, n) array, as a (P, K) array."""
    return np.ascontiguousarray(x.transpose(2, 1, 0)).max(axis=0)


def _ceil_log2(y: np.ndarray) -> np.ndarray:
    """ceil(log2(y)) for y >= 0, exactly (0 at 0, inf where y is not
    finite): read off the binary exponent, so it never rounds."""
    mantissa, exponent = np.frexp(y)
    return np.where(np.isfinite(y), exponent - (mantissa == 0.5), np.inf)


def _pade_powers(a: np.ndarray) -> np.ndarray:
    """Real forms of A, A^2, A^4, A^6, A^8, A^10 for each matrix of a
    (K, n, n) complex stack, as a (K, 6, 2n, 2n) array."""
    k, n2 = a.shape[0], 2 * a.shape[-1]
    q = np.empty((k, 6, n2, n2))
    _real_form(a, out=q[:, 0])
    for i, (x, y) in enumerate(((0, 0), (1, 1), (2, 1), (2, 2), (2, 3)), 1):
        np.matmul(q[:, x], q[:, y], out=q[:, i])
    return q


def _pade_choice(q: np.ndarray):
    """The Pade degree (an index into ``_PADE_DEGREES``) and scaling s of
    each matrix, from its powers (:func:`_pade_powers`), as Al-Mohy &
    Higham choose them: from exact 1-norms of A^p, and of |A|^(2m+1) for
    ell(A, m).  Every decision is a comparison or a binary exponent, so it
    does not depend on how a library function rounds."""
    k, n2 = q.shape[0], q.shape[-1]
    absolute = np.abs(q)
    blocks = np.repeat(_EYE6, n2, axis=1)                # column sums of each power
    norms = _max_last(blocks @ absolute.reshape(k, 6 * n2, n2))[[0, 2, 3, 4, 5]]
    # || |A|^(2m+1) ||, 2m + 1 = 7, 11, 15, 19, 27, as e^T |A|^p |A|^2 |A| for
    # p = 4, 8, 12, 16, 24; |A|^2, |A|^4, |A|^8 overwrite spent slots
    b, chain = absolute[:, 0], absolute[:, 1:4]
    np.matmul(b, b, out=chain[:, 0])
    np.matmul(chain[:, 0], chain[:, 0], out=chain[:, 1])
    np.matmul(chain[:, 1], chain[:, 1], out=chain[:, 2])
    e = (blocks[:3, :3 * n2] @ chain.reshape(k, 3 * n2, n2))[:, 1:]    # p = 4, 8
    later = e @ chain[:, 2]                                             # p = 12, 16
    rows = np.concatenate([e, later, later[:, 1:] @ chain[:, 2]], axis=1)
    rows = (rows @ chain[:, 0]) @ b
    # ceil(log2(.)) of alpha_m = |c_{2m+1}| || |A|^(2m+1) || / (||A|| u), of
    # ||A^p|| / theta_13^p for p = 6, 8, 10 and of ||A|| / theta_13
    ratios = np.concatenate([_max_last(rows) / norms[0] * _PADE_ELL_FACTOR,
                             norms[[2, 3, 4, 0]] / _PADE_THETA_13])
    logs = np.ceil(_ceil_log2(ratios) / _PADE_LOG_DIVISORS)
    ell = np.maximum(logs[:5], 0.0)
    passes = (norms <= _PADE_BOUNDS).all(axis=1) & (ell == 0)
    passes[4] = True
    degree = passes.argmax(axis=0)
    # degree 13: s = max(ceil(log2(eta_13 / theta_13)), ell(A, 13), 0) with
    # eta_13 = min(max(d_6, d_8), max(d_8, d_10)), capped by the ||A||_1
    # scaling, whose bound alone already holds (and stays finite where the
    # powers overflow)
    s6, s8, s10, cap = logs[5:]
    s = np.maximum(np.minimum(np.maximum(s6, s8), np.maximum(s8, s10)), ell[4])
    s = np.where(degree == 4, np.fmin(s, np.maximum(cap, 0.0)), 0.0)
    if not np.isfinite(s).all():
        raise NumericError("matrix exponential overflowed")
    return degree, s


def _pade_exp(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (K, n, n) complex stack, K >= 1, n >= 2.

    The degree and scaling of :func:`_pade_choice`; then one Pade pass for
    the whole stack (every degree in the degree-13 scheme, with the
    coefficients of its own degree), one batched solve, and the squarings,
    each on the matrices whose s exceeds the step.  Runs on the real
    forms, so the products are real matmuls; each matrix's arithmetic
    depends on that matrix alone.
    """
    q = _pade_powers(a)
    degree, s = _pade_choice(q)
    k, n2 = q.shape[0], q.shape[-1]
    steps = int(s.max())
    # X = 2^-s A and its even powers in place, I where X^8 was; then U and
    # V of the degree
    if steps:
        x = q[:, :4].reshape(k, 4, n2 * n2)
        x *= np.exp2(np.multiply.outer(-s, _PADE_SCALE_POWERS))[:, :, None]
    q[:, 4] = np.eye(n2)
    sums = _PADE_SUMS[degree] @ q[:, 1:5].reshape(k, 4, n2 * n2)
    uv = q[:, 3:4] @ sums[:, :2].reshape(k, 2, n2, n2)
    uv += sums[:, 2:].reshape(k, 2, n2, n2)
    u = q[:, 0] @ uv[:, 0]
    result = np.linalg.solve(_complex_form(uv[:, 1] - u), _complex_form(uv[:, 1] + u))
    if steps:
        order = np.argsort(s, kind="stable")
        s = s[order]
        r = _real_form(result[order])
        for first in np.searchsorted(s, np.arange(steps), side="right").tolist():
            r[first:] = r[first:] @ r[first:]
        result[order] = _complex_form(r)
    return result


def mat_exp(m) -> np.ndarray:
    """Matrix exponential of a square matrix, or of every matrix of a
    (..., n, n) stack.

    Scaling and squaring with a Pade approximant, the degree and scaling
    chosen per matrix as Al-Mohy & Higham (2009) do, computed for the
    whole stack at once.  Each matrix of a stack gets the bits of its own
    call.  1x1 and diagonal matrices take ``exp`` of the diagonal, so a
    zero matrix gives the identity exactly.  A result that overflows
    raises :class:`NumericError`, with no floating-point warning.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim <= 2:
        m = as_matrix(m, square=True)
    elif m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise DimensionError(f"expected a stack of square matrices, got shape {m.shape}")
    elif not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    n = m.shape[-1]
    a = m.reshape(-1, n, n)
    k = a.shape[0]
    entries = a.reshape(k, n * n)
    full = entries[:, 1:].reshape(k, n - 1, n + 1)[:, :, :n].any(axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if k and full.all():
            result = _pade_exp_passes(a)
        else:
            result = np.zeros_like(a)
            result.reshape(k, n * n)[~full, ::n + 1] = np.exp(entries[~full, ::n + 1])
            if full.any():
                result[full] = _pade_exp_passes(a[full])
    if not np.isfinite(result).all():
        raise NumericError("matrix exponential overflowed")
    return result.reshape(m.shape)


def _pade_exp_passes(a: np.ndarray) -> np.ndarray:
    """:func:`_pade_exp` in passes of at least 64 matrices and about
    ``_EXP_PASS_DOUBLES`` doubles per stack of real forms."""
    step = max(64, _EXP_PASS_DOUBLES // (4 * a.shape[-1] ** 2))
    if a.shape[0] <= step:
        return _pade_exp(a)
    return np.concatenate([_pade_exp(a[i:i + step]) for i in range(0, a.shape[0], step)])


def mat_log_principal(a) -> np.ndarray:
    """Principal matrix logarithm.

    Returns M with ``exp(M) = a`` and eigenvalue imaginary parts in
    (-pi, pi].  Eigenvalues within 1e-12 of the closed negative real
    axis raise :class:`BranchError` rather than being perturbed;
    singular input raises :class:`DomainError`.
    """
    a = as_matrix(a, square=True)
    eigs = np.diag(schur_form(a).upper_triangular)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    for lam in eigs:
        if abs(lam) <= 1e-12 * scale:
            raise DomainError("matrix is singular; no logarithm exists")
        if lam.real < 0 and abs(lam.imag) <= 1e-12 * abs(lam):
            raise BranchError(
                f"eigenvalue {lam} lies on the negative real axis; "
                "principal branch undefined"
            )
    result = scipy.linalg.logm(a)
    if not np.all(np.isfinite(result)):
        raise NumericError("matrix logarithm did not converge")
    residual = np.linalg.norm(mat_exp(result) - a)
    if residual > 1e-9 * max(1.0, np.linalg.norm(a)):
        raise NumericError(f"log round-trip residual {residual:.3e}")
    return result


class DissipativeResult(NamedTuple):
    dissipative: bool
    #: largest eigenvalue of the hermitian part (<= tol means dissipative)
    margin: float
    #: unit vector with Re w^H M w > 0 when not dissipative
    witness: Optional[np.ndarray]


def is_dissipative(m, tol: float = 0.0) -> DissipativeResult:
    """Decide Re w^H M w <= 0 for all w.

    Equivalent to the hermitian part of M having no eigenvalue above
    *tol*.  On failure the eigenvector of the largest eigenvalue is
    returned as a witness.
    """
    m = as_matrix(m, square=True)
    w, v = np.linalg.eigh(hermitian_part(m))
    top = float(w[-1])
    if top <= tol:
        return DissipativeResult(True, top, None)
    return DissipativeResult(False, top, v[:, -1].copy())


def unitary_with_first_column(v) -> np.ndarray:
    """A unitary matrix whose first column is v / |v|.

    Built from a single Householder reflection, so it is deterministic
    and well conditioned for every nonzero v.
    """
    v = as_vector(v)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise DomainError("cannot orient the zero vector")
    u = v / norm
    n = len(u)
    alpha = u[0] / abs(u[0]) if abs(u[0]) > 0 else 1.0 + 0.0j
    w = u.copy()
    w[0] += alpha
    h = np.eye(n, dtype=complex) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real
    # h is unitary-hermitian with h @ u = -alpha e1, hence u = h @ (-alpha e1)
    q = h.copy()
    q[:, 0] *= -alpha
    return q


def unimodular_count(eigs, tol: float = UNIMODULAR_TOL) -> int:
    """Number of eigenvalues with modulus within *tol* of 1."""
    eigs = np.atleast_1d(np.asarray(eigs, dtype=complex))
    return int(np.sum(np.abs(np.abs(eigs) - 1.0) <= tol))
