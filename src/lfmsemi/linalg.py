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


def mat_exp(m) -> np.ndarray:
    """Matrix exponential of a square matrix, or of every matrix of a
    (..., n, n) stack.

    ``scipy.linalg.expm``: scaling and squaring with a Pade approximant,
    the degree and scaling chosen per matrix as Al-Mohy & Higham (2009) do,
    the diagonal of a triangular matrix recomputed during the squarings.
    A stack is taken slice by slice, so each matrix gets the bits of its
    own call.  1x1 and diagonal matrices take ``exp`` of the diagonal, so a
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = scipy.linalg.expm(m)
    if not np.isfinite(result).all():
        raise NumericError("matrix exponential overflowed")
    return result


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
