"""Dense complex linear algebra kernel.

Everything downstream (map algebra, normal forms, embedding criteria)
runs through the functions in this module.  Matrices and vectors are
plain ``numpy`` arrays of ``complex128``; the wrappers here add input
validation, the decomposition result types, and the matrix-analytic
predicates the rest of the package relies on.

Only numpy is imported with the module.  The Schur form calls the
``zgees`` of the OpenBLAS that numpy's wheels ship and have loaded
already, and falls back to scipy's where numpy's build has none;
``scipy.linalg`` is imported by the first matrix exponential or
logarithm.  The pipeline takes one only where an eigenbasis is
ill-conditioned: for the logarithm of an elliptic contraction block with
cond V >= 1e8 (the embedding criteria check every other logarithm
through its eigenbasis) and for the flow of a ball generator with
cond V > 1e2.  The one sorted Schur form puts the unimodular eigenvalues
first, with one select per path, built once.

Its tolerances are the named constants below, the literals of the checks
(each stated in its docstring), and the ``rank_tol`` of :func:`pinv`.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .errors import BranchError, DimensionError, DomainError, NumericError

#: eigenvalues with ||lambda| - 1| below this count as unimodular
UNIMODULAR_TOL = 1e-9

#: cutoff (relative to sigma_max in :func:`pinv`, to max(1, |Q|) in
#: :func:`schur_margins`) at or below which a value counts as zero
PINV_RANK_TOL = 1e-10


#: the dtype kinds of real numbers (signed and unsigned integers, floats),
#: and of numbers; not those of strings, bytes, bools or other objects
REAL_KINDS = "iuf"
NUMBER_KINDS = REAL_KINDS + "c"


def _natural_dtype(a) -> np.dtype:
    """The dtype numpy gives *a* unprompted; O(1) for an array.  A ragged
    nesting raises ValueError.  Lists and tuples with a bool at any depth
    have dtype bool, though numpy reads ``[True, 0.5]`` as floats: each
    level's set of types is tested once, and at the level where the scan
    stops, a bool array among the entries makes the dtype bool too."""
    return a.dtype if isinstance(a, np.ndarray) else _natural_array(a)[1]


def _natural_array(a) -> tuple:
    """``np.asarray(a)`` and the dtype of :func:`_natural_dtype`, from one
    conversion of *a*."""
    arr = np.asarray(a)
    level = a if isinstance(a, (list, tuple)) else ()
    while level:
        types = set(map(type, level))
        if bool in types or np.bool_ in types:
            return arr, np.dtype(bool)
        if not all(issubclass(t, (list, tuple)) for t in types):
            if any(issubclass(t, np.ndarray) for t in types) and any(
                    isinstance(x, np.ndarray) and x.dtype.kind == "b" for x in level):
                return arr, np.dtype(bool)
            break
        level = list(chain.from_iterable(level))
    return arr, arr.dtype


def _complex_array(a) -> np.ndarray:
    """*a* as a complex array: a ragged nesting raises DimensionError, an
    entry that is not a number (a string, bytes, a bool or any other
    object, which numpy would convert) DomainError."""
    try:
        dtype = _natural_dtype(a)
        if dtype.kind not in NUMBER_KINDS:
            raise TypeError(f"got dtype {dtype}")
        return np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        if "sequence" in str(exc):  # numpy: "setting an array element with a sequence"
            raise DimensionError("expected a regular array of numbers, got ragged rows") from None
        raise DomainError(f"entries must be numbers: {exc}") from None


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Validate and convert *a* to a 2-d complex array.

    Rejects ragged or non-numeric input, empty shapes, non-finite entries
    and (optionally) non-square shapes.
    """
    m = _complex_array(a)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionError(f"expected a nonempty matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(a) -> np.ndarray:
    """Validate and convert *a* to a 1-d complex array (may be empty)."""
    v = np.atleast_1d(_complex_array(a))
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    if v.size and not np.all(np.isfinite(v)):
        raise DomainError("vector entries must be finite")
    return v


def _frobenius(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float64 or complex128 array, with its
    bits, without its dispatch: the square root of the dot product of the
    flattened array with itself, for a complex one the sum of those of the
    real and the imaginary parts."""
    x = x.ravel(order="K")
    if x.dtype.kind != "c":
        return math.sqrt(x.dot(x))
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _hermitian(m: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2 of a checked square matrix."""
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


def schur_form(a, unimodular_first: bool = False) -> SchurForm:
    """Complex Schur decomposition: LAPACK's ``zgees`` (Anderson et al.,
    *LAPACK Users' Guide*, 1999), called as ``scipy.linalg.schur`` calls
    it, so with its bits, but with the workspace size cached per n and
    without its second finiteness check.

    The ``zgees`` is numpy's own (:data:`_BUNDLED_ZGEES`), called through
    ``ctypes``, so a Schur form imports no scipy; where numpy's build
    ships no OpenBLAS with that symbol it is ``scipy.linalg.lapack``'s.
    Both give the bits of ``scipy.linalg.schur``.  A process that also
    takes a matrix exponential or logarithm then holds two OpenBLAS
    copies, numpy's and scipy's.

    Parameters
    ----------
    a : array_like, square
    unimodular_first : bool
        Move the eigenvalues that :func:`unimodular_count` counts, those
        within UNIMODULAR_TOL of modulus 1, to the leading block of T:
        the only ordering, with no caller predicate.

    Returns
    -------
    SchurForm
        With ``unitary^H @ T @ unitary == a`` to working precision and
        the diagonal of T enumerating the spectrum with multiplicity.
    """
    if not isinstance(unimodular_first, bool):
        raise DomainError(f"unimodular_first must be a bool, got {type(unimodular_first).__name__}")
    a = as_matrix(a, square=True)
    n = len(a)
    t, vs, info, _ = _zgees(a, unimodular_first, _zgees_lwork(n, _BUNDLED_ZGEES is not None))
    if info != 0:
        what = {n + 1: "eigenvalues could not be separated for reordering",
                n + 2: "leading eigenvalues do not satisfy the sort condition"}.get(
            info, "QR iteration did not converge" if info > 0 else f"illegal argument {-info}")
        raise NumericError(f"Schur iteration failed: {what}")
    form = SchurForm(unitary=vs.conj().T, upper_triangular=t)
    residual = _frobenius(form.reconstruct() - a)
    if residual > 1e-10 * max(1.0, _frobenius(a)):
        raise NumericError(f"Schur reconstruction residual {residual:.3e}")
    return form


def _is_unimodular(lam: complex) -> bool:
    """The select of a unimodular-first Schur form: :func:`unimodular_count`'s test."""
    return abs(abs(lam) - 1.0) <= UNIMODULAR_TOL


#: ``LOGICAL SELECT(COMPLEX*16 W)``, the eigenvalue predicate of ``zgees``
_SELECT = ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.POINTER(ctypes.c_double))


def _load_bundled_zgees():
    """The ILP64 ``zgees`` of the OpenBLAS in numpy's wheel (in
    ``numpy.libs/`` on Linux and Windows, ``numpy/.dylibs/`` on macOS),
    which numpy has loaded already; None when there is no such library
    with ``zgees``, as in a numpy built against a system BLAS."""
    package = Path(np.__file__).parent
    for path in sorted(chain(package.parent.glob("numpy.libs/*scipy_openblas64_*"),
                             package.glob(".dylibs/*scipy_openblas64_*"))):
        try:
            lapack = ctypes.CDLL(str(path))
            zgees = lapack.scipy_zgees_64_
        except (OSError, AttributeError):
            continue
        # JOBVS, SORT, SELECT, N, A, LDA, SDIM, W, VS, LDVS, WORK, LWORK,
        # RWORK, BWORK, INFO, then the two hidden lengths of JOBVS and SORT
        zgees.argtypes = ([ctypes.c_char_p] * 2 + [_SELECT] + [ctypes.c_void_p] * 12
                          + [ctypes.c_size_t] * 2)
        zgees.restype = None
        return zgees
    return None


#: the path :func:`schur_form` takes, chosen once: numpy's ``zgees``, or
#: None for scipy's
_BUNDLED_ZGEES = _load_bundled_zgees()

#: :func:`_is_unimodular` as the bundled path's select, built once; an unsorted call skips it
_UNIMODULAR_SELECT = _SELECT(lambda w: _is_unimodular(complex(w[0], w[1])))


def _zgees(a: np.ndarray, unimodular_first: bool, lwork: int):
    """``zgees`` of *a* with Schur vectors, unimodular eigenvalues first if
    asked, on the chosen path: (T, VS, info, first work entry), T and VS
    in Fortran order as scipy's wrapper returns them.  Every buffer is the
    call's own, so calls may run at once."""
    zgees = _BUNDLED_ZGEES
    if zgees is None:
        from scipy.linalg.lapack import zgees
        t, _, _, vs, work, info = zgees(_is_unimodular, a, lwork=lwork,
                                        sort_t=int(unimodular_first))
        return t, vs, info, work[0]
    n = len(a)
    nn, lw = n * n, max(lwork, 1)
    # ctypes buffers, whose addresses are cheaper to read than an array's:
    # T, VS, W, WORK as complex, then RWORK; N, LDA, LDVS, LWORK, SDIM,
    # INFO, BWORK as 64-bit integers
    reals = (ctypes.c_double * (2 * (2 * nn + n + lw) + n))()
    ints = (ctypes.c_int64 * (6 + n))(n, n, n, lwork)
    t = np.ndarray((n, n), complex, reals, order="F")
    t[...] = a
    at, it = ctypes.addressof(reals), ctypes.addressof(ints)
    zgees(b"V", b"S" if unimodular_first else b"N", _UNIMODULAR_SELECT, it, at, it + 8,
          it + 32, at + 32 * nn, at + 16 * nn, it + 16, at + 16 * (2 * nn + n), it + 24,
          at + 16 * (2 * nn + n + lw), it + 48, it + 40, 1, 1)
    vs = np.ndarray((n, n), complex, reals, 16 * nn, order="F")
    return t, vs, ints[5], reals[2 * (2 * nn + n)]


@lru_cache(maxsize=None)
def _zgees_lwork(n: int, bundled: bool) -> int:
    """The workspace size that ``zgees`` asks for at size n, on the path
    that *bundled* names, which ``scipy.linalg.schur`` queries on every
    call: it depends on n alone."""
    return int(_zgees(np.zeros((n, n), dtype=complex), False, -1)[-1].real)


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
    if not rank_tol > 0:  # NaN too, which would zero every singular value
        raise DomainError(f"rank_tol must be positive, got {rank_tol!r}")
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
    m = _complex_array(m)
    if m.ndim <= 2:
        m = as_matrix(m, square=True)
    elif m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise DimensionError(f"expected a stack of square matrices, got shape {m.shape}")
    elif not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    import scipy.linalg

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
    import scipy.linalg

    result = scipy.linalg.logm(a)
    if not np.all(np.isfinite(result)):
        raise NumericError("matrix logarithm did not converge")
    residual = np.linalg.norm(mat_exp(result) - a)
    if residual > 1e-9 * max(1.0, np.linalg.norm(a)):
        raise NumericError(f"log round-trip residual {residual:.3e}")
    return result


class DissipativeResult(NamedTuple):
    dissipative: bool
    #: largest eigenvalue of the hermitian part (<= 0 means dissipative)
    margin: float
    #: unit vector with Re w^H M w > 0 when not dissipative
    witness: Optional[np.ndarray]


def is_dissipative(m) -> DissipativeResult:
    """Decide Re w^H M w <= 0 for all w.

    Equivalent to the hermitian part of M having no positive eigenvalue.
    On failure the eigenvector of the largest eigenvalue is returned as a
    witness.
    """
    w, v = np.linalg.eigh(_hermitian(as_matrix(m, square=True)))
    top = float(w[-1])
    if top <= 0.0:
        return DissipativeResult(True, top, None)
    return DissipativeResult(False, top, v[:, -1].copy())


def unitary_with_first_column(v) -> np.ndarray:
    """A unitary matrix whose first column is v / |v|.

    Built from a single Householder reflection, so it is deterministic
    and well conditioned for every nonzero v.
    """
    v = as_vector(v)
    norm = _frobenius(v)
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


def unimodular_count(eigs) -> int:
    """Number of eigenvalues with modulus within UNIMODULAR_TOL of 1."""
    eigs = np.atleast_1d(_complex_array(eigs))
    return int(np.sum(np.abs(np.abs(eigs) - 1.0) <= UNIMODULAR_TOL))
