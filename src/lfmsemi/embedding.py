"""Embedding criteria and closed-form one-parameter semigroups.

For each normal form this module decides whether the map embeds into a
continuous one-parameter semigroup of self-maps, returning an
:class:`EmbeddingCertificate` with named numeric margins, and builds
the closed-form family :class:`SemigroupFamily` when the verdict is
positive.

Verdict semantics: the elliptic criteria are if-and-only-if, so a
failed margin yields ``condition_fails``.  Both build and verify one
logarithm at a time and stop at the first that passes, and both search
one lattice of primary logarithms (see "the lattice of primary
logarithms" below): after the principal logarithm, one logarithm per
class that the criterion cannot tell apart (the hermitian part for the
split criterion; the hermitian part and delta M^H e1 for the u0
criterion) inside an ellipsoid that holds every passing class.  The
search is complete over the primary logarithms.  A class whose
logarithm fails its exponentiation check, an ellipsoid too large to
enumerate, or an ill-conditioned eigenbasis (cond V >= 1e8) with several
eigenvalue clusters makes the verdict ``inconclusive``.  (Non-primary
logarithms of a derogatory A1, an eigenvalue with several Jordan blocks,
form a continuum and are not searched.)  The parabolic and hyperbolic
criteria are sufficient only; failed hypotheses yield ``inconclusive`` -
the map may still embed.

The case table ``_CASES``, keyed by ``NormalForm.form_kind``, holds for
each of the four normal-form cases its checked conditions, its embedding
criterion, the family name and domain its certificates carry, and the
family's stacked builder, generator and dimension.  The builder applies
the case's stacked normal-map builder from :mod:`lfmsemi.normal_forms`
to the parameters at every time of a grid.  :func:`certify`,
:func:`build_semigroup`, :meth:`SemigroupFamily.at_many` and
:func:`generator` look the case up there, so a fifth case adds one row
(and its reducer in ``normal_forms``).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BranchError, DomainError, NumericError
from .linalg import (
    hermitian_part,
    is_dissipative,
    mat_exp,
    mat_log_principal,
    schur_form,
)
from .maps import BALL, SIEGEL, BallMap, Classification, SiegelMap
from .normal_forms import (
    FORM_ELLIPTIC_SPLIT,
    FORM_ELLIPTIC_U0,
    FORM_HYPERBOLIC,
    FORM_PARABOLIC,
    Condition,
    NormalForm,
    hyperbolic_conditions,
    normal_form,
    parabolic_conditions,
    siegel_normal_map,
    siegel_normal_maps,
    split_normal_maps,
    u0_normal_maps,
)

EMBEDDABLE = "embeddable"
CONDITION_FAILS = "condition_fails"
INCONCLUSIVE = "inconclusive"

#: margin at or above which a criterion counts as satisfied
MARGIN_TOL = 1e-12

#: largest eigenvalue of Herm M at which a logarithm M counts as dissipative
_DISSIPATIVE_TOL = 1e-10

#: largest x with a finite exp(x) in double precision (about 709.78)
_EXP_MAX = math.log(sys.float_info.max)


def _expm1c(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z| (complex z)."""
    x, y = z.real, z.imag
    em = math.expm1(x)
    ex = em + 1.0
    return complex(em - ex * 2.0 * math.sin(y / 2.0) ** 2, ex * math.sin(y))


def _expm1c_vec(z: np.ndarray) -> np.ndarray:
    """:func:`_expm1c` entrywise, keeping the shape of z."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return np.array([_expm1c(v) for v in z.ravel().tolist()], dtype=complex).reshape(z.shape)


# ---------------------------------------------------------------------------
# scalar bound functions


def scalar_h_parabolic(u: float, v: float, t: float) -> float:
    """|1 - exp(t(-u+iv))|^2 / ((1 - exp(-2tu)) t).

    Bounded above by (u^2 + v^2) / (2u), the t -> 0+ limit.
    """
    if u <= 0 or t <= 0 or v < 0:
        raise DomainError("scalar_h_parabolic needs u > 0, v >= 0, t > 0")
    num = abs(_expm1c(complex(-u * t, v * t))) ** 2
    den = -math.expm1(-2.0 * t * u) * t
    return num / den


def scalar_h_hyperbolic(lam: float, u: float, v: float, t: float) -> float:
    """|exp(t(u+iv)) - 1|^2 / ((1 - exp(-lam t))(1 - exp((lam+2u) t))).

    Bounded above by -(u^2 + v^2) / (lam (2u + lam)), the t -> 0+ limit;
    requires lam > 0, u < 0, lam + 2u < 0, v >= 0.
    """
    if lam <= 0 or u >= 0 or lam + 2 * u >= 0 or v < 0 or t <= 0:
        raise DomainError(
            "scalar_h_hyperbolic needs lam > 0, u < 0, lam + 2u < 0, v >= 0, t > 0"
        )
    num = abs(_expm1c(complex(u * t, v * t))) ** 2
    den = (-math.expm1(-lam * t)) * (-math.expm1((lam + 2 * u) * t))
    return num / den


def _log_polar(lam: complex):
    """(u, v) with lam = exp(-u + iv), u > 0, v in [0, 2pi).

    Arguments within rounding of the positive real axis snap to v = 0
    rather than wrapping to 2pi.
    """
    mod = abs(lam)
    if mod >= 1.0:
        raise DomainError(f"eigenvalue {lam} is not a strict contraction")
    if mod == 0.0:
        raise DomainError("zero eigenvalue admits no logarithm")
    u = -math.log(mod)
    v = math.atan2(lam.imag, lam.real) % (2.0 * math.pi)
    if v >= 2.0 * math.pi - 1e-9:
        v = 0.0
    return u, v


def _log_principal(lam: complex) -> complex:
    """Principal logarithm -u + iv, v in (-pi, pi]; the branch used for
    the constructed paths (its theta weight never exceeds the reported
    [0, 2pi)-branch weight, so certificates stay sufficient)."""
    u, _ = _log_polar(lam)
    return complex(-u, math.atan2(lam.imag, lam.real))


def theta_parabolic(contraction_eigs) -> np.ndarray:
    """Diagonal weights (u_j^2 + v_j^2) / (2 u_j |1 - lam_j|^2)."""
    eigs = np.atleast_1d(np.asarray(contraction_eigs, dtype=complex))
    out = np.zeros(len(eigs))
    for j, lam in enumerate(eigs):
        u, v = _log_polar(lam)
        out[j] = (u * u + v * v) / (2.0 * u * abs(1.0 - lam) ** 2)
    return out


def theta_hyperbolic(lam: float, contraction_eigs) -> np.ndarray:
    """Diagonal weights
    (lam-1)/(2 u_j ln lam) * ((ln(lam)/2 + u_j)^2 + v_j^2) / |lam - sqrt(lam) lam_j|^2.
    """
    if lam <= 1.0:
        raise DomainError("hyperbolic dilation must exceed 1")
    eigs = np.atleast_1d(np.asarray(contraction_eigs, dtype=complex))
    log_lam = math.log(lam)
    out = np.zeros(len(eigs))
    for j, mu in enumerate(eigs):
        u, v = _log_polar(mu)
        out[j] = (
            (lam - 1.0)
            / (2.0 * u * log_lam)
            * ((log_lam / 2.0 + u) ** 2 + v * v)
            / abs(lam - math.sqrt(lam) * mu) ** 2
        )
    return out


#: weight of a resonant translation entry (sqrt(lam) lam_j = 1), the
#: sharp budget sup_t (lam-1) t^2 lam^t / (lam^t - 1)^2 = (lam-1)/ln(lam)^2
def resonant_translation_weight(lam: float) -> float:
    if lam <= 1.0:
        raise DomainError("hyperbolic dilation must exceed 1")
    return (lam - 1.0) / math.log(lam) ** 2


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class EmbeddingCertificate:
    verdict: str
    criterion_id: str
    margins: list
    generator_data: Optional[dict]
    target: Optional[object] = None  # the map the built family reproduces at t = 1
    notes: str = ""
    family: Optional[str] = None  # the SemigroupFamily case the data builds


def _certificate(nf: NormalForm, verdict: str, criterion_id: str, margins: list,
                 data: Optional[dict] = None, target=None, notes: str = ""):
    """A certificate for nf's case; the target defaults to nf's normal map."""
    return EmbeddingCertificate(verdict, criterion_id, margins, data,
                                nf.normal_map if target is None else target, notes,
                                _CASES[nf.form_kind].family)


@dataclass(frozen=True)
class SemigroupFamily:
    """Closed-form one-parameter family; ``at_many(ts)`` materializes the
    maps on a grid of times, ``at(t)`` one of them."""

    case_kind: str
    parameters: dict
    domain: str
    target: Optional[object] = None

    @property
    def dim(self) -> int:
        return _case(_FAMILIES, self.case_kind).dim(self.parameters)

    def at(self, t: float):
        return self.at_many([t])[0]

    def at_many(self, ts):
        """The maps at the times ts (each t >= 0), built together: a
        stack of T = len(ts) maps, a :class:`~lfmsemi.maps.BallMap` or
        :class:`~lfmsemi.maps.SiegelMap` whose item i is the map at ts[i]."""
        ts = np.array(ts, dtype=float, ndmin=1)
        outside = ts[~(ts >= 0.0)]
        if outside.size:
            raise DomainError(f"time {float(outside[0])!r} lies outside t >= 0, "
                              "where the semigroup is defined")
        return _case(_FAMILIES, self.case_kind).at_many(self.parameters, ts)


# ---------------------------------------------------------------------------
# the lattice of primary logarithms
#
# The primary logarithms of a = V diag(lam) V^-1 are L(k) = L0 + 2 pi i
# sum_j k_j P_j, P_j the spectral projector of cluster j, so their
# hermitian parts H(k) = H0 + sum_j k_j G_j, G_j = Herm(2 pi i P_j), are
# affine in the integer vector k, and tr G_j = 0.  If H(k) <= tol I, its
# eigenvalues mu_i <= tol sum to tau = tr H0, so its traceless part
# H(k) - (tau/n) I = H0 - (tau/n) I + sum_j k_j G_j has squared Frobenius
# norm sum mu_i^2 - tau^2/n <= (|tau| + n tol)^2 (1 - 1/n): an ellipsoid
# for the Gram form <G_i, G_j> (inside the cruder bound
# ||sum_j k_j G_j||_F <= |tau| + ||H0||_F of the triangle inequality).
# The form vanishes exactly on the k that are constant on each group of
# clusters whose eigenspaces are orthogonal to every other group's, and
# those k leave H unchanged; with k = 0 on the first cluster of each group
# the form is positive definite, and Fincke-Pohst enumeration (Math. Comp.
# 44, 1985) lists its integer points, one per hermitian class.
#
# The u0 criterion depends on a logarithm M through H = Herm M and
# b = delta M^H e1 only, and b(k) = b0 - 2 pi i delta sum_j k_j P_j^H e1 is
# affine in k too.  A passing M has H <= tol I, so the ellipsoid above
# holds, and its mixed term at z = -b/|b| gives |b| <= tol - lambda_min(H)
# <= |tau| + n tol.  The lattice then enumerates the sum of the two forms
# within the sum of the two squared radii.  A shift constant on a group g
# leaves H unchanged but moves b by a multiple of P_g^H e1, so the first
# cluster of each group with P_g^H e1 != 0 is free as well; the
# projectors of orthogonal groups are orthogonal, so their P_g^H e1 are
# independent and the summed form is positive definite.

#: largest cosine between the eigenspaces of two clusters that counts as
#: orthogonal
_ORTHOGONAL_TOL = 1e-10

#: most enumeration nodes the lattice walk visits before it gives up
_LATTICE_NODES = 100_000


def _require_invertible(a: np.ndarray) -> None:
    eigs = schur_form(a).eigenvalues
    if np.min(np.abs(eigs)) <= 1e-12 * max(1.0, float(np.max(np.abs(eigs)))):
        raise DomainError("singular matrix admits no logarithm")


def _verified(m: np.ndarray, a: np.ndarray) -> bool:
    """exp(m) reproduces a to within 1e-8 max(1, |a|)."""
    return float(np.linalg.norm(mat_exp(m) - a)) <= 1e-8 * max(1.0, float(np.linalg.norm(a)))


@dataclass(frozen=True)
class _Eigenbasis:
    """The primary logarithms L(k) = V (D + 2 pi i diag(k_j on cluster j))
    V^-1 of a (``log(k)``), k one integer per cluster of eigenvalues equal
    to within 1e-8 relative, in order of first appearance.  With a
    well-conditioned eigenbasis (cond V < 1e8) D = diag(log lam);
    otherwise (``conditioned`` False) V = I and D = mat_log_principal(a),
    whose shifts are all the primary logarithms only when a has one
    cluster."""

    vecs: np.ndarray
    inv_vecs: np.ndarray
    core: np.ndarray
    clusters: list
    conditioned: bool = True

    @classmethod
    def of(cls, a: np.ndarray) -> Optional["_Eigenbasis"]:
        """None when the eigenbasis is ill-conditioned and a has no
        principal logarithm."""
        vals, vecs = np.linalg.eig(a)
        clusters = []
        assigned = np.full(len(vals), -1)
        for i in range(len(vals)):
            if assigned[i] >= 0:
                continue
            members = np.nonzero(np.abs(vals - vals[i]) <= 1e-8 * max(1.0, abs(vals[i])))[0]
            assigned[members] = len(clusters)
            clusters.append(members)
        if np.linalg.cond(vecs) < 1e8:
            return cls(vecs, np.linalg.inv(vecs), np.diag(np.log(vals)), clusters)
        try:
            principal = mat_log_principal(a)
        except BranchError:
            return None
        eye = np.eye(len(vals), dtype=complex)
        return cls(eye, eye, principal, clusters, conditioned=False)

    def log(self, combo) -> np.ndarray:
        shift = np.zeros(len(self.core), dtype=complex)
        for cluster, k in zip(self.clusters, combo):
            shift[cluster] = 2j * np.pi * k
        return self.vecs @ (self.core + np.diag(shift)) @ self.inv_vecs


def _lattice_shifts(eig: _Eigenbasis, l0: np.ndarray, tol: float, delta: float = 0.0):
    """Branch shifts k (one entry per cluster), one per class of primary
    logarithms with equal Herm L(k) and, for delta != 0, equal
    delta L(k)^H e1, whose class can hold a logarithm that passes the
    criterion with tolerance tol (the split criterion at delta = 0, the u0
    criterion otherwise), in the order 0, -1, 1, -2, ... per cluster after
    k = 0, which is left out; None when the ellipsoid holds more than
    ``_LATTICE_NODES`` enumeration nodes."""
    count = len(eig.clusters)
    n = l0.shape[0]
    projectors = [eig.vecs[:, idx] @ eig.inv_vecs[idx, :] for idx in eig.clusters]
    gs = np.array([hermitian_part(2j * np.pi * p) for p in projectors]).reshape(count, -1)
    # groups of clusters: join two whose eigenspaces are not orthogonal
    bases = [np.linalg.qr(eig.vecs[:, idx])[0] for idx in eig.clusters]
    group = list(range(count))
    for i, j in itertools.combinations(range(count), 2):
        if np.linalg.norm(bases[i].conj().T @ bases[j], 2) > _ORTHOGONAL_TOL:
            low, high = sorted((group[i], group[j]))
            group = [low if g == high else g for g in group]
    # P_j^H e1, the direction in which a shift of cluster j moves b
    moves = np.array([p[0].conj() for p in projectors])
    free = [j for j in range(count) if group[j] != j or delta and np.linalg.norm(
        sum(moves[i] for i in range(count) if group[i] == j)) > _ORTHOGONAL_TOL]
    h0 = hermitian_part(l0)
    tau = float(np.trace(h0).real)
    b0 = delta * l0[0].conj()
    traceless2 = float(np.linalg.norm(h0)) ** 2 - tau * tau / n
    radius = abs(tau) + n * tol
    # rounding slack, relative to the scale of the terms
    slack = 1e-8 * (abs(tau) + float(np.linalg.norm(h0)) + float(np.linalg.norm(b0))) ** 2
    q = (gs[free].conj() @ gs[free].T).real
    lin = (gs[free].conj() @ h0.ravel()).real
    r2 = radius ** 2 * (1.0 - 1.0 / n) - traceless2 + slack
    if delta:
        cs = -2j * np.pi * delta * moves[free]
        q = q + (cs.conj() @ cs.T).real
        lin = lin + (cs.conj() @ b0).real
        r2 += radius ** 2 - float(np.linalg.norm(b0)) ** 2
    points = _ellipsoid_points(q, lin, r2, _LATTICE_NODES)
    if points is None:
        return None
    shifts = []
    for x in points:
        k = [0] * count
        for j, v in zip(free, x):
            k[j] = v
        if any(k):
            shifts.append(tuple(k))
    return sorted(shifts, key=lambda k: [2 * abs(v) - (v < 0) for v in k])


def _ellipsoid_points(q: np.ndarray, b: np.ndarray, r2: float, limit: int):
    """Every integer vector x with x^T q x + 2 b^T x <= r2, q positive
    definite, by Fincke-Pohst enumeration: with q = R^T R (R upper
    triangular) and centre c = -q^-1 b, the form is |R (x - c)|^2 <=
    r2 + c^T q c, and each coordinate, last first, ranges over the
    interval that the partial sum of squares leaves.  None when q is not
    numerically positive definite or the walk visits more than *limit*
    nodes."""
    d = len(q)
    if d == 0:
        return [()]
    try:
        r = np.linalg.cholesky(q).T
    except np.linalg.LinAlgError:
        return None
    centre = -np.linalg.solve(q, b)
    points, x = [], [0] * d
    nodes = 0

    def descend(i: int, rem: float) -> bool:
        nonlocal nodes
        s = float(sum(r[i, j] * (x[j] - centre[j]) for j in range(i + 1, d)))
        half = math.sqrt(max(rem, 0.0)) / r[i, i]
        mid = centre[i] - s / r[i, i]
        if not half < limit:
            return False
        for v in range(math.ceil(mid - half), math.floor(mid + half) + 1):
            nodes += 1
            if nodes > limit:
                return False
            x[i] = v
            if i == 0:
                points.append(tuple(x))
            elif not descend(i - 1, rem - (r[i, i] * (v - centre[i]) + s) ** 2):
                return False
        return True

    rem = r2 + float(centre @ q @ centre)
    if rem < 0:
        return []
    return points if descend(d - 1, rem) else None


@dataclass
class _LatticeWalk:
    """What a lattice search met: ``classes`` classes inside the ellipsoid
    (k = 0 included), ``unverified`` of them with a logarithm that
    exponentiation did not confirm, ``overflow`` when the enumeration gave
    up, and ``ill_conditioned`` when an ill-conditioned eigenbasis with
    several clusters left only L0 to test."""

    classes: int = 1
    unverified: int = 0
    overflow: bool = False
    ill_conditioned: bool = False

    def failed(self, notes: str, kind: str, ellipsoid: str):
        """Verdict and notes when none of the tested logarithms passed:
        *notes* says so, and the classes were one per *kind* inside the
        *ellipsoid* ellipsoid."""
        if self.ill_conditioned:
            return INCONCLUSIVE, (f"{notes}; the eigenbasis has condition number >= 1e8 "
                                  "and several eigenvalue clusters, so only the principal "
                                  "logarithm was tested")
        if self.overflow:
            return INCONCLUSIVE, (f"{notes}; the {ellipsoid} ellipsoid holds more than "
                                  f"{_LATTICE_NODES} enumeration nodes, so its classes "
                                  "were not searched")
        notes += f", one per {kind} of primary logarithms inside the {ellipsoid} ellipsoid"
        if self.unverified:
            return INCONCLUSIVE, (f"{notes}; {self.unverified} of {self.classes} classes "
                                  "had no logarithm verified by exponentiation")
        return CONDITION_FAILS, notes


def _lattice_logs(a: np.ndarray, walk: _LatticeWalk, delta: float = 0.0):
    """L0, then one primary logarithm per further class of
    :func:`_lattice_shifts` (delta as there), each verified by
    exponentiation; the lattice is set up only when the caller asks for
    more than L0.  Raises NumericError when no logarithm is verified."""
    a = np.asarray(a, dtype=complex)
    _require_invertible(a)
    eig = _Eigenbasis.of(a)
    if eig is None:
        raise NumericError("no verifiable logarithm candidate found")
    l0 = eig.log([0] * len(eig.clusters))
    if _verified(l0, a):
        yield l0
    else:
        walk.unverified += 1
    walk.ill_conditioned = not eig.conditioned and len(eig.clusters) > 1
    shifts = [] if walk.ill_conditioned else _lattice_shifts(eig, l0, _DISSIPATIVE_TOL, delta)
    walk.overflow = shifts is None
    walk.classes += len(shifts or [])
    for k in shifts or []:
        m = eig.log(k)
        if _verified(m, a):
            yield m
        else:
            walk.unverified += 1
    if walk.unverified == walk.classes:
        raise NumericError("no verifiable logarithm candidate found")


def log_candidates(a: np.ndarray):
    """The logarithms of *a* that the split criterion tests when none
    passes: the principal logarithm L0 first, then one primary logarithm
    per further hermitian class inside the dissipativity ellipsoid
    (:func:`_lattice_shifts`), each verified by exponentiation.  An
    ill-conditioned eigenbasis (cond V >= 1e8) gives L0 alone."""
    return list(_lattice_logs(a, _LatticeWalk()))


# ---------------------------------------------------------------------------
# quadratic minimization on the unit sphere


def sphere_quadratic_min(g_herm: np.ndarray, g_lin: np.ndarray):
    """Global minimum of x^H G x + Re(<x, g>) over the unit sphere.

    G hermitian.  Returns (value, argmin).  Solved by the trust-region
    secular equation in the eigenbasis of G.
    """
    w, v = np.linalg.eigh(hermitian_part(g_herm))
    b = v.conj().T @ np.asarray(g_lin, dtype=complex)
    mags = np.abs(b)
    lam_min = float(w[0])
    scale = max(1.0, float(np.max(np.abs(w))), float(np.max(mags)))
    active = mags > 1e-14 * scale

    def rho(mu):
        denom = np.where(active, 2.0 * (w - mu), 1.0)
        return np.where(active, mags / denom, 0.0)

    def norm2(mu):
        return float(np.sum(rho(mu) ** 2))

    phases = np.where(active, b / np.where(active, mags, 1.0), 0.0)
    min_active = bool(np.any(active & (np.abs(w - lam_min) <= 1e-12 * scale)))
    hard_norm = norm2(lam_min) if not min_active else np.inf
    if not min_active and hard_norm <= 1.0:
        # interior (hard) case: pad with the bottom eigenvector
        r = rho(lam_min)
        pad = math.sqrt(max(0.0, 1.0 - float(np.sum(r ** 2))))
        x = (-r * phases).astype(complex)
        x[int(np.argmin(w))] += pad
    else:
        lo = lam_min - 0.5 * float(np.sum(mags)) - 1.0
        hi = lam_min - 1e-18 * scale
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if norm2(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        mu = 0.5 * (lo + hi)
        r = rho(mu)
        nrm = math.sqrt(float(np.sum(r ** 2)))
        r = r / nrm if nrm > 0 else r
        x = (-r * phases).astype(complex)
    value = float((x.conj() @ (w * x)).real + np.vdot(b, x).real)
    return value, v @ x


# ---------------------------------------------------------------------------
# elliptic criteria


def embed_elliptic_split(nf: NormalForm) -> EmbeddingCertificate:
    """Exponential-of-dissipative criterion for the (Lambda, A1) form: the
    map embeds exactly when A1 has a dissipative logarithm.

    Candidate 0 is the principal logarithm L0.  When it fails, one
    logarithm per further hermitian class of primary logarithms inside the
    dissipativity ellipsoid follows (:func:`_lattice_shifts`), so the
    search is complete over the primary logarithms.
    """
    _expect_form(nf, FORM_ELLIPTIC_SPLIT)
    lam = nf.parameters["Lambda"]
    a1 = nf.parameters["A1"]
    theta = np.angle(lam).real.astype(float)
    if a1.size == 0:
        data = {"theta": theta, "M": np.zeros((0, 0), dtype=complex), "u": len(theta)}
        return _certificate(nf, EMBEDDABLE, "elliptic_split_dissipative_log",
                            [Condition("unitary_part", 0.0, True)], data)
    lattice = _LatticeWalk()
    margins = []
    for idx, m in enumerate(_lattice_logs(a1, lattice)):
        res = is_dissipative(m)
        margins.append(Condition(f"dissipativity[candidate {idx}]", -res.margin,
                                 res.margin <= _DISSIPATIVE_TOL))
        if res.margin <= _DISSIPATIVE_TOL and float(np.max(np.linalg.eigvals(m).real)) < 0:
            data = {"theta": theta, "M": m, "u": len(theta)}
            return _certificate(nf, EMBEDDABLE, "elliptic_split_dissipative_log", margins,
                                data, notes=f"dissipative logarithm found (candidate {idx})")
    verdict, notes = lattice.failed(f"no dissipative logarithm among {len(margins)} candidates",
                                    "hermitian class", "dissipativity")
    return _certificate(nf, verdict, "elliptic_split_dissipative_log", margins, notes=notes)


def _u0_condition_margins(m: np.ndarray, delta: float):
    """Exact margins of Re[delta <Mz,e1> |z|^2 - <Mz,z>] >= 0 on the ball.

    The expression restricted to z = r*zeta is linear in r, so the
    infimum sits at r -> 0 (a pure hermitian-part condition) or r = 1
    (a sphere-constrained quadratic, solved exactly).
    """
    n = m.shape[0]
    herm = hermitian_part(m)
    quad_margin = -float(np.max(np.linalg.eigvalsh(herm)))
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    # on the sphere the r = 1 slice reads
    # delta Re(Mz)_1 - Re<Mz,z> = z^H (-H) z + Re<z, delta M^H e1>
    mixed_margin, zeta = sphere_quadratic_min(-herm, delta * (m.conj().T @ e1))
    return quad_margin, mixed_margin, zeta


def embed_elliptic_u0(nf: NormalForm, sampler=None) -> EmbeddingCertificate:
    """Generator-positivity criterion for the (Ahat, delta) form.

    For each logarithm candidate M the condition
    Re[delta <Mz,e1> |z|^2 - <Mz,z>] >= 0 on the closed ball is decided
    by the exact two-radius reduction plus seeded sampling; a negative
    sample is kept as a witness.  The candidates are L0, then one primary
    logarithm per further class of (Herm M, delta M^H e1) inside the
    positivity ellipsoid (:func:`_lattice_shifts`), so the search is
    complete over the primary logarithms.
    """
    _expect_form(nf, FORM_ELLIPTIC_U0)
    ahat = nf.parameters["Ahat"]
    delta = float(nf.parameters["delta"])
    points = _sampler_points(sampler, ahat.shape[0])
    lattice = _LatticeWalk()
    margins = []
    best_witness = None
    for idx, m in enumerate(_lattice_logs(ahat, lattice, delta)):
        quad_margin, mixed_margin, zeta = _u0_condition_margins(m, delta)
        sample_vals = _u0_expression(m, delta, points)
        sample_margin = float(np.min(sample_vals)) if len(sample_vals) else np.inf
        margin = min(quad_margin, mixed_margin, sample_margin)
        margins.append(Condition(f"generator_positivity[candidate {idx}]", margin,
                                 margin >= -1e-10))
        if margin >= -1e-10:
            data = {"M": m, "delta": delta}
            return _certificate(nf, EMBEDDABLE, "elliptic_u0_generator_positivity", margins,
                                data, notes=f"candidate {idx}: min condition margin {margin:.3e}")
        witness = _u0_witness(m, delta, zeta, quad_margin, mixed_margin, points, sample_vals)
        if witness is not None:
            best_witness = witness
    verdict, notes = lattice.failed(
        f"all {len(margins)} logarithm candidates violate the condition",
        "(Herm M, delta M^H e1) class", "positivity")
    if best_witness is not None:
        notes += f"; witness z = {np.array2string(best_witness, precision=6)}"
    return _certificate(nf, verdict, "elliptic_u0_generator_positivity", margins,
                        notes=notes)


def _u0_expression(m: np.ndarray, delta: float, zs: np.ndarray) -> np.ndarray:
    if len(zs) == 0:
        return np.zeros(0)
    mz = zs @ m.T
    norms2 = np.sum(np.abs(zs) ** 2, axis=1)
    return (delta * mz[:, 0] * norms2 - np.einsum("ij,ij->i", mz, zs.conj())).real


def _u0_witness(m, delta, zeta, quad_margin, mixed_margin, points, sample_vals):
    if len(sample_vals) and np.min(sample_vals) < -1e-10:
        return points[int(np.argmin(sample_vals))]
    if mixed_margin < quad_margin:
        cand = zeta
        if _u0_expression(m, delta, cand[None, :])[0] < 0:
            return cand
    top = np.linalg.eigh(hermitian_part(m))[1][:, -1]
    for r in (0.05, 0.2, 0.5, 0.9):
        cand = r * top
        if _u0_expression(m, delta, cand[None, :])[0] < 0:
            return cand
    return None


def _sampler_points(sampler, dim: int) -> np.ndarray:
    from .maps import sample_ball_points

    if sampler is None:
        return sample_ball_points(dim, 2000)
    return sampler.points(dim)


# ---------------------------------------------------------------------------
# parabolic and hyperbolic criteria


def _diagonalize_normal(a: np.ndarray, tol: float = 1e-10):
    """Unitary V with V^H a V diagonal, or None when a is not normal."""
    if a.size == 0 or np.allclose(a, np.diag(np.diag(a)), atol=1e-14):
        return np.eye(a.shape[0], dtype=complex), np.diag(a).copy() if a.size else np.zeros(0, dtype=complex)
    if np.linalg.norm(a @ a.conj().T - a.conj().T @ a) > tol * max(1.0, np.linalg.norm(a) ** 2):
        return None
    form = schur_form(a)
    t = form.upper_triangular
    if np.max(np.abs(t - np.diag(np.diag(t)))) > 1e-8 * max(1.0, np.linalg.norm(a)):
        return None
    # a = U^H T U, so V = U^H gives V^H a V = T
    return form.unitary.conj().T, np.diag(t).copy()


def _w_eigenbasis(nf: NormalForm, criterion_id: str):
    """(D, V, eigenvalues): the unimodular (v-) diagonal of a Siegel normal
    form and its contraction (w-) block in a unitary eigenbasis, V = None
    for an empty block; or an inconclusive certificate when the block is
    not normal, since the sufficient criteria need it diagonal."""
    _, q, r = nf.parameters["block_split"]
    d_diag = np.atleast_1d(nf.parameters["D"]) if q else np.zeros(0, dtype=complex)
    if not r:
        return d_diag, None, np.zeros(0, dtype=complex)
    basis = _diagonalize_normal(nf.parameters["A"])
    if basis is None:
        return _certificate(
            nf, INCONCLUSIVE, criterion_id,
            [Condition("contraction_block_normal", -1.0, False)],
            notes="contraction block is not normal; the sufficient criterion does not apply",
        )
    return (d_diag,) + basis


def embed_parabolic(nf: NormalForm) -> EmbeddingCertificate:
    """Translation-budget criterion Im b - |a|^2 >= <Theta c, c> for the
    parabolic normal form with a normal contraction block."""
    _expect_form(nf, FORM_PARABOLIC)
    blocks = _w_eigenbasis(nf, "parabolic_theta_budget")
    if isinstance(blocks, EmbeddingCertificate):
        return blocks
    d_diag, v, lam_diag = blocks
    a_vec, c_vec, b = nf.parameters["a"], nf.parameters["c"], complex(nf.parameters["b"])
    target = nf.normal_map
    if v is not None:
        c_vec = v.conj().T @ c_vec
        target = siegel_normal_map(1.0, a_vec, d_diag, np.diag(lam_diag), c_vec,
                                   np.zeros(len(c_vec)), b)
    theta = theta_parabolic(lam_diag)
    budget = float(b.imag - np.vdot(a_vec, a_vec).real - np.sum(theta * np.abs(c_vec) ** 2))
    margins = [Condition("translation_budget", budget, budget >= -MARGIN_TOL)]
    if budget < -MARGIN_TOL:
        return _certificate(nf, INCONCLUSIVE, "parabolic_theta_budget", margins, target=target,
                            notes="sufficient condition fails; the map may still be embeddable")
    data = {
        "a": a_vec,
        "theta_D": np.angle(d_diag).astype(float),
        "m_diag": np.array([_log_principal(mu) for mu in lam_diag], dtype=complex),
        "c": c_vec,
        "alpha": complex(b.real, b.imag - float(np.vdot(a_vec, a_vec).real)),
        "split": nf.parameters["block_split"],
    }
    return _certificate(nf, EMBEDDABLE, "parabolic_theta_budget", margins, data, target)


def embed_hyperbolic(nf: NormalForm) -> EmbeddingCertificate:
    """Coefficient-budget criterion Im b >= <Theta c, c> (+ resonant
    translation weights) for the hyperbolic normal form."""
    _expect_form(nf, FORM_HYPERBOLIC)
    blocks = _w_eigenbasis(nf, "hyperbolic_theta_budget")
    if isinstance(blocks, EmbeddingCertificate):
        return blocks
    d_diag, v, lam_diag = blocks
    p = nf.parameters["block_split"][0]
    lam = float(nf.parameters["lam"])
    c_vec, c_res = nf.parameters["c"], nf.parameters["c_res"]
    b = complex(nf.parameters["b"])
    target = nf.normal_map
    if v is not None:
        c_vec = v.conj().T @ c_vec
        c_res = v.conj().T @ c_res
        target = siegel_normal_map(lam, np.zeros(p), d_diag, np.diag(lam_diag), c_vec, c_res,
                                   b, math.sqrt(lam))
    theta = theta_hyperbolic(lam, lam_diag)
    budget = float(
        b.imag
        - np.sum(theta * np.abs(c_vec) ** 2)
        - resonant_translation_weight(lam) * float(np.sum(np.abs(c_res) ** 2))
    )
    margins = [Condition("coefficient_budget", budget, budget >= -MARGIN_TOL)]
    if budget < -MARGIN_TOL:
        return _certificate(nf, INCONCLUSIVE, "hyperbolic_theta_budget", margins, target=target,
                            notes="sufficient condition fails; the map may still be embeddable")
    data = {
        "lam": lam,
        "theta_D": np.angle(d_diag).astype(float),
        "m_diag": np.array([_log_principal(mu) for mu in lam_diag], dtype=complex),
        "c": c_vec,
        "c_res": c_res,
        "b": b,
        "split": nf.parameters["block_split"],
    }
    return _certificate(nf, EMBEDDABLE, "hyperbolic_theta_budget", margins, data, target)


# ---------------------------------------------------------------------------
# dimension 2 and automorphisms


def embed_dim2(f: BallMap, cls: Optional[Classification] = None) -> EmbeddingCertificate:
    """Embedding decision for self-maps of the two-dimensional ball; the
    Siegel cases are labelled by the catalogue of normal forms (scalar
    w-block)."""
    if f.dim != 2:
        raise DomainError("embed_dim2 expects a map of the two-dimensional ball")
    nf = normal_form(f, cls)
    cert = certify(nf)
    label = _case(_CASES, nf.form_kind).dim2_label
    if label is None:
        return cert
    return dataclasses.replace(cert, criterion_id=label(nf.parameters))


def is_automorphism(f: BallMap, tol: float = 1e-8, count: int = 200) -> bool:
    """Numerical automorphism test: the unit sphere maps onto itself."""
    from .maps import sample_ball_points

    dirs = sample_ball_points(f.dim, count, seed=909090)
    dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    img = f.eval_many(dirs)
    return bool(np.max(np.abs(np.linalg.norm(img, axis=1) - 1.0)) <= tol)


def embed_automorphism(f: BallMap) -> EmbeddingCertificate:
    """Automorphisms always embed; chooses the constructor by class."""
    if not is_automorphism(f):
        raise DomainError("map is not an automorphism of the ball")
    cert = embed_map(f)
    if cert.verdict != EMBEDDABLE:
        raise NumericError(
            f"automorphism unexpectedly failed its criterion: {cert.notes}"
        )
    return dataclasses.replace(cert, criterion_id="automorphism_" + cert.criterion_id)


def embed_map(f: BallMap, cls: Optional[Classification] = None) -> EmbeddingCertificate:
    """Normalize f (classifying it unless the caller passes its
    classification) and run the embedding criterion of its case."""
    return certify(normal_form(f, cls))


def certify(nf: NormalForm, sampler=None) -> EmbeddingCertificate:
    """Run the embedding criterion of nf's case; *sampler* gives the seeded
    points of the criteria that sample (the u0 generator positivity)."""
    return _case(_CASES, nf.form_kind).criterion(nf, sampler)


def conditions_for(nf: NormalForm) -> list:
    """The checked normal-form conditions of nf's case (none for the
    elliptic forms)."""
    return _case(_CASES, nf.form_kind).conditions(nf)


# ---------------------------------------------------------------------------
# semigroup families, one section per case: at_many(ts) applies the case's
# stacked normal-map builder to the parameters at every time of ts, each
# map with the bits of its own time's arithmetic


def _split_at_many(d: dict, ts: np.ndarray) -> BallMap:
    m = d["M"]
    a1 = mat_exp(ts[:, None, None] * m) if m.size else np.zeros((len(ts), 0, 0))
    return split_normal_maps(np.exp(1j * ts[:, None] * d["theta"]), a1)


def _split_generator(d: dict):
    theta, m = d["theta"], d["M"]
    u = len(theta)
    n = u + m.shape[0]
    gen = np.zeros((n, n), dtype=complex)
    gen[:u, :u] = np.diag(1j * theta)
    gen[u:, u:] = m
    return lambda z: np.asarray(z, dtype=complex) @ gen.T


def _u0_at_many(d: dict, ts: np.ndarray) -> BallMap:
    return u0_normal_maps(mat_exp(ts[:, None, None] * d["M"]), d["delta"])


def _u0_generator(d: dict):
    m, delta = d["M"], d["delta"]

    def gen_u0(z):
        z = np.asarray(z, dtype=complex)
        mz = z @ m.T
        return mz - delta * mz[..., :1] * z

    return gen_u0


def _parabolic_at_many(d: dict, ts: np.ndarray) -> SiegelMap:
    a, m_diag = d["a"], d["m_diag"]
    c_path = _rows_times(_cocycle_ratio(np.conj(m_diag), ts), d["c"])
    a2 = float(np.vdot(a, a).real)
    b_t = [t * d["alpha"] + 1j * t * t * a2 for t in ts.tolist()]
    return siegel_normal_maps(np.ones(len(ts)), ts[:, None] * a,
                              np.exp(1j * ts[:, None] * d["theta_D"]),
                              _diag_stack(np.exp(ts[:, None] * m_diag)), c_path,
                              np.zeros(c_path.shape), b_t)


def _parabolic_generator(d: dict):
    a, theta_d, m_diag, c, alpha = d["a"], d["theta_D"], d["m_diag"], d["c"], d["alpha"]
    p, q, r = d["split"]
    cdot0 = (_cocycle_rate(np.conj(m_diag)) * c) if r else np.zeros(0, dtype=complex)

    def gen_parabolic(z):
        z = np.asarray(z, dtype=complex)
        u_part = z[..., 1:1 + p]
        v_part = z[..., 1 + p:1 + p + q]
        w_part = z[..., 1 + p + q:]
        gz = alpha + 2j * (u_part @ np.conj(a)) + 2j * (w_part @ np.conj(cdot0))
        return np.concatenate([np.asarray(gz)[..., None], np.broadcast_to(a, u_part.shape),
                               1j * theta_d * v_part, m_diag * w_part], axis=-1)

    return gen_parabolic


def _parabolic_dim2_label(prm: dict) -> str:
    _, q, r = prm["block_split"]
    return "dim2_parabolic_psi" + ("1" if r == 1 else "2" if q == 1 else "3")


def _hyperbolic_at_many(d: dict, ts: np.ndarray) -> SiegelMap:
    lam, m_diag = d["lam"], d["m_diag"]
    log_lam = math.log(lam)
    beyond = ts[ts * log_lam > _EXP_MAX]
    if beyond.size:
        raise NumericError(f"time {float(beyond[0])!r}: t*log(lam) = "
                           f"{float(beyond[0]) * log_lam:.6g} > 709, so lam^t overflows a double")
    # lam^t, sqrt(lam)^t and b_t in Python scalar arithmetic, one time at a
    # time: numpy's complex division can differ from it in the last bit
    times = ts.tolist()
    lam_t = np.array([math.exp(t * log_lam) for t in times])
    sq_t = np.array([math.exp(0.5 * t * log_lam) for t in times])
    b_ratio = _expm1c(complex(log_lam))
    b_t = [(_expm1c(complex(t * log_lam)) / b_ratio).real * d["b"] for t in times]
    a_factor = (lam_t[:, None] - sq_t[:, None] * np.exp(ts[:, None] * np.conj(m_diag))) / \
        (lam - math.sqrt(lam) * np.exp(np.conj(m_diag)))
    res_path = _rows_times(_cocycle_ratio(0.5 * log_lam + m_diag, ts), d["c_res"])
    return siegel_normal_maps(lam_t, np.zeros((len(ts), d["split"][0])),
                              np.exp(1j * ts[:, None] * d["theta_D"]),
                              _diag_stack(np.exp(ts[:, None] * m_diag)),
                              _rows_times(a_factor, d["c"]), res_path, b_t, sq_t)


def _hyperbolic_generator(d: dict):
    lam = d["lam"]
    theta_d, m_diag, c, c_res, b = d["theta_D"], d["m_diag"], d["c"], d["c_res"], d["b"]
    p, q, r = d["split"]
    log_lam = math.log(lam)
    if r:
        adot0 = (log_lam / 2.0 - np.conj(m_diag)) / (lam - math.sqrt(lam) * np.exp(np.conj(m_diag))) * c
        resdot0 = _cocycle_rate(0.5 * log_lam + m_diag) * c_res
    else:
        adot0 = np.zeros(0, dtype=complex)
        resdot0 = np.zeros(0, dtype=complex)
    bdot0 = log_lam / (lam - 1.0) * b

    def gen_hyperbolic(z):
        z = np.asarray(z, dtype=complex)
        u_part = z[..., 1:1 + p]
        v_part = z[..., 1 + p:1 + p + q]
        w_part = z[..., 1 + p + q:]
        gz = log_lam * z[..., 0] + 2j * (w_part @ np.conj(adot0)) + bdot0
        return np.concatenate([
            np.asarray(gz)[..., None],
            0.5 * log_lam * u_part,
            (0.5 * log_lam + 1j * theta_d) * v_part,
            (0.5 * log_lam + m_diag) * w_part + resdot0,
        ], axis=-1)

    return gen_hyperbolic


def _hyperbolic_dim2_label(prm: dict) -> str:
    psi2 = prm["block_split"][2] == 1 and abs(prm["c_res"][0]) > 0
    return "dim2_hyperbolic_psi2" if psi2 else "dim2_hyperbolic_psi1"


def _cocycle_ratio(eps: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """(exp(t eps) - 1) / (exp(eps) - 1), one row per time t of ts and one
    column per entry of eps, with the t limit at eps = 0 (the resonant
    translation path)."""
    eps = np.atleast_1d(np.asarray(eps, dtype=complex))
    out = np.repeat(ts.astype(complex)[:, None], len(eps), axis=1)
    big = np.abs(eps) >= 1e-13
    if np.any(big):
        out[:, big] = _expm1c_vec(ts[:, None] * eps[big]) / _expm1c_vec(eps[big])
    return out


def _rows_times(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x * v for a (T, r) array x and an r-vector v, with the bits of one
    product per row: numpy multiplies a broadcast length-1 column of
    complex numbers in another loop, which may round differently."""
    return x * np.tile(v, (len(x), 1))


def _diag_stack(v: np.ndarray) -> np.ndarray:
    """(T, r, r) diagonal matrices from the rows of a (T, r) array."""
    out = np.zeros(v.shape + v.shape[-1:], dtype=complex)
    out[:, range(v.shape[1]), range(v.shape[1])] = v
    return out


def _cocycle_rate(eps: np.ndarray) -> np.ndarray:
    """d/dt at t=0 of the cocycle ratio: eps / (exp(eps) - 1), 1 at 0."""
    eps = np.atleast_1d(np.asarray(eps, dtype=complex))
    out = np.ones(len(eps), dtype=complex)
    big = np.abs(eps) >= 1e-13
    if np.any(big):
        out[big] = eps[big] / _expm1c_vec(eps[big])
    return out


# ---------------------------------------------------------------------------
# the case table


@dataclass(frozen=True)
class _Case:
    """What one normal-form case contributes after its reduction.

    ``conditions`` and ``criterion`` are lambdas that call the module-level
    functions by name, so that rebinding one of those (as a tracer does)
    takes effect."""

    family: str  # SemigroupFamily.case_kind of the case's certificates
    domain: str  # where the family acts
    conditions: Callable  # NormalForm -> checked normal-form conditions
    criterion: Callable  # (NormalForm, sampler) -> EmbeddingCertificate
    at_many: Callable  # (generator data, (T,) times) -> the stack of maps at those times
    generator: Callable  # generator data -> infinitesimal generator
    dim: Callable  # generator data -> dimension of the maps
    dim2_label: Optional[Callable] = None  # parameters -> dimension-2 catalogue name


_CASES = {
    FORM_ELLIPTIC_SPLIT: _Case(
        "elliptic_split", BALL, lambda nf: [],
        lambda nf, sampler: embed_elliptic_split(nf), _split_at_many, _split_generator,
        lambda d: len(d["theta"]) + d["M"].shape[0]),
    FORM_ELLIPTIC_U0: _Case(
        "elliptic_u0", BALL, lambda nf: [],
        lambda nf, sampler: embed_elliptic_u0(nf, sampler=sampler), _u0_at_many,
        _u0_generator, lambda d: d["M"].shape[0]),
    FORM_PARABOLIC: _Case(
        "parabolic", SIEGEL, lambda nf: parabolic_conditions(nf),
        lambda nf, sampler: embed_parabolic(nf), _parabolic_at_many, _parabolic_generator,
        lambda d: 1 + sum(d["split"]), _parabolic_dim2_label),
    FORM_HYPERBOLIC: _Case(
        "hyperbolic", SIEGEL, lambda nf: hyperbolic_conditions(nf),
        lambda nf, sampler: embed_hyperbolic(nf), _hyperbolic_at_many, _hyperbolic_generator,
        lambda d: 1 + sum(d["split"]), _hyperbolic_dim2_label),
}
_FAMILIES = {case.family: case for case in _CASES.values()}


def _case(table: dict, kind: str) -> _Case:
    if kind not in table:
        raise DomainError(f"unknown case kind {kind}")
    return table[kind]


def build_semigroup(cert: EmbeddingCertificate) -> SemigroupFamily:
    """Materialize the closed-form family licensed by an embeddable
    certificate; ``at(1)`` reproduces the certificate's target map."""
    if cert.verdict != EMBEDDABLE or cert.generator_data is None:
        raise DomainError("build_semigroup requires an embeddable certificate")
    if cert.family not in _FAMILIES:
        raise DomainError(f"certificate {cert.criterion_id} carries no constructor")
    return SemigroupFamily(cert.family, dict(cert.generator_data),
                           _FAMILIES[cert.family].domain, cert.target)


def generator(sg: SemigroupFamily):
    """Closed-form infinitesimal generator G with d(phi_t)/dt = G o phi_t;
    G takes one point or a (K, N) array of rows."""
    return _case(_FAMILIES, sg.case_kind).generator(sg.parameters)


def _expect_form(nf: NormalForm, kind: str) -> None:
    if nf.form_kind != kind:
        raise DomainError(f"expected a {kind} normal form, got {nf.form_kind}")
