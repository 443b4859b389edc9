"""Embedding criteria and the one-parameter semigroups they license.

For each normal form this module decides whether the map embeds into a
continuous one-parameter semigroup of self-maps, returning an
:class:`EmbeddingCertificate` with named numeric margins, and builds
the family :class:`SemigroupFamily` when the verdict is positive.

Every criterion decides one homogeneous generator G per logarithm: the
(N+1) x (N+1) matrix that an embeddable certificate carries as its
field ``G``.  The family is its flow: the map at time t has
the homogeneous matrix exp(t G), and the projective vector field of G is
the family's infinitesimal generator (:func:`generator`).  The split
criterion tests the dissipativity of the logarithm M, the u0 criterion
the BallMap constructor's pencil test on G (:func:`_u0_margin`), the
parabolic and hyperbolic criteria the invariance of H_N under the flow
of G (:func:`_flow_margin`).  Every verdict is if-and-only-if over the
primary logarithms, so a failed margin yields ``condition_fails``; so
does a normal map with an exactly zero eigenvalue, which is not injective
(:class:`_Singular`, raised where a criterion has the eigenvalues at
hand).  The elliptic criteria test the
principal logarithm, then one logarithm per class that they cannot tell
apart (the hermitian part; for u0 also delta M^H e1) inside an ellipsoid
that holds every passing class (see "the lattice of primary logarithms"
below), each checked by exponentiation through the eigenbasis that built
it; one :class:`_Logarithms` of the block holds that eigenbasis, walks
the lattice and reads the verdict of a failed search.  A class whose
logarithm fails that check, an ellipsoid too large to enumerate, or an
ill-conditioned eigenbasis (cond V >= 1e8) with several eigenvalue
clusters makes the verdict ``inconclusive``; so does a failed search on a
derogatory matrix (an eigenvalue in several Jordan blocks), whose
non-primary logarithms form a continuum and are not searched.  The
parabolic and hyperbolic criteria are one
function (:func:`_half_plane_criterion`) with one generator: the
principal logarithm of the normal map's homogeneous matrix, read off its
entries by divided differences of exp (:func:`_siegel_log`, the inverse
of :class:`_SiegelFlow` at t = 1).  Its branch, the principal logarithm
of each eigenvalue of the contraction block, has the largest margin of
all branches, tested by the Schur complement of
:func:`~lfmsemi.linalg.schur_margins`, the kernel of the Siegel
normal-form conditions too.  A block that is not normal (the triangular
Schur factor of the reduction, normal iff diagonal) is ``inconclusive``.

The case table ``_CASES``, keyed by ``NormalForm.form_kind``, holds for
each of the four normal-form cases its checked conditions, its embedding
criterion (the two Siegel rows call the one half-plane criterion through
its two public names), and the family name of its certificates.
:func:`certify` looks the case up there, so a fifth case adds one row (and
its reducer in ``normal_forms``); a family acts on its target's domain.
:meth:`SemigroupFamily.at_many` reads only G, through one flow per domain
that uses its structure.  The part of the flow that reads G alone (the
checks of G and its factorization) is computed at the family's first
build and kept on it, so every build does only the work of its grid: on
the ball G = [[K, 0], [r^T, 0]] and exp(t G) needs exp(t K) alone, for
every grid off one eigendecomposition of K (:class:`_BallFlow`); on H_N
G is affine with a diagonal w-block, and the entries of exp(t G) are
divided differences of s -> e^{ts} (:class:`_SiegelFlow`).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import BranchError, DimensionError, DomainError, NumericError
from .linalg import (
    REAL_KINDS,
    _complex_array,
    _frobenius,
    _hermitian,
    _natural_dtype,
    is_dissipative,
    mat_exp,
    mat_log_principal,
    schur_margins,
)
from .maps import (BALL, SIEGEL, BallMap, SiegelMap, _krein_j, _require_ball_flow,
                   _trusted_ball_map, flow_form, pencil_margins, pullback_form)
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
)

EMBEDDABLE = "embeddable"
CONDITION_FAILS = "condition_fails"
INCONCLUSIVE = "inconclusive"

#: margin at or above which a criterion counts as satisfied
MARGIN_TOL = 1e-12

#: largest eigenvalue of Herm M at which a logarithm M counts as dissipative,
#: and least u0 pencil margin, negated, at which it passes
_DISSIPATIVE_TOL = 1e-10


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class EmbeddingCertificate:
    verdict: str
    criterion_id: str
    margins: list
    G: Optional[np.ndarray]  # the homogeneous generator; None unless embeddable
    target: object  # the map the built family reproduces at t = 1
    notes: str
    family: str  # the SemigroupFamily case G builds


def _certificate(nf: NormalForm, verdict: str, criterion_id: str, margins: list,
                 g: Optional[np.ndarray] = None, target=None, notes: str = ""):
    """A certificate for nf's case; the target defaults to nf's normal map."""
    return EmbeddingCertificate(verdict, criterion_id, margins, g,
                                nf.normal_map if target is None else target, notes,
                                _CASES[nf.form_kind].family)


@dataclass(frozen=True)
class SemigroupFamily:
    """The one-parameter family exp(t G) of the homogeneous generator G,
    acting on *domain*; ``at_many(ts)`` materializes the maps on a grid of
    times, ``at(t)`` one of them.  G is read at the first build: the part
    of the flow that reads G alone (its checks and factorization) is
    computed then and kept on the family, so every later build does only
    the work of its grid.  A built family pickles and copies with it."""

    case_kind: str
    G: np.ndarray
    domain: str
    target: Optional[object] = None

    def __post_init__(self):
        if self.domain not in _FLOWS:
            raise DomainError(f"unknown domain {self.domain!r}")

    @property
    def dim(self) -> int:
        return self.G.shape[0] - 1

    def at(self, t: float):
        return self.at_many([t])[0]

    @cached_property
    def _flow(self):
        """The part of the flow that reads G alone, a :class:`_BallFlow` or
        :class:`_SiegelFlow` of arrays read off a copy of G; a G with an
        entry that is not finite raises :class:`DomainError`."""
        g = np.array(self.G)
        if not np.isfinite(g).all():
            raise DomainError("the generator's entries must be finite")
        return _FLOWS[self.domain].of(g)

    def at_many(self, ts):
        """The maps at the times ts (each finite and >= 0), built together:
        a stack of T = len(ts) maps, a :class:`~lfmsemi.maps.BallMap` or
        :class:`~lfmsemi.maps.SiegelMap` whose item i is the map at ts[i]."""
        ts = _time_grid(ts)
        return self._flow.maps(ts)


def _time_grid(ts) -> np.ndarray:
    """The times ts, a scalar or a 1-d grid, as a 1-d float array, each time
    finite and >= 0; anything else raises :class:`DomainError`.  The reader
    of :meth:`SemigroupFamily.at_many` and of the grids of
    :mod:`lfmsemi.verify`."""
    try:
        if _natural_dtype(ts).kind not in REAL_KINDS:  # np.asarray takes a string or a bool
            raise TypeError
        ts = np.atleast_1d(np.asarray(ts, dtype=float))  # a float grid is not copied
    except (TypeError, ValueError):
        raise DomainError(f"times must be real numbers, got {ts!r}") from None
    if ts.ndim != 1:
        raise DomainError(f"times must be a scalar or a 1-d grid, got shape {ts.shape}")
    outside = ts[~((ts >= 0.0) & (ts < np.inf))]
    if outside.size:
        raise DomainError(f"time {float(outside[0])!r} lies outside 0 <= t < inf, "
                          "where the semigroup is defined")
    return ts


# ---------------------------------------------------------------------------
# the homogeneous generator G of a family (see the module docstring); the
# Siegel cases have last row 0 and the affine field
# (z, w) -> (alpha z + 2i<w, p> + beta, L w + gamma)


def _split_matrix(theta: np.ndarray, m: np.ndarray) -> np.ndarray:
    """blockdiag(diag(i theta), M, 0)."""
    u, n = len(theta), len(theta) + len(m)
    g = np.zeros((n + 1, n + 1), dtype=complex)
    g[range(u), range(u)], g[u:n, u:n] = 1j * theta, m
    return g


def _u0_matrix(m: np.ndarray, delta: float) -> np.ndarray:
    """[[M, 0], [delta e1^T M, 0]]: the field Mz - delta (Mz)_1 z."""
    g = np.zeros((len(m) + 1, len(m) + 1), dtype=complex)
    g[:-1, :-1], g[-1, :-1] = m, delta * m[0]
    return g


def _flow_margin(g: np.ndarray) -> float:
    """Exact margin of the invariance of H_N under the flow of an affine
    generator G.  The flow keeps H_N exactly when d/dt (Im z - |w|^2) >= 0
    on its boundary (Nagumo; Bony-Brezis): when Im alpha = 0 and
    [[Q, x], [x^H, Im beta]] >= 0, Q = Re(alpha) I - 2 Herm L, x = p - gamma,
    the bordered test of :func:`~lfmsemi.linalg.schur_margins`.  The margin
    is its Schur complement Im beta - x^H Q^+ x; a violated other condition
    (Im alpha != 0, an eigenvalue of Q below minus the rank cut, x off the
    range by more than the cut) caps it at minus its size."""
    alpha, beta = complex(g[0, 0]), complex(g[0, -1])
    l_block = g[1:-1, 1:-1]
    m = schur_margins(alpha.real * np.eye(len(l_block)) - (l_block + l_block.conj().T),
                      0.5j * np.conj(g[0, 1:-1]) - g[1:-1, -1], beta.imag)
    worst = min(-abs(alpha.imag), min(m.psd, 0.0) + m.cut, m.cut + m.in_range)
    return m.complement if worst >= 0 else min(m.complement, worst)


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
# affine in k too.  A passing M has pencil margin lambda_min(mu J - X)
# >= -tol, X = J G + G^H J (:func:`_u0_margin`).  At x = e_{N+1}, where
# x^H X x = 0, this gives mu <= tol; at x = (v, 0), |v| = 1, it gives
# 2 v^H H v <= mu + tol <= 2 tol, so H <= tol I and the ellipsoid above
# holds.  At x = (z, 1) / sqrt(2), |z| = 1, it gives
# Re[delta (Mz)_1 - <Mz, z>] >= -tol, which at z = -b/|b| reads
# |b| <= tol - lambda_min(H) <= |tau| + n tol.  The lattice then
# enumerates the sum of the two forms within the sum of the two squared
# radii.  A shift constant on a group g leaves H unchanged but moves b by
# a multiple of P_g^H e1, so the first cluster of each group with
# P_g^H e1 != 0 is free as well; the projectors of orthogonal groups are
# orthogonal, so their P_g^H e1 are independent and the summed form is
# positive definite.

#: largest cosine between the eigenspaces of two clusters that counts as
#: orthogonal
_ORTHOGONAL_TOL = 1e-10

#: most enumeration nodes the lattice walk visits before it gives up
_LATTICE_NODES = 100_000


class _Singular(DomainError):
    """A criterion met an exactly zero eigenvalue: the map is not injective."""


def _verified(logs: "_Logarithms", combo, a: np.ndarray) -> bool:
    """exp(L(combo)) of logs (:meth:`_Logarithms.exp`) reproduces a to
    within 1e-8 max(1, |a|)."""
    return _frobenius(logs.exp(combo) - a) <= 1e-8 * max(1.0, _frobenius(a))


class _Logarithms:
    """The primary logarithms L(k) = V (D + 2 pi i diag(k_j on cluster j))
    V^-1 of a (``log(k)``, with L0 = L(0) as ``l0``) and their
    exponentials (``exp(k)``), k one integer per cluster of eigenvalues
    equal to within 1e-8 relative, in order of first appearance; ``vals``
    are the eigenvalues of a.  With a well-conditioned eigenbasis
    (cond V < 1e8) D = diag(log lam), and
    exp(L(k)) = V diag(exp(d_j + 2 pi i k_j)) V^-1 is one product;
    otherwise (``conditioned`` False) V = I and D = mat_log_principal(a),
    whose shifts are all the primary logarithms only when a has one
    cluster, and exp(L(k)) is :func:`~lfmsemi.linalg.mat_exp`'s.

    Iterating yields L0, then one primary logarithm per further class of
    :func:`_lattice_shifts` for *delta* (the split criterion at 0, the u0
    criterion otherwise), each verified by exponentiation through the
    eigenbasis (:func:`_verified`); the lattice is set up only when the
    caller asks for more than L0.  The search records ``classes`` classes
    inside the ellipsoid (k = 0 included), ``unverified`` of them with a
    logarithm that exponentiation did not confirm, ``overflow`` when the
    enumeration gave up, and the ``derogatory`` cluster, whose
    non-primary logarithms it did not search; :meth:`failed` reads the
    verdict off them.

    Raises :class:`_Singular` when an eigenvalue is exactly 0, DomainError
    when the least eigenvalue modulus is nonzero but at most
    1e-12 max(1, largest), and NumericError when the eigenbasis is
    ill-conditioned and a has no principal logarithm, or when the search
    verifies no logarithm."""

    def __init__(self, a: np.ndarray, delta: float = 0.0):
        self.a = a = np.asarray(a, dtype=complex)
        self.delta = delta
        vals, vecs = np.linalg.eig(a)
        mods = np.abs(vals)
        if np.min(mods) <= 1e-12 * max(1.0, float(np.max(mods))):
            raise (DomainError if np.all(mods) else _Singular)(
                "singular matrix admits no logarithm")
        clusters = []
        assigned = np.full(len(vals), -1)
        for i in range(len(vals)):
            if assigned[i] >= 0:
                continue
            members = np.nonzero(np.abs(vals - vals[i]) <= 1e-8 * max(1.0, abs(vals[i])))[0]
            assigned[members] = len(clusters)
            clusters.append(members)
        self.vals, self.clusters = vals, clusters
        self.conditioned = bool(np.linalg.cond(vecs) < 1e8)
        if self.conditioned:
            self.vecs, self.inv_vecs, self.core = vecs, np.linalg.inv(vecs), np.diag(np.log(vals))
        else:
            try:
                self.core = mat_log_principal(a)
            except BranchError:
                raise NumericError("no verifiable logarithm candidate found") from None
            self.vecs = self.inv_vecs = np.eye(len(vals), dtype=complex)
        self.l0 = self.log([0] * len(clusters))
        self.classes, self.unverified, self.overflow, self.derogatory = 1, 0, False, None

    def _shift(self, combo) -> np.ndarray:
        """2 pi i k_j on the diagonal entries of cluster j."""
        shift = np.zeros(len(self.core), dtype=complex)
        for cluster, k in zip(self.clusters, combo):
            shift[cluster] = 2j * np.pi * k
        return shift

    def log(self, combo) -> np.ndarray:
        return self.vecs @ (self.core + np.diag(self._shift(combo))) @ self.inv_vecs

    def exp(self, combo) -> np.ndarray:
        if not self.conditioned:
            return mat_exp(self.log(combo))
        return (self.vecs * np.exp(np.diag(self.core) + self._shift(combo))) @ self.inv_vecs

    def decays(self, m: np.ndarray) -> bool:
        """Every eigenvalue of the logarithm m = L(k) has real part < 0: for
        a conditioned basis they are d_j + 2 pi i k_j, read off D; otherwise
        they are computed."""
        if self.conditioned:
            return float(np.max(np.diag(self.core).real)) < 0
        return float(np.max(np.linalg.eigvals(m).real)) < 0

    @property
    def ill_conditioned(self) -> bool:
        """An ill-conditioned eigenbasis with several clusters leaves only L0
        to test."""
        return not self.conditioned and len(self.clusters) > 1

    def __iter__(self):
        zero = [0] * len(self.clusters)
        if _verified(self, zero, self.a):
            yield self.l0
        else:
            self.unverified += 1
        shifts = [] if self.ill_conditioned else _lattice_shifts(self)
        self.overflow = shifts is None
        self.classes += len(shifts or [])
        self.derogatory = None if self.ill_conditioned else self._derogatory_cluster()
        for k in shifts or []:
            if _verified(self, k, self.a):
                yield self.log(k)
            else:
                self.unverified += 1
        if self.unverified == self.classes:
            raise NumericError("no verifiable logarithm candidate found")

    def _derogatory_cluster(self):
        """(eigenvalue, size, eigenvectors) of the first cluster with more
        than one eigenvector, the eigenvalue the mean of the cluster's; None
        when there is none.  With a conditioned basis each of the cluster's
        eigenvalues has its own eigenvector; otherwise the eigenvectors are
        counted as n - rank(a - lam I), with singular values at or below
        1e-8 max(1, |a|) counted as zero."""
        a, n = self.a, len(self.a)
        for idx in self.clusters:
            if len(idx) < 2:
                continue
            lam = complex(np.mean(self.vals[idx]))
            count = len(idx) if self.conditioned else n - int(np.linalg.matrix_rank(
                a - lam * np.eye(n), tol=1e-8 * max(1.0, float(np.linalg.norm(a)))))
            if count > 1:
                return lam, len(idx), count
        return None

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
        if self.derogatory:
            lam, size, count = self.derogatory
            return INCONCLUSIVE, (f"{notes}; the eigenvalue {lam:.6g} is derogatory, a cluster "
                                  f"of {size} with {count} eigenvectors, and its non-primary "
                                  "logarithms were not searched")
        return CONDITION_FAILS, notes


def _lattice_shifts(logs: _Logarithms):
    """Branch shifts k (one entry per cluster), one per class of the primary
    logarithms of *logs* with equal Herm L(k) and, for logs.delta != 0,
    equal delta L(k)^H e1, whose class can hold a logarithm that passes the
    criterion with tolerance ``_DISSIPATIVE_TOL`` (the split criterion at
    delta = 0, the u0 criterion otherwise), in the order 0, -1, 1, -2, ...
    per cluster after k = 0, which is left out; None when the ellipsoid
    holds more than ``_LATTICE_NODES`` enumeration nodes."""
    l0, delta = logs.l0, logs.delta
    count = len(logs.clusters)
    n = l0.shape[0]
    projectors = [logs.vecs[:, idx] @ logs.inv_vecs[idx, :] for idx in logs.clusters]
    gs = np.array([_hermitian(2j * np.pi * p) for p in projectors]).reshape(count, -1)
    # groups of clusters: join two whose eigenspaces are not orthogonal
    bases = [np.linalg.qr(logs.vecs[:, idx])[0] for idx in logs.clusters]
    group = list(range(count))
    for i, j in itertools.combinations(range(count), 2):
        if np.linalg.norm(bases[i].conj().T @ bases[j], 2) > _ORTHOGONAL_TOL:
            low, high = sorted((group[i], group[j]))
            group = [low if g == high else g for g in group]
    # P_j^H e1, the direction in which a shift of cluster j moves b
    moves = np.array([p[0].conj() for p in projectors])
    free = [j for j in range(count) if group[j] != j or delta and np.linalg.norm(
        sum(moves[i] for i in range(count) if group[i] == j)) > _ORTHOGONAL_TOL]
    h0 = _hermitian(l0)
    tau = float(np.trace(h0).real)
    b0 = delta * l0[0].conj()
    traceless2 = float(np.linalg.norm(h0)) ** 2 - tau * tau / n
    radius = abs(tau) + n * _DISSIPATIVE_TOL
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


def log_candidates(a: np.ndarray):
    """The logarithms of *a* that the split criterion tests when none
    passes: the principal logarithm L0 first, then one primary logarithm
    per further hermitian class inside the dissipativity ellipsoid
    (:func:`_lattice_shifts`), each verified by exponentiation through
    its eigenbasis (:meth:`_Logarithms.exp`).  An ill-conditioned
    eigenbasis (cond V >= 1e8) gives L0 alone."""
    return list(_Logarithms(a))


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
        return _certificate(nf, EMBEDDABLE, "elliptic_split_dissipative_log",
                            [Condition("unitary_part", 0.0, True)],
                            _split_matrix(theta, a1))
    logs = _Logarithms(a1)
    margins = []
    for idx, m in enumerate(logs):
        res = is_dissipative(m)
        margins.append(Condition(f"dissipativity[candidate {idx}]", -res.margin,
                                 res.margin <= _DISSIPATIVE_TOL))
        if res.margin <= _DISSIPATIVE_TOL and logs.decays(m):
            return _certificate(nf, EMBEDDABLE, "elliptic_split_dissipative_log", margins,
                                _split_matrix(theta, m),
                                notes=f"dissipative logarithm found (candidate {idx})")
    verdict, notes = logs.failed(f"no dissipative logarithm among {len(margins)} candidates",
                                 "hermitian class", "dissipativity")
    return _certificate(nf, verdict, "elliptic_split_dissipative_log", margins, notes=notes)


def _u0_margin(g: np.ndarray) -> float:
    """Exact margin of the u0 condition Re[delta <Mz,e1> |z|^2 - <Mz,z>] >= 0
    on the closed ball for G = [[M, 0], [delta e1^T M, 0]]: the unnormalised
    :func:`~lfmsemi.maps.pencil_margins` of X = J G + G^H J.  At x = (z, 1),
    |z| = 1, x^H X x / 2 is Re[<Mz,z> - delta (Mz)_1], so a margin >= 0 is
    the condition on the sphere (S-lemma); turning z by a phase there gives
    Re<Mz,z> <= -delta |(Mz)_1|, which carries it into the ball."""
    return float(pencil_margins(flow_form(g)[None])[0])


def embed_elliptic_u0(nf: NormalForm) -> EmbeddingCertificate:
    """Generator-positivity criterion for the (Ahat, delta) form.

    For each logarithm candidate M the condition
    Re[delta <Mz,e1> |z|^2 - <Mz,z>] >= 0 on the closed ball is decided
    exactly by the Krein-Smul'jan pencil of the homogeneous generator
    (:func:`_u0_margin`), the test the :class:`~lfmsemi.maps.BallMap`
    constructor runs on a map, with threshold -1e-10 and no samples.  The
    candidates are L0, then one primary logarithm per further class of
    (Herm M, delta M^H e1) inside the positivity ellipsoid
    (:func:`_lattice_shifts`), so the search is complete over the primary
    logarithms.
    """
    _expect_form(nf, FORM_ELLIPTIC_U0)
    ahat = nf.parameters["Ahat"]
    delta = float(nf.parameters["delta"])
    logs = _Logarithms(ahat, delta)
    margins = []
    for idx, m in enumerate(logs):
        g = _u0_matrix(m, delta)
        margin = _u0_margin(g)
        margins.append(Condition(f"generator_positivity[candidate {idx}]", margin,
                                 margin >= -_DISSIPATIVE_TOL))
        if margin >= -_DISSIPATIVE_TOL:
            return _certificate(nf, EMBEDDABLE, "elliptic_u0_generator_positivity", margins, g,
                                notes=f"candidate {idx}: min condition margin {margin:.3e}")
    verdict, notes = logs.failed(
        f"all {len(margins)} logarithm candidates violate the condition",
        "(Herm M, delta M^H e1) class", "positivity")
    return _certificate(nf, verdict, "elliptic_u0_generator_positivity", margins,
                        notes=notes)


# ---------------------------------------------------------------------------
# parabolic and hyperbolic criteria


def _siegel_log(f: SiegelMap) -> np.ndarray:
    """The principal logarithm G of the homogeneous matrix
    T = [[lam, 2i conj(a), b], [0, diag(mu), c], [0, 0, 1]] of an affine map
    f with a diagonal w-block: :class:`_SiegelFlow` at t = 1 inverted entry
    by entry.  With x = log lam and l = log mu on the principal branch,
    G = [[x, q, beta], [0, diag(l), gamma], [0, 0, 0]] where
    q = 2i conj(a) / DD1(x, l), gamma = c / DD1(l, 0) and
    beta = (b - sum_j q_j gamma_j DD2(x, l_j, 0)) / DD1(x, 0).  Its
    branch has the least |Im l|, which minimises every term of the
    flow-invariance margin (:func:`_flow_margin`).  Raises
    :class:`_Singular` when an eigenvalue mu_j is exactly 0."""
    mu = np.diag(f.M).astype(complex)
    if not np.all(mu):
        raise _Singular("zero eigenvalue admits no logarithm")
    x, l_diag = np.log(complex(f.lam)), np.log(mu)
    k = len(mu)
    coupled = np.flatnonzero(f.a * f.c)
    (dd,), dd2 = _affine_dds(x, l_diag, coupled, np.ones(1))
    q, gamma = 2j * np.conj(f.a) / dd[1:k + 1], f.c / dd[k + 1:]
    beta = complex(f.b)
    for j, d in zip(coupled, dd2):
        beta -= q[j] * gamma[j] * d[0]
    g = np.zeros((k + 2, k + 2), dtype=complex)
    g[0, 0], g[0, 1:-1], g[0, -1] = x, q, beta / dd[0]
    g[range(1, k + 1), range(1, k + 1)] = l_diag
    g[1:-1, -1] = gamma
    return g


def embed_parabolic(nf: NormalForm) -> EmbeddingCertificate:
    """Flow-invariance criterion for the parabolic normal form with a
    normal contraction block: the principal logarithm G of the normal map
    (:func:`_siegel_log`) must keep H_N (:func:`_flow_margin`).  The
    margin, Im b - |a|^2 - sum_j |c_j|^2 (u_j^2 + v_j^2) / (2 u_j |1 - mu_j|^2)
    for the eigenvalues mu_j = exp(-u_j + i v_j) of the block, is largest
    on the principal branch, whose v_j are least in modulus, so a failure
    is ``condition_fails``."""
    return _half_plane_criterion(nf, FORM_PARABOLIC)


def embed_hyperbolic(nf: NormalForm) -> EmbeddingCertificate:
    """Flow-invariance criterion for the hyperbolic normal form with a
    normal contraction block, as :func:`embed_parabolic`.  The margin is
    reported in units of Im b, the generator's times (lam - 1) / log(lam)."""
    return _half_plane_criterion(nf, FORM_HYPERBOLIC)


def _half_plane_criterion(nf: NormalForm, kind: str) -> EmbeddingCertificate:
    """The criterion of both Siegel cases, for nf of the form *kind*.  The
    target is nf's normal map with its contraction (w-) block A cut to its
    diagonal; A is the triangular Schur factor of the reduction, so it is
    normal iff diagonal, and an off-diagonal part above 1e-8 max(1, |A|)
    or a commutator [A, A^H] above 1e-10 max(1, |A|^2) is ``inconclusive``.
    Else the :func:`_flow_margin` of the target's principal logarithm G,
    in units of Im b, decides."""
    _expect_form(nf, kind)
    hyperbolic = kind == FORM_HYPERBOLIC
    criterion_id, name = (("hyperbolic_generator_invariance", "coefficient_budget") if hyperbolic
                          else ("parabolic_generator_invariance", "translation_budget"))
    a = nf.parameters["A"]
    scale = max(1.0, _frobenius(a))
    if (np.max(np.abs(a - np.diag(np.diag(a))), initial=0.0) > 1e-8 * scale
            or _frobenius(a @ a.conj().T - a.conj().T @ a) > 1e-10 * scale ** 2):
        return _certificate(nf, INCONCLUSIVE, criterion_id,
                            [Condition("contraction_block_normal", -1.0, False)], notes=(
                                "contraction block is not normal; the diagonal generator "
                                "does not apply"))
    target = dataclasses.replace(nf.normal_map, M=np.diag(np.diag(nf.normal_map.M)))
    g = _siegel_log(target)
    budget = _flow_margin(g)
    if hyperbolic:
        lam = float(nf.parameters["lam"])
        budget = budget * (lam - 1.0) / math.log(lam)
    margins = [Condition(name, budget, budget >= -MARGIN_TOL)]
    if budget < -MARGIN_TOL:
        return _certificate(nf, CONDITION_FAILS, criterion_id, margins, target=target, notes=(
            "the generator of the principal logarithm does not keep H_N, and the "
            "principal branch has the largest margin of the primary logarithms"))
    return _certificate(nf, EMBEDDABLE, criterion_id, margins, g, target)


# ---------------------------------------------------------------------------
# dimension 2 and automorphisms


def embed_dim2(f: BallMap) -> EmbeddingCertificate:
    """Embedding decision for self-maps of the two-dimensional ball; the
    Siegel cases are labelled by the catalogue of normal forms (scalar
    w-block)."""
    if f.dim != 2:
        raise DomainError("embed_dim2 expects a map of the two-dimensional ball")
    nf = normal_form(f)
    cert = certify(nf)
    label = {FORM_PARABOLIC: _parabolic_dim2_label,
             FORM_HYPERBOLIC: _hyperbolic_dim2_label}.get(nf.form_kind)
    if label is None:
        return cert
    return dataclasses.replace(cert, criterion_id=label(nf.parameters))


def _parabolic_dim2_label(prm: dict) -> str:
    _, q, r = prm["block_split"]
    return "dim2_parabolic_psi" + ("1" if r == 1 else "2" if q == 1 else "3")


def _hyperbolic_dim2_label(prm: dict) -> str:
    psi2 = prm["block_split"][2] == 1 and abs(prm["c_res"][0]) > 0
    return "dim2_hyperbolic_psi2" if psi2 else "dim2_hyperbolic_psi1"


def is_automorphism(f: BallMap) -> bool:
    """Automorphism test on the homogeneous matrix T: T^H J T = c J with
    c > 0 (J = diag(I_N, -1)), to within 1e-8 relative to ||T^H J T||_F."""
    s = pullback_form(f.to_proj().mat)
    c = -float(s[-1, -1].real)
    return bool(c > 0 and _frobenius(s - c * _krein_j(f.dim + 1)) <= 1e-8 * _frobenius(s))


def embed_map(f: BallMap) -> EmbeddingCertificate:
    """Classify and normalize f and run the embedding criterion of its case."""
    return certify(normal_form(f))


def certify(nf: NormalForm) -> EmbeddingCertificate:
    """Run the embedding criterion of nf's case; every criterion is
    deterministic and draws no sample.  A :class:`_Singular` map is
    ``condition_fails``: every member of a semigroup is injective."""
    try:
        return _case(nf.form_kind).criterion(nf)
    except _Singular:
        return _certificate(nf, CONDITION_FAILS, "invertibility",
                            [Condition("invertible", 0.0, False)],
                            notes="the homogeneous matrix is singular, so the map is not "
                                  "injective, while every member of a semigroup is")


def conditions_for(nf: NormalForm) -> list:
    """The checked normal-form conditions of nf's case (none for the
    elliptic forms)."""
    return _case(nf.form_kind).conditions(nf)


# ---------------------------------------------------------------------------
# semigroup families: at_many(ts) is exp(t G), built from the structure of G
# by one flow per domain, whose part that reads G alone is computed once


#: largest cond(V) at which :class:`_EigenExp` reads exp(t K) off K = V diag(l) V^-1;
#: every ball generator of the goldens and benchmark families has cond(V) <= 3.66
_EIGEN_FLOW_COND = 1e2


@dataclass(frozen=True)
class _EigenExp:
    """exp(t K) on grids of times t.  Where cond(V) <= _EIGEN_FLOW_COND it
    keeps K = V diag(lam) V^-1 from one eigendecomposition (the eigenvector
    method of Moler & Van Loan, SIAM Review 45, 2003); for a K whose
    eigenbasis is ill-conditioned or singular (a Jordan block), V and V^-1
    are None and each t K takes :func:`~lfmsemi.linalg.mat_exp`.  The
    eigenvalues lam are kept either way."""

    k: np.ndarray
    lam: np.ndarray
    v: Optional[np.ndarray]
    v_inv: Optional[np.ndarray]

    @classmethod
    def of(cls, k: np.ndarray) -> "_EigenExp":
        lam, v = np.linalg.eig(k)
        if not np.linalg.cond(v) <= _EIGEN_FLOW_COND:
            return cls(k, lam, None, None)
        return cls(k, lam, v, np.linalg.inv(v))

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        """exp(t K) for every time of ts, a (T, n, n) stack: every time's
        V diag(e^{t lam}) stacked into one (T n, n) product with V^-1, whose
        rows have the bits of one time's product, and the identity exactly
        at t = 0; or ``mat_exp`` of each t K.  Either way an overflow is a
        :class:`NumericError`, as in ``mat_exp``."""
        if self.v is None:
            return mat_exp(ts[:, None, None] * self.k)
        n = len(self.k)
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = self.v * np.exp(np.multiply.outer(ts, self.lam))[:, None, :]
            e = (scaled.reshape(-1, n) @ self.v_inv).reshape(len(ts), n, n)
        e[ts == 0.0] = np.eye(n)  # V V^-1 is I only up to rounding
        if not np.isfinite(e).all():
            raise NumericError("matrix exponential overflowed")
        return e


@dataclass(frozen=True)
class _BallFlow:
    """What the flow of a ball generator G = [[K, 0], [r^T, 0]] reads of G
    alone: exp(t K) (:class:`_EigenExp`), h of K^T h = r (None where
    r = 0), the flow margin of G and its spectral radius, that of
    eig K and 0."""

    exp: _EigenExp
    h: Optional[np.ndarray]
    margin: float
    rho: float

    @classmethod
    def of(cls, g: np.ndarray) -> "_BallFlow":
        """G's part of the flow.  The family is checked once, by G
        (:func:`~lfmsemi.maps._require_ball_flow`): a G whose flow leaves
        the ball raises :class:`DomainError`, and so does any other form of G."""
        if np.any(g[:, -1]):
            raise DomainError("the generator's last column is not zero; the ball flow ignores it")
        margin = _require_ball_flow(g)
        k, r = g[:-1, :-1], g[-1, :-1]
        exp = _EigenExp.of(k)
        return cls(exp, np.linalg.solve(k.T, r) if np.any(r) else None, margin,
                   float(np.max(np.abs(exp.lam), initial=0.0)))

    def maps(self, ts: np.ndarray) -> BallMap:
        """The maps exp(t G) = [[E, 0], [h^T (E - I), 1]] with E = exp(t K),
        so z -> E z / (<z, conj(h^T (E - I))> + 1).  A flow margin >= 0
        proves every exp(t G) a self-map, so the maps skip the per-map
        check of the :class:`~lfmsemi.maps.BallMap` constructor.  A margin
        within the slack below 0 proves none for a large t, and those maps
        get that check."""
        e = self.exp(ts)
        zeros = np.zeros(e.shape[:-1], dtype=complex)
        c = zeros if self.h is None else np.conj(self.h @ (e - np.eye(len(self.h))))
        if not np.isfinite(c).all():
            raise DomainError("entries of A, B and C must be finite")
        return (_trusted_ball_map if self.margin >= 0 else BallMap)(e, zeros, c)


@dataclass(frozen=True)
class _SiegelFlow:
    """What the flow of an affine generator G = [[x, q, beta],
    [0, diag(l), gamma], [0, 0, 0]] reads of G alone: its entries, the
    indices j where q_j gamma_j != 0 (*coupled*), and its spectral radius,
    the largest of |x|, |l_j| and 0."""

    x: complex
    q: np.ndarray
    beta: complex
    l_diag: np.ndarray
    gamma: np.ndarray
    coupled: np.ndarray
    rho: float

    @classmethod
    def of(cls, g: np.ndarray) -> "_SiegelFlow":
        """G's part of the flow; any other form of G is refused."""
        if np.any(g[1:, 0]) or np.any(g[-1]):
            raise DomainError("the generator's first column below the z-row or last row is not zero")
        l_block = g[1:-1, 1:-1]
        l_diag = np.diag(l_block)
        if np.any(l_block != np.diag(l_diag)):
            raise DomainError("the generator's w-block is not diagonal; the affine flow "
                              "is built for a diagonal block only")
        q, gamma = g[0, 1:-1], g[1:-1, -1]
        return cls(complex(g[0, 0]), q, complex(g[0, -1]), l_diag, gamma,
                   np.flatnonzero(q * gamma), float(np.abs(np.diag(g)).max()))

    def maps(self, ts: np.ndarray) -> SiegelMap:
        """The maps exp(t G).  G is upper triangular, so the entries of
        exp(t G) are divided differences of s -> e^{ts} at its diagonal
        (Higham, Functions of Matrices, Thm 4.11): the z-row e^{tx},
        q DD1(x, l) and beta DD1(x, 0) + sum_j q_j gamma_j DD2(x, l_j, 0),
        the w-block diag(e^{tl}) and gamma DD1(l, 0)."""
        x, q, gamma, l_diag = self.x, self.q, self.gamma, self.l_diag
        with np.errstate(over="ignore", invalid="ignore"):
            lam_t = np.exp(ts * x)
        beyond = ts[~np.isfinite(lam_t)]
        if beyond.size:
            t = float(beyond[0])
            raise NumericError(f"time {t!r}: t*log(lam) = {t * x.real:.6g} > 709, "
                               "so lam^t overflows a double")
        k = len(l_diag)
        dd, dd2 = _affine_dds(x, l_diag, self.coupled, ts)
        b_t = self.beta * dd[:, 0]
        for j, d in zip(self.coupled, dd2):
            b_t = b_t + q[j] * gamma[j] * d
        m_t = np.zeros((len(ts), k, k), dtype=complex)
        m_t[:, range(k), range(k)] = np.exp(ts[:, None] * l_diag)
        # q DD1(x, l) in real arithmetic: numpy's complex multiply rounds
        # differently in its loop for a grid than in its loop for one time, and
        # at_many(ts)[i] must have the bits of at(ts[i])
        d_re, d_im = dd[:, 1:k + 1].real, dd[:, 1:k + 1].imag
        q_dd = (q.real * d_re - q.imag * d_im) + 1j * (q.real * d_im + q.imag * d_re)
        return SiegelMap(lam_t, 0.5j * np.conj(q_dd), b_t, m_t, gamma * dd[:, k + 1:])


#: the flow of a family's generator on each domain (:meth:`SemigroupFamily.at_many`)
_FLOWS = {BALL: _BallFlow, SIEGEL: _SiegelFlow}


def _affine_dds(x: complex, l_diag: np.ndarray, coupled: np.ndarray, ts: np.ndarray):
    """The divided differences in the entries of exp(t G), one row per time
    of ts: DD1 at (x, 0), at (x, l_j) and at (l_j, 0) as columns of one
    array; DD2(x, l_j, 0) for each j of *coupled* (q_j gamma_j != 0)."""
    k = len(l_diag)
    dd = _dd1(np.concatenate([np.full(k + 1, x), l_diag]),
              np.concatenate([[0.0], l_diag, np.zeros(k)]), ts)
    return dd, [_dd2(x, l_diag[j], 0.0, ts) for j in coupled]


def _dd1(a: np.ndarray, b: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The first divided difference (e^{ta} - e^{tb}) / (a - b) of
    s -> e^{ts}, one row per time of ts and one column per entry of the
    equally long vectors a and b; t e^{ta} where a = b.  The point of larger
    real part is factored out, so expm1 sees an exponent of real part <= 0."""
    swap = a.real < b.real
    hi, lo = np.where(swap, b, a), np.where(swap, a, b)
    apart = lo != hi
    gap = np.where(apart, lo - hi, 1.0)
    t = ts[:, None]
    return np.exp(t * hi) * np.where(apart, np.expm1(t * gap) / gap, t)


#: terms of the Taylor series of :func:`_dd2`, whose (k+1) / (k+2)! bound
#: on term k is below 1e-19 at the last one
_DD2_TERMS = 20


def _dd2(a: complex, b: complex, c: complex, ts: np.ndarray) -> np.ndarray:
    """The second divided difference of s -> e^{ts} at (a, b, c), one entry
    per time of ts.  The points are ordered so that a and c are the widest
    pair, w = a - c: t^2/2 e^{tb} when w = 0.  Where |t w| <= 1 it is the
    Taylor series about b, t^2 e^{tb} sum_k h_k(t(a - b), t(c - b)) / (k + 2)!,
    h_k the complete homogeneous polynomial; else (DD1(a, b) - DD1(b, c)) / w,
    which then loses no more than a few ulps."""
    a, b, c = max(itertools.permutations((complex(a), complex(b), complex(c))),
                  key=lambda p: abs(p[0] - p[2]))
    w = a - c
    if w == 0:
        return ts * ts * 0.5 * np.exp(ts * b)
    out = np.empty(len(ts), dtype=complex)
    near = np.abs(ts * w) <= 1.0
    t = ts[near]
    ta, tc = t * (a - b), t * (c - b)
    h, total, scale = np.ones(len(t), dtype=complex), 0.5, 2.0
    for k in range(1, _DD2_TERMS + 1):
        h = ta * h + tc ** k
        scale *= k + 2
        total = total + h / scale
    out[near] = t * t * np.exp(t * b) * total
    far = _dd1(np.array([a, b]), np.array([b, c]), ts[~near])
    out[~near] = (far[:, 0] - far[:, 1]) / w
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
    conditions: Callable  # NormalForm -> checked normal-form conditions
    criterion: Callable  # NormalForm -> EmbeddingCertificate


_CASES = {
    FORM_ELLIPTIC_SPLIT: _Case("elliptic_split", lambda nf: [],
                               lambda nf: embed_elliptic_split(nf)),
    FORM_ELLIPTIC_U0: _Case("elliptic_u0", lambda nf: [],
                            lambda nf: embed_elliptic_u0(nf)),
    FORM_PARABOLIC: _Case("parabolic", lambda nf: parabolic_conditions(nf),
                          lambda nf: embed_parabolic(nf)),
    FORM_HYPERBOLIC: _Case("hyperbolic", lambda nf: hyperbolic_conditions(nf),
                           lambda nf: embed_hyperbolic(nf)),
}


def _case(kind: str) -> _Case:
    if kind not in _CASES:
        raise DomainError(f"unknown case kind {kind}")
    return _CASES[kind]


def build_semigroup(cert: EmbeddingCertificate) -> SemigroupFamily:
    """Materialize the family licensed by an embeddable certificate, the
    flow of its generator G on the domain of its target map, H_N for a
    ``SiegelMap`` and the ball for a ``BallMap``; ``at(1)`` reproduces it."""
    if cert.verdict != EMBEDDABLE or cert.G is None:
        raise DomainError("build_semigroup requires an embeddable certificate")
    domain = {SiegelMap: SIEGEL, BallMap: BALL}.get(type(cert.target))
    if domain is None:
        raise DomainError(f"no domain for a target of type {type(cert.target).__name__}")
    return SemigroupFamily(cert.family, cert.G, domain, cert.target)


def generator(sg: SemigroupFamily):
    """Infinitesimal generator of the family, d(phi_t)/dt = G o phi_t: the
    vector field z -> (Gx)[:N] - (Gx)[N] z, x = (z, 1), of the
    family's homogeneous generator G.  It takes one point or an array of
    points along its last axis, such as a (K, N) array of rows; a point of
    another width raises :class:`DimensionError`."""
    g = sg.G

    def field(z):
        z = _complex_array(z)
        if z.shape[-1:] != (sg.dim,):
            raise DimensionError(f"points must have {sg.dim} coordinates, got shape {z.shape}")
        gx = z @ g[:, :-1].T + g[:, -1]
        return gx[..., :-1] - gx[..., -1:] * z

    return field


def _expect_form(nf: NormalForm, kind: str) -> None:
    if nf.form_kind != kind:
        raise DomainError(f"expected a {kind} normal form, got {nf.form_kind}")
