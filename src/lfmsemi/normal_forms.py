"""Constructive reduction of classified maps to their normal forms.

Each reduction returns a :class:`NormalForm` carrying the simplified
map, the named parameters the embedding criteria consume, and the
explicit conjugation chain that transports the input onto the normal
map.  Chains are lists of :class:`~lfmsemi.maps.ProjMap`; their
composition s (first element applied first) satisfies
``normal_map = s o f o s^-1`` pointwise.

There are four cases, one per ``FORM_*`` kind.  :func:`normal_form` is
the one place that classifies and the one place that branches on a
:class:`~lfmsemi.maps.Classification` to pick the reducer; each reducer
takes that classification, with its fixed points and multipliers, as a
required argument.  The two elliptic reducers centre the map with
:func:`~lfmsemi.maps.ball_automorphism` (:func:`_centered`).  Each case
builds its normal map with one builder (:func:`split_normal_map`,
unchecked as its reducer proves it a self-map, :func:`u0_normal_map`,
checked, :func:`siegel_normal_map`); the semigroup families of
:mod:`lfmsemi.embedding` are built from their generators instead.  A fifth
case adds its reducer and builder here, its branch in :func:`normal_form`,
and its row in ``embedding._CASES``.

Block conventions on the Siegel side: the w-coordinates of an affine
self-map split into a u-block (block matrix eigenvalue 1), a v-block
(unimodular eigenvalues != 1, diagonal D) and a w-block (strict
contraction A), any of which may be empty.  Both Siegel cases are one
reduction with one Heisenberg move (:func:`_affine_normal_form`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericError, WrongFormError
from .linalg import (
    UNIMODULAR_TOL,
    schur_form,
    schur_margins,
    spectral_norm,
    unimodular_count,
    unitary_with_first_column,
)
from .maps import (
    BallMap,
    Classification,
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    ProjMap,
    SiegelMap,
    _change_of_variable,
    _read_unchecked,
    _siegel_chain,
    _siegel_proj,
    _trusted_ball_map,
    ball_automorphism,
    classify,
    conjugate,
    pointwise_distance,
    sample_ball_points,
    sample_siegel_points,
    siegel_map_from_proj,
    to_proj,
)

FORM_ELLIPTIC_SPLIT = "elliptic_unitary_split"
FORM_ELLIPTIC_U0 = "elliptic_u0"
FORM_PARABOLIC = "parabolic_siegel"
FORM_HYPERBOLIC = "hyperbolic_siegel"

#: structural residuals (quantities the theory forces to vanish) must
#: stay below this before they are snapped to exact zeros
SNAP_TOL = 1e-7

#: |1 - sqrt(lam) * A_jj| at or below this marks a resonant contraction
#: eigenvalue whose translation component cannot be rotated away
RESONANCE_TOL = 1e-6

#: a normal-form condition passes when its margin is at least -CONDITION_TOL
#: (:func:`siegel_conditions`, :func:`parabolic_conditions`,
#: :func:`hyperbolic_conditions`)
CONDITION_TOL = 1e-8

#: a contraction block (the elliptic A1 and Ahat) must have spectral
#: radius below 1 - CONTRACTION_TOL
CONTRACTION_TOL = 1e-9


@dataclass(frozen=True)
class Condition:
    """One checked normal-form condition with its numeric margin."""

    name: str
    margin: float
    passed: bool


@dataclass(frozen=True)
class NormalForm:
    form_kind: str
    normal_map: BallMap | SiegelMap
    conjugations: list
    parameters: dict


def chain_map(conjugations: list) -> ProjMap:
    """Compose a conjugation chain into a single map (first applied first)."""
    if not conjugations:
        raise DomainError("empty conjugation chain")
    total = to_proj(conjugations[0])
    for step in conjugations[1:]:
        total = total.then(to_proj(step))
    return total


def conjugation_residual(nf: NormalForm, f: BallMap) -> float:
    """Pointwise distance between chain o f o chain^-1 and the normal map,
    over 100 sample points of the normal map's domain."""
    g, sampler = f, sample_ball_points
    if nf.conjugations:
        total = chain_map(nf.conjugations)
        g = _read_unchecked(conjugate(to_proj(f), total))  # only evaluated
        sampler = sample_ball_points if total.codomain == "ball" else sample_siegel_points
    return pointwise_distance(g, nf.normal_map, sampler(f.dim, 100))


def _require(value: float, tol: float, what: str) -> None:
    if value > tol:
        raise NumericError(f"{what} = {value:.3e} exceeds tolerance {tol:.1e}")


def normal_form(f: BallMap, cls: Optional[Classification] = None) -> NormalForm:
    """Reduce f to the normal form of its case, classifying it first
    unless the caller passes its classification: the one place that
    classifies for a reduction, as the reducers take theirs.

    Elliptic maps split on the unitary index the classification carries:
    at least 1 gives the unitary split, 0 the (Ahat, delta) form.
    """
    cls = classify(f) if cls is None else cls
    if cls.kind == ELLIPTIC:
        if cls.unitary_index >= 1:
            return elliptic_split(f, cls)
        return elliptic_u0(f, cls)
    if cls.kind == PARABOLIC:
        return parabolic_normal_form(f, cls)
    return hyperbolic_normal_form(f, cls)


# ---------------------------------------------------------------------------
# elliptic forms


def split_normal_map(lam: np.ndarray, a1: np.ndarray) -> BallMap:
    """The linear map blockdiag(diag(lam), a1), with the bits of the checked
    :class:`BallMap` but unchecked: the caller proves |lam_j| = 1 and
    ||a1|| <= 1 + 1e-10 (:func:`elliptic_split`), so the constructor's margin,
    lambda_min(mu J - S) / ||S||_F with S = diag(A^H A, -1), is >= -1e-10."""
    u = len(lam)
    n = u + a1.shape[-1]
    amat = np.zeros((n, n), dtype=complex)
    amat[range(u), range(u)] = lam
    amat[u:, u:] = a1
    return _trusted_ball_map(amat, np.zeros(n, dtype=complex), np.zeros(n, dtype=complex))


def u0_normal_map(ahat: np.ndarray, delta: float) -> BallMap:
    """z -> Ahat z / (<z, c> + 1) with c = delta (Ahat^H - I) e1."""
    n = len(ahat)
    return BallMap(ahat, np.zeros(n, dtype=complex), delta * (ahat[0].conj() - np.eye(n)[0]))


def _centered(f: BallMap, cls: Classification):
    """Move the first interior fixed point of f's classification to the
    origin with :func:`~lfmsemi.maps.ball_automorphism`; returns
    (map, chain).  The centred map is only read, so it skips the self-map
    check, and its translation must vanish."""
    if not cls.interior_fixed_points:
        raise DomainError("map has no interior fixed point")
    z0 = cls.interior_fixed_points[0]
    if np.linalg.norm(z0) < 1e-12:
        g, chain = f, []
    else:
        mover = ball_automorphism(z0).to_proj()
        g, chain = _read_unchecked(conjugate(to_proj(f), mover)), [mover]
    _require(float(np.linalg.norm(g.B)), SNAP_TOL, "residual translation after centering")
    return g, chain


def elliptic_split(f: BallMap, cls: Classification) -> NormalForm:
    """Reduce an elliptic map with unitary index >= 1 to its linear
    (diagonal-unitary, contraction) block form."""
    g, chain = _centered(f, cls)
    u = cls.unitary_index
    if u == 0:
        raise WrongFormError("unitary index is 0; use elliptic_u0 instead")
    _require(float(np.linalg.norm(g.C)), SNAP_TOL,
             "denominator part of a unitary-index >= 1 elliptic map")
    form, lam, a1 = _unimodular_split(g.A)
    if len(lam) != u:
        raise NumericError(f"unitary index {u}, but {len(lam)} on the Schur diagonal")
    norm = spectral_norm(a1) if a1.size else 0.0
    if norm > 1.0 + 1e-10:
        raise NumericError("contraction block has operator norm above 1")
    # the contraction block's Schur vectors are unique up to phases: in each
    # column, make the entry nearest the diagonal above SNAP_TOL ||A1|| real
    # and >= 0 (no turn when there is none, its phase being rounding)
    turn = np.zeros(len(a1))
    for j in range(1, len(a1)):
        rows = np.flatnonzero(np.abs(a1[:j, j]) > SNAP_TOL * norm)
        if rows.size:
            turn[j] = turn[rows[-1]] + np.angle(a1[rows[-1], j])
    phase = np.exp(-1j * turn)
    a1 = phase.conj()[:, None] * a1 * phase
    unitary = np.vstack([form.unitary[:u], phase.conj()[:, None] * form.unitary[u:]])
    return NormalForm(FORM_ELLIPTIC_SPLIT, split_normal_map(lam, a1),
                      chain + [_change_of_variable(unitary)], {"Lambda": lam, "A1": a1, "u": u})


def elliptic_u0(f: BallMap, cls: Classification) -> NormalForm:
    """Reduce an elliptic map with unique fixed point and unitary index 0
    to the (Ahat, delta) denominator form.  Unitary index 0 says that no
    multiplier lies within UNIMODULAR_TOL of the unit circle, so none
    within it of 1, and I - A^H is invertible."""
    g, chain = _centered(f, cls)
    if cls.unitary_index > 0:
        raise WrongFormError("unitary index is positive; use elliptic_split instead")
    v = np.linalg.solve(g.A.conj().T - np.eye(f.dim), g.C)
    delta = float(np.linalg.norm(v))
    if delta > 1.0 + 1e-9:
        raise NumericError(f"normal-form delta = {delta} exceeds 1")
    rot_mat = np.eye(f.dim) if delta < 1e-12 else unitary_with_first_column(v).conj().T
    delta = 0.0 if delta < 1e-12 else min(delta, 1.0)
    ahat = rot_mat @ g.A @ rot_mat.conj().T  # similar to A: its eigenvalues are the multipliers
    if np.max(np.abs(cls.multipliers)) >= 1.0 - CONTRACTION_TOL:
        raise NumericError("contraction matrix has spectral radius too close to 1")
    return NormalForm(FORM_ELLIPTIC_U0, u0_normal_map(ahat, delta),
                      chain + [_change_of_variable(rot_mat)], {"Ahat": ahat, "delta": delta})


# ---------------------------------------------------------------------------
# the affine self-map conditions on the Siegel side


def siegel_conditions(s: SiegelMap) -> list:
    """The three affine self-map conditions with numeric margins, those of
    the bordered test [[Q, x], [x^H, Im b - |c|^2]] >= 0 with
    Q = lam I - M^H M, x = M^H c - a (:func:`~lfmsemi.linalg.schur_margins`).

    P1: Q positive semi-definite and lam real (lam > 0 when N = 1),
    P2: the Schur complement Im b - |c|^2 - <Q+ x, x> >= 0,
    P3: x lies in the range of Q.

    Each passes with a margin of at least -CONDITION_TOL.
    """
    tol = CONDITION_TOL
    lam, m, a, b, c = s.lam, s.M, s.a, s.b, s.c
    psd, margin2, margin3, _ = schur_margins(_defect(m, lam.real), m.conj().T @ c - a,
                                             b.imag - float(np.vdot(c, c).real))
    margin1 = -abs(lam.imag) if abs(lam.imag) > tol else psd if m.size else float(lam.real)
    return [
        Condition("P1", margin1, margin1 >= -tol),
        Condition("P2", margin2, margin2 >= -tol),
        Condition("P3", margin3, margin3 >= -tol),
    ]


# ---------------------------------------------------------------------------
# the parabolic and hyperbolic forms: block split of the w-part, one reduction


def _unimodular_split(m: np.ndarray):
    """The Schur form of m with its unimodular eigenvalues first, as
    counted on its diagonal, and the blocks of its triangle: the unimodular
    eigenvalues, snapped to modulus 1 (their block must be diagonal and
    uncoupled from the rest up to SNAP_TOL), and the contraction block,
    whose eigenvalues must stay below 1 - CONTRACTION_TOL in modulus.  Returns
    (form, lam, a1)."""
    form = schur_form(m, sort=lambda lam: abs(abs(lam) - 1) <= UNIMODULAR_TOL)
    t = form.upper_triangular
    u = unimodular_count(np.diag(t))
    _require(float(np.max(np.abs(t[:u, u:]), initial=0.0)), SNAP_TOL,
             "coupling between unimodular and contraction blocks")
    block = t[:u, :u]
    _require(float(np.max(np.abs(block - np.diag(np.diag(block))), initial=0.0)),
             SNAP_TOL, "off-diagonal part of the unimodular block")
    lam = np.diag(block).copy()
    lam /= np.abs(lam)  # snap to exactly unimodular
    a1 = t[u:, u:]
    if a1.size and np.max(np.abs(np.diag(a1))) >= 1.0 - CONTRACTION_TOL:  # a1 is triangular
        raise NumericError("contraction block has spectral radius too close to 1")
    return form, lam, a1


def _split_blocks(m: np.ndarray):
    """Unitary W with W M W^H = blockdiag(I_p, D, A), where the unimodular
    eigenvalues within 1e-8 of 1 make up I_p; returns
    (W, p, q, r, d_diag, a_block)."""
    k = m.shape[0]
    if k == 0:
        return np.eye(0, dtype=complex), 0, 0, 0, np.zeros(0, dtype=complex), np.zeros((0, 0), dtype=complex)
    form, uni, a_block = _unimodular_split(m)
    nuni = len(uni)
    near_one = np.abs(uni - 1.0) <= 1e-8
    ones, others = np.flatnonzero(near_one), np.flatnonzero(~near_one)
    rows = np.concatenate([ones, others, np.arange(nuni, k)])
    w = np.eye(k)[rows] @ form.unitary  # rows reordered
    return w, len(ones), len(others), k - nuni, uni[others], a_block


def siegel_normal_map(lam, a, d, w_block, c, c_res, b, scale) -> SiegelMap:
    """The affine map shared by the parabolic and hyperbolic forms,
    (z, u, v, w) -> (lam z + 2i<u,a> + 2i<w,c> + b, s u + a, s D v, s W w + c_res)
    with block sizes (len(a), len(d), len(c)) and s = *scale*.
    """
    p, q, r = len(a), len(d), len(c)
    m = np.zeros((p + q + r, p + q + r), dtype=complex)
    m[range(p), range(p)] = 1.0
    m[range(p, p + q), range(p, p + q)] = d
    m[p + q:, p + q:] = w_block
    zeros = np.zeros(q)
    return SiegelMap(lam, np.concatenate([a, zeros, c], dtype=complex), b,
                     scale * m,
                     np.concatenate([a, zeros, c_res], dtype=complex))


def parabolic_normal_form(f: BallMap, cls: Classification) -> NormalForm:
    """Reduce a parabolic map to
    (z + 2i<u,a> + 2i<w,c> + b, u + a, D v, A w)."""
    return _affine_normal_form(f, cls, PARABOLIC)


def hyperbolic_normal_form(f: BallMap, cls: Classification) -> NormalForm:
    """Reduce a hyperbolic map to
    (lam z + 2i<w,c> + b, sqrt(lam) u, sqrt(lam) D v, sqrt(lam) A w [+ c_res]).

    The w-block translation is rotated into the z-row coefficient c
    wherever 1 - sqrt(lam) A_jj is nonsingular; resonant eigenvalues
    (|1 - sqrt(lam) A_jj| <= RESONANCE_TOL, only possible with a
    diagonal contraction block) keep their translation component,
    reported separately as c_res.
    """
    return _affine_normal_form(f, cls, HYPERBOLIC)


def _affine_normal_form(f: BallMap, cls: Classification, kind: str) -> NormalForm:
    """The one reduction of both Siegel cases; the parabolic form is the
    hyperbolic one at lam = 1.  Take the affine Siegel form, with
    s = sqrt(lam), move the w-part to s blockdiag(I_p, D, A) by a unitary,
    then make one Heisenberg move by gamma = (s M - I)^-1 c on every block
    where s M - I is invertible: the u-block only when lam > 1, the v-block
    always, and the w-block except on the resonant entries of a diagonal
    A, where gamma removes the z-row coefficient instead.  The move sends
    c to c - (M - I) gamma and a to a - (lam - M^H) gamma."""
    if cls.kind != kind:
        raise DomainError(f"{kind}_normal_form expects a {kind} map, got {cls.kind}")
    s, chain = _siegel_chain(f, cls.dw_point)
    hyperbolic = kind == HYPERBOLIC
    if hyperbolic:
        _require(abs(s.lam.imag), 1e-8, "imaginary part of the hyperbolic dilation")
        lam = float(s.lam.real)
        if lam <= 1.0 + 1e-9:
            raise NumericError(f"hyperbolic Siegel dilation {lam} is not > 1")
    else:
        _require(abs(s.lam - 1.0), 1e-6, "parabolic Siegel dilation minus 1")
        lam = 1.0
    sq = np.sqrt(lam)
    w, p, q, r, d_diag, a_block = _split_blocks(s.M / sq)
    if s.M.shape[0]:
        s, chain = _moved(s, chain, _siegel_proj(1.0, 0.0, 0.0, w, 0.0))  # (z, w) -> (z, W w)
    diag = np.diag(a_block)  # the eigenvalues of the triangular block
    # resonance, sq A_jj = 1, needs lam > 1: a parabolic A_jj stays below 1
    res = np.abs(1.0 - sq * diag) <= RESONANCE_TOL if hyperbolic else np.zeros(r, dtype=bool)
    gamma = np.zeros(p + q + r, dtype=complex)
    if hyperbolic:
        gamma[:p] = s.c[:p] / (sq - 1.0)
    if q:
        gamma[p:p + q] = np.linalg.solve(sq * np.diag(d_diag) - np.eye(q), s.c[p:p + q])
    if r and hyperbolic and _is_diagonal(a_block):  # entry by entry, so resonance can be set apart
        gamma_w = gamma[p + q:]  # a view
        gamma_w[~res] = s.c[p + q:][~res] / (sq * diag[~res] - 1.0)
        gamma_w[res] = s.a[p + q:][res] / -(sq * np.conj(diag[res]) - lam)
    elif r:
        if np.any(res):
            raise NumericError("resonant non-diagonal contraction block; cannot normalize")
        gamma[p + q:] = np.linalg.solve(sq * a_block - np.eye(r), s.c[p + q:])
    if len(gamma) > (0 if hyperbolic else p):  # a parabolic map keeps its u-translation
        beta = 1j * float(np.vdot(gamma, gamma).real)  # the Heisenberg translation by gamma
        s, chain = _moved(s, chain, _siegel_proj(1.0, gamma, beta, np.eye(len(gamma)), gamma))
    # structural zeros forced by the self-map conditions
    if hyperbolic:
        residuals = {"u/v coefficients after translation removal": s.a[:p + q],
                     "w-translation after conversion": s.c[p + q:][~res],
                     "z-row coefficient on resonant entries": s.a[p + q:][res]}
    else:
        residuals = {"v/w translations after elimination": s.c[p:],
                     "v-part of the translation pairing": s.a[p:p + q],
                     "mismatch between u-translation and its pairing coefficient":
                         s.a[:p] - s.c[:p]}
    for what, residual in residuals.items():
        _require(float(np.max(np.abs(residual), initial=0.0)), SNAP_TOL, what)
    c_vec = np.where(res, 0.0, s.a[p + q:])
    c_res = np.where(res, s.c[p + q:], 0.0)
    b = complex(s.b)
    a_vec = np.zeros(p) if hyperbolic else s.c[:p].copy()
    params = {"D": d_diag, "A": a_block, "c": c_vec, "b": b, "block_split": (p, q, r),
              **({"lam": lam, "c_res": c_res} if hyperbolic else {"a": a_vec})}
    normal_map = siegel_normal_map(lam, a_vec, d_diag, a_block, c_vec, c_res, b, sq)
    return NormalForm(FORM_HYPERBOLIC if hyperbolic else FORM_PARABOLIC, normal_map, chain, params)


def parabolic_conditions(nf: NormalForm) -> list:
    """Margins of the four parabolic normal-form conditions: D avoids 1,
    and the bordered test [[I - A^H A, c], [c^H, Im b - |a|^2]] >= 0."""
    tol = CONDITION_TOL
    d_diag = np.atleast_1d(nf.parameters["D"])
    a_block, a_vec, c_vec, b = (nf.parameters[key] for key in ("A", "a", "c", "b"))
    margin1 = float(np.min(np.abs(d_diag - 1.0))) if d_diag.size else 1.0
    margin2, margin3, margin4, _ = schur_margins(_defect(a_block), c_vec,
                                                 b.imag - float(np.vdot(a_vec, a_vec).real))
    return [
        Condition("D_spectrum_avoids_1", margin1, margin1 > UNIMODULAR_TOL),
        Condition("Q_psd", margin2, margin2 >= -tol),
        Condition("translation_budget", margin3, margin3 >= -tol),
        Condition("c_in_range_of_Q", margin4, margin4 >= -tol),
    ]


def hyperbolic_conditions(nf: NormalForm) -> list:
    """Margins of the hyperbolic normal-form conditions.

    Structural checks (D avoids 1, I - A^H A psd, which has the spectrum
    of I - A A^H, A^H c_res in its range) plus the generic affine self-map
    conditions of the normal map itself.
    """
    tol = CONDITION_TOL
    d_diag = np.atleast_1d(nf.parameters["D"])
    a_block = nf.parameters["A"]
    margin1 = float(np.min(np.abs(d_diag - 1.0))) if d_diag.size else 1.0
    x = a_block.conj().T @ nf.parameters["c_res"]
    margin2, _, margin4, _ = schur_margins(_defect(a_block), x, 0.0)
    return [
        Condition("D_spectrum_avoids_1", margin1, margin1 > UNIMODULAR_TOL),
        Condition("Q_and_P_psd", margin2, margin2 >= -tol),
        Condition("AHc_in_range_of_Q", margin4, margin4 >= -tol),
    ] + siegel_conditions(nf.normal_map)


# ---------------------------------------------------------------------------
# helpers


def _moved(s: SiegelMap, chain: list, mover: SiegelMap | ProjMap):
    """s conjugated by *mover*, and the chain extended by its
    :class:`ProjMap`."""
    step = to_proj(mover)
    return siegel_map_from_proj(step.inverse().then(s.to_proj()).then(step)), chain + [step]


def _defect(m: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """The hermitian matrix lam I - M^H M (0 x 0 for an empty M)."""
    q = lam * np.eye(m.shape[1]) - m.conj().T @ m
    return (q + q.conj().T) / 2.0


def _is_diagonal(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - np.diag(np.diag(m))), initial=0.0) <= 1e-12)
