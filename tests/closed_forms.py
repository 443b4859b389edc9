"""The closed-form generators of the parabolic and hyperbolic families,
kept as a test oracle.

The library builds both generators with one divided-difference logarithm
of the normal map (``lfmsemi.embedding._siegel_log``).  Before that, each
case had its own closed form, written here as it was: the principal
logarithm of each eigenvalue of the contraction block (:func:`log_principal`),
the cocycle rate eps / (e^eps - 1) of the translations
(:func:`cocycle_rate`) and the two affine matrices
(:func:`parabolic_matrix`, :func:`hyperbolic_matrix`).  :func:`closed_form_data`
rebuilds from a normal form the data each certificate carried next to G,
for tests that compare a family with the closed forms of its case.
"""

from __future__ import annotations

import math

import numpy as np

from lfmsemi.errors import DomainError
from lfmsemi.normal_forms import FORM_ELLIPTIC_SPLIT, FORM_ELLIPTIC_U0, FORM_PARABOLIC


def expm1c(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z| (complex z)."""
    x, y = z.real, z.imag
    em = math.expm1(x)
    ex = em + 1.0
    return complex(em - ex * 2.0 * math.sin(y / 2.0) ** 2, ex * math.sin(y))


def log_principal(lam: complex) -> complex:
    """Principal logarithm log|lam| + i arg(lam), arg in (-pi, pi], of a
    nonzero strict contraction."""
    mod = abs(lam)
    if mod >= 1.0:
        raise DomainError(f"eigenvalue {lam} is not a strict contraction")
    if mod == 0.0:
        raise DomainError("zero eigenvalue admits no logarithm")
    return complex(math.log(mod), math.atan2(lam.imag, lam.real))


def cocycle_rate(eps) -> np.ndarray:
    """d/dt at t=0 of the cocycle ratio: eps / (exp(eps) - 1), 1 at 0."""
    eps = np.atleast_1d(np.asarray(eps, dtype=complex))
    out = np.ones(len(eps), dtype=complex)
    big = np.abs(eps) >= 1e-13
    if np.any(big):
        out[big] = eps[big] / np.array([expm1c(v) for v in eps[big].tolist()], dtype=complex)
    return out


def affine_matrix(alpha: float, beta: complex, p: np.ndarray, l_diag: np.ndarray,
                  gamma: np.ndarray, k: int) -> np.ndarray:
    """The generator of (z, w) -> (alpha z + 2i<w, p> + beta, diag(l_diag) w
    + gamma), w in C^k, with p and gamma given by their last entries."""
    g = np.zeros((k + 2, k + 2), dtype=complex)
    g[0, 0], g[0, -1] = alpha, beta
    g[0, k + 1 - len(p):k + 1] = 2j * np.conj(p)
    g[range(1, k + 1), range(1, k + 1)] = l_diag
    g[k + 1 - len(gamma):k + 1, -1] = gamma
    return g


def parabolic_matrix(d: dict) -> np.ndarray:
    """The generator of the parabolic family of data d: the z-row carries
    2i conj(a) on u, 2i conj(c'(0)) on w and alpha, the u-column a."""
    a, m_diag = d["a"], d["m_diag"]
    p, q, r = d["split"]
    g = affine_matrix(0.0, d["alpha"], cocycle_rate(np.conj(m_diag)) * d["c"],
                      np.concatenate([np.zeros(p), 1j * d["theta_D"], m_diag]), [], p + q + r)
    g[0, 1:p + 1], g[1:p + 1, -1] = 2j * np.conj(a), a
    return g


def hyperbolic_matrix(d: dict) -> np.ndarray:
    """The generator of the hyperbolic family of data d: z-row log(lam),
    2i conj(a'(0)) on w and b'(0); diagonal log(lam)/2 + (0, i theta_D,
    m_diag); last column the resonant translation rates."""
    lam, m_diag = d["lam"], d["m_diag"]
    p, q, r = d["split"]
    log_lam = math.log(lam)
    m_bar = np.conj(m_diag)
    adot0 = (log_lam / 2.0 - m_bar) / (lam - math.sqrt(lam) * np.exp(m_bar)) * d["c"]
    return affine_matrix(log_lam, log_lam / (lam - 1.0) * d["b"], adot0,
                         0.5 * log_lam + np.concatenate([np.zeros(p), 1j * d["theta_D"], m_diag]),
                         cocycle_rate(0.5 * log_lam + m_diag) * d["c_res"], p + q + r)


def siegel_data(nf) -> dict:
    """The closed-form data of a parabolic or hyperbolic normal form with a
    diagonal contraction block: theta_D = arg D, m_diag (the principal
    logarithms of the block's eigenvalues), split, and a, c, alpha
    (parabolic) or lam, c, c_res, b (hyperbolic)."""
    prm = nf.parameters
    q = prm["block_split"][1]
    d_diag = np.atleast_1d(prm["D"]) if q else np.zeros(0, dtype=complex)
    data = {"theta_D": np.angle(d_diag).astype(float),
            "m_diag": np.array([log_principal(mu) for mu in np.diag(prm["A"]).astype(complex)],
                               dtype=complex),
            "split": prm["block_split"], "c": prm["c"]}
    b = complex(prm["b"])
    if nf.form_kind == FORM_PARABOLIC:
        a = prm["a"]
        return {**data, "a": a, "alpha": complex(b.real, b.imag - float(np.vdot(a, a).real))}
    return {**data, "lam": float(prm["lam"]), "c_res": prm["c_res"], "b": b}


def siegel_matrix(nf) -> np.ndarray:
    """The closed-form generator of a parabolic or hyperbolic normal form."""
    build = parabolic_matrix if nf.form_kind == FORM_PARABOLIC else hyperbolic_matrix
    return build(siegel_data(nf))


def closed_form_data(nf, g: np.ndarray) -> dict:
    """The data of the closed forms of nf's case for the certificate's
    generator G: theta, u and M (split, M the block of G after u), M and
    delta (u0, M the top-left block of G), or :func:`siegel_data`."""
    if nf.form_kind == FORM_ELLIPTIC_SPLIT:
        theta = np.angle(nf.parameters["Lambda"]).real.astype(float)
        u = len(theta)
        return {"theta": theta, "u": u, "M": g[u:-1, u:-1]}
    if nf.form_kind == FORM_ELLIPTIC_U0:
        return {"M": g[:-1, :-1], "delta": float(nf.parameters["delta"])}
    return siegel_data(nf)
