"""The paper's diagonal theta budgets for the parabolic and hyperbolic
embedding conditions, kept as a test oracle.

The weights evaluate each contraction eigenvalue lam = exp(-u + iv) at
v in [0, 2pi), so a budget that holds is sufficient for embedding, and the
exact flow-invariance test of :mod:`lfmsemi.embedding`, which takes the
principal branch (least |v|), accepts every map the budget accepts.
"""

from __future__ import annotations

import math

import numpy as np

from lfmsemi.errors import DomainError

from closed_forms import expm1c


def scalar_h_parabolic(u: float, v: float, t: float) -> float:
    """|1 - exp(t(-u+iv))|^2 / ((1 - exp(-2tu)) t).

    Bounded above by (u^2 + v^2) / (2u), the t -> 0+ limit.
    """
    if u <= 0 or t <= 0 or v < 0:
        raise DomainError("scalar_h_parabolic needs u > 0, v >= 0, t > 0")
    num = abs(expm1c(complex(-u * t, v * t))) ** 2
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
    num = abs(expm1c(complex(u * t, v * t))) ** 2
    den = (-math.expm1(-lam * t)) * (-math.expm1((lam + 2 * u) * t))
    return num / den


def log_polar(lam: complex):
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


def theta_parabolic(contraction_eigs) -> np.ndarray:
    """Diagonal weights (u_j^2 + v_j^2) / (2 u_j |1 - lam_j|^2)."""
    eigs = np.atleast_1d(np.asarray(contraction_eigs, dtype=complex))
    out = np.zeros(len(eigs))
    for j, lam in enumerate(eigs):
        u, v = log_polar(lam)
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
        u, v = log_polar(mu)
        out[j] = (
            (lam - 1.0)
            / (2.0 * u * log_lam)
            * ((log_lam / 2.0 + u) ** 2 + v * v)
            / abs(lam - math.sqrt(lam) * mu) ** 2
        )
    return out


def resonant_translation_weight(lam: float) -> float:
    """Weight of a resonant translation entry (sqrt(lam) lam_j = 1), the
    sharp budget sup_t (lam-1) t^2 lam^t / (lam^t - 1)^2 = (lam-1)/ln(lam)^2."""
    if lam <= 1.0:
        raise DomainError("hyperbolic dilation must exceed 1")
    return (lam - 1.0) / math.log(lam) ** 2
