"""Seeded map-spec generator with closed-form oracles.

Every map is built from parameters whose verdict is known in closed form,
then written as the JSON document a user would hand to the CLI:

* elliptic maps are ball specs: a centred linear fractional map moved
  off-centre by the ball automorphism exchanging 0 and a random point;
* parabolic and hyperbolic maps are Siegel specs (affine maps of the
  half-plane fixing infinity), so the Cayley transport runs as it does
  for users.

The program under test sees only the documents; the oracle stays here.
Only numpy is used, so building inputs never calls into lfmsemi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

ELLIPTIC_SPLIT = "elliptic_split"
ELLIPTIC_U0 = "elliptic_u0"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"
CASES = (ELLIPTIC_SPLIT, ELLIPTIC_U0, PARABOLIC, HYPERBOLIC)

FORM_KIND = {
    ELLIPTIC_SPLIT: "elliptic_unitary_split",
    ELLIPTIC_U0: "elliptic_u0",
    PARABOLIC: "parabolic_siegel",
    HYPERBOLIC: "hyperbolic_siegel",
}
CLASS_KIND = {
    ELLIPTIC_SPLIT: "elliptic",
    ELLIPTIC_U0: "elliptic",
    PARABOLIC: "parabolic",
    HYPERBOLIC: "hyperbolic",
}

#: the documented classification cut |delta - 1| <= 1e-6 (lfmsemi.maps)
PARABOLIC_DELTA_CUT = 1e-6


@dataclass(frozen=True)
class Oracle:
    """Fields of a report whose values follow from how the map was built.

    ``None`` marks a field the subcommand prefix does not produce.
    """

    kind: str
    form_kind: str
    verdict: Optional[str]
    all_passed: Optional[bool]
    exit_status: int
    #: the map lies in the near-parabolic dead band of the classifier
    #: (ROADMAP item 1), where a stage error is a known defect: printed as
    #: failed, but not a wrong answer
    dead_band: bool = False


@dataclass(frozen=True)
class MapCase:
    label: str
    spec_text: str
    oracle: Oracle


# ---------------------------------------------------------------------------
# JSON encoding (complex numbers are [re, im] pairs)


def _c(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _vec(v) -> list:
    return [_c(x) for x in np.asarray(v).ravel()]


def _mat(m) -> list:
    return [[_c(x) for x in row] for row in np.asarray(m)]


def dumps_spec(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


# ---------------------------------------------------------------------------
# random building blocks


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def contraction_eigs(rng: np.random.Generator, count: int, distinct: int) -> np.ndarray:
    """``count`` eigenvalues inside the unit disc drawn from ``distinct``
    well separated values: moduli spread over 0.4-0.75 and arguments
    within 0.75 pi of the positive axis (so the principal logarithm is
    defined), each jittered slightly. Keeping the spectrum near a fixed
    layout keeps the cost of a map (matrix-exponential scaling, verified
    branch candidates) nearly independent of the seed; the seed still
    changes every matrix through its random eigenbasis."""
    if count == 0:
        return np.zeros(0, dtype=complex)
    k = max(1, min(distinct, count))
    mods = 0.4 + 0.35 * np.arange(k) / max(k - 1, 1) + rng.uniform(-0.02, 0.02, k)
    args = (np.arange(k) - (k - 1) / 2.0) * (1.5 * math.pi / max(k, 2)) \
        + rng.uniform(-0.05, 0.05, k)
    vals = rng.permutation(mods) * np.exp(1j * args)
    return vals[np.arange(count) % k]


def unimodular_phases(rng: np.random.Generator, count: int) -> np.ndarray:
    """Angles of magnitude 0.4-2.6, away from 0: an eigenvalue 1 would
    create a subspace of fixed points."""
    return rng.uniform(0.4, 2.6, count) * rng.choice([-1.0, 1.0], count)


def normal_matrix(rng: np.random.Generator, eigs: np.ndarray) -> np.ndarray:
    v = random_unitary(rng, len(eigs))
    return v @ np.diag(eigs) @ v.conj().T


def _log_polar(lam: complex):
    """(u, v) with lam = exp(-u + iv), v in [0, 2 pi); the convention of
    the theta weights in the paper."""
    u = -math.log(abs(lam))
    v = math.atan2(lam.imag, lam.real) % (2.0 * math.pi)
    return u, v


def theta_parabolic(eigs) -> np.ndarray:
    out = []
    for lam in np.atleast_1d(eigs):
        u, v = _log_polar(complex(lam))
        out.append((u * u + v * v) / (2.0 * u * abs(1.0 - lam) ** 2))
    return np.array(out)


def theta_hyperbolic(dil: float, eigs) -> np.ndarray:
    log_lam = math.log(dil)
    out = []
    for mu in np.atleast_1d(eigs):
        u, v = _log_polar(complex(mu))
        out.append((dil - 1.0) / (2.0 * u * log_lam) * ((log_lam / 2.0 + u) ** 2 + v * v)
                   / abs(dil - math.sqrt(dil) * mu) ** 2)
    return np.array(out)


# ---------------------------------------------------------------------------
# elliptic maps (ball specs)


def _ball_automorphism_hom(a: np.ndarray) -> np.ndarray:
    """Homogeneous matrix of the involution of B_N exchanging 0 and a."""
    n = len(a)
    norm2 = float(np.vdot(a, a).real)
    s = math.sqrt(1.0 - norm2)
    proj = np.outer(a, a.conj()) / norm2
    h = np.zeros((n + 1, n + 1), dtype=complex)
    h[:n, :n] = -(proj + s * (np.eye(n) - proj))
    h[:n, n] = a
    h[n, :n] = -a.conj()
    h[n, n] = 1.0
    return h


def _off_centre_spec(rng: np.random.Generator, hom: np.ndarray, name: str) -> dict:
    """Conjugate a centred map (homogeneous matrix) by a random ball
    automorphism, so its fixed point moves to a point with |a| in
    [0.15, 0.4], and write the ball spec."""
    n = hom.shape[0] - 1
    direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = direction / np.linalg.norm(direction) * rng.uniform(0.15, 0.4)
    phi = _ball_automorphism_hom(a)
    m = phi @ hom @ phi
    m = m / m[n, n]
    return {
        "name": name,
        "dimension": n,
        "domain": "ball",
        "A": _mat(m[:n, :n]),
        "B": _vec(m[:n, n]),
        "C": _vec(np.conj(m[n, :n])),
        "D": _c(1.0),
    }


def elliptic_split_spec(rng: np.random.Generator, n: int, unitary: int,
                        distinct: int, coupled: bool = False) -> dict:
    """Unitary part diag(exp(i theta)) of size ``unitary`` plus a normal
    contraction block; its principal logarithm is normal with negative
    real spectrum, hence dissipative, so the map embeds.

    With ``coupled`` the contraction block also carries the triangular
    pair J = e^{i phi} [[0.3, beta], [0, 0.33]]. Every logarithm of J is
    [[l1, c], [0, l2]] with c = beta (l2 - l1) / (mu2 - mu1); the largest
    eigenvalue of its hermitian part is at least
    (Re l1 + Re l2 + |c|) / 2, and |c| is smallest on the principal
    branch, where 0.79 <= |beta| <= 0.83 gives 0.10 to 0.17 > 0 while
    |J| < 0.94. All eigenvalues are distinct, so every logarithm is
    primary: none is dissipative and the verdict is condition_fails.
    (An exactly defective pair is avoided on purpose: its eigenvector
    basis sits at the branch search's conditioning cut-off, so the
    number of candidates searched would depend on rounding.)
    """
    rest = n - unitary
    blocks = np.zeros((n, n), dtype=complex)
    blocks[:unitary, :unitary] = np.diag(np.exp(1j * unimodular_phases(rng, unitary)))
    normal = rest - 2 if coupled else rest
    if coupled:
        # moduli 0.3 and 0.33 lie below every normal eigenvalue modulus (>= 0.38)
        phase = np.exp(1j * rng.uniform(-0.3, 0.3))
        beta = rng.uniform(0.79, 0.83) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        j0 = unitary + normal
        blocks[j0:, j0:] = phase * np.array([[0.3, beta], [0.0, 0.33]])
    if normal:
        eigs = contraction_eigs(rng, normal, distinct)
        blocks[unitary:unitary + normal, unitary:unitary + normal] = normal_matrix(rng, eigs)
    w = random_unitary(rng, n)
    hom = np.eye(n + 1, dtype=complex)
    hom[:n, :n] = w @ blocks @ w.conj().T
    return _off_centre_spec(rng, hom, f"elliptic split n={n} u={unitary}")


def elliptic_u0_spec(rng: np.random.Generator, n: int, distinct: int) -> dict:
    """z -> Ahat z / (<z, c> + 1), c = delta (Ahat^H - I) e1, rotated and
    moved off-centre.

    Ahat is normal with contraction eigenvalues lambda_j, so its principal
    logarithm M is normal with Re spec(M) <= -min_j(-ln|lambda_j|) =: -m.
    On the ball |delta <Mz, e1> |z|^2| <= delta |M| |z|^2, hence
    delta |M| < m makes Re[delta <Mz,e1>|z|^2 - <Mz,z>] >= 0 and the map
    embeds (the generator-positivity criterion).
    """
    eigs = contraction_eigs(rng, n, distinct)
    logs = np.log(eigs)
    m_min = float(np.min(-np.log(np.abs(eigs))))
    log_norm = float(np.max(np.abs(logs)))
    delta = rng.uniform(0.3, 0.8) * min(1.0, m_min / log_norm)
    ahat = normal_matrix(rng, eigs)
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    c = delta * ((ahat.conj().T - np.eye(n)) @ e1)
    r = random_unitary(rng, n)
    hom = np.eye(n + 1, dtype=complex)
    hom[:n, :n] = r @ ahat @ r.conj().T
    hom[n, :n] = np.conj(r @ c)
    return _off_centre_spec(rng, hom, f"elliptic u0 n={n}")


# ---------------------------------------------------------------------------
# parabolic and hyperbolic maps (Siegel specs)


def _split_sizes(k: int, pattern: int) -> tuple:
    """(p, q, r) sizes of the u/v/w blocks of the w-coordinates."""
    if k == 0:
        return 0, 0, 0
    if k == 1:
        return ((0, 0, 1), (1, 0, 0), (0, 1, 0))[pattern % 3]
    r = max(1, k // 2)
    p = (k - r) // 2
    q = k - r - p
    return (p, q, r) if pattern % 2 == 0 else (q, p, r)


def _siegel_spec(rng, dil, m_blocks, zrow, trans, b, name) -> dict:
    """Conjugate (z, w) -> (dil z + 2i<w, zrow> + b, M w + trans) by a
    random unitary of the w-coordinates and write the Siegel spec."""
    k = m_blocks.shape[0]
    w = random_unitary(rng, k)
    spec = {"name": name, "dimension": k + 1, "domain": "siegel",
            "lambda": _c(dil), "b": _c(b)}
    if k:
        spec["M"] = _mat(w @ m_blocks @ w.conj().T)
        spec["a"] = _vec(w @ zrow)
        spec["c"] = _vec(w @ trans)
    return spec


def parabolic_spec(rng: np.random.Generator, n: int, distinct: int, pattern: int = 0) -> dict:
    """Parabolic normal form (z + 2i<u,a> + 2i<w,c> + b, u + a, D v, A w)
    with A normal and Im b - |a|^2 - <Theta c, c> equal to a positive
    margin, so the translation-budget criterion certifies embedding."""
    p, q, r = _split_sizes(n - 1, pattern)
    a_u = 0.3 * (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / math.sqrt(2 * max(p, 1))
    d = np.exp(1j * unimodular_phases(rng, q))
    eigs = contraction_eigs(rng, r, distinct)
    v = random_unitary(rng, r)
    c_diag = 0.3 * (rng.standard_normal(r) + 1j * rng.standard_normal(r)) / math.sqrt(2 * max(r, 1))
    budget = float(np.vdot(a_u, a_u).real + np.sum(theta_parabolic(eigs) * np.abs(c_diag) ** 2))
    b = complex(rng.uniform(-1.0, 1.0), budget + rng.uniform(0.2, 1.0))
    m = np.zeros((p + q + r, p + q + r), dtype=complex)
    m[:p, :p] = np.eye(p)
    m[p:p + q, p:p + q] = np.diag(d)
    m[p + q:, p + q:] = v @ np.diag(eigs) @ v.conj().T
    zrow = np.concatenate([a_u, np.zeros(q), v @ c_diag])
    trans = np.concatenate([a_u, np.zeros(q + r)])
    return _siegel_spec(rng, 1.0, m, zrow, trans, b, f"parabolic n={n} split={p},{q},{r}")


def hyperbolic_spec(rng: np.random.Generator, n: int, distinct: int, pattern: int = 0,
                    dilation: Optional[float] = None, contraction_only: bool = False) -> dict:
    """Hyperbolic normal form (lam z + 2i<w,c> + b, sqrt(lam) u,
    sqrt(lam) D v, sqrt(lam) A w) with A normal, no resonant translation
    and Im b - <Theta c, c> equal to a positive margin, so the
    coefficient-budget criterion certifies embedding."""
    k = n - 1
    p, q, r = (0, 0, k) if contraction_only else _split_sizes(k, pattern)
    dil = float(dilation) if dilation is not None else rng.uniform(1.5, 4.0)
    d = np.exp(1j * unimodular_phases(rng, q))
    eigs = contraction_eigs(rng, r, distinct)
    v = random_unitary(rng, r)
    c_diag = 0.3 * (rng.standard_normal(r) + 1j * rng.standard_normal(r)) / math.sqrt(2 * max(r, 1))
    budget = float(np.sum(theta_hyperbolic(dil, eigs) * np.abs(c_diag) ** 2))
    b = complex(rng.uniform(-1.0, 1.0), budget + rng.uniform(0.2, 1.0))
    m = np.zeros((k, k), dtype=complex)
    m[:p, :p] = np.eye(p)
    m[p:p + q, p:p + q] = np.diag(d)
    m[p + q:, p + q:] = v @ np.diag(eigs) @ v.conj().T
    zrow = np.concatenate([np.zeros(p + q), v @ c_diag])
    return _siegel_spec(rng, dil, math.sqrt(dil) * m, zrow, np.zeros(k), b,
                        f"hyperbolic n={n} lambda={dil:.9g}")


# ---------------------------------------------------------------------------
# oracles


EXIT_EMBEDDABLE = 0
EXIT_CONDITION_FAILS = 1

#: subcommand prefixes as run_pipeline's stop_after values
PREFIXES = {"report": "verify", "embed": "embed", "normalize": "normal_form",
            "semigroup": "semigroup"}


def oracle_for(case: str, prefix: str, embeddable: bool = True) -> Oracle:
    stop = PREFIXES[prefix]
    verdict = None
    all_passed = None
    exit_status = EXIT_EMBEDDABLE
    if stop in ("embed", "semigroup", "verify"):
        verdict = "embeddable" if embeddable else "condition_fails"
        exit_status = EXIT_EMBEDDABLE if embeddable else EXIT_CONDITION_FAILS
    if stop == "verify" and embeddable:
        all_passed = True
    return Oracle(CLASS_KIND[case], FORM_KIND[case], verdict, all_passed, exit_status)


def near_parabolic_oracle(dilation: float) -> Oracle:
    """Class of lambda z + ... by the documented cut on the boundary
    dilation coefficient delta = 1 / lambda; ``normalize`` prefix."""
    case = PARABOLIC if abs(1.0 / dilation - 1.0) <= PARABOLIC_DELTA_CUT else HYPERBOLIC
    return Oracle(CLASS_KIND[case], FORM_KIND[case], None, None, EXIT_EMBEDDABLE,
                  dead_band=True)


def check_report(report: dict, oracle: Oracle) -> list:
    """Names of the oracle fields the report disagrees with (empty when
    it agrees). A stage error shows up as a disagreement too."""
    stages = report.get("stages", {})
    got = {
        "kind": stages.get("classify", {}).get("kind"),
        "form_kind": stages.get("normal_form", {}).get("form_kind"),
        "verdict": stages.get("embed", {}).get("verdict"),
        "all_passed": stages.get("verify", {}).get("all_passed"),
        "exit_status": report.get("exit_status"),
    }
    want = {
        "kind": oracle.kind,
        "form_kind": oracle.form_kind,
        "verdict": oracle.verdict,
        "all_passed": oracle.all_passed,
        "exit_status": oracle.exit_status,
    }
    return [k for k in want if got[k] != want[k]]


# ---------------------------------------------------------------------------
# normal-form maps, evaluated with numpy from a report's parameters


def complex_array(x) -> np.ndarray:
    """Decode a report value ([re, im] pairs, nested) into complex numbers."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return np.zeros(0, dtype=complex)
    return arr[..., 0] + 1j * arr[..., 1]


def _blocks(*parts) -> np.ndarray:
    k = sum(len(part) for part in parts)
    m = np.zeros((k, k), dtype=complex)
    j = 0
    for part in parts:
        m[j:j + len(part), j:j + len(part)] = part
        j += len(part)
    return m


def _square(x, size: int) -> np.ndarray:
    return complex_array(x).reshape(size, size)


def normal_form_map(form_kind: str, params: dict):
    """The normal-form map of a report's ``normal_form`` stage as a function
    of a (K, N) array of points, following the forms documented in
    ``lfmsemi.normal_forms``. The semigroup family is built in normal-form
    coordinates, so its time-one map is this map."""
    if form_kind == FORM_KIND[ELLIPTIC_SPLIT]:
        lam = complex_array(params["Lambda"])
        a1 = complex_array(params["A1"])
        r = int(round(math.sqrt(a1.size)))
        amat = _blocks(np.diag(lam), a1.reshape(r, r))
        return lambda zs: zs @ amat.T
    if form_kind == FORM_KIND[ELLIPTIC_U0]:
        ahat = complex_array(params["Ahat"])
        n = ahat.shape[0]
        c = float(params["delta"]) * (ahat.conj().T[:, 0] - np.eye(n)[:, 0])
        return lambda zs: (zs @ ahat.T) / (zs @ c.conj() + 1.0)[:, None]
    p, q, r = params["block_split"]
    d_diag = complex_array(params["D"])
    a_block = _square(params["A"], r)
    b = complex(*params["b"])
    c = complex_array(params["c"])
    if form_kind == FORM_KIND[PARABOLIC]:
        # (z + 2i<u,a> + 2i<w,c> + b, u + a, D v, A w)
        a = complex_array(params["a"])
        dil = 1.0
        coef = np.concatenate([a, np.zeros(q), c])
        m = _blocks(np.eye(p), np.diag(d_diag), a_block)
        trans = np.concatenate([a, np.zeros(q + r)])
    elif form_kind == FORM_KIND[HYPERBOLIC]:
        # (lam z + 2i<w,c> + b, sqrt(lam) u, sqrt(lam) D v, sqrt(lam) A w + c_res)
        dil = float(params["lam"])
        coef = np.concatenate([np.zeros(p + q), c])
        m = math.sqrt(dil) * _blocks(np.eye(p), np.diag(d_diag), a_block)
        trans = np.concatenate([np.zeros(p + q), complex_array(params["c_res"])])
    else:
        raise ValueError(f"unknown normal form {form_kind!r}")
    return lambda zs: np.column_stack([dil * zs[:, 0] + 2j * (zs[:, 1:] @ coef.conj()) + b,
                                       zs[:, 1:] @ m.T + trans])


def domain_margin(zs: np.ndarray, domain: str) -> np.ndarray:
    """Per point of a (K, N) array, positive inside the domain: 1 - |z| on
    the ball, Im z1 - |w|^2 on the Siegel half-space."""
    if domain == "ball":
        return 1.0 - np.linalg.norm(zs, axis=1)
    return zs[:, 0].imag - np.sum(np.abs(zs[:, 1:]) ** 2, axis=1)
