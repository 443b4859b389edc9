"""Linear fractional map values on the unit ball and the Siegel half-plane.

A map z -> (Az + B) / (<z, C> + D) is stored either as a
:class:`BallMap` (self-map of the unit ball B_N, denominator normalized
to D = 1), a :class:`SiegelMap` (affine self-map of the half-plane
H^N = {(z1, w) : Im z1 > |w|^2} fixing infinity), or a raw
:class:`ProjMap` carrying just the homogeneous (N+1)x(N+1) matrix with
domain tags.  ProjMap is the common currency for composition, inversion
and Cayley transport; the typed wrappers add validation.  A BallMap or
SiegelMap holds one map, or a stack of T maps (one per time of a grid)
whose fields carry a leading time axis and get the same checks; called on
a point, a stack gives its image under every map, and the methods that
read one map (``to_proj``, ``differential``, ``denominator``) raise
TypeError on a stack.  The
self-map and identity tests are exact, on the homogeneous matrix, and
:func:`classify` reads everything it reports off one Schur form of it; the
seeded samples drawn here serve verification alone.

The exact self-map test of a ball map runs in the :class:`BallMap`
constructor, so every ball map the library hands out gets it: those of the
public builders, :func:`compose`, :func:`inverse`, :func:`conjugate` and
:func:`cayley_to_ball` (for a Siegel spec that call is the input check, as
:class:`SiegelMap` checks no self-map property).  :func:`inverse` and
:func:`conjugate` share one rule: a BallMap or SiegelMap gives a checked
map, a ProjMap a ProjMap.  Three builders skip the test, through
:func:`_trusted_ball_map` with the constructor's bits, each with its own
proof: :func:`ball_automorphism`, from the closed form (near the sphere the
test's relative margin is rounding alone); the split normal map, which its
reducer proves a self-map (:func:`~lfmsemi.normal_forms.split_normal_map`);
and the maps of a ball family, whose generator proves them all
(:func:`_require_ball_flow`).  A reduction's intermediates are homogeneous
matrices: a change of variable (:func:`_change_of_variable`), a centring
automorphism, and a map conjugated by them (:func:`_corner_one`).

Inner products are hermitian with conjugation on the second slot:
<z, c> = sum_j z_j * conj(c_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    FormError,
    NotInvertibleError,
    NumericError,
    PoleError,
)
from .linalg import (_complex_array, _frobenius, _schur_eigenvectors, as_matrix, as_vector,
                     schur_form, unimodular_count, unitary_with_first_column)

BALL = "ball"
SIEGEL = "siegel"

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
PARABOLIC = "parabolic"

#: |delta - 1| at or below this classifies as parabolic
PARABOLIC_DELTA_TOL = 1e-6

#: default seed of the ball and half-plane samples
DEFAULT_SAMPLE_SEED = 20250808

#: the radius shells of the ball sample, point i on shell i mod 8
_SAMPLE_RADII = (0.1, 0.25, 0.4, 0.55, 0.7, 0.8, 0.9, 0.95)

_SELF_MAP_SLACK = 1e-9
_FIXED_POINT_TOL = 1e-9
_POLE_TOL = 1e-14

#: a stray entry of a Siegel matrix above this, relative to its largest
#: entry, leaves the affine form fixing infinity (:func:`siegel_map_from_proj`)
_AFFINE_FORM_TOL = 1e-8

#: the constant c of the Jordan split (c eps scale)^(1/k) of :func:`fixed_points`
_JORDAN_SPLIT_FACTOR = 1e3

#: the least number of matrix entries in the SVD rows that the eigenvector
#: filter of :func:`fixed_points` could drop for it to run: about what the
#: filter costs (the SVD rows of two 4 x 4 matrices), so it never runs for
#: N = 1 or 2
_FILTER_ENTRIES = 32


# ---------------------------------------------------------------------------
# sampling


def _is_whole(x, least: int) -> bool:
    """x is an int (not a bool) of at least *least*: the rule for sample
    sizes (least 1) and seeds (least 0)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= least


def sample_ball_points(dim: int, count: int, seed: int = DEFAULT_SAMPLE_SEED) -> np.ndarray:
    """Deterministic sample of B_N: uniform directions on the radius shells
    ``_SAMPLE_RADII``.

    Returns a read-only cached array; copy before mutating.
    """
    if not (_is_whole(dim, 1) and _is_whole(count, 1)):
        raise DimensionError(f"dim and count must be positive integers, got {dim!r}, {count!r}")
    if not _is_whole(seed, 0):
        raise DomainError(f"seed: expected a non-negative integer, got {seed!r}")
    return _ball_sample_cached(dim, count, seed)


@lru_cache(maxsize=64)
def _ball_sample_cached(dim: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rad = np.asarray(_SAMPLE_RADII, dtype=float)
    dirs = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = dirs * rad[np.arange(count) % len(rad), None]
    pts.setflags(write=False)
    return pts


def sample_siegel_points(dim: int, count: int, seed: int = DEFAULT_SAMPLE_SEED) -> np.ndarray:
    """Deterministic sample of H^N: Cayley image of the ball sample.

    Returns a read-only cached array; copy before mutating.
    """
    sample_ball_points(dim, count, seed)  # the checks of the arguments
    return _siegel_sample_cached(dim, count, seed)


@lru_cache(maxsize=64)
def _siegel_sample_cached(dim: int, count: int, seed: int) -> np.ndarray:
    zs = _ball_sample_cached(dim, count, seed)
    den = 1.0 - zs[:, :1]
    pts = np.concatenate([1j * (1.0 + zs[:, :1]) / den, 1j * zs[:, 1:] / den], axis=1)
    pts.setflags(write=False)
    return pts


def domain_margin(z, domain: str):
    """Positive inside the domain: 1 - |z| on the ball, Im z1 - |w|^2 on H^N.

    One point gives a float, a (K, N) array one margin per row.
    """
    z = np.atleast_1d(_complex_array(z))
    if domain == BALL:
        margin = 1.0 - np.linalg.norm(z, axis=-1)
    elif domain == SIEGEL:
        margin = z[..., 0].imag - np.linalg.norm(z[..., 1:], axis=-1) ** 2
    else:
        raise DomainError(f"unknown domain {domain!r}")
    return float(margin) if z.ndim == 1 else margin


def _checked_point(z, dim: int, domain: Optional[str] = None) -> np.ndarray:
    """z as a vector of the map's dimension, inside *domain* up to the
    self-map slack when a domain is given."""
    z = as_vector(z)
    if len(z) != dim:
        raise DimensionError(f"point has dimension {len(z)}, map expects {dim}")
    if domain is not None and domain_margin(z, domain) < -_SELF_MAP_SLACK:
        raise DomainError(f"point {z} lies outside the {domain} domain")
    return z


# ---------------------------------------------------------------------------
# homogeneous-matrix maps


@dataclass(frozen=True)
class ProjMap:
    """Linear fractional map given by its homogeneous matrix.

    Acts on points by mat @ (z, 1); the last homogeneous coordinate is
    the denominator.  No domain membership checks are performed here.
    """

    mat: np.ndarray
    domain: str = BALL
    codomain: str = BALL

    def __post_init__(self):
        object.__setattr__(self, "mat", _unit_rms(as_matrix(self.mat, square=True)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0] - 1

    def __call__(self, z) -> np.ndarray:
        return self.eval_many(_checked_point(z, self.dim)[None])[0]

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        """Evaluation on a (K, N) array of points; raises :class:`PoleError`
        when the denominator vanishes at any row."""
        hom = zs @ self.mat[:, :-1].T + self.mat[:, -1]
        den = hom[:, -1]
        pole = np.abs(den) < _POLE_TOL * np.maximum(1.0, np.max(np.abs(hom), axis=1))
        if np.any(pole):
            raise PoleError(f"denominator vanished at {zs[np.argmax(pole)]}")
        return hom[:, :-1] / den[:, None]

    def inverse(self) -> "ProjMap":
        try:
            inv = np.linalg.inv(self.mat)
        except np.linalg.LinAlgError as exc:
            raise NotInvertibleError(str(exc)) from exc
        if not np.all(np.isfinite(inv)):
            raise NotInvertibleError("homogeneous matrix is singular")
        return _proj_of(inv, self.codomain, self.domain)

    def then(self, other: "ProjMap") -> "ProjMap":
        """other after self (other o self)."""
        if other.domain != self.codomain:
            raise DomainError(
                f"cannot compose: {self.codomain} output into {other.domain} input"
            )
        return _proj_of(other.mat @ self.mat, self.domain, other.codomain)


def _unit_rms(m: np.ndarray) -> np.ndarray:
    """m scaled to unit RMS entry: the normalization of every ProjMap."""
    scale = _frobenius(m) / math.sqrt(m.shape[0])
    if scale == 0:
        raise NotInvertibleError("zero homogeneous matrix")
    return m / scale


def _proj_of(m: np.ndarray, domain: str, codomain: str) -> ProjMap:
    """``ProjMap(m, domain, codomain)`` without the constructor's
    validation, for a square m with finite entries that the library
    computed: the constructor's normalization, so the bits of the checked
    map."""
    p = object.__new__(ProjMap)
    p.__dict__.update(mat=_unit_rms(m), domain=domain, codomain=codomain)
    return p


def _kept_proj(f, build, *fields) -> ProjMap:
    """The :class:`ProjMap` of the single map f, ``build(*fields)`` on the
    first call and kept on f with a read-only matrix: the ``to_proj`` of
    :class:`BallMap` and :class:`SiegelMap`, whose fields are frozen."""
    proj = f.__dict__.get("_proj")
    if proj is None:
        proj = build(*fields)
        proj.mat.setflags(write=False)
        f.__dict__["_proj"] = proj
    return proj


def cayley_transform(dim: int) -> ProjMap:
    """The biholomorphism B_N -> H^N, e1 -> infinity.

    sigma(z1, z') = (i (1+z1)/(1-z1), i z'/(1-z1)).
    """
    n = dim
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[0, 0] = 1j
    m[0, n] = 1j
    m[range(1, n), range(1, n)] = 1j
    m[n, 0] = -1.0
    m[n, n] = 1.0
    return ProjMap(m, domain=BALL, codomain=SIEGEL)


@lru_cache(maxsize=16)
def _cayley_pair(dim: int) -> tuple:
    """:func:`cayley_transform` (dim) and its inverse, read-only, built once."""
    sigma = cayley_transform(dim)
    pair = (sigma, sigma.inverse())
    for p in pair:
        p.mat.setflags(write=False)
    return pair


# ---------------------------------------------------------------------------
# ball maps

def _ball_parts(zs: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Numerators (..., K, N) and denominators (..., K) of the maps
    (a z + b) / (<z, c> + 1) at the K rows of zs, for one map (a, b, c) or
    a stack of them ((T, N, N), (T, N), (T, N)); zs is one (K, N) array for
    every map or, for a stack, one per map (T, K, N).  Every map of a stack
    gets the bits of its own product."""
    num = zs @ np.swapaxes(a, -1, -2)
    num += b[..., None, :]
    return num, _ball_denominators(zs, c)


def _ball_denominators(zs: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The denominators <z, c> + 1 (..., K) of :func:`_ball_parts`: one
    product per map of a stack, which a one-call form would round
    differently."""
    return (zs @ np.conj(c)[..., None])[..., 0] + 1.0


@lru_cache(maxsize=16)
def _krein_j(size: int) -> np.ndarray:
    """J = diag(I_N, -1) of the given size N + 1, the form whose cone
    x^H J x < 0 is the ball in homogeneous coordinates: a read-only array,
    built once per size."""
    j = np.diag(np.append(np.ones(size - 1), -1.0))
    j.setflags(write=False)
    return j


def pullback_form(t: np.ndarray) -> np.ndarray:
    """S = T^H J T, J = diag(I_N, -1), for a homogeneous matrix T or a stack:
    (z, 1)^H S (z, 1) = |Az + B|^2 - |<z, C> + D|^2.  The map is an
    automorphism of B_N exactly when S = c J with c > 0."""
    return np.conj(np.swapaxes(t, -1, -2)) @ (_krein_j(t.shape[-1]).diagonal()[:, None] * t)


def pencil_margins(s: np.ndarray) -> np.ndarray:
    """The Krein-Smul'jan margin lambda_min(mu J - S) of each hermitian form
    S of a stack (T, N+1, N+1), J = diag(I_N, -1), with mu midway between
    the two largest real parts of eig(J S).  A margin >= 0 proves
    x^H S x <= 0 where x^H J x = 0; by the S-lemma (Polik and Terlaky 2007)
    some mu proves it whenever it holds, and those mu are the interval
    between the two eigenvalues, as mu J - S >= 0 puts the one J-negative
    eigenvalue above the N J-positive ones (Cowen and MacCluer 2000)."""
    j = _krein_j(s.shape[-1])
    top = np.sort(np.linalg.eigvals(j @ s).real, axis=-1)[:, -2:]
    mu = 0.5 * (top[:, 0] + top[:, 1])
    return np.linalg.eigvalsh(mu[:, None, None] * j - s)[:, 0]


def _self_map_margins(a, b, c) -> np.ndarray:
    """Exact self-map margin of each map (a z + b) / (<z, c> + 1), |c| < 1,
    of a stack: the :func:`pencil_margins` of S = T^H J T with
    T = [[a, b], [c^H, 1]], divided by ||S||_F.  On the sphere |phi| <= 1
    then, so on the ball.  NaN where S is not finite."""
    n = a.shape[-1]
    t = np.zeros((len(a), n + 1, n + 1), dtype=complex)
    t[:, :n, :n], t[:, :n, n] = a, b
    t[:, n, :n], t[:, n, n] = np.conj(c), 1.0
    s = pullback_form(t)
    if np.isfinite(s).all():
        return _relative_margins(s)
    ok = np.isfinite(s).all(axis=(-2, -1))
    margins = np.full(len(a), np.nan)
    margins[ok] = _relative_margins(s[ok])
    return margins


def _relative_margins(s: np.ndarray) -> np.ndarray:
    """The :func:`pencil_margins` of a finite stack, each over its ||S||_F."""
    norm = np.linalg.norm(s, axis=(-2, -1))
    return pencil_margins(s) / np.where(norm > 0, norm, 1.0)  # S = 0 gives 0


def flow_form(g: np.ndarray) -> np.ndarray:
    """X = J G + G^H J of a homogeneous generator G, J = diag(I_N, -1):
    along x' = G x, d/dt x^H J x = x^H X x."""
    jg = _krein_j(len(g)).diagonal()[:, None] * g
    return jg + jg.conj().T


def _flow_margin(g: np.ndarray) -> float:
    """Exact margin of the flow exp(t G), t >= 0, on the closed ball: the
    :func:`pencil_margins` of X = :func:`flow_form` (G), divided by
    max(1, ||X||_F); NaN where X is not finite.  A margin >= 0 says
    x^H X x <= 0 where x^H J x = 0, so the field of G points into the
    closed ball on the sphere, which by Nagumo's theorem (Bony and Brezis)
    is exactly the condition for every exp(t G) to keep it; x^H J x = 0 has
    no solution x != 0 with last entry 0, so the sphere is all of it.  A
    margin below 0 is not: the field then leaves the ball somewhere on the
    sphere, and the excess of exp(t G) grows about linearly in t.  The
    divisor makes the margin relative for a large G, as the self-map
    margin is, and absolute for a small one, so that a G an elliptic
    criterion admits (unnormalised margin >= -1e-10) passes the slack."""
    x = flow_form(g)
    if not np.isfinite(x).all():
        return float("nan")
    return float(pencil_margins(x[None])[0]) / max(1.0, _frobenius(x))


def _require_ball_flow(g: np.ndarray) -> float:
    """The check of a ball family, once for all its maps: the
    :func:`_flow_margin` of its generator G with the self-map slack,
    which a NaN margin fails.  Returns the margin.  A margin >= 0 proves
    every exp(t G) a self-map; one within the slack below 0 proves none
    for a large t, so the caller checks those maps one by one."""
    margin = _flow_margin(g)
    if not margin >= -_SELF_MAP_SLACK:
        raise DomainError(f"the flow of the generator leaves the ball (margin {margin:.3e})")
    return margin


def _require_ball_self_maps(a, b, c) -> None:
    """The checks of the :class:`BallMap` constructor, its only caller, on
    a stack of maps with D = 1, map by map in order: |C| < 1, then the
    exact self-map margin with the self-map slack, which a NaN margin
    fails.  Raises the error of the first map that fails."""
    bad_c = np.flatnonzero(np.linalg.norm(c, axis=-1) >= 1.0 - 1e-12)
    valid = bad_c[0] if bad_c.size else len(c)
    margins = _self_map_margins(a[:valid], b[:valid], c[:valid])
    bad = np.flatnonzero(~(margins >= -_SELF_MAP_SLACK))
    if bad.size:
        raise DomainError(f"not a self-map of the ball (margin {margins[bad[0]]:.3e})")
    if valid < len(c):
        raise DomainError("denominator invariant violated: need |C| < |D| so that "
                          "<z, C> + D cannot vanish on the closed ball")


def _stack_size(matrix: np.ndarray) -> int:
    """The number T of maps of a stack, read off its (T, n, n) matrix field."""
    if matrix.ndim != 3:
        raise TypeError("a single map is not a stack of maps")
    return len(matrix)


def _require_single(matrix: np.ndarray) -> None:
    """Raise TypeError when the (n, n) or (T, n, n) matrix field is a stack's:
    for the methods that read one map."""
    if matrix.ndim == 3:
        raise TypeError("a stack of maps is not a single map; take one of its items")


@dataclass(frozen=True)
class BallMap:
    """Self-map (Az + B) / (<z, C> + D) of the unit ball, or a stack of T
    such maps held as (T, N, N), (T, N) and (T, N) arrays with a scalar D.

    The constructor normalizes D to 1, requires |C| < 1 so the
    denominator cannot vanish on the closed ball, and decides the
    self-map property exactly (:func:`_self_map_margins`, relative slack
    1e-9); a stack gets these checks for every map, with one batched
    eigenvalue computation.  Item i of a stack is map i, with the bits of
    ``BallMap(A[i], B[i], C[i])`` and without a second check.  Every
    ball map the library hands out passes this check, except those of the
    three builders of the module docstring.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: complex = 1.0

    domain = BALL  # a class attribute, not a field

    def __post_init__(self):
        a, b, c, d = (_complex_array(x) for x in (self.A, self.B, self.C, self.D))
        if a.ndim != 3:  # one map: the checks and messages of as_matrix and as_vector
            a, b, c = as_matrix(a, square=True), as_vector(b), as_vector(c)
        elif not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise DomainError("entries of A, B and C must be finite")
        if not (a.shape[-1] == a.shape[-2] > 0 and b.shape == c.shape == a.shape[:-1]):
            raise DimensionError("A, B, C dimensions disagree")
        if d.ndim:
            raise DimensionError("D must be a scalar")
        d = complex(d)
        if not np.isfinite(d):
            raise DomainError("D must be finite")
        if abs(d) < _POLE_TOL:
            raise DomainError("denominator vanishes at the origin (D = 0)")
        a, b, c = _normalized(a, b, c, d)
        n = a.shape[-1]
        _require_ball_self_maps(a.reshape(-1, n, n), b.reshape(-1, n), c.reshape(-1, n))
        self.__dict__.update(A=a, B=b, C=c, D=1.0 + 0.0j)  # the frozen fields

    @property
    def dim(self) -> int:
        return self.A.shape[-1]

    def __len__(self) -> int:
        return _stack_size(self.A)

    def __getitem__(self, i: int) -> "BallMap":
        _stack_size(self.A)  # a single map has no items
        return _ball_map_of(self.A[i], self.B[i], self.C[i])

    def denominator(self, z) -> complex:
        _require_single(self.A)
        return complex(np.vdot(self.C, as_vector(z)) + self.D)

    def __call__(self, z) -> np.ndarray:
        """The image of one ball point, (N,), or its images under every map
        of a stack, (T, N): the point is checked once, the denominator of
        every map.  One map takes the products of its ``eval_many`` row, so
        its bits; the numerators of a stack are one (T N, N) product with
        the point, whose rows had the bits of each map's own on the BLAS
        the tests ran on (see ``tests/test_map_stacks.py``)."""
        z = _checked_point(z, self.dim, BALL)
        if self.A.ndim == 2:
            num, den = _ball_parts(z[None], self.A, self.B, self.C)
            num = num[0]
        else:
            num = (self.A.reshape(-1, len(z)) @ z).reshape(self.B.shape)
            num += self.B
            den = _ball_denominators(z[None], self.C)
        if np.any(np.abs(den) < _POLE_TOL):
            raise PoleError(f"denominator vanished at {z}")
        return num / den

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on a (K, N) array of points: (K, N) images,
        (T, K, N) for a stack, which also takes one (K, N) array per map,
        a (T, K, N) array whose row i is evaluated by map i."""
        num, den = _ball_parts(zs, self.A, self.B, self.C)
        return num / den[..., None]

    def to_proj(self) -> ProjMap:
        """The homogeneous matrix, built once (:func:`_kept_proj`)."""
        _require_single(self.A)
        return _kept_proj(self, _ball_proj, self.A, self.B, self.C, self.D)

    def differential(self, z) -> np.ndarray:
        """Jacobi matrix of the map at z."""
        z = _checked_point(z, self.dim)
        den = self.denominator(z)
        return (self.A - np.outer(self(z), np.conj(self.C))) / den


def _ball_proj(a, b, c, d) -> ProjMap:
    """The homogeneous matrix [[a, b], [c^H, d]] of the ball map with these
    fields."""
    n = len(a)
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[:n, :n] = a
    m[:n, n] = b
    m[n, :n] = np.conj(c)
    m[n, n] = d
    return _proj_of(m, BALL, BALL)


def _ball_map_of(a, b, c) -> BallMap:
    """The BallMap with fields a, b, c and D = 1, as given: no check."""
    f = object.__new__(BallMap)
    f.__dict__.update(A=a, B=b, C=c, D=1.0 + 0.0j)
    return f


def _normalized(a, b, c, d: complex) -> tuple:
    """The fields A, B, C of the map (a z + b) / (<z, c> + d) with D = 1."""
    return a / d, b / d, c / np.conj(d)


def _trusted_ball_map(a, b, c) -> BallMap:
    """``BallMap(a, b, c)`` without the constructor's checks, for the three
    builders of the module docstring: the constructor's :func:`_normalized`
    by D = 1, so the fields have the bits of the checked map."""
    a, b, c = (np.asarray(x, dtype=complex) for x in (a, b, c))
    return _ball_map_of(*_normalized(a, b, c, 1.0 + 0.0j))


def _proj_fields(m: np.ndarray) -> tuple:
    """(A, B, C, D) of the ball map with homogeneous matrix m."""
    n = len(m) - 1
    return m[:n, :n], m[:n, n], np.conj(m[n, :n]), m[n, n]


def ball_map_from_proj(p: ProjMap) -> BallMap:
    if not (p.domain == BALL and p.codomain == BALL):
        raise DomainError("homogeneous matrix is not tagged as a ball self-map")
    return BallMap(*_proj_fields(p.mat))


def identity_ball_map(dim: int) -> BallMap:
    return BallMap(np.eye(dim), np.zeros(dim), np.zeros(dim), 1.0)


def unitary_ball_map(u) -> BallMap:
    u = as_matrix(u, square=True)
    n = u.shape[0]
    return BallMap(u, np.zeros(n), np.zeros(n), 1.0)


def _automorphism_fields(a) -> tuple:
    """A, B and C of the involutive automorphism of B_N exchanging 0 and a."""
    a = as_vector(a)
    n = len(a)
    norm2 = float(np.vdot(a, a).real)
    if norm2 >= 1.0:
        raise DomainError("automorphism center must lie inside the ball")
    if norm2 == 0.0:
        return np.eye(n), np.zeros(n), np.zeros(n)
    s = np.sqrt(1.0 - norm2)
    proj = np.outer(a, np.conj(a)) / norm2
    return -(proj + s * (np.eye(n) - proj)), a.copy(), -a.copy()


def ball_automorphism(a) -> BallMap:
    """The involutive automorphism of B_N exchanging 0 and the point a."""
    return _trusted_ball_map(*_automorphism_fields(a))


def _change_of_variable(u) -> ProjMap:
    """The homogeneous matrix blockdiag(u, 1) of a unitary change of
    variable z -> u z, to conjugate by and to record in a chain: a
    :class:`ProjMap` claims no self-map property, so nothing is checked."""
    zeros = np.zeros(len(u))
    return _ball_proj(u, zeros, zeros, 1.0)


# ---------------------------------------------------------------------------
# Siegel maps


@dataclass(frozen=True)
class SiegelMap:
    """Affine self-map of H^N fixing infinity,

    (z, w) -> (lam * z + 2i <w, a> + b, M @ w + c),

    or a stack of T such maps held as (T,), (T, k), (T,), (T, k, k) and
    (T, k) arrays of these fields; item i of a stack is map i.
    """

    lam: complex
    a: np.ndarray
    b: complex
    M: np.ndarray
    c: np.ndarray

    domain = SIEGEL  # a class attribute, not a field

    def __post_init__(self):
        lam, a, b, m, c = (_complex_array(x) for x in (self.lam, self.a, self.b, self.M, self.c))
        lead = lam.shape  # () for one map, (T,) for a stack
        k = m.shape[-1] if m.ndim else 0
        if not (len(lead) <= 1 and b.shape == lead and m.shape == lead + (k, k)
                and a.shape == c.shape == lead + (k,)):
            raise DimensionError("a, c, M dimensions disagree")
        if not np.isfinite(m).all():
            raise DomainError("matrix entries must be finite")
        if not (np.isfinite(a).all() and np.isfinite(c).all()):
            raise DomainError("vector entries must be finite")
        if not (np.isfinite(lam).all() and np.isfinite(b).all()):
            raise DomainError("lam and b must be finite")
        self.__dict__.update(lam=lam if lead else complex(lam), a=a,
                             b=b if lead else complex(b), M=m, c=c)  # the frozen fields

    @property
    def dim(self) -> int:
        return self.M.shape[-1] + 1

    def __len__(self) -> int:
        return _stack_size(self.M)

    def __getitem__(self, i: int) -> "SiegelMap":
        _stack_size(self.M)  # a single map has no items
        lam, b = self.lam[i], self.b[i]
        if not np.ndim(lam):  # one map holds lam and b as the constructor does
            lam, b = complex(lam), complex(b)
        return _siegel_map_of(lam, self.a[i], b, self.M[i], self.c[i])

    def __call__(self, z) -> np.ndarray:
        """The image of one half-plane point, (N,), or its images under every
        map of a stack, (T, N); the point is checked once.  One map takes
        the products of its ``eval_many`` row, so its bits; the w-blocks of
        a stack are one (T k, k) product with the point's w, whose rows had
        the bits of each map's own on the BLAS the tests ran on (see
        ``tests/test_map_stacks.py``)."""
        z = _checked_point(z, self.dim, SIEGEL)
        if self.M.ndim == 2:
            return _siegel_images(z[None], self.lam, self.a, self.b, self.M, self.c)[0]
        k = len(z) - 1
        top = _siegel_top(z[None], self.lam, self.a, self.b)
        w = self.c if not k else (self.M.reshape(-1, k) @ z[1:]).reshape(self.c.shape) + self.c
        return np.concatenate([top, w], axis=-1)

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on a (K, N) array of points: (K, N) images,
        (T, K, N) for a stack, which also takes one (K, N) array per map,
        a (T, K, N) array whose row i is evaluated by map i."""
        return _siegel_images(zs, self.lam, self.a, self.b, self.M, self.c)

    def to_proj(self) -> ProjMap:
        """The homogeneous matrix, built once (:func:`_kept_proj`)."""
        _require_single(self.M)
        return _kept_proj(self, _siegel_proj, self.lam, self.a, self.b, self.M, self.c)


def _siegel_proj(lam, a, b, m, c) -> ProjMap:
    """The homogeneous matrix of the affine map (z, w) -> (lam z + 2i <w, a>
    + b, m w + c), for fields the library computed, without building the
    :class:`SiegelMap`: its ``to_proj``, so with its bits."""
    n = len(m) + 1
    h = np.zeros((n + 1, n + 1), dtype=complex)
    h[0, 0] = lam
    h[0, 1:n] = 2j * np.conj(a)
    h[0, n] = b
    h[1:n, 1:n] = m
    h[1:n, n] = c
    h[n, n] = 1.0
    return _proj_of(h, SIEGEL, SIEGEL)


def siegel_map_from_proj(p: ProjMap) -> SiegelMap:
    """Read the affine (z, w) form off a homogeneous matrix.

    Raises :class:`FormError` when the map does not fix infinity, i.e.
    when the denominator row or the z-column of the w-rows is not
    negligible (``_AFFINE_FORM_TOL``).
    """
    if not (p.domain == SIEGEL and p.codomain == SIEGEL):
        raise DomainError("homogeneous matrix is not tagged as a Siegel self-map")
    n = p.dim
    m = p.mat
    scale = float(np.max(np.abs(m)))
    if abs(m[n, n]) < _AFFINE_FORM_TOL * scale:
        raise FormError("map does not fix infinity (constant denominator absent)")
    m = m / m[n, n]
    stray = float(max(np.max(np.abs(m[n, :n])), np.max(np.abs(m[1:n, 0]), initial=0.0)))
    if stray > _AFFINE_FORM_TOL * max(1.0, float(np.max(np.abs(m)))):
        raise FormError(
            f"map is not in affine Siegel form (stray coefficient {stray:.3e}); "
            "only non-elliptic maps with Denjoy-Wolff point at e1 qualify"
        )
    if not np.isfinite(m).all():
        raise DomainError("matrix entries must be finite")
    return _siegel_map_of(complex(m[0, 0]), np.conj(m[0, 1:n] / 2j), complex(m[0, n]),
                          m[1:n, 1:n], m[1:n, n])


def _siegel_map_of(lam, a, b, m, c) -> SiegelMap:
    """The SiegelMap with these fields, as given: no conversion, no check."""
    g = object.__new__(SiegelMap)
    g.__dict__.update(lam=lam, a=a, b=b, M=m, c=c)
    return g


def identity_siegel_map(dim: int) -> SiegelMap:
    k = dim - 1
    return SiegelMap(1.0, np.zeros(k), 0.0, np.eye(k), np.zeros(k))


def heisenberg_map(gamma, beta) -> SiegelMap:
    """(z, w) -> (z + 2i <w, gamma> + beta, w + gamma).

    An automorphism of H^N exactly when Im beta = |gamma|^2.
    """
    gamma = as_vector(gamma)
    k = len(gamma)
    return SiegelMap(1.0, gamma.copy(), beta, np.eye(k), gamma.copy())


def _siegel_images(zs, lam, a, b, m, c) -> np.ndarray:
    """Images (..., K, N) of the K rows of zs under the affine maps
    (z, w) -> (lam z + 2i <w, a> + b, m w + c), for one map or a stack of
    them (lam and b (T,), a and c (T, k), m (T, k, k)); zs is one (K, N)
    array for every map or, for a stack, one per map (T, K, N).  Every
    map of a stack gets the bits of its own product."""
    return np.concatenate([_siegel_top(zs, lam, a, b)[..., None],
                           zs[..., 1:] @ np.swapaxes(m, -1, -2) + c[..., None, :]], axis=-1)


def _siegel_top(zs, lam, a, b) -> np.ndarray:
    """The first coordinates (..., K) of :func:`_siegel_images`, whose
    products <w, a> are one per map of a stack: a one-call form would round
    them differently."""
    return np.asarray(lam)[..., None] * zs[..., 0] \
        + 2j * (zs[..., 1:] @ np.conj(a)[..., None])[..., 0] + np.asarray(b)[..., None]


# ---------------------------------------------------------------------------
# generic operations

Map = BallMap | SiegelMap | ProjMap


def to_proj(f: Map) -> ProjMap:
    return f if isinstance(f, ProjMap) else f.to_proj()


def _wrap_like(p: ProjMap) -> Map:
    if p.domain == p.codomain == BALL:
        return ball_map_from_proj(p)
    if p.domain == p.codomain == SIEGEL:
        try:
            return siegel_map_from_proj(p)
        except FormError:
            return p
    return p


def compose(f: Map, g: Map) -> Map:
    """f after g.  Same-type operands return the same type, except that a
    Siegel result that rounding pushes out of the affine form fixing
    infinity comes back as a :class:`ProjMap` (:func:`_wrap_like`)."""
    p = to_proj(g).then(to_proj(f))
    if type(f) is type(g) and isinstance(f, (BallMap, SiegelMap)):
        return _wrap_like(p)
    return p


def inverse(f: Map) -> Map:
    p = to_proj(f).inverse()
    return p if isinstance(f, ProjMap) else _wrap_like(p)


def conjugate(f: Map, s: Map) -> Map:
    """s o f o s^-1 (transports f along the change of variable s).  As
    with :func:`inverse`, a BallMap or SiegelMap f gives a checked map
    (:func:`_wrap_like`), and a ProjMap f a ProjMap."""
    sp = to_proj(s)
    p = sp.inverse().then(to_proj(f)).then(sp)
    return p if isinstance(f, ProjMap) else _wrap_like(p)


def _corner_one(p: ProjMap) -> np.ndarray:
    """p's matrix over its corner entry, set to exactly 1: that of the unchecked
    ``BallMap(*_proj_fields(p.mat))``, bit for bit up to the sign of a zero."""
    m = p.mat / p.mat[-1, -1]
    m[-1, -1] = 1.0
    return m


def pointwise_distance(f: Map, g: Map, points: np.ndarray) -> float:
    points = _complex_array(points)
    fa, ga = f.eval_many(points), g.eval_many(points)
    return float(np.max(np.linalg.norm(fa - ga, axis=1)))


def is_identity(f: Map) -> bool:
    """f is the identity: its homogeneous matrix, scaled to unit RMS
    entry, is within 1e-12 entrywise of its corner entry times I."""
    m = to_proj(f).mat
    return bool(np.max(np.abs(m - m[-1, -1] * np.eye(len(m)))) <= 1e-12)


# ---------------------------------------------------------------------------
# Cayley transport


def cayley_to_ball(g: SiegelMap) -> BallMap:
    """sigma^-1 o g o sigma as a validated ball self-map."""
    sigma, sigma_inv = _cayley_pair(g.dim)
    return ball_map_from_proj(sigma.then(g.to_proj()).then(sigma_inv))


def cayley_to_siegel(f: BallMap) -> SiegelMap:
    """Transport a non-elliptic ball map to its affine Siegel form.

    The Denjoy-Wolff point of :func:`classify` is first rotated to e1 by a
    unitary so the transported map fixes infinity (a no-op when it already
    sits at e1, making the round trip with :func:`cayley_to_ball` exact);
    elliptic maps raise :class:`FormError`.
    """
    cls = classify(f)
    if cls.kind == ELLIPTIC:
        raise FormError("elliptic maps have no affine Siegel form fixing infinity")
    return _siegel_chain(f, cls.dw_point)[0]


def _siegel_chain(f: BallMap, dw_point: np.ndarray):
    """The affine Siegel form of f with Denjoy-Wolff point *dw_point*, and
    the conjugating maps [rotation, cayley] whose composition s satisfies
    form = s o f o s^-1; returns (form, chain)."""
    rot = unitary_with_first_column(as_vector(dw_point)).conj().T
    if _frobenius(rot - np.eye(f.dim)) < 1e-9:
        rot = np.eye(f.dim)
    rot_p = _change_of_variable(rot)  # a Householder reflection
    rotated = _proj_of(_corner_one(conjugate(to_proj(f), rot_p)), BALL, BALL)
    sigma, sigma_inv = _cayley_pair(f.dim)
    return siegel_map_from_proj(sigma_inv.then(rotated).then(sigma)), [rot_p, sigma]


# ---------------------------------------------------------------------------
# fixed points and classification


@dataclass(frozen=True)
class Classification:
    """Elliptic/hyperbolic/parabolic verdict with fixed-point data.  An
    elliptic one carries the eigenvalues of the differential at its first
    interior fixed point, its *multipliers*; the others carry None."""

    kind: str
    interior_fixed_points: list
    boundary_fixed_points: list
    dw_point: Optional[np.ndarray] = None
    delta: Optional[float] = None
    multipliers: Optional[np.ndarray] = None

    @cached_property
    def unitary_index(self) -> Optional[int]:
        """The number of unimodular multipliers (UNIMODULAR_TOL), counted
        once per classification."""
        return None if self.multipliers is None else unimodular_count(self.multipliers)


class FixedPoints(tuple):
    """The pair (interior, boundary) of :func:`fixed_points`, with what the
    points were read off: ``proj``, the map's :class:`ProjMap`, and
    ``eigenvalues``, the diagonal of the Schur form of its matrix."""

    def __new__(cls, interior: list, boundary: list, proj: ProjMap, eigenvalues):
        found = super().__new__(cls, (interior, boundary))
        found.proj, found.eigenvalues = proj, eigenvalues
        return found

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return (*self, self.proj, self.eigenvalues)


def fixed_points(f: BallMap) -> FixedPoints:
    """Fixed points of f in the closed ball.

    Eigenvectors (v, tau) of the homogeneous matrix with tau != 0
    project to fixed points v / tau; they are grouped by eigenvalue
    cluster so defective (parabolic-type) eigenvalues still produce one
    accurate representative.  Returns (interior, boundary) lists, as a
    :class:`FixedPoints` pair.

    A Jordan block of size k splits in floating point into k eigenvalues
    within about (eps scale)^(1/k) of each other (Moro, Burke and
    Overton, SIAM J. Matrix Anal. Appl. 18, 1997), while their mean stays
    eps-accurate, so ``m - mean I`` is numerically singular.  For each
    eigenvalue (the anchor), the prefixes of its k nearest eigenvalues
    whose farthest member lies within (c eps scale)^(1/k)
    max(1, scale)^(1 - 1/k) of it, c = ``_JORDAN_SPLIT_FACTOR``, are the
    candidate clusters; a singleton is shifted by its own eigenvalue.  An
    anchor without an exact twin is used by the end of its turn, so each
    anchor's sizes stop at its stop index, the position of the first such
    earlier anchor in its order.  The tried (anchor, size) pairs, in
    ascending anchor order and largest size first, go through one stacked
    SVD, less the rows of isolated simple eigenvalues (whose only row is
    their singleton and that no tried cluster holds) whose point lies
    beyond |p| = 1.01 or at infinity: their eigenvectors (v, tau), from
    one ``ztrevc`` on the Schur form
    (:func:`~lfmsemi.linalg._schur_eigenvectors`), have
    |v|^2 > 1.0201 |tau|^2.  A simple eigenvalue's SVD kernel vector
    agrees with its eigenvector to about eps times its condition number,
    so the row would give a point that the closed-ball test discards.
    This filter runs when those rows, less one of an eigenvalue of largest
    modulus, hold at least ``_FILTER_ENTRIES`` matrix entries, and not at
    all without a bundled ``ztrevc``; the points come from the SVD alone
    either way.  One pass over its rows takes each anchor's first singular row
    whose prefix holds no used eigenvalue as the cluster, and its kernel
    as the eigenvectors; an anchor whose size-1 row, always its last,
    fails is used alone.  One pass over the candidate points keeps those
    in the closed ball with |f(p) - p| <= 1e-9 (``_FIXED_POINT_TOL``) that
    lie more than 1e-7 from every point kept before.
    """
    proj = to_proj(f)
    m, n = proj.mat, len(proj.mat)
    form = schur_form(m)
    eigs = form.eigenvalues
    moduli = np.abs(eigs).tolist()
    scale = max(moduli)
    inverse = 1.0 / np.arange(1, n + 1)  # 1 / k for the sizes k = 1..n
    split = ((_JORDAN_SPLIT_FACTOR * np.finfo(float).eps * scale) ** inverse
             * max(1.0, scale) ** (1.0 - inverse)).tolist()
    values = eigs.tolist()
    anchors = [i for i, r in enumerate(moduli) if r > 1e-12 * scale]
    dist = np.abs(eigs[anchors, None] - eigs[None, :])
    order = np.argsort(dist, axis=1).tolist()
    dist = dist.tolist()
    # the tried (anchor, size) pairs: sizes up to the stop index whose
    # farthest member lies within the Jordan split, largest first
    settled = [r > 1e-12 * scale and values.count(v) == 1 for r, v in zip(moduli, values)]
    tried, lone, clustered = [], [], set()
    for a, i in enumerate(anchors):
        near = order[a]
        stop = next((k for k, j in enumerate(near) if settled[j] and j < i), n)
        sizes = [k for k in range(stop, 0, -1) if dist[a][near[k - 1]] <= split[k - 1]]
        tried.extend((a, k) for k in sizes)
        if sizes[0] > 1:
            clustered.update(near[:sizes[0]])
        elif settled[i]:
            lone.append(i)
    # a simple eigenvalue whose only row is its singleton and that no tried
    # cluster holds: its row goes when its eigenvector lies beyond 1.01.
    # An eigenvalue of largest modulus belongs to the interior or the
    # Denjoy-Wolff fixed point (no multiplier exceeds 1 in modulus), so the
    # gate does not count one such row as droppable
    lone = [i for i in lone if i not in clustered]
    droppable = len(lone) - (moduli.index(scale) in lone)
    vecs = _schur_eigenvectors(form) if droppable * n * n >= _FILTER_ENTRIES else None
    if vecs is not None:
        sq = np.abs(vecs) ** 2
        far = (sq[:-1].sum(axis=0) > 1.0201 * sq[-1]).tolist()
        drop = {i for i in lone if far[i]}
        tried = [(a, k) for a, k in tried if anchors[a] not in drop]
    shifts = eigs[[anchors[a] for a, _ in tried]]
    for r, (a, k) in enumerate(tried):
        if k > 1:
            shifts[r] = eigs[order[a][:k]].sum() / k  # np.mean's own sum and divide
    _, svals, vh = np.linalg.svd(m - shifts[:, None, None] * np.eye(n))
    blocks = [np.zeros((0, n), dtype=complex)]
    used, done = set(), None  # done: the anchor whose cluster was taken last
    for r, ((a, k), sv) in enumerate(zip(tried, svals.tolist())):
        if a == done or anchors[a] in used:
            continue
        cluster = order[a][:k]
        if sv[-1] <= 1e-10 * max(1.0, sv[0]) and used.isdisjoint(cluster):
            done = a
            used.update(cluster)
            # the singular values descend, so those in the kernel are a suffix
            cut = 1e-8 * max(1.0, sv[0])
            blocks.append(vh[r, n - sum(s <= cut for s in sv):].conj())
            if len(blocks[-1]) >= 2:
                rep = _nearest_kernel_point(np.ascontiguousarray(blocks[-1].T))  # kernel columns
                if rep is not None:
                    blocks.append(rep[None])
        elif k == 1:  # the anchor's last row: it is used alone
            used.add(anchors[a])
    v = np.concatenate(blocks)
    tau = v[:, -1]
    finite = np.abs(tau) > 1e-9 * np.abs(v).max(axis=1, initial=0.0)  # else at infinity
    points = v[finite, :-1] / tau[finite, None]
    tol = _FIXED_POINT_TOL
    interior, boundary, kept = [], [], []
    for p, r in zip(points, np.linalg.norm(points, axis=1).tolist()):
        if r < 1.0 + tol and _frobenius(f(p) - p) <= tol \
                and not any(_frobenius(p - q) <= 1e-7 for q in kept):
            kept.append(p)
            (interior if r < 1.0 - tol else boundary).append(p)
    if not kept:
        raise NumericError("no fixed point found in the closed ball")
    by_key = lambda p: np.concatenate([p.real, p.imag]).round(10).tolist()
    return FixedPoints(sorted(interior, key=by_key), sorted(boundary, key=by_key), proj, eigs)


def _nearest_kernel_point(basis: np.ndarray):
    """Point of the affine fixed set {v/tau : v in span(basis)} nearest 0,
    for a basis with orthonormal columns and last row b_tau: v = basis x
    has |v| = |x|, so the least |v| with tau = 1 is at
    x = conj(b_tau) / |b_tau|^2, and the point is orthogonal to the
    directions of the set (tau = 0)."""
    b_tau = basis[-1]
    if np.max(np.abs(b_tau)) < 1e-12:
        return None
    v = basis @ (b_tau.conj() / np.vdot(b_tau, b_tau).real)
    if abs(v[-1]) < 1e-9 * max(1.0, float(np.max(np.abs(v)))):
        return None
    return v


def classify(f: BallMap) -> Classification:
    """Denjoy-Wolff classification of a non-identity ball self-map, read
    off the one Schur form of its homogeneous matrix T that
    :func:`fixed_points` computes.

    A map with an interior fixed point p is elliptic.  T (p, 1) =
    mu_p (p, 1), and the other eigenvalues of T over mu_p are the
    eigenvalues of the differential at p, its multipliers.  Otherwise its
    Denjoy-Wolff point is the boundary fixed point with the least
    dilation coefficient delta (:func:`boundary_dilation`, not checking
    the points again): the one with delta <= 1, every other boundary fixed
    point has delta > 1 (MacCluer 1983).  The map is parabolic when
    |delta - 1| <= PARABOLIC_DELTA_TOL and hyperbolic below that band.
    """
    found = fixed_points(f)
    if is_identity(found.proj):
        raise DomainError("the identity map is excluded from classification")
    interior, boundary = found
    if interior:
        eigs = found.eigenvalues
        mu = found.proj.mat[-1] @ np.append(interior[0], 1.0)
        j = int(np.argmin(np.abs(eigs - mu)))
        return Classification(ELLIPTIC, interior, boundary,
                              multipliers=np.delete(eigs, j) / eigs[j])
    deltas = [_dilation(f, w) for w in boundary]
    dw, delta = boundary[int(np.argmin(deltas))], min(deltas)
    if abs(delta - 1.0) <= PARABOLIC_DELTA_TOL:
        return Classification(PARABOLIC, [], boundary, dw_point=dw, delta=delta)
    if not 0.0 < delta < 1.0:
        raise NumericError(f"dilation coefficient {delta} outside (0, 1]")
    return Classification(HYPERBOLIC, [], boundary, dw_point=dw, delta=delta)


def boundary_dilation(f: BallMap, w) -> float:
    """Dilation coefficient of f at its boundary fixed point w: the radial
    limit delta of (1 - |f(z)|^2) / (1 - |z|^2) as z -> w.

    By Julia-Caratheodory delta = Re <df_w(w), w> (Rudin, Function Theory
    in the Unit Ball, ch. 8), and A w + B = (<w, C> + 1) w turns this into
    the closed form Re (1 - <B, w>) / (<w, C> + 1).  Raises
    :class:`DomainError` unless w is a boundary fixed point within the
    tolerances of :func:`fixed_points`: | |w| - 1 | and |f(w) - w| at
    most 1e-9.
    """
    w = _checked_point(w, f.dim)
    if abs(np.linalg.norm(w) - 1.0) > _FIXED_POINT_TOL:
        raise DomainError(f"point {w} does not lie on the unit sphere")
    if np.linalg.norm(f(w) - w) > _FIXED_POINT_TOL:
        raise DomainError(f"point {w} is not a fixed point of the map")
    return _dilation(f, w)


def _dilation(f: BallMap, w: np.ndarray) -> float:
    """The closed form of :func:`boundary_dilation`, unchecked."""
    return float(((1.0 - np.vdot(w, f.B)) / f.denominator(w)).real)


def unitary_index(f: BallMap) -> int:
    """Total multiplicity of unimodular eigenvalues (UNIMODULAR_TOL) of the
    differential at the first interior fixed point of :func:`classify`:
    the classification's :attr:`Classification.unitary_index`."""
    index = classify(f).unitary_index
    if index is None:
        raise DomainError("unitary index requires an interior fixed point")
    return index
