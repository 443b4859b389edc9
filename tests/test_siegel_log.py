"""One divided-difference logarithm builds every parabolic and hyperbolic
generator.

``embedding._siegel_log`` inverts the affine flow of ``_SiegelFlow`` at
t = 1: it reads the principal logarithm G of the normal map's homogeneous
matrix T off T's entries.  These tests pin that:

- on every parabolic and hyperbolic normal form of the goldens and of
  every benchmark workload cycle at seeds 1 and 2, G matches the closed
  forms each case had before (``closed_forms``, kept as the oracle) within
  1e-15 relative, its flow margin matches theirs within 1e-15 absolute
  (relative beyond magnitude 1),
  and mat_exp(G) reproduces T within 1e-14 relative;
- on hand-made forms at the edges of the closed forms (a contraction
  eigenvalue at arg = +-pi, a resonant hyperbolic entry, the u-block whose
  eigenvalue is exactly 1, a w-eigenvalue within 1e-13 of 1) G matches the
  oracle, or mpmath's logm at 40 digits where the oracle's cut-off of
  eps / (e^eps - 1) at |eps| < 1e-13 is coarser than the new G;
- a map with an exactly zero eigenvalue gets the verdict
  ``condition_fails`` (exit 1), not an input error: no semigroup holds a
  map that is not injective.  A small nonzero eigenvalue is no such
  verdict: on H_N the map is decided by its flow (a large hyperbolic
  lam too), and the elliptic criteria keep their input error below the
  1e-12 relative cut of their logarithm search;
- the exact family (z, w) -> (z + 0.3 + i, 1e-13 w), whose generator has
  the eigenvalue log 1e-13 = -29.9, passes every verify check, the
  finite-difference generator check too, under both tolerance profiles.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from lfmsemi import embedding as emb
from lfmsemi.cli import (EXIT_CONDITION_FAILS, EXIT_EMBEDDABLE, EXIT_INPUT_ERROR, parse_map_spec,
                         run_pipeline)
from lfmsemi.embedding import CONDITION_FAILS, EMBEDDABLE, INCONCLUSIVE, certify
from lfmsemi.linalg import mat_exp
from lfmsemi.maps import SiegelMap, cayley_to_ball
from lfmsemi.normal_forms import FORM_HYPERBOLIC, FORM_PARABOLIC, normal_form

from closed_forms import siegel_matrix
from test_embedding import hyperbolic_nf, parabolic_nf

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
SIEGEL_FORMS = (FORM_PARABOLIC, FORM_HYPERBOLIC)


def _specs():
    """(label, spec) for every golden spec and every map of every benchmark
    workload's cycle at seeds 1 and 2."""
    out = [(p.stem, json.loads(p.read_text())) for p in sorted(GOLDEN.rglob("*.json"))
           if not p.name.endswith(".report.json")]
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for name, w in sorted(workloads.WORKLOADS.items()):
        for seed in (1, 2):
            out += [(f"{name}[{seed}, {i}]", json.loads(w.case(seed, i).spec_text))
                    for i in range(len(w.cycle))]
    return out


def _siegel_certificates():
    """(label, nf, cert) for every parabolic and hyperbolic normal form of
    :func:`_specs` that reaches its criterion (an invertible normal map)
    and has a diagonal contraction block."""
    out = []
    for label, spec in _specs():
        f = parse_map_spec(spec)
        nf = normal_form(cayley_to_ball(f) if isinstance(f, SiegelMap) else f)
        if nf.form_kind in SIEGEL_FORMS:
            cert = certify(nf)
            if cert.verdict != INCONCLUSIVE and cert.criterion_id != "invertibility":
                out.append((label, nf, cert))
    return out


def _homogeneous(f: SiegelMap) -> np.ndarray:
    """The homogeneous matrix of f with corner 1."""
    t = f.to_proj().mat
    return t / t[-1, -1]


def _relative(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _assert_same_margin(got, want, label=None):
    """The flow margins of two generators agree within 1e-15, relative
    beyond magnitude 1 (the margins of the triage maps reach 76, where
    one ulp is 1.4e-14)."""
    m = emb._flow_margin(want)
    assert abs(emb._flow_margin(got) - m) <= 1e-15 * max(1.0, abs(m)), label


@pytest.fixture(scope="module")
def siegel_certificates():
    return _siegel_certificates()


def test_corpus_covers_both_cases_and_verdicts(siegel_certificates):
    assert len(siegel_certificates) >= 47
    kinds = {(nf.form_kind, cert.verdict) for _, nf, cert in siegel_certificates}
    assert kinds == {(k, v) for k in SIEGEL_FORMS for v in (EMBEDDABLE, CONDITION_FAILS)}


def test_generator_matches_the_closed_forms(siegel_certificates):
    for label, nf, cert in siegel_certificates:
        got, want = emb._siegel_log(cert.target), siegel_matrix(nf)
        assert _relative(got, want) <= 1e-15, label
        _assert_same_margin(got, want, label)
        if cert.verdict == EMBEDDABLE:
            assert np.array_equal(cert.G, got), label


def test_exp_of_the_generator_is_the_map(siegel_certificates):
    for label, _, cert in siegel_certificates:
        g = emb._siegel_log(cert.target)
        assert not np.any(g[-1]), label
        t = _homogeneous(cert.target)
        assert _relative(mat_exp(g), t) <= 1e-14, label


# ---------------------------------------------------------------------------
# the edges of the closed forms


def _mp_logm(f: SiegelMap) -> np.ndarray:
    """The principal logarithm of f's homogeneous matrix by mpmath's logm
    at 40 digits, rounded to complex doubles."""
    with mpmath.workdps(40):
        t = _homogeneous(f)
        log = mpmath.logm(mpmath.matrix(t.tolist()))
        return np.array([[complex(log[i, j]) for j in range(t.shape[1])]
                         for i in range(t.shape[0])])


def _target(nf):
    cert = emb.embed_parabolic(nf) if nf.form_kind == FORM_PARABOLIC else emb.embed_hyperbolic(nf)
    return cert, emb._siegel_log(cert.target)


@pytest.mark.parametrize("mu", [complex(-0.5, 0.0), complex(-0.5, -0.0)])
@pytest.mark.parametrize("kind", SIEGEL_FORMS)
def test_contraction_eigenvalue_on_the_negative_axis(kind, mu):
    nf = (parabolic_nf([0.2], [], [mu], [0.4 - 0.1j], 0.3 + 2.0j) if kind == FORM_PARABOLIC
          else hyperbolic_nf(3.0, [], [mu], [0.4 - 0.1j], [], 0.3 + 2.0j))
    _, g = _target(nf)
    want = siegel_matrix(nf)
    assert _relative(g, want) <= 1e-15
    # the branch of arg in (-pi, pi] that the sign of the zero picks
    assert g[-2, -2].imag == math.copysign(math.pi, mu.imag)
    _assert_same_margin(g, want)


def test_resonant_hyperbolic_entry():
    # sqrt(lam) mu = 1 for the second eigenvalue: its translation c_res
    # stays, and the reduction drops its z-row coefficient c there
    lam = 2.25
    nf = hyperbolic_nf(lam, [np.exp(0.7j)], [0.3 + 0.2j, 1.0 / math.sqrt(lam)],
                       [0.2, 0.0], [0.0, 0.25 + 0.1j], 0.4 + 3.0j)
    cert, g = _target(nf)
    assert cert.verdict == EMBEDDABLE
    assert g[-2, -2] == 0 and g[-2, -1] == nf.parameters["c_res"][1]
    assert _relative(g, siegel_matrix(nf)) <= 1e-15
    assert _relative(g, _mp_logm(cert.target)) <= 1e-15
    assert _relative(mat_exp(g), _homogeneous(cert.target)) <= 1e-14


def test_coupled_translation_takes_the_dd2_term():
    # an affine map with a z-row coefficient and a translation on the same
    # w-entry, which no reduction leaves: beta takes q_j gamma_j DD2(x, l_j, 0),
    # a term the closed forms never needed
    f = SiegelMap(2.25, np.array([0.2, 0.3 - 0.1j]), 0.4 + 3.0j,
                  np.diag([0.45 + 0.3j, 0.9]), np.array([0.1j, 0.25 + 0.1j]))
    g = emb._siegel_log(f)
    assert _relative(g, _mp_logm(f)) <= 1e-15
    assert _relative(mat_exp(g), _homogeneous(f)) <= 1e-14


def test_parabolic_u_block_is_exact():
    # eigenvalue exactly 1: DD1(0, 0) = 1, so the u-row is 2i conj(a), the
    # u-column a, and beta = b - i |a|^2
    a = np.array([0.3 - 0.2j, -0.1 + 0.4j])
    nf = parabolic_nf(a, [np.exp(1.1j)], [0.5j], [0.2 + 0.1j], 0.7 + 2.0j)
    cert, g = _target(nf)
    assert cert.verdict == EMBEDDABLE
    assert np.array_equal(g[0, 1:3], 2j * np.conj(a)) and np.array_equal(g[1:3, -1], a)
    assert not np.any(np.diag(g)[:3])
    assert g[0, -1].real == 0.7
    assert g[0, -1].imag == pytest.approx(2.0 - float(np.vdot(a, a).real), abs=1e-15)
    assert _relative(g, siegel_matrix(nf)) <= 1e-15
    assert _relative(g, _mp_logm(cert.target)) <= 1e-15


@pytest.mark.parametrize("gap", [2e-13, 5e-14])
@pytest.mark.parametrize("kind", SIEGEL_FORMS)
def test_w_eigenvalue_near_one(kind, gap):
    # the w-eigenvalue of T is 1 - gap, so its logarithm is about -gap; the
    # oracle's cocycle rate is cut to 1 below 1e-13, which is off by gap/2
    if kind == FORM_PARABOLIC:
        nf = parabolic_nf([], [], [1.0 - gap], [0.3 + 0.2j], 0.1 + 2.0j)
    else:  # resonant: the reduction keeps the translation c_res
        lam = 2.0
        nf = hyperbolic_nf(lam, [], [(1.0 - gap) / math.sqrt(lam)], [0.0],
                           [0.3 + 0.2j], 0.1 + 2.0j)
    cert, g = _target(nf)
    assert _relative(g, _mp_logm(cert.target)) <= 1e-15
    if gap >= 1e-13:
        assert _relative(g, siegel_matrix(nf)) <= 1e-15
    assert _relative(mat_exp(g), _homogeneous(cert.target)) <= 1e-14


# ---------------------------------------------------------------------------
# singular maps

SINGULAR_SPECS = {
    # (z1, z2) -> (z1 / 2, 0)
    "ball": {"domain": "ball", "dimension": 2, "A": [[[0.5, 0.0], [0.0, 0.0]],
                                                     [[0.0, 0.0], [0.0, 0.0]]],
             "B": [[0.0, 0.0], [0.0, 0.0]], "C": [[0.0, 0.0], [0.0, 0.0]], "D": [1.0, 0.0]},
    # (z1, z2) -> (i z1, 0): the split criterion's A1 is 0
    "ball_split": {"domain": "ball", "dimension": 2, "A": [[[0.0, 1.0], [0.0, 0.0]],
                                                           [[0.0, 0.0], [0.0, 0.0]]],
                   "B": [[0.0, 0.0], [0.0, 0.0]], "C": [[0.0, 0.0], [0.0, 0.0]],
                   "D": [1.0, 0.0]},
    # (z, w) -> (z + 0.3 + i, 0) on H_2
    "siegel": {"domain": "siegel", "dimension": 2, "lambda": [1.0, 0.0], "a": [[0.0, 0.0]],
               "b": [0.3, 1.0], "c": [[0.0, 0.0]], "M": [[[0.0, 0.0]]]},
}


@pytest.mark.parametrize("domain", sorted(SINGULAR_SPECS))
def test_singular_map_fails_its_condition(domain):
    report = run_pipeline(SINGULAR_SPECS[domain])
    embed = report["stages"]["embed"]
    assert embed["verdict"] == CONDITION_FAILS
    assert embed["criterion_id"] == "invertibility"
    assert embed["margins"] == [{"name": "invertible", "margin": 0.0, "passed": False}]
    assert report["stages"]["semigroup"]["status"] == "skipped"
    assert report["exit_status"] == EXIT_CONDITION_FAILS


def test_small_w_eigenvalue_embeds():
    # (z, w) -> (z + 0.3 + i, 1e-13 w) on H_2 is injective; its flow
    # (z + t (0.3 + i), e^{t log 1e-13} w) keeps H_2 with margin Im b = 1
    spec = dict(SINGULAR_SPECS["siegel"], M=[[[1e-13, 0.0]]])
    embed = run_pipeline(spec, stop_after="embed")["stages"]["embed"]
    assert embed["verdict"] == EMBEDDABLE
    assert embed["criterion_id"] == "parabolic_generator_invariance"
    assert embed["margins"][0]["margin"] == pytest.approx(1.0, abs=1e-12)
    nf = parabolic_nf([], [], [1e-13], [0.0], 0.3 + 1.0j)
    cert, g = _target(nf)
    assert cert.verdict == EMBEDDABLE
    assert _relative(g, _mp_logm(cert.target)) <= 1e-15


@pytest.mark.parametrize("profile", ["default", "strict"])
def test_small_w_eigenvalue_verifies(profile):
    # G has the eigenvalue log 1e-13 = -29.9, so the step 1e-4 of generator_fd
    # would leave its truncation error h^2 rho^3 / 6 = 6e-5 above either
    # tolerance; the step shrunk by rho passes the exact family
    report = run_pipeline(dict(SINGULAR_SPECS["siegel"], M=[[[1e-13, 0.0]]]),
                          tol_profile=profile)
    assert [c["passed"] for c in report["stages"]["verify"]["checks"]] == [True] * 5
    assert report["exit_status"] == EXIT_EMBEDDABLE


@pytest.mark.parametrize("lam", [1e13, 1e15])
def test_large_hyperbolic_lam_embeds(lam):
    # T keeps the eigenvalue 1 at its corner next to lam, so
    # min |eig| / max |eig| = 1 / lam; the map is injective all the same
    nf = hyperbolic_nf(lam, [], [0.5], [0.0], [], 0.3 + 1.0j)
    cert = certify(nf)
    assert cert.verdict == EMBEDDABLE
    assert cert.criterion_id == "hyperbolic_generator_invariance"
    assert cert.margins[0].margin == pytest.approx(1.0, abs=1e-12)
    g = cert.G
    assert _relative(g, _mp_logm(cert.target)) <= 1e-15
    assert _relative(mat_exp(g), _homogeneous(cert.target)) <= 1e-14
    f1 = emb._SiegelFlow.of(g).maps(np.ones(1))
    assert _relative(_homogeneous(SiegelMap(f1.lam[0], f1.a[0], f1.b[0], f1.M[0], f1.c[0])),
                     _homogeneous(cert.target)) <= 1e-14


@pytest.mark.parametrize("a", [[[[1e-13, 0.0]]],
                               [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-13, 0.0]]]])
def test_small_elliptic_eigenvalue_is_an_input_error(a):
    # z -> 1e-13 z and (z1, z2) -> (z1 / 2, 1e-13 z2): the logarithm search
    # refuses an eigenvalue at most 1e-12 relative, which is not exactly 0,
    # so the map gets no verdict
    n = len(a)
    spec = {"domain": "ball", "dimension": n, "A": a, "B": [[0.0, 0.0]] * n,
            "C": [[0.0, 0.0]] * n, "D": [1.0, 0.0]}
    report = run_pipeline(spec)
    assert report["stages"]["embed"] == {"status": "error",
                                         "error": "singular matrix admits no logarithm"}
    assert report["exit_status"] == EXIT_INPUT_ERROR
