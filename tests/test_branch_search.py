"""Matrix-log branch searches.

Both elliptic criteria test the principal logarithm L0 first, then one
primary logarithm per class inside an ellipsoid that holds every passing
class (``embedding._lattice_shifts``): one per hermitian class for the
split criterion, one per class of (Herm M, delta M^H e1) for the u0
criterion.  The split oracle is a brute force over every branch shift
|k_j| <= 5 whose logarithms and hermitian parts are computed in mpmath at
30 digits; the u0 oracle is a brute force over |k_j| <= 4 decided by the
criterion's exact margins.  ``eager_log_candidates``, the box search of
earlier versions, stays as the reference for the errors of
``log_candidates``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest

from lfmsemi import embedding as emb
from lfmsemi.cli import EXIT_CONDITION_FAILS, EXIT_INCONCLUSIVE, parse_map_spec, run_pipeline
from lfmsemi.embedding import CONDITION_FAILS, EMBEDDABLE, INCONCLUSIVE, log_candidates
from lfmsemi.errors import BranchError, DomainError, NumericError
from lfmsemi.linalg import mat_exp, mat_log_principal, schur_form
from lfmsemi.normal_forms import (FORM_ELLIPTIC_SPLIT, FORM_ELLIPTIC_U0, NormalForm,
                                  normal_form)

from closed_forms import closed_form_data, hermitian_part
from test_golden import _mismatches

GOLDEN = Path(__file__).parent / "golden" / "branch_search"


def eager_log_candidates(a, bound=3, max_candidates=4096):
    """The eager |k| <= 3 box search of earlier versions: every candidate
    is built and verified before the first is returned."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    eigs = schur_form(a).eigenvalues
    if np.min(np.abs(eigs)) <= 1e-12 * max(1.0, float(np.max(np.abs(eigs)))):
        raise DomainError("singular matrix admits no logarithm")
    norm_a = max(1.0, float(np.linalg.norm(a)))
    candidates = []
    seen = set()

    def push(m):
        key = (round(float(np.trace(m).real), 8), round(float(np.trace(m).imag), 8),
               round(float(np.linalg.norm(m)), 8))
        if key in seen:
            return
        if float(np.linalg.norm(mat_exp(m) - a)) <= 1e-8 * norm_a:
            seen.add(key)
            candidates.append(m)

    try:
        base = mat_log_principal(a)
    except BranchError:
        base = None
    vals, vecs = np.linalg.eig(a)
    if np.linalg.cond(vecs) < 1e8:
        clusters = []
        assigned = np.full(n, -1)
        for i in range(n):
            if assigned[i] >= 0:
                continue
            members = np.nonzero(np.abs(vals - vals[i]) <= 1e-8 * max(1.0, abs(vals[i])))[0]
            assigned[members] = len(clusters)
            clusters.append(members)
        base_logs = np.log(vals)
        ks = sorted(range(-bound, bound + 1), key=abs)
        inv_vecs = np.linalg.inv(vecs)
        for tried, combo in enumerate(itertools.product(ks, repeat=len(clusters))):
            if tried >= 20000 or len(candidates) >= max_candidates:
                break
            shift = np.zeros(n, dtype=complex)
            for cluster, k in zip(clusters, combo):
                shift[cluster] = 2j * np.pi * k
            push(vecs @ np.diag(base_logs + shift) @ inv_vecs)
    elif base is not None:
        for k in sorted(range(-bound, bound + 1), key=abs):
            push(base + 2j * np.pi * k * np.eye(n))
    if base is not None:
        push(base)
    if not candidates:
        raise NumericError("no verifiable logarithm candidate found")
    return candidates


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def normal_contraction(rng, n, clusters):
    """A random normal n x n contraction with ``clusters`` distinct
    eigenvalues: its principal logarithm is normal with negative real
    spectrum, hence dissipative."""
    vals = rng.uniform(0.3, 0.8, clusters) * np.exp(1j * rng.uniform(-2.5, 2.5, clusters))
    w = random_unitary(rng, n)
    return w @ np.diag(vals[np.arange(n) % clusters]) @ w.conj().T


def coupled_pair(rng):
    """The coupled non-dissipative pair e^{i phi} [[0.3, beta], [0, 0.33]],
    0.79 <= |beta| <= 0.83: distinct eigenvalues, and the hermitian part
    of every logarithm has a positive eigenvalue."""
    phase = np.exp(1j * rng.uniform(-0.3, 0.3))
    beta = rng.uniform(0.79, 0.83) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    return phase * np.array([[0.3, beta], [0.0, 0.33]])


def split_spec(rng, unitary, blocks):
    """Spec of the centred map z -> W diag(e^{i theta}, blocks...) W^H z."""
    sizes = [unitary] + [b.shape[0] for b in blocks]
    n = sum(sizes)
    a = np.zeros((n, n), dtype=complex)
    a[:unitary, :unitary] = np.diag(np.exp(1j * rng.uniform(0.4, 2.6, unitary)))
    at = unitary
    for b in blocks:
        a[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    w = random_unitary(rng, n)
    a = w @ a @ w.conj().T
    return {"name": "split", "dimension": n, "domain": "ball",
            "A": [[[z.real, z.imag] for z in row] for row in a],
            "B": [[0.0, 0.0]] * n, "C": [[0.0, 0.0]] * n, "D": [1.0, 0.0]}


def split_form(spec):
    return normal_form(parse_map_spec(spec))


def brute_force_tops(a, bound=5):
    """lambda_max(Herm L(k)) for every primary logarithm
    L(k) = sum_j (log lam_j + 2 pi i k_j) P_j of a with |k_j| <= bound,
    P_j the spectral projector of eigenvalue cluster j, and k_0 = 0
    (adding one integer to every k_j adds a multiple of 2 pi i I to L and
    leaves Herm L unchanged).  The eigen-decomposition, the logarithms and
    the hermitian parts are computed in mpmath at 30 digits; each
    lambda_max is taken in double precision of the rounded matrix, and
    again in mpmath when it lies within 1e-6 of 0.

    Returns one eigenvalue per cluster, in mpmath's order, and
    {k: lambda_max} with k in that order."""
    with mpmath.workdps(30):
        vals, vecs = mpmath.eig(mpmath.matrix(np.asarray(a).tolist()))
        inv = vecs ** -1
        n = len(vals)
        clusters = []
        for i in range(n):
            for cluster in clusters:
                if abs(vals[i] - vals[cluster[0]]) <= 1e-8 * max(1, abs(vals[i])):
                    cluster.append(i)
                    break
            else:
                clusters.append([i])

        def outer(i):
            return vecs[:, i] * inv[i, :]

        def herm(x):
            return (x + x.H) / 2

        l0 = sum((mpmath.log(vals[i]) * outer(i) for i in range(n)), mpmath.zeros(n))
        parts = [herm(l0)] + [herm(2j * mpmath.pi * sum((outer(i) for i in c), mpmath.zeros(n)))
                              for c in clusters]
        h0, *gs = [np.array(p.tolist(), dtype=complex) for p in parts]
        ks = [(0,) + k for k in itertools.product(range(-bound, bound + 1),
                                                   repeat=len(clusters) - 1)]
        stack = h0 + np.tensordot(np.array(ks, dtype=float), np.array(gs), axes=1)
        tops = np.linalg.eigvalsh(stack)[:, -1]
        out = {}
        for k, top in zip(ks, tops.tolist()):
            if abs(top) < 1e-6:
                exact = parts[0] + sum((kj * g for kj, g in zip(k, parts[1:]) if kj),
                                       mpmath.zeros(n))
                top = float(max(mpmath.eighe(exact, eigvals_only=True)))
            out[k] = top
        return [complex(vals[c[0]]) for c in clusters], out


def lattice_shifts(a1):
    return emb._lattice_shifts(emb._Logarithms(a1))


def contraction_block(basis, vals):
    """basis diag(vals) basis^-1, scaled to norm 0.95 when it is larger."""
    a = basis @ np.diag(vals) @ np.linalg.inv(basis)
    return a * min(1.0, 0.95 / np.linalg.norm(a, 2))


def _count_checks(monkeypatch) -> list:
    """Record (eigenbasis, branch shift k) of every exponentiation check
    (``embedding._verified``) and refuse any call of ``mat_exp``: a
    conditioned eigenbasis checks its logarithms through itself."""
    verified, calls = emb._verified, []

    def counting(eig, combo, a):
        calls.append((eig, tuple(combo)))
        return verified(eig, combo, a)

    def refused(m):
        raise AssertionError("a logarithm of a conditioned eigenbasis was checked by mat_exp")

    monkeypatch.setattr(emb, "_verified", counting)
    monkeypatch.setattr(emb, "mat_exp", refused)
    return calls


def test_embeddable_dim8_verifies_one_candidate(monkeypatch):
    rng = np.random.default_rng(8)
    nf = split_form(split_spec(rng, 4, [normal_contraction(rng, 4, 4)]))
    calls = _count_checks(monkeypatch)
    cert = emb.embed_elliptic_split(nf)
    assert cert.verdict == EMBEDDABLE
    assert len(cert.margins) == 1
    assert [k for _, k in calls] == [(0, 0, 0, 0)]


def test_condition_fails_counts_every_candidate():
    nf = split_form(json.loads(
        (GOLDEN / "elliptic_split_coupled_condition_fails_ball_n8.json").read_text()))
    a1 = nf.parameters["A1"]
    cert = emb.embed_elliptic_split(nf)
    count = 1 + len(lattice_shifts(a1))  # L0 and one logarithm per further class
    assert cert.verdict == CONDITION_FAILS
    assert [m.name for m in cert.margins] == [f"dissipativity[candidate {i}]"
                                              for i in range(count)]
    assert not any(m.passed for m in cert.margins)
    assert f"no dissipative logarithm among {count} candidates, one per hermitian class" \
        in cert.notes
    _, tops = brute_force_tops(a1)
    assert len(tops) == 11 ** 3
    assert min(tops.values()) > 1e-3


def test_singular_error_unchanged():
    a = np.diag([0.5, 0.0])
    for search in (log_candidates, eager_log_candidates):
        with pytest.raises(DomainError, match="^singular matrix admits no logarithm$"):
            search(a)


def test_no_candidate_error_unchanged():
    # a Jordan-like block on the negative real axis: no principal logarithm
    # and an eigenbasis past the conditioning cut, so nothing to walk
    a = np.array([[-0.5, 1.0], [0.0, -0.5]])
    for search in (log_candidates, eager_log_candidates):
        with pytest.raises(NumericError, match="^no verifiable logarithm candidate found$"):
            search(a)


def _elliptic_forms(block):
    """The split form (Lambda = 1, A1 = block) and the u0 form
    (Ahat = block, delta = 0.3) of one contraction block."""
    block = np.asarray(block, dtype=complex)
    split = NormalForm(FORM_ELLIPTIC_SPLIT, None, [],
                       {"Lambda": np.ones(1, dtype=complex), "A1": block})
    return split, u0_form(block, 0.3)


def test_no_candidate_error_of_both_criteria():
    # the block of test_no_candidate_error_unchanged, met by each criterion
    split, u0 = _elliptic_forms([[-0.5, 1.0], [0.0, -0.5]])
    with pytest.raises(NumericError, match="^no verifiable logarithm candidate found$"):
        emb.embed_elliptic_split(split)
    with pytest.raises(NumericError, match="^no verifiable logarithm candidate found$"):
        emb.embed_elliptic_u0(u0)


def test_an_exact_zero_eigenvalue_fails_invertibility():
    for nf in _elliptic_forms(np.diag([0.5, 0.0])):
        cert = emb.certify(nf)
        assert (cert.verdict, cert.criterion_id) == (CONDITION_FAILS, "invertibility")
        assert [(m.name, m.passed) for m in cert.margins] == [("invertible", False)]


def test_five_cluster_search_is_complete():
    # five distinct contraction eigenvalues: 7^5 = 16807 branch combinations
    # in the |k| <= 3 box, more than the box walk verified before its
    # 4096-candidate cap; the normal clusters are orthogonal to the rest,
    # so the lattice has a single free coordinate, the coupled pair's
    rng = np.random.default_rng(6)
    normal = np.diag(np.array([0.5, 0.6j, -0.45 + 0.2j]))
    spec = split_spec(rng, 1, [normal, coupled_pair(rng)])
    nf = split_form(spec)
    a1 = nf.parameters["A1"]
    assert a1.shape == (5, 5)
    cert = emb.embed_elliptic_split(nf)
    assert cert.verdict == CONDITION_FAILS
    assert len(cert.margins) == 1 + len(lattice_shifts(a1))
    assert "searched" not in cert.notes
    _, tops = brute_force_tops(a1)
    assert len(tops) == 11 ** 4
    assert min(tops.values()) > 1e-3

    report = run_pipeline(spec, stop_after="embed")
    assert report["stages"]["embed"]["verdict"] == CONDITION_FAILS
    assert report["stages"]["embed"]["notes"] == cert.notes
    assert report["exit_status"] == EXIT_CONDITION_FAILS


def _random_block(rng, wrapped: bool):
    """A random non-normal contraction with 2 or 3 eigenvalue clusters
    (clusters of 2 when n = 4 and 2 clusters); with ``wrapped`` the
    eigenvalue arguments sit near +-pi on alternate clusters, where a
    shifted branch can beat the principal one."""
    n = int(rng.integers(2, 5))
    count = int(rng.integers(2, min(n, 3) + 1))
    if wrapped:
        angles = (np.pi - rng.uniform(0.05, 0.6, count)) * np.where(np.arange(count) % 2, 1, -1)
    else:
        angles = rng.uniform(-np.pi, np.pi, count)
    vals = rng.uniform(0.4, 0.9, count) * np.exp(1j * angles)
    basis = np.eye(n) + rng.uniform(0.02, 0.6) * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return contraction_block(basis, vals[np.arange(n) % count])


def test_lattice_verdict_matches_mpmath_brute_force():
    rng = np.random.default_rng(2024)
    outcomes = []
    for trial in range(24):
        nf = split_form(split_spec(rng, 1, [_random_block(rng, trial % 2 == 1)]))
        a1 = nf.parameters["A1"]
        eigenvalues, tops = brute_force_tops(a1)
        # far from the 1e-10 acceptance threshold, so rounding cannot decide
        assert min(abs(t - 1e-10) for t in tops.values()) > 1e-6
        # every dissipative shift of the brute force lies in a class of the
        # lattice: the clusters are all joined here, so a class is k up to
        # a common integer, and the lattice puts k = 0 on its first cluster
        eig = emb._Logarithms(a1)
        assert len(eig.clusters) == len(eigenvalues)
        order = [int(np.argmin(np.abs(np.array(eigenvalues) - np.exp(np.diag(eig.core)[c[0]]))))
                 for c in eig.clusters]
        classes = {(0,) * len(order)} | set(lattice_shifts(a1))
        for k, top in tops.items():
            if top <= 1e-10:
                shift = [k[j] - k[order[0]] for j in order]
                assert tuple(shift) in classes
        cert = emb.embed_elliptic_split(nf)
        # a failed search is condition_fails unless a cluster holds several
        # eigenvalues (each with its own eigenvector in these diagonalizable
        # blocks): then it is derogatory and the verdict inconclusive
        failed = INCONCLUSIVE if len(eigenvalues) < len(a1) else CONDITION_FAILS
        assert cert.verdict == (EMBEDDABLE if min(tops.values()) <= 1e-10 else failed)
        if cert.verdict == INCONCLUSIVE:
            assert "is derogatory, a cluster of 2 with 2 eigenvectors" in cert.notes
        if cert.verdict == EMBEDDABLE:
            m = closed_form_data(nf, cert.G)["M"]
            assert float(np.linalg.eigvalsh(hermitian_part(m))[-1]) <= 1e-10
            assert np.linalg.norm(mat_exp(m) - a1) <= 1e-8
        outcomes.append("candidate 0" if cert.margins[0].passed else cert.verdict)
    # every path is exercised: L0 passes, a shifted class passes, none
    # passes on distinct eigenvalues, none passes on a derogatory block
    assert {outcomes.count(o) > 0
            for o in ("candidate 0", EMBEDDABLE, CONDITION_FAILS, INCONCLUSIVE)} == {True}


#: a coupled pair that fails at every branch beside a third eigenvalue
FAR_BLOCK = np.array([[0.3, 0.8, 0.02], [0.0, 0.33, 0.0], [0.0, 0.0, 0.6 * np.exp(-2j)]])


def test_ellipsoid_reaches_past_the_old_box():
    # the coupled pair [[0.3, 0.8], [0, 0.33]] fails at every branch; the
    # third eigenspace leans on the pair's by a cosine of about 0.02, so
    # the bound reaches classes whose shifts spread over more than 6,
    # which no shift with |k_j| <= 3 represents
    nf = split_form(split_spec(np.random.default_rng(3), 1, [FAR_BLOCK]))
    shifts = lattice_shifts(nf.parameters["A1"])
    far = [k for k in shifts if max(k) - min(k) > 6]
    assert len(shifts) + 1 == 24 and len(far) == 11
    cert = emb.embed_elliptic_split(nf)
    assert cert.verdict == CONDITION_FAILS
    assert len(cert.margins) == 24
    assert min(brute_force_tops(nf.parameters["A1"])[1].values()) > 1e-3


def test_each_tested_class_verified_once(monkeypatch):
    # a wrapped pair: L0 fails and the class k = (0, -1) or (0, 1) passes
    vals = np.array([0.6 * np.exp(-2.9j), 0.7 * np.exp(2.95j)])
    block = contraction_block(np.array([[1.0, 0.5], [0.0, 1.0]]), vals)
    nf = split_form(split_spec(np.random.default_rng(5), 1, [block]))
    calls = _count_checks(monkeypatch)
    cert = emb.embed_elliptic_split(nf)
    assert cert.verdict == EMBEDDABLE
    assert not cert.margins[0].passed and cert.margins[-1].passed
    assert len(calls) == len(cert.margins) > 1
    assert len(set(k for _, k in calls)) == len(calls)
    eig, last = calls[-1]
    assert np.array_equal(eig.log(last), closed_form_data(nf, cert.G)["M"])


def test_lattice_waits_for_candidate_zero(monkeypatch):
    def unexpected(*args):
        raise AssertionError("lattice set up although L0 passed")

    monkeypatch.setattr(emb, "_lattice_shifts", unexpected)
    rng = np.random.default_rng(8)
    cert = emb.embed_elliptic_split(split_form(split_spec(rng, 2, [normal_contraction(rng, 4, 3)])))
    assert cert.verdict == EMBEDDABLE and len(cert.margins) == 1


def test_unverified_class_is_inconclusive(monkeypatch):
    # a failed exponentiation check leaves its class undecided
    nf = split_form(split_spec(np.random.default_rng(3), 1, [FAR_BLOCK]))
    verified = emb._verified
    # refuse every logarithm whose trace the shifts moved off L0's
    principal = float(np.sum(np.angle(np.linalg.eigvals(nf.parameters["A1"]))))
    monkeypatch.setattr(emb, "_verified", lambda eig, k, a: verified(eig, k, a) and
                        abs(np.trace(eig.log(k)).imag - principal) < 1.0)
    cert = emb.embed_elliptic_split(nf)
    assert cert.verdict == INCONCLUSIVE
    assert re.search(r"; \d+ of 24 classes had no logarithm verified", cert.notes)
    assert 1 <= len(cert.margins) < 24


def _expm_verified(m, a) -> bool:
    """The exponentiation check of earlier versions: scipy's expm of the
    logarithm m reproduces a to within 1e-8 max(1, |a|)."""
    return float(np.linalg.norm(mat_exp(m) - a)) <= 1e-8 * max(1.0, float(np.linalg.norm(a)))


def test_eigenbasis_check_agrees_with_expm(monkeypatch):
    # every logarithm the criteria test on the goldens and on this file's
    # corpora: the eigenbasis check and the expm check give one answer
    verified, seen = emb._verified, []

    def both(eig, combo, a):
        got = verified(eig, combo, a)
        seen.append((eig.conditioned, got, _expm_verified(eig.log(combo), a)))
        return got

    monkeypatch.setattr(emb, "_verified", both)
    for path in sorted(GOLDEN.parent.rglob("*.json")):
        if not path.name.endswith(".report.json"):
            run_pipeline(json.loads(path.read_text()), stop_after="embed")
    rng = np.random.default_rng(2024)
    for trial in range(24):
        block = _random_block(rng, trial % 2 == 1)
        emb.embed_elliptic_split(split_form(split_spec(rng, 1, [block])))
    rng = np.random.default_rng(400)
    for _ in range(150):
        emb.embed_elliptic_u0(u0_form(*_random_u0(rng)))
    for ahat, delta, _ in U0_SHIFTED:
        emb.embed_elliptic_u0(u0_form(ahat, delta))
    emb.embed_elliptic_split(split_form(split_spec(np.random.default_rng(3), 1, [FAR_BLOCK])))
    assert len(seen) >= 400
    assert all(new == old for _, new, old in seen)
    assert all(conditioned and new for conditioned, new, _ in seen)


def test_a_wrong_matrix_is_refused_and_its_class_unverified(monkeypatch):
    nf = split_form(split_spec(np.random.default_rng(3), 1, [FAR_BLOCK]))
    a1 = nf.parameters["A1"]
    eig = emb._Logarithms(a1)
    shifts = lattice_shifts(a1)
    rng = np.random.default_rng(11)
    turn = rng.standard_normal(a1.shape) + 1j * rng.standard_normal(a1.shape)
    wrong = a1 + 1e-6 * np.linalg.norm(a1) * turn / np.linalg.norm(turn)
    for k in [(0,) * len(eig.clusters)] + shifts:
        assert emb._verified(eig, k, a1) and _expm_verified(eig.log(k), a1)
        assert not emb._verified(eig, k, wrong) and not _expm_verified(eig.log(k), wrong)
    # the first shifted class checked against the wrong matrix: unverified,
    # so the failed search is inconclusive
    verified = emb._verified
    monkeypatch.setattr(emb, "_verified", lambda e, k, a: verified(
        e, k, wrong if tuple(k) == shifts[0] else a))
    cert = emb.embed_elliptic_split(nf)
    assert cert.verdict == INCONCLUSIVE
    assert cert.notes.endswith("; 1 of 24 classes had no logarithm verified by exponentiation")
    assert len(cert.margins) == 23


#: z -> blockdiag(e^{0.7i}, A) z with the eigenvalue 0.3 of A derogatory:
#: two eigenvectors, e1 and e3 (ROADMAP item 15)
DEROGATORY = np.array([[0.3, 0.75, 0.0], [0.0, 0.33, 0.0], [0.0, 0.0, 0.3]])


def test_a_derogatory_block_that_fails_is_inconclusive():
    a = np.zeros((4, 4), dtype=complex)
    a[0, 0], a[1:, 1:] = np.exp(0.7j), DEROGATORY
    spec = {"name": "derogatory", "dimension": 4, "domain": "ball",
            "A": [[[z.real, z.imag] for z in row] for row in a],
            "B": [[0.0, 0.0]] * 4, "C": [[0.0, 0.0]] * 4, "D": [1.0, 0.0]}
    report = run_pipeline(spec, stop_after="embed")
    embed = report["stages"]["embed"]
    assert embed["verdict"] == INCONCLUSIVE and report["exit_status"] == EXIT_INCONCLUSIVE
    assert [m["name"] for m in embed["margins"]] == ["dissipativity[candidate 0]"]
    assert embed["margins"][0]["margin"] == pytest.approx(-0.036, abs=5e-4)
    assert re.fullmatch(r"no dissipative logarithm among 1 candidates, one per hermitian class "
                        r"of primary logarithms inside the dissipativity ellipsoid; the "
                        r"eigenvalue 0\.3[-+]\d.*j is derogatory, a cluster of 2 with 2 "
                        r"eigenvectors, and its non-primary logarithms were not searched",
                        embed["notes"]), embed["notes"]
    # its u0 twin fails every class too
    cert = emb.embed_elliptic_u0(u0_form(DEROGATORY, 0.3))
    assert cert.verdict == INCONCLUSIVE and not any(m.passed for m in cert.margins)
    assert "is derogatory, a cluster of 2 with 2 eigenvectors" in cert.notes


def test_a_derogatory_jordan_fallback_is_inconclusive():
    # 0.7 in a Jordan block of size 2 and one of size 1: the eigenbasis is
    # singular, one cluster, and n - rank(a - 0.7 I) = 2 eigenvectors
    a1 = np.array([[0.7, 0.51, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 0.7]], dtype=complex)
    eig = emb._Logarithms(a1)
    assert not eig.conditioned and len(eig.clusters) == 1
    cert = emb.embed_elliptic_split(NormalForm(FORM_ELLIPTIC_SPLIT, None, [],
                                               {"Lambda": np.ones(1, dtype=complex), "A1": a1}))
    assert cert.verdict == INCONCLUSIVE
    assert "the eigenvalue 0.7+0j is derogatory, a cluster of 3 with 2 eigenvectors" \
        in cert.notes


def test_nearly_orthogonal_eigenspaces_are_inconclusive():
    # two eigenspaces at a cosine of 1e-7 make the lattice direction that
    # shifts them apart so flat that the bound holds about 1e6 classes:
    # the enumeration gives up, and so does the verdict
    rng = np.random.default_rng(4)
    lean = np.array([[1.0, 1e-7], [0.0, 1.0]])
    nearly_normal = lean @ np.diag([0.5, 0.4j]) @ np.linalg.inv(lean)
    spec = split_spec(rng, 1, [nearly_normal, coupled_pair(rng)])
    cert = emb.embed_elliptic_split(split_form(spec))
    assert cert.verdict == INCONCLUSIVE
    assert cert.notes == ("no dissipative logarithm among 1 candidates; the dissipativity "
                          f"ellipsoid holds more than {emb._LATTICE_NODES} enumeration "
                          "nodes, so its classes were not searched")
    assert run_pipeline(spec, stop_after="embed")["exit_status"] == EXIT_INCONCLUSIVE


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ellipsoid_points_match_box_enumeration(dim):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        turn = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        q = turn @ np.diag(rng.uniform(0.5, 4.0, dim)) @ turn.T
        b = rng.standard_normal(dim)
        r2 = float(rng.uniform(0.5, 20.0))
        got = emb._ellipsoid_points(q, b, r2, 10 ** 6)
        centre = -np.linalg.solve(q, b)
        reach = np.sqrt((r2 + centre @ q @ centre) * np.diag(np.linalg.inv(q)))
        box = [range(math.floor(c - w) - 1, math.ceil(c + w) + 2) for c, w in zip(centre, reach)]
        want = [x for x in itertools.product(*box)
                if np.array(x) @ q @ np.array(x) + 2 * b @ np.array(x) <= r2]
        assert sorted(got) == sorted(want)
    assert emb._ellipsoid_points(np.eye(2), np.zeros(2), 1e6, 10) is None


def test_jordan_fallback_tests_the_principal_logarithm_once():
    # one eigenvalue cluster past the conditioning cut: every primary
    # logarithm is L0 + 2 pi i k I, all with L0's hermitian part, so L0
    # alone decides
    a1 = np.array([[0.7, 0.51], [0.0, 0.7]], dtype=complex)
    assert np.linalg.cond(np.linalg.eig(a1)[1]) >= 1e8
    cert = emb.embed_elliptic_split(NormalForm(FORM_ELLIPTIC_SPLIT, None, [],
                                               {"Lambda": np.ones(1, dtype=complex), "A1": a1}))
    assert cert.verdict == CONDITION_FAILS
    assert [m.name for m in cert.margins] == ["dissipativity[candidate 0]"]
    assert cert.margins[0].margin == pytest.approx(-0.00761077034698, abs=1e-12)
    assert len(log_candidates(a1)) == 1


def _ill_conditioned_split_spec(a1):
    """Spec of z -> diag(e^{0.5i}, a1) z.  Unlike ``split_spec`` it turns no
    basis, so A1 keeps its repeated eigenvalue exactly (a turned Jordan
    block splits into two clusters with a conditioned eigenbasis)."""
    n = a1.shape[0] + 1
    a = np.zeros((n, n), dtype=complex)
    a[0, 0] = np.exp(0.5j)
    a[1:, 1:] = a1
    return {"name": "ill-conditioned split", "dimension": n, "domain": "ball",
            "A": [[[z.real, z.imag] for z in row] for row in a],
            "B": [[0.0, 0.0]] * n, "C": [[0.0, 0.0]] * n, "D": [1.0, 0.0]}


ILL_CONDITIONED_NOTE = ("no dissipative logarithm among 1 candidates; the eigenbasis has "
                        "condition number >= 1e8 and several eigenvalue clusters, so only "
                        "the principal logarithm was tested")


def test_ill_conditioned_clusters_are_inconclusive():
    # a Jordan block beside a second eigenvalue (cond V ~ 7e15, 2 clusters):
    # the shifts of one cluster against the other are not searched, so a
    # failing L0 cannot decide the if-and-only-if criterion
    a1 = np.array([[0.7, 0.51, 0.3], [0.0, 0.7, 0.2], [0.0, 0.0, 0.4j]])
    assert np.linalg.cond(np.linalg.eig(a1)[1]) >= 1e8
    cert = emb.embed_elliptic_split(NormalForm(FORM_ELLIPTIC_SPLIT, None, [],
                                               {"Lambda": np.ones(1, dtype=complex), "A1": a1}))
    assert cert.verdict == INCONCLUSIVE
    assert len(cert.margins) == 1 and not cert.margins[0].passed
    assert cert.notes == ILL_CONDITIONED_NOTE
    # the same structure scaled into a self-map of the ball, through the CLI
    a1 = np.array([[0.7, 0.51, 0.03], [0.0, 0.7, 0.02], [0.0, 0.0, 0.4j]])
    report = run_pipeline(_ill_conditioned_split_spec(a1 / np.linalg.norm(a1, 2)),
                          stop_after="embed")
    assert report["stages"]["embed"]["verdict"] == INCONCLUSIVE
    assert report["stages"]["embed"]["notes"] == ILL_CONDITIONED_NOTE
    assert report["exit_status"] == EXIT_INCONCLUSIVE


def u0_form(ahat, delta):
    """The u0 normal form with parameters (ahat, delta); the criterion
    reads only these, so no normal map is built and delta may exceed 1."""
    return NormalForm(FORM_ELLIPTIC_U0, None, [],
                      {"Ahat": np.asarray(ahat, dtype=complex), "delta": delta})


def u0_brute_force(a, delta, bound=4):
    """{k: (Herm L(k), delta L(k)^H e1)} for every primary logarithm
    L(k) = sum_j (log lam_j + 2 pi i k_j) P_j of a with |k_j| <= bound
    (clusters in the order of ``np.linalg.eig``) that passes the u0
    condition, decided by the criterion's exact pencil margin >= -1e-10;
    and the distance of the closest exact margin from that threshold.  A
    shift whose lambda_max(Herm L) exceeds 1e-3, or whose expression at the
    sphere point z = -b/|b| (at least the pencil margin) lies below -1e-3,
    fails without its exact margin."""
    vals, vecs = np.linalg.eig(a)
    inv = np.linalg.inv(vecs)
    clusters = []
    for i in range(len(vals)):
        for cluster in clusters:
            if abs(vals[i] - vals[cluster[0]]) <= 1e-8 * max(1.0, abs(vals[i])):
                cluster.append(i)
                break
        else:
            clusters.append([i])
    projectors = np.array([vecs[:, c] @ inv[c, :] for c in clusters])
    l0 = vecs @ np.diag(np.log(vals)) @ inv
    ks = list(itertools.product(range(-bound, bound + 1), repeat=len(clusters)))
    logs = l0 + 2j * np.pi * np.tensordot(np.array(ks, dtype=float), projectors, axes=1)
    herms = (logs + np.conj(np.swapaxes(logs, 1, 2))) / 2
    bs = delta * np.conj(logs[:, 0, :])
    tops = np.linalg.eigvalsh(herms)[:, -1]
    sizes = np.linalg.norm(bs, axis=1)
    zetas = -bs / np.where(sizes > 0, sizes, 1.0)[:, None]
    at_zeta = np.where(sizes > 0, -np.einsum("ki,kij,kj->k", zetas.conj(), herms, zetas).real
                       - sizes, -tops)
    passing, closest = {}, np.inf
    for index in np.nonzero((tops <= 1e-3) & (at_zeta >= -1e-3))[0]:
        margin = emb._u0_margin(emb._u0_matrix(logs[index], delta))
        closest = min(closest, abs(margin + 1e-10))
        if margin >= -1e-10:
            passing[ks[index]] = (herms[index], bs[index])
    return passing, closest


def check_u0_against_brute_force(a, delta):
    """The u0 verdict agrees with the brute force, every passing shift
    shares (Herm L, delta L^H e1) with a class of the lattice, and an
    embeddable certificate's logarithm passes.  Returns the certificate
    and the passing shifts."""
    passing, closest = u0_brute_force(a, delta)
    assert closest > 1e-6  # rounding cannot decide a verdict
    eig = emb._Logarithms(a, delta)
    shifts = emb._lattice_shifts(eig)
    assert shifts is not None
    listed = [(hermitian_part(m), delta * m[0].conj())
              for m in [eig.l0] + [eig.log(k) for k in shifts]]
    for k, (h, b) in passing.items():
        assert any(np.linalg.norm(h - h2) + np.linalg.norm(b - b2) <= 1e-8
                   for h2, b2 in listed), k
    cert = emb.embed_elliptic_u0(u0_form(a, delta))
    # a repeated eigenvalue of these diagonalizable blocks is derogatory, and
    # a failed search on it inconclusive
    vals = np.linalg.eigvals(a)
    repeated = any(abs(x - y) <= 1e-8 * max(1.0, abs(x))
                   for x, y in itertools.combinations(vals, 2))
    assert cert.verdict == (EMBEDDABLE if passing else INCONCLUSIVE if repeated
                            else CONDITION_FAILS)
    if cert.verdict == EMBEDDABLE:
        m = cert.G[:-1, :-1]
        assert emb._u0_margin(emb._u0_matrix(m, delta)) >= -1e-10
        assert np.linalg.norm(mat_exp(m) - a) <= 1e-8
    else:
        assert f"all {len(cert.margins)} logarithm candidates violate the condition, one " \
            "per (Herm M, delta M^H e1) class" in cert.notes
    return cert, passing


def _random_u0(rng):
    """A random non-normal 2x2 to 4x4 Ahat with 1 to 3 eigenvalue clusters
    (basis noise 0.05 to 0.5; half of them with arguments near +-pi on
    alternate clusters) and delta in {0, 0.3, 1, 3}."""
    n = int(rng.integers(2, 5))
    count = int(rng.integers(1, min(n, 3) + 1))
    if rng.random() < 0.5:
        angles = (np.pi - rng.uniform(0.05, 0.6, count)) * np.where(np.arange(count) % 2, 1, -1)
    else:
        angles = rng.uniform(-np.pi, np.pi, count)
    vals = rng.uniform(0.1, 0.9, count) * np.exp(1j * angles)
    basis = np.eye(n) + rng.uniform(0.05, 0.5) * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    ahat = basis @ np.diag(vals[np.arange(n) % count]) @ np.linalg.inv(basis)
    return ahat, float(rng.choice([0.0, 0.3, 1.0, 3.0]))


def test_u0_lattice_matches_brute_force():
    rng = np.random.default_rng(400)
    outcomes = []
    for _ in range(150):
        cert, _ = check_u0_against_brute_force(*_random_u0(rng))
        outcomes.append("candidate 0" if cert.margins[0].passed else cert.verdict)
    # every path is exercised: L0 passes, a shifted class passes, none
    # passes on distinct eigenvalues, none passes on a derogatory block
    assert {outcomes.count(o) > 0
            for o in ("candidate 0", EMBEDDABLE, CONDITION_FAILS, INCONCLUSIVE)} == {True}


U0_SHIFTED = [
    # two clusters in one group: only L(0, -1) passes
    ([[-0.363 - 0.201j, 0.004 + 0.019j], [-0.022 + 0.046j, -0.548 + 0.172j]], 0.3, (0, -1)),
    # only L(-1, 0) passes: it shifts the first cluster, which the split
    # lattice pins to 0, and L(0, 1), with the same hermitian part, fails
    ([[-0.268 - 0.067j, 0.0], [-0.065 + 0.241j, -0.149 + 0.057j]], 0.3, (-1, 0)),
]


@pytest.mark.parametrize("ahat,delta,shift", U0_SHIFTED)
def test_u0_passes_only_on_a_shifted_class(ahat, delta, shift):
    a = np.array(ahat, dtype=complex)
    cert, passing = check_u0_against_brute_force(a, delta)
    assert list(passing) == [shift]
    assert cert.verdict == EMBEDDABLE and not cert.margins[0].passed
    eig = emb._Logarithms(a)
    assert np.array_equal(cert.G[:-1, :-1], eig.log(shift))


NAMES = sorted(p.name[: -len(".report.json")] for p in GOLDEN.glob("*.report.json"))


def test_golden_pairs_present():
    assert NAMES == ["elliptic_split_branch_ball_n6",
                     "elliptic_split_coupled_condition_fails_ball_n8",
                     "elliptic_u0_shifted_class_ball_n2"]


@pytest.mark.parametrize("name", NAMES)
def test_golden_branch_report(name):
    spec = json.loads((GOLDEN / f"{name}.json").read_text())
    want = json.loads((GOLDEN / f"{name}.report.json").read_text())
    report = run_pipeline(spec, seed=want["seed"], tol_profile=want["tol_profile"])
    assert _mismatches(json.loads(json.dumps(report, sort_keys=True)), want) == []
