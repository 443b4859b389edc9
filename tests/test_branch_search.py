"""The lazy matrix-log branch walk.

``embedding._iter_log_candidates`` builds and verifies one logarithm at a
time, in the order of the eager search it replaced (kept below as
``eager_log_candidates``, the reference), and the elliptic criteria stop
at the first candidate that passes.  A walk cut short by its caps ends in
``inconclusive``, never in the if-and-only-if verdict ``condition_fails``.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from lfmsemi import embedding as emb
from lfmsemi.cli import EXIT_INCONCLUSIVE, parse_map_spec, run_pipeline
from lfmsemi.embedding import CONDITION_FAILS, EMBEDDABLE, INCONCLUSIVE, log_candidates
from lfmsemi.errors import BranchError, DomainError, NumericError
from lfmsemi.linalg import mat_exp, mat_log_principal, schur_form
from lfmsemi.normal_forms import normal_form
from test_golden import _mismatches

GOLDEN = Path(__file__).parent / "golden" / "branch_search"


def eager_log_candidates(a, bound=3, max_candidates=4096):
    """The eager search the walk replaced: every candidate is built and
    verified before the first is returned."""
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


def contraction(rng, n, clusters):
    """A random n x n matrix with ``clusters`` distinct eigenvalues inside
    the unit disc, repeated in turn, in a random (non-unitary) basis."""
    vals = rng.uniform(0.3, 0.8, clusters) * np.exp(1j * rng.uniform(-2.5, 2.5, clusters))
    basis = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return basis @ np.diag(vals[np.arange(n) % clusters]) @ np.linalg.inv(basis)


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


CASES = [(n, clusters) for n in (1, 2, 3, 4) for clusters in range(1, n + 1)]


@pytest.mark.parametrize("n,clusters", CASES)
def test_walk_matches_eager_list_bit_for_bit(n, clusters):
    rng = np.random.default_rng([n, clusters])
    for _ in range(3):
        a = contraction(rng, n, clusters)
        want = eager_log_candidates(a)
        for got in (list(emb._iter_log_candidates(a)), log_candidates(a)):
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_jordan_like_walk_matches_eager_list():
    a = np.array([[0.6 + 0.2j, 1.0], [0.0, 0.6 + 0.2j]])
    assert np.linalg.cond(np.linalg.eig(a)[1]) >= 1e8
    walk = emb._BranchWalk()
    got = list(emb._iter_log_candidates(a, walk=walk))
    want = eager_log_candidates(a)
    assert len(got) == len(want) == 7
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert (walk.searched, walk.combinations, walk.truncated) == (7, 7, False)


def test_embeddable_dim8_verifies_one_candidate(monkeypatch):
    rng = np.random.default_rng(8)
    nf = split_form(split_spec(rng, 4, [normal_contraction(rng, 4, 4)]))
    calls = []

    def counting(m):
        calls.append(m)
        return mat_exp(m)

    monkeypatch.setattr(emb, "mat_exp", counting)
    cert = emb.embed_elliptic_split(nf)
    assert cert.verdict == EMBEDDABLE
    assert len(cert.margins) == 1
    assert len(calls) == 1


def test_condition_fails_counts_every_candidate():
    nf = split_form(json.loads(
        (GOLDEN / "elliptic_split_coupled_condition_fails_ball_n8.json").read_text()))
    cert = emb.embed_elliptic_split(nf)
    count = len(log_candidates(nf.parameters["A1"]))
    assert cert.verdict == CONDITION_FAILS
    assert len(cert.margins) == count
    assert f"no dissipative logarithm among {count} candidates" in cert.notes


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


def test_walk_ending_at_last_combination_is_complete():
    a = np.diag([0.5, 0.3 + 0.1j])
    complete = emb._BranchWalk()
    count = len(list(emb._iter_log_candidates(a, walk=complete)))
    assert (complete.searched, complete.combinations, complete.truncated) == (49, 49, False)

    exact = emb._BranchWalk()
    assert len(list(emb._iter_log_candidates(a, max_candidates=count, walk=exact))) == count
    assert (exact.searched, exact.truncated) == (49, False)

    cut = emb._BranchWalk()
    assert len(list(emb._iter_log_candidates(a, max_candidates=count - 1, walk=cut))) == count - 1
    assert cut.truncated and cut.searched < 49


def test_truncated_search_is_inconclusive():
    # five distinct contraction eigenvalues: 7^5 = 16807 branch combinations,
    # more than the walk verifies before its 4096-candidate cap
    rng = np.random.default_rng(6)
    normal = np.diag(np.array([0.5, 0.6j, -0.45 + 0.2j]))
    spec = split_spec(rng, 1, [normal, coupled_pair(rng)])
    nf = split_form(spec)
    assert nf.parameters["A1"].shape == (5, 5)
    cert = emb.embed_elliptic_split(nf)
    assert cert.verdict == INCONCLUSIVE
    assert len(cert.margins) == 4096
    searched = re.search(r"searched (\d+) of 16807 branch combinations", cert.notes)
    assert searched and 4096 <= int(searched.group(1)) < 16807

    report = run_pipeline(spec, stop_after="embed")
    assert report["stages"]["embed"]["verdict"] == INCONCLUSIVE
    assert report["stages"]["embed"]["notes"] == cert.notes
    assert report["exit_status"] == EXIT_INCONCLUSIVE


NAMES = sorted(p.name[: -len(".report.json")] for p in GOLDEN.glob("*.report.json"))


def test_golden_pairs_present():
    assert NAMES == ["elliptic_split_branch_ball_n6",
                     "elliptic_split_coupled_condition_fails_ball_n8"]


@pytest.mark.parametrize("name", NAMES)
def test_golden_branch_report(name):
    spec = json.loads((GOLDEN / f"{name}.json").read_text())
    want = json.loads((GOLDEN / f"{name}.report.json").read_text())
    report = run_pipeline(spec, seed=want["seed"], tol_profile=want["tol_profile"])
    assert _mismatches(json.loads(json.dumps(report, sort_keys=True)), want) == []
