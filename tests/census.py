"""Print what the pipeline makes of seven seeded corpora of maps, one table
per corpus.

- ``automorphisms``: 200 ball automorphisms U o phi_a, from
  ``np.random.default_rng(0)``: dims 1-4, then |a| in {0.3, 0.9, 0.99,
  0.999, 0.9999}, then 10 maps per cell.  Each map draws U (Haar, QR with
  the phases of R's diagonal taken out), then the direction of a.  phi_a is
  ``lfmsemi.ball_automorphism(a)``.  Every one of them embeds.
- ``siegel_dilation``: the half-plane automorphisms z -> lam z + 0.3 of
  dim 1, for 17 log-spaced lam from 1e3 to 1e7.  Every one of them embeds.
- ``dead_band``: the hyperbolic maps of ``perfbench/specs.hyperbolic_spec``
  with dilation 1 + 10^-k, k = 1..14, contraction block only, in dims 1-4,
  each drawn from ``np.random.default_rng([n, k])``.  Every one of them
  embeds; the small k lie in the dead band of the classifier.
- ``lambda_sweep``: the half-plane dilations z -> lam z + 0.3 of dim 1,
  then (z, w) -> (lam z + 0.3, sqrt(lam) w) of dim 2, for lam in (2, 5, 8,
  10, 20, 50, 100, 200, 500, 1000).  Every one of them is an automorphism
  and embeds.
- ``conjugates``: every spec under ``tests/golden``, sorted by path, carried
  to the ball (``cayley_to_ball`` for a Siegel spec) and conjugated six
  times by psi = U o phi_a, with psi's homogeneous matrix Psi, the spec
  fields read off Psi T Psi^-1.  The draws come from
  ``np.random.default_rng(1)``: for each map, U by
  ``perfbench/specs.random_unitary``, then a = 0.3 d / |d| for a complex
  normal direction d.  A verdict belongs to the map, not to its
  coordinates, so each conjugate should have its golden's verdict.
- ``perturbed_hyperbolic``: six maps from ``np.random.default_rng(0)``,
  each ``tests/golden/hyperbolic_ball_n2.json`` with every [re, im] pair
  moved by 1e-8 N(0, 1) (real part, then imaginary part; keys A, B, C, D,
  row-major).  The perturbation moves the boundary fixed points off the
  sphere: some maps leave the ball, the others get an interior fixed
  point near the sphere, and their reduction a badly conditioned chain.
  Below its table stands the largest miss of S^-1 exp(G) S against f over
  ``sample_ball_points(2, 2000)``, S = ``chain_map(nf.conjugations).mat``,
  over the maps that embed: the family's map at t = 1 carried back to the
  user's coordinates, which should be f (ROADMAP item 3).
- ``nonnormal_blocks``: ``tests/golden/parabolic_nonnormal_inconclusive_siegel_n3.json``
  with lambda 1 (parabolic), then 2 (hyperbolic), and its w-block
  off-diagonal entry 0.3 scaled by 10^-k, k = 0..12.  While that entry
  is large enough for the normality gate to see, the verdict is
  ``inconclusive``; below, the map embeds.

Each map runs through ``cli.run_pipeline`` with its defaults.  A table
counts the maps of each (class, verdict, exit status, first failure),
where the first failure is the input or stage error, with its decimal
numbers replaced by ``#``, or else the first verify check that failed, or,
where verify did not run, the first embedding margin that failed.  Below it
stand the worst wall time of one run, the largest report, in bytes of
the text ``lfmsemi report`` writes, and the largest ``chain_residual`` of
the normal-form stage.

The counts are the ledger, stored in ``tests/census.json``: one list per
corpus of its outcomes, each with its count, in table order.  The wall
times, report sizes, residuals and misses vary by host and are printed
only.

Run from anywhere, with the checkout's ``src`` importable::

    python tests/census.py          # print the tables
    python tests/census.py --json   # ... and store their counts in tests/census.json
    python tests/census.py --check  # ... and compare their counts with the stored ones

``--check`` names the first (corpus, outcome) whose count differs from the
stored ledger, corpora in stored order and outcomes in table order, and
exits 1 if there is one.  A change that moves a count re-stores the ledger
with ``--json``.  Pytest does not collect this file; it reads
``perfbench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "census.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from lfmsemi import SiegelMap, ball_automorphism, cayley_to_ball, conjugate  # noqa: E402
from lfmsemi.cli import parse_map_spec, run_pipeline, to_jsonable  # noqa: E402
from lfmsemi.embedding import certify  # noqa: E402
from lfmsemi.errors import LfmError  # noqa: E402
from lfmsemi.linalg import mat_exp  # noqa: E402
from lfmsemi.maps import ProjMap, sample_ball_points  # noqa: E402
from lfmsemi.normal_forms import chain_map, normal_form  # noqa: E402

#: a decimal or exponent number, the measured values of an error message
_NUMBER = re.compile(r"[-+]?\d+(\.\d*(e[-+]?\d+)?|e[-+]?\d+)")


def automorphisms() -> list:
    import specs

    rng = np.random.default_rng(0)
    out = []
    for n in range(1, 5):
        for radius in (0.3, 0.9, 0.99, 0.999, 0.9999):
            for _ in range(10):
                u = specs.random_unitary(rng, n)
                direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                phi = ball_automorphism(radius * direction / np.linalg.norm(direction))
                out.append({"dimension": n, "domain": "ball", "A": to_jsonable(u @ phi.A),
                            "B": to_jsonable(u @ phi.B), "C": to_jsonable(phi.C),
                            "D": to_jsonable(phi.D)})
    return out


def siegel_dilation() -> list:
    return [{"domain": "siegel", "dimension": 1, "lambda": [float(lam), 0.0], "b": [0.3, 0.0]}
            for lam in np.logspace(3, 7, 17)]


def dead_band() -> list:
    import specs

    return [specs.hyperbolic_spec(np.random.default_rng([n, k]), n, 3,
                                  dilation=1 + 10.0 ** -k, contraction_only=True)
            for k in range(1, 15) for n in range(1, 5)]


def lambda_sweep() -> list:
    lams = (2, 5, 8, 10, 20, 50, 100, 200, 500, 1000)
    dim1 = [{"domain": "siegel", "dimension": 1, "lambda": [float(lam), 0.0], "b": [0.3, 0.0]}
            for lam in lams]
    return dim1 + [{"domain": "siegel", "dimension": 2, "lambda": [float(lam), 0.0],
                    "b": [0.3, 0.0], "M": [[[float(np.sqrt(lam)), 0.0]]], "a": [[0.0, 0.0]],
                    "c": [[0.0, 0.0]]} for lam in lams]


def conjugates() -> list:
    import specs

    rng = np.random.default_rng(1)
    out = []
    for path in sorted(p for p in (ROOT / "tests" / "golden").glob("**/*.json")
                       if not p.name.endswith(".report.json")):
        f = parse_map_spec(json.loads(path.read_text()))
        t = (cayley_to_ball(f) if isinstance(f, SiegelMap) else f).to_proj()
        n = t.dim
        for _ in range(6):
            u = np.eye(n + 1, dtype=complex)
            u[:n, :n] = specs.random_unitary(rng, n)
            direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi = ball_automorphism(0.3 * direction / np.linalg.norm(direction)).to_proj()
            m = conjugate(t, psi.then(ProjMap(u))).mat
            m = m / m[n, n]
            out.append({"dimension": n, "domain": "ball", "A": to_jsonable(m[:n, :n]),
                        "B": to_jsonable(m[:n, n]), "C": to_jsonable(np.conj(m[n, :n])),
                        "D": [1.0, 0.0]})
    return out


def perturbed_hyperbolic() -> list:
    spec = json.loads((ROOT / "tests" / "golden" / "hyperbolic_ball_n2.json").read_text())
    rng = np.random.default_rng(0)
    out = []
    for _ in range(6):
        drawn = dict(spec)
        for key in "ABCD":  # each [re, im] pair in row-major order, re first
            pairs = np.array(spec[key], dtype=float)
            drawn[key] = (pairs + 1e-8 * rng.standard_normal(pairs.shape)).tolist()
        out.append(drawn)
    return out


def nonnormal_blocks() -> list:
    spec = json.loads((ROOT / "tests" / "golden"
                       / "parabolic_nonnormal_inconclusive_siegel_n3.json").read_text())
    out = []
    for lam in (1.0, 2.0):
        for k in range(13):
            m = [[list(pair) for pair in row] for row in spec["M"]]
            m[0][1] = [0.3 * 10.0 ** -k, 0.0]
            out.append(dict(spec, M=m, **{"lambda": [lam, 0.0]}))
    return out


def user_miss(spec_list) -> tuple:
    """(largest miss, number of maps) over the ball specs of *spec_list*
    that embed: the miss of a map f is the largest distance between
    S^-1 exp(G) S and f on ``sample_ball_points(N, 2000)``, with G its
    certificate's generator and S = ``chain_map(nf.conjugations).mat``."""
    worst, count = None, 0
    for spec in spec_list:
        try:
            f = parse_map_spec(spec)
            nf = normal_form(f)
            cert = certify(nf)
        except LfmError:
            continue
        if cert.G is None:
            continue
        s = chain_map(nf.conjugations).mat
        family_at_one = ProjMap(np.linalg.solve(s, mat_exp(cert.G) @ s))
        zs = sample_ball_points(f.dim, 2000)
        miss = float(np.max(np.linalg.norm(family_at_one.eval_many(zs) - f.eval_many(zs),
                                           axis=1)))
        worst, count = miss if worst is None else max(worst, miss), count + 1
    return worst, count


CORPORA = {"automorphisms": automorphisms, "siegel_dilation": siegel_dilation,
           "dead_band": dead_band, "lambda_sweep": lambda_sweep, "conjugates": conjugates,
           "perturbed_hyperbolic": perturbed_hyperbolic, "nonnormal_blocks": nonnormal_blocks}


def outcome(report: dict) -> tuple:
    """(class, verdict, exit status, first failure) of one report; "-"
    where the run has none."""
    stages = report["stages"]
    first = "-"
    if "error" in report:
        first = f"input error: {report['error']}"
    else:
        for name, entry in stages.items():
            if entry["status"] == "error":
                first = f"{name} error: {entry['error']}"
                break
        else:
            if stages.get("verify", {}).get("status") == "ok":
                failed = [c["check_id"] for c in stages["verify"]["checks"] if not c["passed"]]
            else:
                failed = [m["name"] for m in stages.get("embed", {}).get("margins", [])
                          if not m["passed"]]
            first = failed[0] if failed else "-"
    return (stages.get("classify", {}).get("kind") or "-",
            stages.get("embed", {}).get("verdict") or "-",
            report["exit_status"], _NUMBER.sub("#", first))


def tally(spec_list) -> tuple:
    """(Counter of outcomes, worst wall time in s, largest report in bytes,
    largest chain residual or None where no normal form was reached)."""
    counts, worst, largest, residual = Counter(), 0.0, 0, None
    for spec in spec_list:
        start = time.perf_counter()
        report = run_pipeline(spec)
        worst = max(worst, time.perf_counter() - start)
        counts[outcome(report)] += 1
        largest = max(largest, len(json.dumps(report, sort_keys=True, indent=2)) + 1)
        found = report["stages"].get("normal_form", {}).get("chain_residual")
        if found is not None:
            residual = found if residual is None else max(residual, found)
    return counts, worst, largest, residual


def _table_order(outcome: tuple) -> tuple:
    """Outcomes sort by exit status, then by (class, verdict, first failure)."""
    return outcome[2], outcome


def table(name: str, counts: Counter, worst: float, largest: int, residual) -> list:
    rows = [f"{name} ({sum(counts.values())} maps)",
            f"  {'count':>5}  {'class':<10}  {'verdict':<15}  exit  first failure"]
    for outcome in sorted(counts, key=_table_order):
        kind, verdict, status, first = outcome
        rows.append(f"  {counts[outcome]:>5}  {kind:<10}  {verdict:<15}  {status:>4}  {first}")
    rows.append(f"  worst wall time {worst:.3f} s, largest report {largest} bytes, "
                "largest chain residual " + ("-" if residual is None else f"{residual:.3e}"))
    return rows


_FIELDS = ("class", "verdict", "exit", "first_failure")


def to_ledger(counts: dict) -> dict:
    """The JSON form of corpus -> Counter of outcomes: corpus -> rows in
    table order, each row its outcome's fields and its count."""
    return {name: [dict(zip(_FIELDS, outcome), count=c[outcome])
                   for outcome in sorted(c, key=_table_order)] for name, c in counts.items()}


def from_ledger(ledger: dict) -> dict:
    """corpus -> Counter of outcomes, read off the JSON form."""
    return {name: Counter({tuple(row[f] for f in _FIELDS): row["count"] for row in rows})
            for name, rows in ledger.items()}


def first_moved(stored: dict, counted: dict):
    """(corpus, outcome, stored count, counted count) of the first count that
    differs between two corpus -> Counter maps, corpora in stored order
    (then the corpora only counted) and outcomes in table order; an absent
    outcome or corpus counts 0.  None when every count agrees."""
    for name in list(stored) + [name for name in counted if name not in stored]:
        was, now = stored.get(name, Counter()), counted.get(name, Counter())
        for outcome in sorted(was.keys() | now.keys(), key=_table_order):
            if was[outcome] != now[outcome]:
                return name, outcome, was[outcome], now[outcome]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help=f"store the counts in {LEDGER.name}")
    mode.add_argument("--check", action="store_true",
                      help=f"compare the counts with {LEDGER.name}; exit 1 when one moved")
    args = parser.parse_args(argv)
    counted = {}
    for name, build in CORPORA.items():
        spec_list = build()
        counts, *measures = tally(spec_list)
        counted[name] = counts
        print("\n".join(table(name, counts, *measures)))
        if name == "perturbed_hyperbolic":
            worst, count = user_miss(spec_list)
            print("  largest user-coordinate miss of S^-1 exp(G) S against f: "
                  + ("-" if worst is None else f"{worst:.3e}") + f" ({count} maps embed)")
    if args.json:
        LEDGER.write_text(json.dumps(to_ledger(counted), indent=2) + "\n")
        print(f"stored the counts of {len(counted)} corpora in {LEDGER}")
    if args.check:
        moved = first_moved(from_ledger(json.loads(LEDGER.read_text())), counted)
        if moved:
            name, outcome, was, now = moved
            print(f"{name}: {outcome} counts {now}, stored {was}")
            return 1
        print(f"the counts of {len(counted)} corpora match {LEDGER.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
