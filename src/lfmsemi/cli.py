"""Batch front end: map spec in, classification / normal form / embedding
certificate / semigroup / verification report out.

Input is a single JSON document per map (complex numbers are always
two-element [re, im] arrays).  The machine-readable report is emitted
with sorted keys and shortest round-trip floats, so identical inputs
and seeds produce byte-identical bytes.

A run that goes on to ``verify`` builds its family once: the semigroup
stage's one ``at_many`` holds the verify battery's times and then the
trajectory times they lack, the trajectory rows are read off that stack
and the battery reads its own rows.  If that build fails, each stage
builds its own maps, so an error stays with its stage.

Exit codes: 0 embeddable and verified, 1 criterion definitively fails,
2 inconclusive (or verification failed), 3 input error (a usage error, a
negative seed, an unwritable ``--output`` or ``--csv`` path) or stage
error (for example ``no fixed point found in the closed ball``), each
also written to stderr as one line.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .embedding import (
    CONDITION_FAILS,
    EMBEDDABLE,
    INCONCLUSIVE,
    build_semigroup,
    certify,
    conditions_for,
    is_automorphism,
)
from .errors import LfmError
from .linalg import REAL_KINDS, _natural_array
from .maps import (
    BALL,
    DEFAULT_SAMPLE_SEED,
    SIEGEL,
    BallMap,
    SiegelMap,
    _is_whole,
    cayley_to_ball,
    classify,
)
from .normal_forms import conjugation_residual, normal_form
from .verify import DEFAULT_TOLS, SamplerCfg, _battery_stack, verify_family

SCHEMA_VERSION = 2

TOL_PROFILES = {
    "default": DEFAULT_TOLS,
    "strict": {"law": 1e-9, "self_map": 1e-10, "time_one": 1e-9,
               "generator": 1e-6, "identity": 1e-11},
}

#: the pipeline stages in order; ``stop_after`` names the last one to run
STAGES = ("classify", "normal_form", "embed", "semigroup", "verify")

#: the times of the trajectory when the caller gives none
DEFAULT_T_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)

EXIT_EMBEDDABLE = 0
EXIT_CONDITION_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3


# ---------------------------------------------------------------------------
# (de)serialization


class SpecError(LfmError):
    """Malformed map specification."""


def _numbers(flat) -> bool:
    """Every entry of *flat* is a number within the range of a double: its
    type an int or float (a subclass too, so numpy's float64), not a bool,
    and its magnitude at most the largest double, compared exactly, so
    neither NaN, Infinity nor an int that would round down to the largest
    double.  The rule of every number of a spec, ``--t`` and ``--z0``."""
    return all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, flat))) \
        and all(map(sys.float_info.max.__ge__, map(abs, flat)))


def _pairs_in(value, rank: int, where: str):
    """The complex number (rank 0), vector (rank 1) or matrix (rank 2) of
    *value*, given as lists of [re, im] pairs (a pair may be a tuple) of
    numbers as :func:`_numbers` has them, with the bits of complex(re, im),
    signed zeros too: one scan flattens the pairs, one test takes their
    entries and one ``np.array`` views each pair as a complex number.
    Anything else is tested again pair by pair, in order, to name the
    first bad one."""
    rows = value if rank == 2 else [value] if rank else [[value]]
    if rank and not (isinstance(value, list) and all(isinstance(row, list) for row in rows)):
        shape = "matrix" if rank == 2 else "list"
        raise SpecError(f"{where}: expected a {shape} of [re, im] pairs")
    lengths = sorted({len(row) for row in rows}) or [0]
    if len(lengths) > 1:
        raise SpecError(f"{where}: rows must have equal lengths, got lengths {lengths}")
    flat = [x for row in rows for v in row
            if isinstance(v, (list, tuple)) and len(v) == 2 for x in v]
    if not (len(flat) == 2 * len(rows) * lengths[0] and _numbers(flat)):
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not (isinstance(v, (list, tuple)) and len(v) == 2 and _numbers(v)):
                    index = "".join(f"[{k}]" for k in (i, j)[2 - rank:])
                    raise SpecError(f"{where}{index}: complex numbers must be [re, im] pairs "
                                    f"of finite numbers, got {v!r}")
    z = np.array(flat, dtype=float).view(complex).reshape((len(rows), lengths[0])[2 - rank:])
    return z if rank else z.item()


def _json_option(text: str, option: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise SpecError(f"{option}: invalid JSON: {getattr(exc, 'msg', exc)}")


def _times_in(value) -> tuple:
    if not (isinstance(value, list) and _numbers(value)):
        raise SpecError(f"--t: expected a JSON list of finite numbers, got {value!r}")
    for t in value:
        if t < 0:
            raise SpecError(f"--t: time {t!r} is negative; the semigroup is defined for t >= 0")
    for a, b in zip(value, value[1:]):
        if b < a:
            raise SpecError(f"--t: times must be non-decreasing, got {b!r} after {a!r}")
    return tuple(value)


#: Python scalars that are already JSON-safe (numpy scalars, even the
#: float64 subclass of float, take the isinstance chain of to_jsonable)
_JSON_SCALARS = frozenset({float, int, str, bool, type(None)})


def to_jsonable(x):
    """Recursively convert report values into JSON-safe structures;
    complex numbers become [re, im]."""
    if type(x) in _JSON_SCALARS:
        return x
    # a JSON scalar item is kept as it is, without a call
    if isinstance(x, dict):
        return {str(k): v if type(v) in _JSON_SCALARS else to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [v if type(v) in _JSON_SCALARS else to_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        if not x.ndim:
            return to_jsonable(x.item())
        if x.dtype.kind in "biuf":  # the items of tolist are JSON scalars
            return x.tolist()
        if x.dtype.kind == "c":
            return np.stack((x.real, x.imag), axis=-1).tolist()
        return [to_jsonable(v) for v in x.tolist()]
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real), float(x.imag)]
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)


def parse_map_spec(obj: dict):
    """Build a validated map from a spec document.

    Raises :class:`SpecError` naming the offending field or the violated
    constructor invariant.
    """
    if not isinstance(obj, dict):
        raise SpecError("map spec must be a JSON object")
    domain = obj.get("domain", BALL)
    if domain not in (BALL, SIEGEL):
        raise SpecError(f"domain: expected 'ball' or 'siegel', got {domain!r}")
    dim = obj.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SpecError("dimension: expected a positive integer")
    try:
        if domain == BALL:
            for key in ("A", "B", "C", "D"):
                if key not in obj:
                    raise SpecError(f"{key}: required for ball maps")
            a = _pairs_in(obj["A"], 2, "A")
            b = _pairs_in(obj["B"], 1, "B")
            c = _pairs_in(obj["C"], 1, "C")
            d = _pairs_in(obj["D"], 0, "D")
            if a.shape != (dim, dim) or len(b) != dim or len(c) != dim:
                raise SpecError(f"A/B/C: shapes disagree with dimension = {dim}")
            return BallMap(a, b, c, d)
        k = dim - 1
        for key in ("lambda", "b", "M", "a", "c") if k else ("lambda", "b"):
            if key not in obj:
                raise SpecError(f"{key}: required for siegel maps of dimension {dim}")
        lam = _pairs_in(obj["lambda"], 0, "lambda")
        bval = _pairs_in(obj["b"], 0, "b")
        m = _pairs_in(obj["M"], 2, "M") if k else np.zeros((0, 0), dtype=complex)
        avec = _pairs_in(obj["a"], 1, "a") if k else np.zeros(0, dtype=complex)
        cvec = _pairs_in(obj["c"], 1, "c") if k else np.zeros(0, dtype=complex)
        if k and (m.shape != (k, k) or len(avec) != k or len(cvec) != k):
            raise SpecError(f"M/a/c: shapes disagree with dimension = {dim}")
        return SiegelMap(lam, avec, bval, m, cvec)
    except LfmError as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"constructor invariant violated: {exc}") from exc


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(spec_obj: dict, seed: int = DEFAULT_SAMPLE_SEED, tol_profile: str = "default",
                 t_grid=DEFAULT_T_GRID, z0=None, stop_after: str = "verify"):
    """Classify -> normal form -> embed -> build -> verify, recording each
    stage outcome; stage errors are captured, later stages marked skipped.
    A *seed* that is not a non-negative integer, an unknown *tol_profile*
    or *stop_after* raises :class:`SpecError` before any stage runs."""
    if not _is_whole(seed, 0):
        raise SpecError(f"seed: expected a non-negative integer, got {seed!r}")
    if tol_profile not in TOL_PROFILES:
        raise SpecError(f"tol_profile: expected one of {sorted(TOL_PROFILES)}, "
                        f"got {tol_profile!r}")
    if stop_after not in STAGES:
        raise SpecError(f"stop_after: expected one of {list(STAGES)}, got {stop_after!r}")
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": to_jsonable(spec_obj),
        "seed": seed,
        "tol_profile": tol_profile,
        "stages": {},
    }
    stages = STAGES[: STAGES.index(stop_after) + 1]
    try:
        f = parse_map_spec(spec_obj)
        if isinstance(f, SiegelMap):
            f = cayley_to_ball(f)
    except LfmError as exc:
        report["error"] = str(exc)
    else:
        entries = _stage_entries(f, seed, TOL_PROFILES[tol_profile], t_grid, z0,
                                 "verify" in stages)
        for stage in stages:
            try:
                report["stages"][stage] = next(entries)
            except LfmError as exc:
                report["stages"][stage] = {"status": "error", "error": str(exc)}
                break
    for stage in stages:
        report["stages"].setdefault(stage, {"status": "skipped"})
    report["exit_status"] = _exit_status(report)
    return report


def _stage_entries(f, seed, tols, t_grid, z0, verifying: bool):
    """The report entry of each stage of STAGES in turn, computed when it
    is asked for; a stage error propagates from the ``next`` that asked.
    When *verifying*, the semigroup stage builds one stack for both stages
    (:func:`~lfmsemi.verify._battery_stack`): the battery's times, then the
    trajectory's that it lacks.  If that build fails, each stage builds its
    own maps, so each error stays with the stage it belongs to."""
    cls = classify(f)
    entry = {
        "status": "ok",
        "kind": cls.kind,
        "interior_fixed_points": cls.interior_fixed_points,
        "boundary_fixed_points": cls.boundary_fixed_points,
        "dw_point": cls.dw_point,
        "delta": cls.delta,
    }
    if cls.interior_fixed_points:
        entry["unitary_index"] = cls.unitary_index
    yield to_jsonable(entry)
    nf = normal_form(f, cls)
    conditions = conditions_for(nf)
    yield to_jsonable({
        "status": "ok",
        "form_kind": nf.form_kind,
        "parameters": nf.parameters,
        "chain_length": len(nf.conjugations),
        "chain_residual": conjugation_residual(nf, f),
        "conditions": [vars(c) for c in conditions],
    })
    cert = certify(nf)
    yield to_jsonable({
        "status": "ok",
        "verdict": cert.verdict,
        "criterion_id": cert.criterion_id,
        "margins": [vars(c) for c in cert.margins],
        "automorphism": is_automorphism(f),
        "notes": cert.notes,
    })
    if cert.verdict != EMBEDDABLE:
        yield {"status": "skipped", "reason": f"verdict {cert.verdict}"}
        yield {"status": "skipped", "reason": "no semigroup built"}
        return
    sg = build_semigroup(cert)
    start = z0 if z0 is not None else _default_start(sg)
    ts = _trajectory_times(t_grid)
    built = _shared_stack(sg, ts) if verifying else sg
    rows = _trajectory_rows(built, start, ts)
    entry = to_jsonable({
        "status": "ok",
        "case_kind": sg.case_kind,
        "trajectory_domain": sg.domain,
        "trajectory_start": start,
    })
    entry["trajectory"] = rows          # already JSON-safe floats
    yield entry
    reports = verify_family(built, SamplerCfg(seed=seed, domain=sg.domain), tols=tols)
    yield to_jsonable({
        "status": "ok",
        "checks": [_check_entry(r) for r in reports],
        "all_passed": all(r.passed for r in reports),
    })


def _shared_stack(sg, ts):
    """The record of :func:`~lfmsemi.verify._battery_stack` for the family
    *sg* and the trajectory times ts, or *sg* itself if that build fails."""
    try:
        return _battery_stack(sg, ts)
    except LfmError:
        return sg


def _check_entry(r):
    return {
        "check_id": r.check_id,
        "passed": r.passed,
        "worst_margin": r.worst_margin,
        "tolerance": r.tolerance,
        "samples_used": r.samples_used,
    }


def _default_start(sg) -> np.ndarray:
    z = np.zeros(sg.dim, dtype=complex)
    z[0] = 0.3 if sg.domain == BALL else 1j
    return z


def _errors(report) -> list:
    """The input error, or the error of the stage that stopped the run, as
    one line each; empty when neither stopped it."""
    if "error" in report:
        return [f"input error: {report['error']}"]
    return [f"stage {name} error: {entry['error']}"
            for name, entry in report["stages"].items() if entry["status"] == "error"]


def _exit_status(report) -> int:
    """3 on an input or stage error, else the verdict's code (0 for a run
    stopped before ``embed``), and 2 for an embeddable map whose checks failed."""
    if _errors(report):
        return EXIT_INPUT_ERROR
    stages = report["stages"]
    verdict = stages.get("embed", {}).get("verdict", EMBEDDABLE)
    if verdict == CONDITION_FAILS:
        return EXIT_CONDITION_FAILS
    if verdict == INCONCLUSIVE or not stages.get("verify", {}).get("all_passed", True):
        return EXIT_INCONCLUSIVE
    return EXIT_EMBEDDABLE


def emit_trajectory(sg, z0, t_grid) -> list:
    """Rows [t, re_1, im_1, ...] of at(t)(z0) as lists of Python floats;
    t must be non-decreasing and >= 0.  The grid is read once
    (:func:`_trajectory_times`), into a 1-d array for one ``at_many``,
    whose call checks z0 once (its dimension first, then the domain) and
    the denominator at every time."""
    return _trajectory_rows(sg, z0, _trajectory_times(t_grid))


def _trajectory_rows(sg, z0, ts: np.ndarray) -> list:
    """The rows of :func:`emit_trajectory` at the read grid ts; *sg* is a
    family or a record of :func:`~lfmsemi.verify._battery_stack` that holds
    the grid's times."""
    images = np.ascontiguousarray(sg.at_many(ts)(z0), dtype=complex)
    return np.column_stack([ts, images.view(np.float64)]).tolist()


def _trajectory_times(t_grid) -> np.ndarray:
    """The trajectory's grid as a 1-d float array, from one conversion (none
    for a float array); a grid that is not a non-decreasing list of numbers
    raises :class:`SpecError`."""
    try:
        ts, dtype = _natural_array(t_grid)
        if dtype.kind not in REAL_KINDS:  # np.asarray takes a string or a bool
            raise TypeError
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise TypeError
    except (TypeError, ValueError):
        raise SpecError(f"trajectory time grid must be a list of numbers, got {t_grid!r}") from None
    if np.any(ts[1:] < ts[:-1]):
        raise SpecError("trajectory time grid must be non-decreasing")
    return ts


def trajectory_csv(rows, dim: int) -> str:
    header = "t," + ",".join(f"re_{j+1},im_{j+1}" for j in range(dim))
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _read_spec(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, too long an integer
        raise SpecError(str(exc))


def _write_text(path: str, text: str, option: str) -> None:
    """Write text to path; a failed write is an input error on *option*."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecError(f"{option}: {exc}") from exc


def _dump_report(report, path):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        _write_text(path, text, "--output")


def _human_summary(report) -> str:
    lines = []
    stages = report["stages"]
    cls = stages.get("classify", {})
    if cls.get("status") == "ok":
        line = f"classification: {cls['kind']}"
        if cls.get("delta") is not None:
            line += f" (delta = {cls['delta']:.9g})"
        lines.append(line)
    nf = stages.get("normal_form", {})
    if nf.get("status") == "ok":
        lines.append(f"normal form: {nf['form_kind']} "
                     f"(chain residual {nf['chain_residual']:.3e})")
    embed = stages.get("embed", {})
    if embed.get("status") == "ok":
        lines.append(f"embedding: {embed['verdict']} via {embed['criterion_id']}")
        for margin in embed["margins"]:
            lines.append(f"  {margin['name']}: margin {margin['margin']:.6g}")
    ver = stages.get("verify", {})
    if ver.get("status") == "ok":
        for chk in ver["checks"]:
            status = "pass" if chk["passed"] else "FAIL"
            lines.append(f"  check {chk['check_id']}: {status} "
                         f"(worst margin {chk['worst_margin']:.3e})")
        lines.append(f"verification: {'all passed' if ver['all_passed'] else 'FAILED'}")
    lines += _errors(report)
    lines.append(f"exit status: {report['exit_status']}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 3); argparse's 2 is ``inconclusive`` here."""

    def error(self, message):
        raise SpecError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SAMPLE_SEED,
                        help="seed for all sampled verification points")
    common.add_argument("--tol-profile", choices=sorted(TOL_PROFILES), default="default")
    common.add_argument("--output", default=None,
                        help="write the machine-readable report to this path ('-' = stdout)")
    parser = _Parser(
        prog="lfmsemi",
        description="Classify linear fractional self-maps of the unit ball, "
                    "reduce them to normal form, decide semigroup embedding, "
                    "and verify the construction numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, stop in [("classify", "classify"), ("normalize", "normal_form"),
                       ("embed", "embed"), ("semigroup", "semigroup"),
                       ("verify", "verify"), ("report", "verify")]:
        p = sub.add_parser(name, parents=[common])
        p.add_argument("spec", help="path to the map spec JSON ('-' for stdin)")
        p.set_defaults(stop_after=stop)
        if name in ("semigroup", "report"):
            p.add_argument("--t", default=None,
                           help="JSON list of trajectory times (default "
                                f"{json.dumps(DEFAULT_T_GRID)})")
            p.add_argument("--z0", default=None,
                           help="JSON start point, complex entries as [re, im]")
            p.add_argument("--csv", default=None,
                           help="write the trajectory as CSV to this path")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        spec_obj = _read_spec(args.spec)
        t_grid, z0 = DEFAULT_T_GRID, None
        if getattr(args, "t", None) is not None:
            t_grid = _times_in(_json_option(args.t, "--t"))
        if getattr(args, "z0", None) is not None:
            z0 = _pairs_in(_json_option(args.z0, "--z0"), 1, "--z0")
        report = run_pipeline(spec_obj, seed=args.seed, tol_profile=args.tol_profile,
                              t_grid=t_grid, z0=z0, stop_after=args.stop_after)
        errors = _errors(report)
        if getattr(args, "csv", None):
            semi = report["stages"]["semigroup"]
            if semi["status"] == "ok":
                _write_text(args.csv, trajectory_csv(semi["trajectory"],
                                                     len(semi["trajectory_start"])), "--csv")
            else:  # the skip reason, or the error that stopped the run
                sys.stderr.write(f"trajectory CSV not written: {semi.get('reason') or errors[0]}\n")
        sys.stderr.writelines(line + "\n" for line in errors)
        if args.output:
            _dump_report(report, args.output)
    except SpecError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT_ERROR
    if args.output != "-":
        sys.stdout.write(_human_summary(report))
    return int(report["exit_status"])


if __name__ == "__main__":
    sys.exit(main())
