"""Outside-in tracing of lfmsemi from the benchmark's own files.

:class:`Tracer` wraps public functions of the library's modules where each
module bound them (``from .maps import classify`` makes ``cli.classify``
a separate binding of the same function), plus a few methods on the map
and family classes. Every call records a span (name, start, end, parent,
map index) and a call count; spans stay in memory and are written once,
when the run ends. Nothing inside ``src/`` is edited, and the wrappers
return exactly what the wrapped function returned, so reports are
unchanged by tracing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("cli", "maps", "normal_forms", "embedding", "linalg", "verify")

#: module -> public functions to wrap (span name is "<module>.<function>").
#: ``_family_self_map`` is the private self-map check that ``verify_family``
#: runs; it is wrapped so that every check of the battery has a span.
FUNCTIONS = {
    "cli": ("run_pipeline", "parse_map_spec", "emit_trajectory"),
    "maps": ("classify", "fixed_points", "boundary_dilation", "unitary_index",
             "conjugate", "compose", "inverse", "cayley_to_ball", "cayley_to_siegel",
             "is_identity"),
    "normal_forms": ("elliptic_split", "elliptic_u0", "parabolic_normal_form",
                     "hyperbolic_normal_form", "parabolic_conditions",
                     "hyperbolic_conditions", "siegel_conditions", "conjugation_residual"),
    "embedding": ("embed_elliptic_split", "embed_elliptic_u0", "embed_parabolic",
                  "embed_hyperbolic", "log_candidates", "build_semigroup", "generator",
                  "is_automorphism"),
    "linalg": ("mat_exp", "mat_log_principal", "schur_form", "svd_form", "pinv",
               "is_dissipative", "spectral_norm", "spectral_radius"),
    "verify": ("verify_family", "check_identity_at_zero", "check_semigroup_law",
               "_family_self_map", "check_self_map", "check_time_one", "check_generator"),
}

#: (module, class, method) triples; span name is "<module>.<Class>.<method>"
METHODS = (
    ("maps", "BallMap", "__post_init__"),
    ("maps", "BallMap", "__call__"),
    ("maps", "BallMap", "eval_many"),
    ("maps", "SiegelMap", "__call__"),
    ("maps", "SiegelMap", "eval_many"),
    ("maps", "ProjMap", "__call__"),
    ("embedding", "SemigroupFamily", "at"),
)


class Tracer:
    """Span and count recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        # (span id, parent id, name id, map index, start, end)
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.map_index = -1
        self._stack: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, count_points: bool = False, result_hook=None):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            tracer.counts[name] += 1
            if count_points:
                tracer.counts[name + ".points"] += len(args[-1])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (span_id, parent, name_id, tracer.map_index, start, end)
            if result_hook is not None:
                result = result_hook(result)
            return result

        return functools.update_wrapper(traced, fn)

    def _hooks(self, name: str):
        if name == "embedding.log_candidates":
            def built(result):
                self.counts["embedding.log_candidates.built"] += len(result)
                return result
            return built
        if name == "embedding.generator":
            # the closed-form generator is a closure; time its evaluations too
            return lambda gen: self._wrap("embedding.generator.eval", gen)
        return None

    @contextmanager
    def installed(self):
        """Patch every binding, yield, then restore the originals."""
        import lfmsemi

        mods = {m: importlib.import_module(f"lfmsemi.{m}") for m in MODULES}
        namespaces = [lfmsemi] + list(mods.values())
        undo = []
        try:
            for mod_name, funcs in FUNCTIONS.items():
                for func_name in funcs:
                    original = getattr(mods[mod_name], func_name)
                    name = f"{mod_name}.{func_name}"
                    wrapped = self._wrap(name, original, result_hook=self._hooks(name))
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                undo.append((ns, attr, original))
                                setattr(ns, attr, wrapped)
            for mod_name, cls_name, meth in METHODS:
                cls = getattr(mods[mod_name], cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{mod_name}.{cls_name}.{meth}", original,
                                              count_points=meth == "eval_many"))
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    # ------------------------------------------------------------------
    # analysis

    def self_times(self) -> list:
        """Self time of every span (its duration minus the time its child
        spans cover), indexed by span id. Calls are single-threaded and
        nested, so the covered time is the sum of the children's spans."""
        own = [end - start for _, _, _, _, start, end in self.spans]
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def outermost_time(self, names) -> float:
        """Total inclusive time of spans named in ``names`` that have no
        ancestor named in ``names`` (nested calls are not counted twice)."""
        names = set(names)
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        total = 0.0
        inside = {}
        for span_id, parent, name_id, _, start, end in self.spans:
            covered = inside.get(parent, False) if parent >= 0 else False
            mine = name_id in ids
            inside[span_id] = covered or mine
            if mine and not covered:
                total += end - start
        return total

    def child_time(self, parent_name: str, child_name: str) -> float:
        """Inclusive time of ``child_name`` spans called directly by a
        ``parent_name`` span."""
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return 0.0
        parent_id, child_id = self._name_ids[parent_name], self._name_ids[child_name]
        by_id = {s[0]: s[2] for s in self.spans}
        return sum(end - start for _, parent, name_id, _, start, end in self.spans
                   if name_id == child_id and parent >= 0 and by_id[parent] == parent_id)

    def self_time_by_name(self) -> dict:
        totals = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[self.names[span[2]]] += own
        return dict(totals)

    def write(self, path, header: dict) -> None:
        """Header line, then one JSON array per span:
        [id, parent, name, map, start_s, end_s, self_s]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for (span_id, parent, name_id, map_index, start, end), own in zip(
                    self.spans, self.self_times()):
                fh.write(json.dumps([span_id, parent, self.names[name_id], map_index,
                                     round(start, 9), round(end, 9), round(own, 9)]) + "\n")
