"""Span tracing from outside the engine: wrappers around public entry points.

:meth:`Tracer.install` replaces each entry point listed in :data:`ENTRY_POINTS`
(a class attribute or a module-level name) with a wrapper that records one
span per call: ``(id, name, start, end, parent, op, value, raised)``.  The
parent is the span active in the caller's context; it is kept in a
``ContextVar``, and the engine copies the context into its round workers,
so spans opened on worker threads nest under the evaluation that fanned
them out.  ``value`` is whatever the entry point's extractor reads off the
return value (an ``EvaluationStats``, a ``QueryResult``, a cache-hit flag),
so counts come from the values the public calls return.

Spans are appended to one list (atomic under the interpreter lock) and kept
in memory until :meth:`Tracer.write` saves them at the end of the run.
:func:`layer_metrics` folds them into the per-layer metrics: counts, ratios,
and each layer's self time -- its spans' durations minus the part of each
span covered by its child spans -- as a share of the traced wall time.

Install before any program is constructed: module-level names are looked
up again at every call, but anything that binds a method once (a compiled
closure, an imported name) keeps what it saw at construction.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: (span name, module, owner attribute path, extractor of the span value)
ENTRY_POINTS: list[tuple[str, str, str, Callable[[Any], Any] | None]] = [
    ("parser.parse_rules", "repro.logic.parser", "parse_rules", None),
    ("parser.parse_query", "repro.logic.parser", "parse_query", None),
    ("parser.parse_goal", "repro.core.magic", "parse_goal", None),
    ("parser.parse_goal", "repro.core.query", "parse_goal", None),
    (
        "analysis.optimize",
        "repro.analysis.semantic",
        "optimize_program",
        lambda report: report.stats.containment_checks,
    ),
    ("compile.fetch", "repro.core.compile", "PlanCache.fetch", lambda result: result[1]),
    ("datalog.evaluate", "repro.core.datalog", "DatalogProgram.evaluate", lambda r: r[1]),
    ("constraints.sat", "repro.constraints.base", "ConstraintTheory.is_satisfiable", None),
    ("constraints.canon", "repro.constraints.base", "ConstraintTheory.canonicalize", None),
    ("constraints.elim", "repro.constraints.dense_order", "DenseOrderTheory.eliminate", None),
    ("constraints.elim", "repro.constraints.real_poly", "RealPolynomialTheory.eliminate", None),
    ("generalized.add", "repro.core.generalized", "GeneralizedRelation.add_canonical", None),
    ("generalized.add", "repro.core.generalized", "GeneralizedRelation.adopt_canonical", None),
    ("generalized.rename", "repro.core.generalized", "GeneralizedTuple.rename", None),
    ("indexing.probe", "repro.indexing.pool", "JoinIndexPool.probe", None),
    ("indexing.probe", "repro.indexing.pool", "IndexProbeHandle.probe", None),
    ("magic.plan", "repro.core.query", "magic_plan", None),
    ("magic.seed", "repro.core.query", "seed_world", None),
    ("magic.select", "repro.core.query", "select_answers", None),
    ("query.query", "repro.core.query", "Engine.query", lambda result: result),
    ("query.lookup", "repro.core.query", "QueryCache.lookup", None),
    ("query.store", "repro.core.query", "QueryCache.store", None),
    ("ivm.insert", "repro.core.ivm", "MaterializedView.insert", lambda stats: stats),
    ("ivm.retract", "repro.core.ivm", "MaterializedView.retract", lambda stats: stats),
    ("calculus.evaluate", "repro.core.calculus", "evaluate_calculus", None),
    ("calculus.conjoin", "repro.core.calculus", "conjoin_dnf", None),
    ("calculus.complement", "repro.core.calculus", "complement_dnf", None),
    ("qe.fm", "repro.constraints.real_poly", "fourier_motzkin_eliminate", None),
    ("qe.vs", "repro.constraints.real_poly", "vs_eliminate", None),
    ("qe.cad", "repro.qe.cad", "cad_eliminate", None),
]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    value: Any
    raised: bool


class Tracer:
    """Records spans while ``recording`` is set; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.recording = False
        #: index of the op being run; -1 during set-up
        self.op = -1
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._patches: list[tuple[Any, str, Any]] = []

    # -------------------------------------------------------------- install
    def wrap(self, name: str, fn: Callable, extract: Callable[[Any], Any] | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = next(tracer._ids)
            parent = tracer._current.get()
            token = tracer._current.set(span)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                tracer._current.reset(token)
                value = extract(result) if extract is not None and not raised else None
                tracer.spans.append((span, name, start, end, parent, tracer.op, value, raised))

        return traced

    def install(self) -> None:
        for name, module_name, path, extract in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original, extract))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # --------------------------------------------------------------- output
    def records(self) -> list[Span]:
        return [Span(*row) for row in self.spans]

    def write(self, path: Any) -> None:
        """Save every span as gzipped JSON (names interned, values dropped)."""
        names = sorted({row[1] for row in self.spans})
        index = {name: i for i, name in enumerate(names)}
        document = {
            "columns": ["id", "name", "start", "end", "parent", "op", "raised"],
            "names": names,
            "spans": [
                [row[0], index[row[1]], row[2], row[3], row[4], row[5], int(row[7])]
                for row in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(document, handle)


# ------------------------------------------------------------ aggregation
def _covered(intervals: Iterable[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def coverage(spans: list[Span], windows: list[tuple[int, float, float]]) -> float:
    """Share of op wall time inside at least one top-level span."""
    tops: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent == 0:
            tops[span.op].append((span.start, span.end))
    covered = sum(_covered(tops.get(op, ()), start, end) for op, start, end in windows)
    total = sum(end - start for _, start, end in windows)
    return covered / total if total else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[Span],
    wall: float,
    cache_counts: tuple[int, int],
    extra_counts: dict[str, int],
) -> tuple[dict[str, float], dict[str, float]]:
    """(per-layer metrics, absolute self seconds per span name).

    ``wall`` is the traced wall time (set-up plus ops) the self-time shares
    divide by; ``cache_counts`` are the theory caches' (hits, misses).
    """
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    values: dict[str, list[Any]] = defaultdict(list)
    raised: dict[str, int] = defaultdict(int)
    for span in spans:
        self_s[span.name] += own[span.id]
        calls[span.name] += 1
        raised[span.name] += span.raised
        if span.value is not None:
            values[span.name].append(span.value)

    def share(*names: str) -> float:
        return _ratio(sum(self_s[n] for n in names), wall)

    def layer(prefix: str) -> list[str]:
        return [n for n in self_s if n.startswith(prefix + ".")]

    def stat(field: str, *names: str) -> int:
        return sum(getattr(s, field) for n in names for s in values[n])

    evaluations = ("datalog.evaluate",)
    maintenance = ("ivm.insert", "ivm.retract")
    engine = evaluations + maintenance
    results = values["query.query"]
    computed = [r for r in results if not r.reused]
    rungs = ("qe.fm", "qe.vs", "qe.cad")
    derived = stat("tuples_derived", *evaluations)
    complement = stat("complement_cache_hits", *engine)
    overdeleted = stat("ivm_overdeleted", *maintenance)
    candidates = stat("index_candidates", *engine)
    avoided = stat("index_scan_avoided", *engine)
    index_probes = stat("index_probes", *engine)
    metrics: dict[str, float] = {
        "parser.calls": sum(calls[n] for n in layer("parser")),
        "parser.self_share": share(*layer("parser")),
        "analysis.self_share": share(*layer("analysis")),
        "analysis.containment_checks": sum(values["analysis.optimize"]),
        "compile.plan_hits": sum(1 for hit in values["compile.fetch"] if hit),
        "compile.plan_misses": sum(1 for hit in values["compile.fetch"] if not hit),
        "compile.lower_share": share("compile.fetch"),
        "compile.engine_hits": stat("compile_hits", *engine),
        "compile.engine_misses": stat("compile_misses", *engine),
        "datalog.self_share": share(*evaluations),
        "datalog.evaluations": calls["datalog.evaluate"],
        "datalog.iterations": stat("iterations", *evaluations),
        "datalog.join_steps": stat("join_steps", *evaluations),
        "datalog.tuples_derived": derived,
        "datalog.tuples_added": stat("tuples_added", *evaluations),
        "datalog.useful_ratio": _ratio(stat("tuples_added", *evaluations), derived),
        "datalog.parallel_rounds": stat("parallel_rounds", *evaluations),
        "datalog.complement_hit_ratio": _ratio(
            complement, complement + stat("complement_cache_misses", *engine)
        ),
        "constraints.sat_calls": calls["constraints.sat"],
        "constraints.sat_self_share": share("constraints.sat"),
        "constraints.canon_calls": calls["constraints.canon"],
        "constraints.canon_self_share": share("constraints.canon"),
        "constraints.elim_calls": calls["constraints.elim"],
        "constraints.elim_self_share": share("constraints.elim"),
        "constraints.cache_hit_ratio": _ratio(cache_counts[0], sum(cache_counts)),
        "constraints.engine_sat_checks": stat("sat_checks", *engine),
        "generalized.add_calls": calls["generalized.add"],
        "generalized.add_self_share": share("generalized.add"),
        "generalized.rename_calls": calls["generalized.rename"],
        "generalized.rename_self_share": share("generalized.rename"),
        "indexing.probes": index_probes,
        "indexing.probe_self_share": share("indexing.probe"),
        "indexing.candidates_per_probe": _ratio(candidates, index_probes),
        "indexing.scan_avoided_ratio": _ratio(avoided, avoided + candidates),
        "indexing.index_calls": calls["indexing.probe"],
        "magic.self_share": share(*layer("magic")),
        "magic.plan_self_share": share("magic.plan"),
        "magic.select_self_share": share("magic.select"),
        "magic.cone_tuples": sum(r.cone_tuples for r in computed),
        "magic.fallbacks": sum(1 for r in computed if r.full_fallback or r.fallback_predicates),
        "query.self_share": share(*layer("query")),
        "query.queries": len(results),
        "query.reuse_hit_ratio": _ratio(len(results) - len(computed), len(results)),
        "query.invalidations": extra_counts.get("query.invalidations", 0),
        "ivm.self_share": share(*maintenance),
        "ivm.updates": sum(calls[n] for n in maintenance),
        "ivm.derived_added": stat("ivm_derived_added", *maintenance),
        "ivm.derived_removed": stat("ivm_derived_removed", *maintenance),
        "ivm.overdeleted": overdeleted,
        "ivm.rederived": stat("ivm_rederived", *maintenance),
        "ivm.rederive_ratio": _ratio(stat("ivm_rederived", *maintenance), overdeleted),
        "ivm.recomputed_strata": stat("ivm_recomputed_strata", *maintenance),
        "calculus.self_share": share(*layer("calculus")),
        "calculus.conjoin_calls": calls["calculus.conjoin"],
        "qe.fm_calls": calls["qe.fm"],
        "qe.fm_self_share": share("qe.fm"),
        "qe.vs_calls": calls["qe.vs"],
        "qe.vs_self_share": share("qe.vs"),
        "qe.cad_calls": calls["qe.cad"],
        "qe.cad_self_share": share("qe.cad"),
        "qe.fallthrough_ratio": _ratio(
            sum(raised[n] for n in rungs), sum(calls[n] for n in rungs)
        ),
    }
    return metrics, dict(self_s)
