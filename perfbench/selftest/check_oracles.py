"""Self-test of the benchmark: every oracle must catch a corrupted answer.

Run from the repository root::

    python3 perfbench/selftest/check_oracles.py

For each workload, on small inputs, it checks that correct answers pass and
that an answer with one tuple removed or added is counted as a failed op by
the benchmark's own loop.  It also checks that ``BENCHMARK.json``,
``perfbench/spec.json`` and the metrics the code emits name the same
workloads and metrics.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oracles import Edge, pinned  # noqa: E402

from repro.constraints.dense_order import eq  # noqa: E402
from repro.core.generalized import GeneralizedTuple  # noqa: E402


# small instances: the oracles do not depend on the sizes
class SmallTc(workloads.TcFixpoint):
    nodes = 10


class SmallStratified(workloads.StratifiedFixpoint):
    nodes = 10


class SmallMix(workloads.QueryUpdateMix):
    nodes = 12


class SmallSpatial(workloads.SpatialCalculus):
    dense_rects = 8
    linear_rects = 5


def drop_first(relation) -> None:
    relation.discard_key(relation.keys()[0])


def drop_target(relation) -> None:
    """Remove every tuple for the first tuple's target.

    Generalized tuples may overlap, so removing one tuple can leave the
    relation's point set, which is what the oracles compare, unchanged."""
    target = relation.variables[1]
    y = pinned(relation.tuples()[0].atoms, target)
    for key, item in relation.entries():
        if pinned(item.atoms, target) == y:
            relation.discard_key(key)


def add_point(relation, *values) -> None:
    relation.add_point([Fraction(v) for v in values])


def corrupt_world(world, name: str, mode: str) -> None:
    relation = world.relation(name)
    if mode == "drop":
        drop_first(relation)
    elif relation.arity == 1:
        add_point(relation, 7)
    else:
        add_point(relation, 7, 3)


def corrupting(base: type, corrupt) -> type:
    """A workload whose ``run`` corrupts each answer after computing it."""

    class Corrupt(base):  # type: ignore[misc, valid-type]
        def run(self, op):
            result = super().run(op)
            corrupt(self, op, result)
            return result

    return Corrupt


def failures(factory: type, ops: int) -> list:
    workload = factory(1)
    workload.setup()
    try:
        loop = run.run_ops(workload, seconds=0.0, ops=ops)
    finally:
        workload.close()
    return [sample["error"] for sample in loop["samples"]]


def expect(label: str, errors: list, failed: bool) -> None:
    outcome = "failed" if failed else "passed"
    if not errors or any((e is None) == failed for e in errors):
        raise AssertionError(f"{label}: expected every op {outcome}: {errors}")
    print(f"ok  {label}: {len(errors)} ops {outcome}")


def check_fixpoints() -> None:
    expect("tc_fixpoint clean", failures(SmallTc, 2), failed=False)
    expect("stratified_fixpoint clean", failures(SmallStratified, 2), failed=False)
    for mode in ("drop", "add"):
        bad = corrupting(SmallTc, lambda w, op, r, m=mode: corrupt_world(r[0], "T", m))
        expect(f"tc_fixpoint T {mode}", failures(bad, 2), failed=True)
        for name in ("Src", "Root"):
            bad = corrupting(
                SmallStratified, lambda w, op, r, n=name, m=mode: corrupt_world(r[0], n, m)
            )
            expect(f"stratified_fixpoint {name} {mode}", failures(bad, 2), failed=True)
    incomplete = corrupting(SmallTc, lambda w, op, r: setattr(r[1], "incomplete", True))
    expect("tc_fixpoint incomplete tag", failures(incomplete, 1), failed=True)


def check_mix() -> None:
    expect("query_update_mix clean", failures(SmallMix, 30), failed=False)

    def queries_only(base: type) -> type:
        class NoUpdates(base):  # type: ignore[misc, valid-type]
            def _update_slot(self, block: int) -> int:
                return -1

        return NoUpdates

    def drop_answer(w, op, result):
        if len(result.relation):
            drop_target(result.relation)
        else:
            add_point(result.relation, 0, 1)

    def widen_answer(w, op, result):
        # an interval-valued answer tuple one past the query range
        goal = op.inputs["goal"]
        x, y = result.relation.variables
        result.relation.add(
            GeneralizedTuple((x, y), (eq(x, goal.high + 1), eq(y, Fraction(1))))
        )

    for label, corrupt in (("drop", drop_answer), ("widen", widen_answer)):
        bad = corrupting(queries_only(SmallMix), corrupt)
        expect(f"query_update_mix query {label}", failures(bad, 12), failed=True)

    class UpdatesOnly(SmallMix):
        def _update_slot(self, block: int) -> int:
            return 0

        def run(self, op):
            result = super().run(op)
            drop_target(self.view.relation("T"))
            return result

    errors = failures(UpdatesOnly, 30)
    updates = errors[0::10]
    expect("query_update_mix maintained T", updates, failed=True)
    stale = corrupting(SmallMix, lambda w, op, r: setattr(w.view, "stale", True))
    expect("query_update_mix stale view", failures(stale, 3), failed=True)


def check_spatial() -> None:
    kinds = SmallSpatial.kinds
    expect("spatial_calculus clean", failures(SmallSpatial, 2 * len(kinds)), failed=False)
    for part, kind in enumerate(kinds):
        bad = corrupting(SmallSpatial, lambda w, op, r, k=kind: k in r and drop_first(r[k]))
        errors = failures(bad, 2 * len(kinds))
        expect(f"spatial_calculus {kind} drop", errors[part::len(kinds)], failed=True)
        others = [e for i, e in enumerate(errors) if i % len(kinds) != part]
        expect(f"spatial_calculus {kind} drop, other kinds", others, failed=False)


def check_oracle_units() -> None:
    """The bound-query oracle on a hand-made graph."""
    import oracles

    edges = [Edge(0, 1), Edge(1, 2, True), Edge(2, 3)]
    succ = oracles.successors(edges)
    assert oracles.reach(succ, 0) == {1, 2, 3}
    assert oracles.closure_pairs(edges) == {
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    }
    assert Edge(1, 2, True).source_contains(Fraction(3, 2))
    assert not Edge(1, 2, True).source_contains(Fraction(7, 4))
    assert oracles.adjacent_disk_pairs([2, 0, 1]) == {(2, 0), (0, 2), (0, 1), (1, 0)}
    print("ok  oracle units")


def check_names() -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH / "spec.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(spec["workloads"]), names
    layer_names = {m["name"] for m in benchmark["per_layer"]}
    assert layer_names == set(spec["per_layer_moves"]), layer_names ^ set(spec["per_layer_moves"])
    emitted, _ = tracer.layer_metrics([], 1.0, (0, 0), {})
    emitted = set(emitted) | {"trace.overhead_ratio", "trace.coverage"}
    assert emitted == layer_names, emitted ^ layer_names
    loop = {"samples": [{"kind": "eval", "ms": 1.0, "error": None, "cost": 1.0}],
            "refs_ms": [1.0, 1.0], "request_ops": 1,
            "request_kind": "", "timed_s": 1.0, "peak_rss_mb": 1.0}
    gated, _ = run.end_to_end([1.0], loop)
    assert set(gated) == {m["name"] for m in benchmark["end_to_end"]}, gated
    for metric in spec["per_layer_moves"].values():
        for move in metric:
            target, workload = move.split("@")
            assert workload in names, move
    print("ok  names agree across BENCHMARK.json, spec.json and the code")


def main() -> int:
    check_names()
    check_oracle_units()
    check_fixpoints()
    check_mix()
    check_spatial()
    print("all oracle self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
