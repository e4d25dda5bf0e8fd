"""The ``python -m repro bench`` suite: records, fixpoint gate, regression check.

Tier-1 asserts only deterministic properties of the records (fixpoint and
answer identity, cone vs. full tuple counts, plan-cache hits); the
wall-clock floors that ``--check`` enforces run in the bench job with
repeats, and here only against fixed documents.
"""

import json

import pytest

from repro.harness import bench
from repro.harness.bench import check_regression, main


@pytest.fixture()
def sink(tmp_path, monkeypatch):
    target = tmp_path / "bench.json"
    monkeypatch.setenv("REPRO_BENCH_JSON", str(target))
    return target


#: a tiny profile so the suite stays fast under pytest
_TINY = {
    "dense": [6, 8],
    "equality": [6],
    "boolean": 4,
    "econfig": 8,
    "ivm": [8],
    # 32, not smaller: the cone is linear in N and the full closure
    # quadratic, so the 5x cone-vs-full bound holds with margin from here up
    "magic": 32,
}


#: a fixed document with one record per gated kind, every value clearing
#: its floor or cap
_HEALTHY = {
    "records": {
        "engine_tc_dense[smoke]": {"speedup_all_on": 4.0, "speedup_compile": 2.0},
        "compile_stats[smoke]": {"setup_speedup_warm": 12.0},
        "ivm_stats[smoke]": {"per_size": {"32": {"speedup_maintained": 8.0}}},
        "semantic_stats[smoke]": {
            "rules_injected": 2,
            "rules_removed": 2,
            "speedup_semantic": 1.3,
            "overhead_pct": 1.0,
        },
        "magic_stats[smoke]": {
            "identical_answers": True,
            "speedup_magic": 9.0,
            "warm_plan_hit": True,
        },
    }
}


class TestBenchSuite:
    def test_smoke_profile_records_all_workloads(self, sink, monkeypatch):
        monkeypatch.setitem(bench.PROFILES, "smoke", _TINY)
        assert main(["--profile", "smoke"]) == 0
        document = json.loads(sink.read_text())
        records = document["records"]
        assert set(records) >= {
            "engine_tc_dense[smoke]",
            "engine_tc_equality[smoke]",
            "engine_tc_boolean[smoke]",
            "equality_econfig_baseline[smoke]",
            "compile_stats[smoke]",
        }
        dense = records["engine_tc_dense[smoke]"]
        largest = dense["per_size"][str(max(_TINY["dense"]))]
        assert largest["identical_fixpoints"] is True
        assert set(largest["columns"]) == {
            "all_on",
            "all_off",
            "no_join_planner",
            "no_index_probes",
            "no_compile",
        }
        assert largest["speedup_compile"] > 0
        assert records["equality_econfig_baseline[smoke]"]["agree"] is True
        cache = records["compile_stats[smoke]"]
        # every warm evaluate() hit the plan cache after the cold miss
        assert cache["cache"]["hits"] >= 3 and cache["cache"]["misses"] >= 1
        assert cache["cold_setup_s"] > 0 and cache["warm_setup_s"] > 0
        ivm = records["ivm_stats[smoke]"]
        cell = ivm["per_size"][str(max(_TINY["ivm"]))]
        assert cell["identical_fixpoints"] is True
        assert cell["maintained_s"] > 0 and cell["scratch_s"] > 0
        assert cell["ivm_derived_added"] == max(_TINY["ivm"]) + 1
        assert "sharded_stats[smoke]" not in records
        magic = records["magic_stats[smoke]"]
        assert magic["identical_answers"] is True
        assert magic["warm_plan_hit"] is True
        # the property behind the bench job's 5x magic floor, on counters:
        # the bound query's cone is at most a fifth of the full closure
        assert magic["cone_tuples"] * 5 <= magic["full_tuples"]

    def test_check_passes_against_own_baseline(self, sink, monkeypatch):
        """``--check`` plumbing: the gate gets the fresh records and the
        baseline as it was on disk before the run rewrote it, and its
        verdict sets the exit code.  The gate is stubbed, so no wall-clock
        ratio decides the outcome; the real gate runs on fixed documents
        in :class:`TestRegressionCheck`."""
        monkeypatch.setitem(bench.PROFILES, "smoke", _TINY)
        sink.write_text(json.dumps(_HEALTHY))
        calls = []

        def gate(fresh, baseline, threshold):
            calls.append((fresh, baseline, threshold))
            return [] if len(calls) == 1 else ["engine_tc_dense[smoke]: regressed"]

        monkeypatch.setattr(bench, "check_regression", gate)
        argv = ["--profile", "smoke", "--check", "95", "--baseline", str(sink)]
        assert main(argv) == 0
        fresh, baseline, threshold = calls[0]
        assert baseline == _HEALTHY
        assert "magic_stats[smoke]" in fresh["records"]
        assert threshold == 95
        assert main(argv) == 1


class TestRegressionCheck:
    def test_healthy_document_passes_against_itself(self):
        assert check_regression(_HEALTHY, _HEALTHY, 25) == []

    def test_magic_floor_enforced(self):
        fresh = {
            "records": {
                "magic_stats[smoke]": {
                    **_HEALTHY["records"]["magic_stats[smoke]"],
                    "speedup_magic": 4.5,
                }
            }
        }
        assert check_regression(fresh, {"records": {}}, 25) == [
            "magic_stats[smoke]: magic speedup 4.5x below the 5x floor"
        ]

    def _doc(self, ratio):
        return {"records": {"engine_tc_dense": {"speedup_all_on": ratio}}}

    def test_regression_detected(self):
        failures = check_regression(self._doc(1.0), self._doc(4.0), 25)
        assert len(failures) == 1
        assert "engine_tc_dense" in failures[0]

    def test_within_threshold_passes(self):
        assert check_regression(self._doc(3.2), self._doc(4.0), 25) == []

    def test_improvement_passes(self):
        assert check_regression(self._doc(6.0), self._doc(4.0), 25) == []

    def test_missing_fresh_record_ignored(self):
        fresh = {"records": {}}
        assert check_regression(fresh, self._doc(4.0), 25) == []

    def test_non_engine_records_ignored(self):
        baseline = {"records": {"datalog_dense_scaling": {"speedup_all_on": 9.9}}}
        assert check_regression({"records": {}}, baseline, 25) == []

    def test_compile_ratio_gates_independently(self):
        fresh = {
            "records": {"engine_tc_dense": {"speedup_all_on": 4.0, "speedup_compile": 1.0}}
        }
        baseline = {
            "records": {"engine_tc_dense": {"speedup_all_on": 4.0, "speedup_compile": 2.0}}
        }
        failures = check_regression(fresh, baseline, 25)
        assert len(failures) == 1
        assert "::compile" in failures[0]

    def test_plan_cache_floor_enforced(self):
        fresh = {"records": {"compile_stats[full]": {"setup_speedup_warm": 3.2}}}
        failures = check_regression(fresh, {"records": {}}, 25)
        assert failures == [
            "compile_stats[full]: warm plan-cache setup speedup 3.2x below the 5x floor"
        ]

    def test_plan_cache_floor_passes(self):
        fresh = {"records": {"compile_stats[full]": {"setup_speedup_warm": 12.0}}}
        assert check_regression(fresh, {"records": {}}, 25) == []

    def test_ivm_floor_enforced_at_gated_sizes(self):
        fresh = {
            "records": {
                "ivm_stats[full]": {
                    "per_size": {
                        "8": {"speedup_maintained": 2.0},   # below min N: exempt
                        "32": {"speedup_maintained": 3.0},  # gated: fails
                        "64": {"speedup_maintained": 9.0},  # gated: passes
                    }
                }
            }
        }
        failures = check_regression(fresh, {"records": {}}, 25)
        assert failures == [
            "ivm_stats[full][N=32]: maintained-vs-scratch speedup 3.0x "
            "below the 5x floor"
        ]
