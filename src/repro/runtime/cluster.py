"""Fault-tolerant multi-process sharded evaluation (the cluster runtime).

PR 5's parallel rounds fan (rule, delta-position) tasks across a *thread*
pool, which is GIL-bound for pure-Python theory work.  This module crosses
the process boundary: a pool of ``multiprocessing`` workers holds replicas
of the evaluation world, the driver broadcasts each round's new tuples and
delta, splits the round into *shard tasks*, and merges the shards' derived
lists back **in shard order** -- the same contiguous-chunk merge argument as
PR 5, so sharded fixpoints are byte-identical to serial (see DESIGN.md
section 14 for the full determinism proof, including the delta-slice case).

Crossing the process boundary is exactly where robustness becomes the
feature, so the supervision layer is the headline:

- :class:`WorkerSupervisor` -- heartbeats (a daemon thread in each worker
  writing ``time.monotonic()`` into a shared ``Value``) with liveness
  deadlines; the lifecycle state machine is spawn -> live -> suspect ->
  restarted -> exhausted;
- crash detection with bounded restart and exponential backoff;
  :class:`repro.errors.WorkerCrashError` after ``max_restarts``;
- idempotent shard tasks: any shard can be re-dispatched to a surviving
  worker (a shard is a pure function of the synced world + delta slice);
  stragglers past ``straggler_timeout`` are speculatively re-executed and
  the first *valid* result wins -- results are deterministic across
  attempts, so "first wins" is also "only possible value wins";
- per-task retry budgets fair-bounded like ``ChaosPolicy.max_consecutive``
  (:class:`repro.runtime.chaos.ProcessFaultPolicy` never faults an attempt
  at or past its fairness bound, so bounded retries always converge);
- whole-pool graceful degradation: :class:`repro.errors.ClusterError`
  (including worker exhaustion) makes the engine discard the partial round
  and fall back to the in-process parallel path -- tagged in
  ``EvaluationStats.shard_fallback``, never an error.

Budgets propagate as *leases*: the driver splits its meter's remaining
limits across a round's shards (:meth:`BudgetMeter.split_leases`), workers
meter against the lease and report settled counts, and the driver absorbs
them back in shard order -- so a worker-side budget trip still yields the
PR 4 fringe partial fixpoint.  Chaos scopes propagate as re-seeded frozen
policies (seed mixed per (round, shard, attempt), so a re-dispatched shard
replays identically on any worker), and process-level faults (worker kill,
heartbeat stall, dropped/corrupt result) are injected from the same
deterministic coordinates.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import queue
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import multiprocessing
import multiprocessing.context
import multiprocessing.queues
import multiprocessing.sharedctypes

from repro.errors import BudgetExceededError, ClusterError, WorkerCrashError
from repro.runtime import budget as budget_mod
from repro.runtime import chaos as chaos_mod
from repro.runtime.budget import Budget, BudgetMeter, active_meter, metered
from repro.runtime.chaos import (
    ChaosPolicy,
    ChaosRuntime,
    ChaosStats,
    ProcessFaultPolicy,
    chaos_scope,
    current_chaos,
)

if TYPE_CHECKING:
    from repro.core.datalog import (
        DatalogProgram,
        EvaluationStats,
        Rule,
        _EvalCaches,
    )
    from repro.core.generalized import GeneralizedDatabase, GeneralizedTuple

#: sentinel asking a worker's main loop to exit cleanly
_SHUTDOWN = "__shutdown__"

#: worker lifecycle states reported by the supervisor
LIFECYCLE = ("spawn", "live", "suspect", "restarted", "exhausted")


@dataclass(frozen=True)
class ClusterConfig:
    """Sizing, liveness, and fault-injection knobs for the sharded pool.

    Frozen (and picklable) like the other runtime policies; travels in
    ``EngineOptions.cluster``.
    """

    #: worker process count (0: derive from ``shard_workers``/CPU count)
    workers: int = 0
    #: smallest delta slice worth shipping to a worker; rounds whose
    #: shardable deltas are smaller run as whole-task shards
    min_slice: int = 8
    #: seconds between heartbeat writes inside each worker
    heartbeat_interval: float = 0.05
    #: a worker whose heartbeat is older than this is *suspect* and restarted
    liveness_timeout: float = 2.0
    #: a shard outstanding longer than this is speculatively re-dispatched
    straggler_timeout: float = 5.0
    #: bounded restarts per worker before it is *exhausted* (WorkerCrashError)
    max_restarts: int = 2
    #: re-dispatch budget per shard task (fairness-bounded, see faults)
    max_task_retries: int = 3
    #: exponential backoff base for restarts (base * 2**restarts seconds)
    backoff_base_seconds: float = 0.01
    #: multiprocessing start method (None: platform default)
    start_method: str | None = None
    #: process-level fault injection plan (None: no process chaos)
    faults: ProcessFaultPolicy | None = None
    #: route even single-shard rounds through the pool (conformance uses
    #: this to maximize cross-process coverage on tiny cases)
    force: bool = False

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.min_slice < 1:
            raise ValueError("min_slice must be >= 1")
        if self.heartbeat_interval <= 0 or self.liveness_timeout <= 0:
            raise ValueError("heartbeat/liveness intervals must be positive")
        if self.straggler_timeout <= 0:
            raise ValueError("straggler_timeout must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.max_task_retries < 1:
            raise ValueError("max_task_retries must be >= 1")
        if (
            self.faults is not None
            and self.faults.max_consecutive > self.max_task_retries
        ):
            raise ValueError(
                "faults.max_consecutive must not exceed max_task_retries "
                f"({self.faults.max_consecutive} > {self.max_task_retries}): "
                "retries could be exhausted by back-to-back injections"
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "min_slice": self.min_slice,
            "heartbeat_interval": self.heartbeat_interval,
            "liveness_timeout": self.liveness_timeout,
            "straggler_timeout": self.straggler_timeout,
            "max_restarts": self.max_restarts,
            "max_task_retries": self.max_task_retries,
            "start_method": self.start_method,
            "faults": None if self.faults is None else self.faults.as_dict(),
            "force": self.force,
        }


# --------------------------------------------------------------------- wire
# Every message is a frozen module-level dataclass (picklable by
# construction: no locks, lambdas, or compiled closures -- shards are keyed
# by the PlanCache program fingerprint instead of carrying compiled rules).


@dataclass(frozen=True)
class _Load:
    """Full program + world replica (sent at spawn and after a restart)."""

    fingerprint: tuple[str, ...]
    rules: tuple[Any, ...]
    theory: Any
    options: Any
    #: (name, variables, canonical tuples) per relation, driver order
    relations: tuple[tuple[str, tuple[str, ...], tuple[Any, ...]], ...]
    theory_cache_enabled: bool


@dataclass(frozen=True)
class _Sync:
    """Per-round replica catch-up: appended tuples + the delta reference.

    ``delta`` entries are ``(name, count)`` tail references when the delta
    is verifiably the relation's insertion-order tail (the semi-naive
    invariant), else ``(name, tuple-of-tuples)`` shipped explicitly.
    ``None`` means a delta-less round (naive/stratified/inflationary).
    """

    round_id: int
    updates: tuple[tuple[str, tuple[str, ...], tuple[Any, ...]], ...]
    delta: tuple[tuple[str, int | tuple[Any, ...]], ...] | None


@dataclass(frozen=True)
class ShardTask:
    """One idempotent unit of a round: fire a rule over a delta slice.

    A pure function of the worker's synced replica, so it can be dispatched
    to any worker (or several, speculatively) and re-dispatched after a
    crash; ``shard_id`` is the merge position, ``attempt`` feeds the
    deterministic chaos coordinates.
    """

    round_id: int
    shard_id: int
    attempt: int
    fingerprint: tuple[str, ...]
    rule_index: int
    delta_position: int | None
    #: delta slice bounds (None: the whole task, undivided)
    start: int | None
    stop: int | None
    lease: Budget | None
    chaos: ChaosPolicy | None
    #: pre-decided process fault for this attempt (driver-stamped so the
    #: decision is a pure function of (round, shard, attempt))
    fault: str | None
    stall_seconds: float


@dataclass(frozen=True)
class ShardResult:
    """A worker's answer for one shard attempt.

    ``failure`` is ``None`` on success, ``("budget", ResourceReport)`` on a
    lease trip, or ``("error", message)`` on an unexpected exception.
    ``counts`` carries the lease meter's *settled* tick counts (clamped at
    the lease, so sums never exceed the parent's grant).
    """

    worker_id: int
    round_id: int
    shard_id: int
    attempt: int
    fingerprint: tuple[str, ...]
    derived: tuple[Any, ...]
    counts: dict[str, int]
    stats: Any
    chaos_stats: ChaosStats | None
    failure: tuple[str, Any] | None


# ------------------------------------------------------------- worker side


def _worker_main(
    worker_id: int,
    inbox: "multiprocessing.queues.Queue[Any]",
    outbox: "multiprocessing.queues.Queue[Any]",
    heartbeat: "multiprocessing.sharedctypes.Synchronized[float]",
    heartbeat_interval: float,
) -> None:
    """Worker process entry point: heartbeat + message loop.

    The worker may have been forked mid-evaluation, inheriting the driver's
    ambient budget meter and chaos runtime; both are neutralized up front --
    shard execution installs its own lease meter and chaos scope.
    """
    budget_mod._ACTIVE_METER.set(None)
    chaos_mod._ACTIVE_CHAOS.set(None)
    stall_until = [0.0]
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            now = time.monotonic()
            if now >= stall_until[0]:
                heartbeat.value = now
            stop.wait(heartbeat_interval)

    threading.Thread(
        target=beat, name=f"repro-heartbeat-{worker_id}", daemon=True
    ).start()
    state: dict[str, Any] = {}
    try:
        while True:
            try:
                message = inbox.get()
            except (EOFError, OSError):
                break
            if isinstance(message, str) and message == _SHUTDOWN:
                break
            if isinstance(message, _Load):
                _apply_load(state, message)
            elif isinstance(message, _Sync):
                # a sync can only follow a successful load; if the load
                # never arrived (e.g. it failed to serialize driver-side)
                # dropping the sync lets the staleness guard in _run_shard
                # report the real error instead of crashing the worker
                if "world" in state:
                    _apply_sync(state, message)
            elif isinstance(message, ShardTask):
                if message.fault == "worker_kill":
                    os._exit(3)
                if message.fault == "heartbeat_stall":
                    stall_until[0] = time.monotonic() + message.stall_seconds
                    time.sleep(message.stall_seconds)
                result = _run_shard(state, message, worker_id)
                if message.fault == "drop_result":
                    continue
                if message.fault == "corrupt_result":
                    result = dataclasses.replace(
                        result, fingerprint=("__corrupt__",)
                    )
                outbox.put(result)
    finally:
        stop.set()


def _apply_load(state: dict[str, Any], message: _Load) -> None:
    """Rebuild the program and the world replica from a full snapshot."""
    from repro.core.datalog import DatalogProgram, _EvalCaches
    from repro.core.generalized import GeneralizedDatabase

    program = DatalogProgram(
        list(message.rules),
        message.theory,
        allow_unsafe_recursion=True,
        options=message.options,
    )
    cache = message.theory.cache
    if cache is not None:
        cache.enabled = message.theory_cache_enabled
    world = GeneralizedDatabase(message.theory)
    for name, variables, tuples in message.relations:
        world.create_relation(name, variables)
        relation = world.relation(name)
        for item in tuples:
            relation.adopt_canonical(item)
    state["program"] = program
    state["world"] = world
    state["fingerprint"] = message.fingerprint
    state["caches"] = _EvalCaches(
        message.options, message.theory, program=program, stats=None
    )
    state["delta"] = None


def _apply_sync(state: dict[str, Any], message: _Sync) -> None:
    """Catch the replica up to the driver's pre-round world state."""
    world = state["world"]
    for name, variables, tuples in message.updates:
        if name not in world:
            world.create_relation(name, variables)
        relation = world.relation(name)
        for item in tuples:
            relation.adopt_canonical(item)
    if message.delta is None:
        state["delta"] = None
        return
    delta: dict[str, list[Any]] = {}
    for name, ref in message.delta:
        if isinstance(ref, int):
            stored = world.relation(name).tuples()
            delta[name] = stored[len(stored) - ref :] if ref else []
        else:
            delta[name] = list(ref)
    state["delta"] = delta


def _run_shard(
    state: dict[str, Any], task: ShardTask, worker_id: int
) -> ShardResult:
    """Execute one shard against the replica; never raises."""
    from repro.core.datalog import EvaluationStats

    if state.get("fingerprint") != task.fingerprint:
        return ShardResult(
            worker_id=worker_id,
            round_id=task.round_id,
            shard_id=task.shard_id,
            attempt=task.attempt,
            fingerprint=tuple(state.get("fingerprint") or ()),
            derived=(),
            counts={},
            stats=None,
            chaos_stats=None,
            failure=("error", "stale program state (fingerprint mismatch)"),
        )
    program = state["program"]
    world = state["world"]
    caches = state["caches"]
    rule = program.rules[task.rule_index]
    delta: dict[str, list[Any]] | None = None
    if task.delta_position is not None:
        name = rule.positive_atoms[task.delta_position].name
        full = (state["delta"] or {}).get(name, [])
        sliced = (
            full if task.start is None else full[task.start : task.stop]
        )
        delta = {name: sliced}
    local = EvaluationStats()
    lease_meter = (
        BudgetMeter(task.lease, scope="shard")
        if task.lease is not None
        else None
    )
    runtime = ChaosRuntime(task.chaos) if task.chaos is not None else None
    derived: list[Any] = []
    failure: tuple[str, Any] | None = None
    try:
        with metered(lease_meter), chaos_scope(runtime):
            derived = program._fire(
                rule, world, local, caches, delta, task.delta_position
            )
    except BudgetExceededError as error:
        derived = []
        failure = ("budget", error.report)
    except Exception as error:  # noqa: BLE001 -- report, let the driver decide
        derived = []
        failure = ("error", f"{type(error).__name__}: {error}")
    counts = lease_meter.settled_counts() if lease_meter is not None else {}
    return ShardResult(
        worker_id=worker_id,
        round_id=task.round_id,
        shard_id=task.shard_id,
        attempt=task.attempt,
        fingerprint=task.fingerprint,
        derived=tuple(derived),
        counts=counts,
        stats=local,
        chaos_stats=runtime.stats if runtime is not None else None,
        failure=failure,
    )


# ------------------------------------------------------------- driver side


class _WorkerHandle:
    """Driver-side record of one worker process and its channels."""

    __slots__ = (
        "worker_id",
        "process",
        "inbox",
        "heartbeat",
        "restarts",
        "state",
    )

    def __init__(
        self,
        worker_id: int,
        process: "multiprocessing.process.BaseProcess",
        inbox: "multiprocessing.queues.Queue[Any]",
        heartbeat: "multiprocessing.sharedctypes.Synchronized[float]",
    ) -> None:
        self.worker_id = worker_id
        self.process = process
        self.inbox = inbox
        self.heartbeat = heartbeat
        self.restarts = 0
        self.state = "spawn"


class WorkerSupervisor:
    """Owns the worker lifecycle: spawn -> live -> suspect -> restarted ->
    exhausted.

    Liveness is judged from the heartbeat ``Value`` each worker's daemon
    thread refreshes (``time.monotonic()`` is system-wide on Linux, so the
    driver can compare directly).  :meth:`restart` kills, backs off
    exponentially, and respawns -- or raises :class:`WorkerCrashError` once
    the worker's bounded restart budget is exhausted.
    """

    def __init__(
        self,
        config: ClusterConfig,
        context: "multiprocessing.context.BaseContext",
        outbox: "multiprocessing.queues.Queue[Any]",
    ) -> None:
        self.config = config
        self.context = context
        self.outbox = outbox
        self.workers: list[_WorkerHandle] = []
        self.total_restarts = 0

    def start(self, count: int) -> None:
        try:
            for worker_id in range(count):
                self.workers.append(self._spawn(worker_id))
        except Exception as error:
            self.shutdown()
            raise ClusterError(f"could not spawn worker pool: {error}") from error

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        inbox: "multiprocessing.queues.Queue[Any]" = self.context.Queue()
        heartbeat = self.context.Value("d", time.monotonic(), lock=False)
        process = self.context.Process(
            target=_worker_main,
            args=(
                worker_id,
                inbox,
                self.outbox,
                heartbeat,
                self.config.heartbeat_interval,
            ),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        process.start()
        handle = _WorkerHandle(worker_id, process, inbox, heartbeat)
        handle.state = "live"
        return handle

    def status(self, handle: _WorkerHandle) -> str:
        """``live`` | ``suspect`` | ``dead`` for one worker, right now."""
        if not handle.process.is_alive():
            return "dead"
        age = time.monotonic() - handle.heartbeat.value
        if age > self.config.liveness_timeout:
            return "suspect"
        return "live"

    def restart(self, handle: _WorkerHandle) -> None:
        """Kill and respawn one worker, with backoff and a bounded budget."""
        if handle.restarts >= self.config.max_restarts:
            handle.state = "exhausted"
            raise WorkerCrashError(
                f"worker {handle.worker_id} exhausted its restart budget "
                f"({handle.restarts} restarts)",
                worker_id=handle.worker_id,
                restarts=handle.restarts,
            )
        self._kill(handle)
        backoff = self.config.backoff_base_seconds * (2**handle.restarts)
        if backoff > 0:
            time.sleep(backoff)
        fresh = self._spawn(handle.worker_id)
        handle.process = fresh.process
        handle.inbox = fresh.inbox
        handle.heartbeat = fresh.heartbeat
        handle.restarts += 1
        handle.state = "restarted"
        self.total_restarts += 1

    def _kill(self, handle: _WorkerHandle) -> None:
        process = handle.process
        if process.is_alive():
            process.kill()
        process.join(timeout=1.0)
        # the dead worker's inbox (and any stale messages in it) is dropped
        # wholesale; a replacement gets a fresh queue so it can never
        # consume messages meant for its predecessor
        handle.inbox.close()

    def alive_count(self) -> int:
        return sum(
            1 for handle in self.workers if self.status(handle) == "live"
        )

    def shutdown(self) -> None:
        for handle in self.workers:
            try:
                handle.inbox.put_nowait(_SHUTDOWN)
            except Exception:
                pass
        deadline = time.monotonic() + 1.0
        for handle in self.workers:
            handle.process.join(timeout=max(deadline - time.monotonic(), 0.05))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.inbox.close()
            except Exception:
                pass


@dataclass
class _Pending:
    """Driver-side bookkeeping for one outstanding shard."""

    task: ShardTask
    worker_id: int
    dispatched_at: float
    attempts: int


class ShardedExecutor:
    """Drives one evaluation's rounds across the worker pool.

    Created lazily on the first sharded round (so the fork happens before
    the in-process thread pool could exist), kept in ``_EvalCaches`` across
    rounds, and closed with them.  ``execute_round`` returns ``None`` when
    a round is not worth shipping (the replicas stay consistent: the next
    sync covers whatever the in-process path merged meanwhile).
    """

    def __init__(
        self, program: "DatalogProgram", world: "GeneralizedDatabase"
    ) -> None:
        from repro.core import compile as rulecompile
        from repro.core.datalog import EngineOptions  # noqa: F401  (cycle guard)

        options = program.options
        config = options.cluster if options.cluster is not None else ClusterConfig()
        count = config.workers or options.shard_workers
        if count <= 0:
            count = max(2, min(8, os.cpu_count() or 1))
        self.program = program
        self.config = config
        self.count = count
        self.fingerprint: tuple[str, ...] = rulecompile.program_fingerprint(
            program.rules
        )
        self._rule_index = {id(rule): i for i, rule in enumerate(program.rules)}
        self._cursors: dict[str, int] = {}
        self.shards_dispatched = 0
        self.shards_redispatched = 0
        self.degraded = False
        worker_options = dataclasses.replace(
            options,
            parallel=False,
            sharded=False,
            shard_workers=0,
            cluster=None,
            budget=None,
            analyze=False,
            optimize_semantic=False,
        )
        self._worker_options = worker_options
        try:
            context = multiprocessing.get_context(config.start_method)
            load = self._load_message(world)
            # queue serialization happens on a feeder thread, where a
            # pickling failure surfaces only as silent worker errors;
            # probing here fails fast into the in-process degradation path
            pickle.dumps(load)
            self.outbox: "multiprocessing.queues.Queue[Any]" = context.Queue()
            self.supervisor = WorkerSupervisor(config, context, self.outbox)
            self.supervisor.start(count)
            for handle in self.supervisor.workers:
                handle.inbox.put(load)
        except ClusterError:
            raise
        except Exception as error:
            raise ClusterError(
                f"sharded pool unavailable: {error}"
            ) from error

    # ----------------------------------------------------------- replication
    def _snapshot(
        self, world: "GeneralizedDatabase"
    ) -> tuple[tuple[str, tuple[str, ...], tuple[Any, ...]], ...]:
        out = []
        for name in world.names():
            relation = world.relation(name)
            stored = tuple(relation.tuples())
            out.append((name, relation.variables, stored))
            self._cursors[name] = len(stored)
        return tuple(out)

    def _load_message(self, world: "GeneralizedDatabase") -> _Load:
        return _Load(
            fingerprint=self.fingerprint,
            rules=tuple(self.program.rules),
            theory=self.program.theory,
            options=self._worker_options,
            relations=self._snapshot(world),
            theory_cache_enabled=self.program.options.theory_cache,
        )

    def _sync_message(
        self,
        round_id: int,
        world: "GeneralizedDatabase",
        delta: "dict[str, list[GeneralizedTuple]] | None",
    ) -> _Sync:
        updates = []
        for name in world.names():
            relation = world.relation(name)
            stored = relation.tuples()
            cursor = self._cursors.get(name, 0)
            if len(stored) > cursor:
                updates.append(
                    (name, relation.variables, tuple(stored[cursor:]))
                )
            self._cursors[name] = len(stored)
        payload: list[tuple[str, int | tuple[Any, ...]]] | None = None
        if delta is not None:
            payload = []
            for name in sorted(delta):
                items = delta[name]
                count = len(items)
                stored = world.relation(name).tuples()
                if count == 0:
                    payload.append((name, 0))
                elif (
                    len(stored) >= count
                    and stored[-1] is items[-1]
                    and stored[-count] is items[0]
                ):
                    # the semi-naive invariant holds: the delta is exactly
                    # the relation's insertion-order tail, so a count
                    # suffices (the replica reconstructs the same objects)
                    payload.append((name, count))
                else:
                    payload.append((name, tuple(items)))
        return _Sync(
            round_id=round_id,
            updates=tuple(updates),
            delta=None if payload is None else tuple(payload),
        )

    # ------------------------------------------------------------- planning
    def _delta_leads(
        self,
        rule: "Rule",
        delta_size: int,
        delta_position: int,
        world: "GeneralizedDatabase",
    ) -> bool:
        """Whether slicing the delta preserves serial enumeration order.

        A task's derived list is serial-sliceable iff the join plan
        enumerates the delta slot *first*: then each slice enumerates a
        contiguous run of the serial enumeration, and shrinking the delta's
        size only improves its (connectivity, delta, size, index) sort key,
        so the slice's own plan still leads with the delta and orders the
        remaining slots identically (their sizes and the bound-variable set
        after the delta are unchanged).  Tasks failing this run as a single
        whole shard.
        """
        options = self.program.options
        positives = rule.positive_atoms
        if len(positives) <= 1:
            return True
        if not options.join_planner:
            return delta_position == 0
        from repro.core import compile as rulecompile

        sizes = [
            delta_size
            if index == delta_position
            else len(world.relation(atom.name))
            for index, atom in enumerate(positives)
        ]
        pinned = set(
            self.program.theory.pinned_constants(tuple(rule.constraint_atoms))
        )
        order = rulecompile.plan_order(
            [atom.args for atom in positives], sizes, pinned, delta_position
        )
        return order[0] == delta_position

    def _plan_shards(
        self,
        round_id: int,
        tasks: "list[tuple[Rule, dict | None, int | None]]",
        world: "GeneralizedDatabase",
    ) -> tuple[list[ShardTask], list[tuple[str, float] | None]]:
        """Split a round into merge-ordered shards with affinity keys.

        Dense-order shards carry a range key (the hull midpoint of the
        slice's first delta tuple, via the projection-interval hull --
        ``DenseOrderTheory.conjunction_bounds``'s closed form); equality and
        boolean shards carry a stable content hash.  Keys are affinity only
        (theory-cache locality): correctness comes from the shard-order
        merge, never from the partitioning.
        """
        from repro.indexing.pool import shard_hull_key

        config = self.config
        shards: list[ShardTask] = []
        keys: list[tuple[str, float] | None] = []

        def push(
            rule_index: int,
            delta_position: int | None,
            start: int | None,
            stop: int | None,
            key: tuple[str, float] | None,
        ) -> None:
            shards.append(
                ShardTask(
                    round_id=round_id,
                    shard_id=len(shards),
                    attempt=0,
                    fingerprint=self.fingerprint,
                    rule_index=rule_index,
                    delta_position=delta_position,
                    start=start,
                    stop=stop,
                    lease=None,
                    chaos=None,
                    fault=None,
                    stall_seconds=0.0,
                )
            )
            keys.append(key)

        for rule, delta, delta_position in tasks:
            rule_index = self._rule_index[id(rule)]
            if delta is None or delta_position is None:
                push(rule_index, delta_position, None, None, None)
                continue
            name = rule.positive_atoms[delta_position].name
            items = delta.get(name, [])
            size = len(items)
            slices = min(self.count, size // config.min_slice)
            if slices < 2 or not self._delta_leads(
                rule, size, delta_position, world
            ):
                push(rule_index, delta_position, None, None, None)
                continue
            for i in range(slices):
                start = size * i // slices
                stop = size * (i + 1) // slices
                key = shard_hull_key(self.program.theory, items[start])
                push(rule_index, delta_position, start, stop, key)
        return shards, keys

    def _assign(
        self, shards: list[ShardTask], keys: list[tuple[str, float] | None]
    ) -> dict[int, int]:
        """shard_id -> worker_id by affinity key (range / hash / round-robin)."""
        assignment: dict[int, int] = {}
        ranged = [
            (key[1], shard.shard_id)
            for shard, key in zip(shards, keys)
            if key is not None and key[0] == "range"
        ]
        ranged.sort()
        for rank, (_value, shard_id) in enumerate(ranged):
            assignment[shard_id] = rank * self.count // max(len(ranged), 1)
        for shard, key in zip(shards, keys):
            if shard.shard_id in assignment:
                continue
            if key is not None and key[0] == "hash":
                assignment[shard.shard_id] = int(key[1]) % self.count
            else:
                assignment[shard.shard_id] = shard.shard_id % self.count
        return assignment

    # ------------------------------------------------------------ execution
    def execute_round(
        self,
        tasks: "list[tuple[Rule, dict | None, int | None]]",
        world: "GeneralizedDatabase",
        stats: "EvaluationStats",
    ) -> "list[tuple[str, GeneralizedTuple]] | None":
        """Run one round's tasks on the pool; ``None`` declines the round.

        Raises :class:`ClusterError`/:class:`WorkerCrashError` when the
        pool cannot finish the round (the engine then discards the partial
        round and re-executes it in-process -- a whole-round retry is sound
        because a round is a pure function of the synced world + delta).
        Raises :class:`BudgetExceededError` when a worker's lease tripped
        (after absorbing all settled counts), which flows into the
        drivers' fringe handling exactly like a local trip.
        """
        shards, keys = self._plan_shards(stats.iterations, tasks, world)
        if not shards or (len(shards) < 2 and not self.config.force):
            return None
        round_id = shards[0].round_id
        delta_obj = next(
            (delta for _rule, delta, _pos in tasks if delta is not None), None
        )
        meter = active_meter()
        leases: list[Budget | None]
        if meter is not None:
            leases = list(meter.split_leases(len(shards)))
        else:
            leases = [None] * len(shards)
        ambient_chaos = current_chaos()
        base_policy = (
            ambient_chaos.policy if ambient_chaos is not None else None
        )
        faults = self.config.faults
        restarts_before = self.supervisor.total_restarts
        redispatches_before = self.shards_redispatched

        def stamped(shard: ShardTask, attempt: int) -> ShardTask:
            chaos_policy = None
            if base_policy is not None:
                chaos_policy = dataclasses.replace(
                    base_policy,
                    seed=(
                        base_policy.seed * 1_000_003
                        + round_id * 8_191
                        + shard.shard_id * 131
                        + attempt
                    ),
                )
            fault = (
                faults.decide(round_id, shard.shard_id, attempt)
                if faults is not None
                else None
            )
            return dataclasses.replace(
                shard,
                attempt=attempt,
                lease=leases[shard.shard_id],
                chaos=chaos_policy,
                fault=fault,
                stall_seconds=faults.stall_seconds if faults is not None else 0.0,
            )

        sync = self._sync_message(round_id, world, delta_obj)
        for handle in self.supervisor.workers:
            handle.inbox.put(sync)
        assignment = self._assign(shards, keys)
        pending: dict[int, _Pending] = {}
        for shard in shards:
            worker_id = assignment[shard.shard_id]
            task = stamped(shard, 0)
            self.supervisor.workers[worker_id].inbox.put(task)
            pending[shard.shard_id] = _Pending(
                task=task,
                worker_id=worker_id,
                dispatched_at=time.monotonic(),
                attempts=1,
            )
        self.shards_dispatched += len(shards)
        stats.shard_rounds += 1
        stats.shard_tasks += len(shards)

        results: dict[int, ShardResult] = {}
        try:
            self._collect(round_id, pending, results, world, sync, stats)
        finally:
            stats.worker_restarts += (
                self.supervisor.total_restarts - restarts_before
            )
            stats.shard_redispatches += (
                self.shards_redispatched - redispatches_before
            )
            stats.cluster = self.summary()
        # deterministic absorption and merge, in shard order; a lease that
        # consumed the last of a global limit trips the parent here exactly
        # like the same ticks would have locally
        chaos_runtime = current_chaos()
        budget_failure: ShardResult | None = None
        for shard_id in sorted(results):
            result = results[shard_id]
            if result.counts and meter is not None:
                meter.absorb(result.counts)
            if result.stats is not None:
                stats.merge(result.stats)
            if result.chaos_stats is not None and chaos_runtime is not None:
                chaos_runtime.stats.merge(result.chaos_stats)
            if (
                result.failure is not None
                and result.failure[0] == "budget"
                and budget_failure is None
            ):
                budget_failure = result
        if budget_failure is not None:
            report = budget_failure.failure[1] if budget_failure.failure else None
            kind = getattr(report, "budget_kind", "budget")
            raise BudgetExceededError(
                f"{kind} budget exceeded in shard "
                f"{budget_failure.shard_id} (worker lease)",
                report=report,
            )
        derived: "list[tuple[str, GeneralizedTuple]]" = []
        for shard_id in sorted(results):
            derived.extend(results[shard_id].derived)
        return derived

    def _redispatch(
        self,
        entry: _Pending,
        pending: dict[int, _Pending],
        exclude: int | None,
    ) -> None:
        """Send a shard's next attempt to a (preferably different) worker."""
        if entry.attempts > self.config.max_task_retries:
            raise ClusterError(
                f"shard {entry.task.shard_id} exceeded its retry budget "
                f"({entry.attempts - 1} re-dispatches)"
            )
        workers = self.supervisor.workers
        candidates = [
            handle
            for handle in workers
            if handle.worker_id != exclude
            and self.supervisor.status(handle) == "live"
        ] or [handle for handle in workers if self.supervisor.status(handle) == "live"]
        if not candidates:
            raise ClusterError("no live workers to re-dispatch to")
        target = candidates[entry.task.shard_id % len(candidates)]
        task = dataclasses.replace(
            entry.task,
            attempt=entry.attempts,
            fault=(
                self.config.faults.decide(
                    entry.task.round_id, entry.task.shard_id, entry.attempts
                )
                if self.config.faults is not None
                else None
            ),
        )
        target.inbox.put(task)
        entry.task = task
        entry.worker_id = target.worker_id
        entry.dispatched_at = time.monotonic()
        entry.attempts += 1
        self.shards_redispatched += 1

    def _recover_worker(
        self,
        handle: _WorkerHandle,
        pending: dict[int, _Pending],
        world: "GeneralizedDatabase",
        sync: _Sync,
    ) -> None:
        """Restart a dead/suspect worker and re-dispatch its outstanding
        shards (to the fresh process, which first receives a full replica
        of the *synced* round state plus the round's delta reference)."""
        self.supervisor.restart(handle)
        # mid-round the driver world *is* the synced state (results merge
        # only after the round), so a full snapshot plus the round's delta
        # reference reproduces exactly what the dead worker knew
        handle.inbox.put(self._load_message(world))
        handle.inbox.put(sync)
        for entry in pending.values():
            if entry.worker_id == handle.worker_id:
                self._redispatch(entry, pending, exclude=None)

    def _collect(
        self,
        round_id: int,
        pending: dict[int, _Pending],
        results: dict[int, ShardResult],
        world: "GeneralizedDatabase",
        sync: _Sync,
        stats: "EvaluationStats",
    ) -> None:
        """Gather results; supervise liveness, stragglers, and retries."""
        poll = min(self.config.heartbeat_interval, 0.05)
        delta_sync = _Sync(
            round_id=round_id, updates=(), delta=sync.delta
        )
        while pending:
            drained = False
            try:
                message = self.outbox.get(timeout=poll)
                drained = True
            except queue.Empty:
                message = None
            except Exception:
                # a killed worker can leave a partially-written message in
                # the result pipe; treat it as corrupt and let the
                # straggler/liveness machinery re-dispatch
                message = None
            if message is not None:
                self._accept(message, round_id, pending, results)
            if drained and pending:
                # drain any further ready results before paying another poll
                while True:
                    try:
                        extra = self.outbox.get_nowait()
                    except queue.Empty:
                        break
                    except Exception:
                        break
                    self._accept(extra, round_id, pending, results)
            if not pending:
                return
            now = time.monotonic()
            outstanding = {entry.worker_id for entry in pending.values()}
            for handle in self.supervisor.workers:
                if handle.worker_id not in outstanding:
                    continue
                status = self.supervisor.status(handle)
                if status in ("dead", "suspect"):
                    handle.state = status if status == "suspect" else "dead"
                    self._recover_worker(handle, pending, world, delta_sync)
            for entry in list(pending.values()):
                if now - entry.dispatched_at > self.config.straggler_timeout:
                    # speculative re-execution: the original may still
                    # finish; first valid result wins (and is the only
                    # possible value -- shards are deterministic)
                    self._redispatch(
                        entry, pending, exclude=entry.worker_id
                    )

    def _accept(
        self,
        message: Any,
        round_id: int,
        pending: dict[int, _Pending],
        results: dict[int, ShardResult],
    ) -> None:
        """Validate one result message; re-dispatch on corruption/error."""
        if not isinstance(message, ShardResult):
            return
        if message.round_id != round_id:
            return  # stale round (e.g. dropped straggler from a past round)
        entry = pending.get(message.shard_id)
        if entry is None:
            return  # duplicate: the shard already completed (speculation)
        if message.fingerprint != self.fingerprint:
            self._redispatch(entry, pending, exclude=message.worker_id)
            return
        if message.failure is not None and message.failure[0] == "error":
            self._redispatch(entry, pending, exclude=message.worker_id)
            return
        results[message.shard_id] = message
        del pending[message.shard_id]

    # ---------------------------------------------------------------- misc
    def summary(self) -> dict[str, Any]:
        """Cluster state for ``EvaluationStats.cluster`` and the shell."""
        states = [handle.state for handle in self.supervisor.workers]
        return {
            "workers": self.count,
            "alive": self.supervisor.alive_count(),
            "restarts": self.supervisor.total_restarts,
            "worker_states": states,
            "shards_dispatched": self.shards_dispatched,
            "shards_redispatched": self.shards_redispatched,
            "degraded": self.degraded,
        }

    def close(self) -> None:
        self.supervisor.shutdown()
        try:
            self.outbox.close()
        except Exception:
            pass
