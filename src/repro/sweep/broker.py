"""The sweep broker: dispatch, supervise, retry, quarantine, checkpoint.

:class:`Broker` owns the execution of a plan's pending work units.  It
spawns :mod:`repro.sweep.worker` processes (one pair of pipes each),
assigns units to idle workers — trace by trace, keeping each worker on
the trace its per-process memo holds, and handing a reporting worker
its next unit before queueing its report for commit — and classifies
everything that can go wrong:

* **transient failures** (worker-reported ``transient`` errors, worker
  *crashes* — the process died holding a job — and *stalls* — the
  heartbeat went silent past the deadline): retried with exponential
  backoff + deterministic jitter, up to ``max_retries``; a job that
  exhausts its retries is quarantined as poisoned;
* **deterministic failures** (any other exception from the job): the
  same pure function over the same spec would fail identically, so the
  job is quarantined immediately and the sweep *keeps going* — the run
  ends with a partial result table plus a quarantine report instead of
  throwing away every other cell;
* **SIGINT/SIGTERM**: the broker stops dispatching, journals a clean
  ``interrupt`` checkpoint, shuts the workers down and raises
  :class:`SweepInterrupted` — ``repro sweep --resume <run-id>`` then
  picks up exactly the unfinished jobs.

Completed results are persisted *as they arrive* (not after the run)
by one ordered group-commit thread, so the dispatch loop never waits
on the disk.  Each group takes every completion queued while the
previous group was being flushed and commits it in four steps: write
every cache entry, fsync the entries back to back, ``os.replace`` each
and fsync the cache directory once, then append the group's journal
records in one ``write`` and one ``fsync``.  That order is what makes
the journal's ``done`` records honest: once a job is journaled done,
its entry is durable under its final name.  ``retry``, ``quarantine``
and ``interrupt`` records travel through the same queue, so each one
follows the ``done`` record of every completion the broker saw before
it.  A crash may cost re-running the last uncommitted group, never a
wrong cache hit; an error in the commit thread fails the run on the
broker thread.

Warnings a unit raises — a fast-backend fallback, say — reach the
broker's process whether the unit ran inline or in a worker (which
relays each as a ``warn`` message before its report), and the broker
re-issues each distinct one once per run: a trace the fast backend
cannot hold is reported once, not once per unit or per worker.

``workers == 1`` runs inline — no subprocesses, same retry/quarantine/
journal semantics.  Inline, an injected ``kill`` fault takes down the
whole process: that is the box-crash rehearsal, and the journal plus
cache make the subsequent resume bit-identical.

Results are bit-for-bit independent of worker count, retries, stalls
and dispatch order: :func:`~repro.sweep.executor.execute_job` is a pure
function of the job spec, and the broker only decides *when and where*
it runs.
"""

from __future__ import annotations

import heapq
import os
import signal
import threading
import time
import warnings
import zlib
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Collection, Sequence

from repro.sweep.faults import FaultInjector, TransientJobError
from repro.sweep.journal import RunJournal
from repro.sweep.result import JobResult
from repro.sweep.spec import JobSpec, LockstepBatch
from repro.sweep.worker import DEFAULT_HEARTBEAT_INTERVAL, worker_main

__all__ = [
    "Broker",
    "BrokerConfig",
    "QuarantinedJob",
    "SweepInterrupted",
    "backoff_delay",
]

#: Transient failure kinds a worker death maps to, by detection path.
_CRASH = "crash"
_STALL = "stall"


#: Retry backoff: the first retry waits about ``BACKOFF_BASE`` seconds,
#: each later one twice as long, never more than ``BACKOFF_CAP``.
BACKOFF_BASE = 0.25
BACKOFF_CAP = 5.0
#: Longest the dispatch loop waits for a worker message before it
#: re-checks deadlines, retries and the stop flag.
POLL_INTERVAL = 0.1


def backoff_delay(run_id: str, index: int, attempt: int) -> float:
    """Capped exponential backoff with deterministic jitter.

    The jitter fraction comes from a CRC-32 of (run id, job, attempt) —
    retries of many jobs quarantined by one event spread out instead of
    thundering back together, yet the schedule is reproducible.
    """
    delay = min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** attempt))
    frac = (zlib.crc32(f"{run_id}:{index}:{attempt}".encode()) & 0xFFFFFFFF) / 0xFFFFFFFF
    return delay * (0.5 + 0.5 * frac)


@dataclass(frozen=True)
class BrokerConfig:
    """Supervision knobs; the defaults suit one-box CI-scale sweeps."""

    workers: int = 1
    max_retries: int = 2
    heartbeat_timeout: float = 30.0
    faults: str = ""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.heartbeat_timeout <= DEFAULT_HEARTBEAT_INTERVAL:
            raise ValueError(
                "heartbeat_timeout must exceed the worker heartbeat interval "
                f"({self.heartbeat_timeout} <= {DEFAULT_HEARTBEAT_INTERVAL})"
            )


@dataclass(frozen=True)
class QuarantinedJob:
    """A job the run gave up on, with why and how hard it tried."""

    index: int
    job: JobSpec
    kind: str
    error: str
    attempts: int

    def describe(self) -> str:
        return (
            f"job {self.index} ({self.job.label}): {self.kind} after "
            f"{self.attempts} attempt(s) — {self.error}"
        )


class SweepInterrupted(RuntimeError):
    """SIGINT/SIGTERM checkpointed the run; resume with the run id."""

    def __init__(self, run_id: str | None, n_done: int, n_pending: int) -> None:
        super().__init__(
            f"sweep interrupted with {n_done} job(s) done, {n_pending} pending"
            + (f"; resume with run id {run_id}" if run_id else "")
        )
        self.run_id = run_id
        self.n_done = n_done
        self.n_pending = n_pending


class _WorkerSlot:
    """One supervised worker process with its private pipe pair."""

    def __init__(self, worker_id: int, ctx, config: BrokerConfig) -> None:
        self.worker_id = worker_id
        self._ctx = ctx
        self._config = config
        self.busy: tuple[int, int, JobSpec | LockstepBatch] | None = None
        self.respawns = 0
        self.spawn()

    def spawn(self) -> None:
        task_r, self.task_w = self._ctx.Pipe(duplex=False)
        self.result_r, result_w = self._ctx.Pipe(duplex=False)
        self.process = self._ctx.Process(
            target=worker_main,
            args=(self.worker_id, task_r, result_w, self._config.faults),
            daemon=True,
        )
        self.process.start()
        # The child holds its own copies; the parent must drop these or
        # EOF detection on worker death never triggers.
        task_r.close()
        result_w.close()
        self.busy = None
        #: The trace of the last unit assigned: the one this process's
        #: trace memo holds warm (none yet in a fresh process).
        self.trace: tuple[str, int] | None = None
        self.last_beat = time.monotonic()

    def assign(self, index: int, attempt: int,
               job: JobSpec | LockstepBatch) -> None:
        self.task_w.send((index, attempt, job))
        self.busy = (index, attempt, job)
        self.trace = job.trace_key
        self.last_beat = time.monotonic()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join()

    def respawn(self) -> None:
        self.kill()
        self._close_pipes()
        self.respawns += 1
        self.spawn()

    def shutdown(self, grace: float = 1.0) -> None:
        try:
            self.task_w.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(grace)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(grace)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for conn in (self.task_w, self.result_r):
            try:
                conn.close()
            except OSError:
                pass


@dataclass
class _JobState:
    """Broker-side bookkeeping for one pending work unit (a single job
    or a :class:`~repro.sweep.spec.LockstepBatch` of jobs)."""

    job: JobSpec | LockstepBatch
    attempt: int = 0
    history: list[str] = field(default_factory=list)


class _ReadyQueue:
    """Dispatchable unit indices, queued per trace, handed out with
    trace affinity.

    A worker keeps draining the trace it last ran, whose synthesized
    trace its per-process memo still holds.  When that runs dry it
    takes the first trace no other worker is on (first-appearance
    order), and only once every queued trace has a worker does it join
    the one with the longest backlog — so each trace's units run back
    to back and each trace is synthesized by as few workers as
    possible.
    """

    def __init__(self, pending: list[tuple[int, JobSpec | LockstepBatch]]) -> None:
        self._trace = {index: unit.trace_key for index, unit in pending}
        self._queues: dict[tuple[str, int], deque[int]] = {}
        for index, _ in pending:
            self.push(index)

    def __bool__(self) -> bool:
        return any(self._queues.values())

    def push(self, index: int) -> None:
        self._queues.setdefault(self._trace[index], deque()).append(index)

    def push_front(self, index: int) -> None:
        self._queues.setdefault(self._trace[index], deque()).appendleft(index)

    def pop(self, trace: tuple[str, int] | None,
            taken: Collection = frozenset()) -> int:
        """The next unit for a worker last on ``trace``, while other
        workers are on the traces in ``taken``."""
        queue = self._queues.get(trace)
        if not queue:
            queued = [key for key, pending in self._queues.items() if pending]
            free = [key for key in queued if key not in taken]
            queue = self._queues[free[0] if free else max(
                queued, key=lambda key: len(self._queues[key])
            )]
        return queue.popleft()


@dataclass
class _Completion:
    """One finished job waiting for its group commit."""

    index: int
    job: JobSpec
    result: JobResult
    attempt: int
    spec_hash: str


class _GroupCommitter:
    """The broker's persistence: one thread committing in order, by group.

    :meth:`submit` queues completions and journal records and returns at
    once.  The thread commits everything queued since its previous group
    (the cache stores, the ``post_store`` fault hook, then the journal
    records in queue order) and then takes the next group.  An error
    stops the thread; :meth:`check` re-raises it on the broker thread.

    The thread starts at the first :meth:`submit`, after a pool has
    forked its workers.  A worker respawned later is forked while the
    thread runs; it only runs :func:`worker_main`, which touches none of
    the thread's state.
    """

    def __init__(self, cache, journal: RunJournal | None,
                 injector: FaultInjector,
                 log: Callable[[str], None]) -> None:
        self._cache = cache
        self._journal = journal
        self._injector = injector
        self._log = log
        self._queue: list = []
        self._wakeup = threading.Condition()
        self._closing = False
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None

    def submit(self, *items) -> None:
        """Queue :class:`_Completion` s, and callables that append one
        journal record each."""
        with self._wakeup:
            self._queue.extend(items)
            self._wakeup.notify()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="sweep-commit", daemon=True
            )
            self._thread.start()

    def check(self) -> None:
        """Re-raise the commit thread's error, if it has failed."""
        if self._error is not None:
            raise self._error

    def close(self) -> None:
        """Commit everything queued, stop the thread, then :meth:`check`."""
        if self._thread is None:
            return
        with self._wakeup:
            self._closing = True
            self._wakeup.notify()
        self._thread.join()
        self.check()

    def _loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._closing:
                    self._wakeup.wait()
                group, self._queue = self._queue, []
            if not group:
                return
            try:
                self._commit(group)
            except BaseException as error:  # noqa: BLE001 — re-raised by check()
                self._error = error
                return

    def _commit(self, group: list) -> None:
        done = [item for item in group if isinstance(item, _Completion)]
        if self._cache is not None and done:
            with self._cache.group():
                paths = [
                    self._cache.store(item.job, item.result,
                                      spec_hash=item.spec_hash)
                    for item in done
                ]
            for item, path in zip(done, paths):
                if self._injector.post_store(item.index, item.attempt, path):
                    self._log(f"fault: corrupted cache entry for job "
                              f"{item.index} ({item.spec_hash})")
        if self._journal is None:
            return
        with self._journal.group():
            for item in group:
                if isinstance(item, _Completion):
                    self._journal.job_done(item.index, item.spec_hash,
                                           item.attempt)
                else:
                    item()


def _unit_members(index: int, unit: JobSpec | LockstepBatch):
    """The (grid index, job) pairs one dispatched unit carries."""
    if isinstance(unit, LockstepBatch):
        return unit.members
    return ((index, unit),)


class Broker:
    """Run a batch of jobs to completion (or checkpointed interruption)."""

    def __init__(
        self,
        config: BrokerConfig,
        run_id: str | None = None,
        cache=None,
        journal: RunJournal | None = None,
        progress: Callable[[str], None] | None = None,
        *,
        spec_hashes: Sequence[str],
    ) -> None:
        self.config = config
        self.run_id = run_id
        self.cache = cache
        self.journal = journal
        self.progress = progress
        #: Job index -> spec hash (the plan's ``hashes``): the cache
        #: stores and journal records use these, never a fresh digest.
        self.spec_hashes = spec_hashes
        self.injector = FaultInjector.parse(config.faults)
        self.n_retries = 0
        self._stop = threading.Event()
        self._stop_signal: int | None = None
        #: Unit indices completed or quarantined (a lockstep batch
        #: settles as one unit; its members fan out individually).
        self._settled: set[int] = set()
        #: The commit thread of the current :meth:`run` (None when it
        #: has neither a cache nor a journal to write).
        self._commits: _GroupCommitter | None = None
        #: (category, text) of every warning re-issued this run.
        self._warned: set[tuple[type, str]] = set()

    # -- shared bookkeeping --------------------------------------------

    def _relay_warning(self, category: type, text: str) -> None:
        """Re-issue a unit's warning here, once per run."""
        if (category, text) not in self._warned:
            self._warned.add((category, text))
            warnings.warn(text, category, stacklevel=2)

    def _log(self, line: str) -> None:
        if self.progress:
            self.progress(line)

    def _journal(self, method, *args) -> None:
        """Queue one journal record (``method`` of :attr:`journal`)
        behind every earlier completion."""
        self._commits.submit(partial(method, *args))

    def _complete(self, index: int, state: _JobState, outcome,
                  results: dict[int, JobResult]) -> None:
        """Record a finished unit: one result, or a batch fanned out.

        A lockstep batch returns one :class:`JobResult` per member (in
        member order); each is stored, journaled and slotted under its
        own grid index and spec hash, so downstream consumers (cache,
        resume, result table) never see the batching.  The store and
        the ``done`` record are queued for the commit thread.
        """
        if isinstance(state.job, LockstepBatch):
            pairs = list(zip(state.job.members, outcome))
        else:
            pairs = [((index, state.job), outcome)]
        for (job_index, _), job_outcome in pairs:
            results[job_index] = job_outcome
        if self._commits is not None:
            self._commits.submit(*(
                _Completion(job_index, job, job_outcome, state.attempt,
                            self.spec_hashes[job_index])
                for (job_index, job), job_outcome in pairs
            ))
        self._settled.add(index)

    def _quarantine(self, index: int, state: _JobState, kind: str, error: str,
                    quarantined: list[QuarantinedJob]) -> None:
        for job_index, job in _unit_members(index, state.job):
            entry = QuarantinedJob(
                index=job_index, job=job, kind=kind, error=error,
                attempts=state.attempt + 1,
            )
            quarantined.append(entry)
            if self.journal is not None:
                self._journal(self.journal.job_quarantined, job_index,
                              self.spec_hashes[job_index], kind, error,
                              state.attempt + 1)
            self._log(f"quarantine: {entry.describe()}")
        self._settled.add(index)

    def _fail(self, index: int, state: _JobState, kind: str, error: str,
              retry_heap: list, quarantined: list[QuarantinedJob]) -> None:
        """Classify one failure into retry-with-backoff or quarantine."""
        state.history.append(f"{kind}: {error}")
        if kind == "deterministic" or state.attempt >= self.config.max_retries:
            reason = kind if kind == "deterministic" else f"{kind} (retries exhausted)"
            self._quarantine(index, state, reason, error, quarantined)
            return
        if self.journal is not None:
            self._journal(self.journal.job_retry, index, state.attempt,
                          kind, error)
        delay = backoff_delay(self.run_id or "", index, state.attempt)
        state.attempt += 1
        self.n_retries += 1
        heapq.heappush(retry_heap, (time.monotonic() + delay, index))
        self._log(
            f"retry: job {index} ({state.job.label}) after {kind} "
            f"({error}); attempt {state.attempt} in {delay:.2f}s"
        )

    # -- signal handling -----------------------------------------------

    def _install_signal_handlers(self):
        """Route SIGINT/SIGTERM to the stop flag; returns the restorer.

        Only possible from the main thread (signal module rule); library
        callers driving sweeps from other threads simply keep Python's
        default behaviour.
        """
        if threading.current_thread() is not threading.main_thread():
            return lambda: None

        def handler(signum, frame):
            self._stop_signal = signum
            self._stop.set()

        previous = {
            signum: signal.signal(signum, handler)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }

        def restore():
            for signum, old in previous.items():
                signal.signal(signum, old)

        return restore

    def _raise_interrupted(self, results: dict, states: dict) -> None:
        n_jobs = sum(
            len(_unit_members(index, state.job))
            for index, state in states.items()
        )
        n_pending = n_jobs - len(results)
        if self.journal is not None:
            # Committed before run() returns: run() closes the committer.
            self._journal(self.journal.interrupt, len(results), n_pending)
        self._log(
            f"interrupted: checkpointed {len(results)} done, "
            f"{n_pending} pending"
            + (f"; resume with --resume {self.run_id}" if self.run_id else "")
        )
        raise SweepInterrupted(self.run_id, len(results), n_pending)

    # -- execution -----------------------------------------------------

    def run(
        self, pending: list[tuple[int, JobSpec | LockstepBatch]]
    ) -> tuple[dict[int, JobResult], list[QuarantinedJob]]:
        """Execute the pending work units; returns (results by grid
        index, quarantined jobs).  Units are single jobs or
        :class:`~repro.sweep.spec.LockstepBatch` groups; batch results
        fan out so the returned dict always maps *job* indices.

        Raises:
            SweepInterrupted: after journaling a clean checkpoint on
                SIGINT/SIGTERM.
        """
        if not pending:
            return {}, []
        self._settled = set()
        self._warned = set()
        if self.cache is not None or self.journal is not None:
            self._commits = _GroupCommitter(self.cache, self.journal,
                                            self.injector, self._log)
        restore = self._install_signal_handlers()
        try:
            if self.config.workers == 1 or len(pending) == 1:
                self._log(f"broker: {len(pending)} unit(s) in process")
                return self._run_inline(pending)
            self._log(
                f"broker: {len(pending)} unit(s) on a pool of "
                f"{min(self.config.workers, len(pending))} worker(s)"
            )
            return self._run_pool(pending)
        finally:
            # Drained while the stop handler is still installed: a second
            # Ctrl-C must not cut the commit of the checkpoint short.
            try:
                if self._commits is not None:
                    self._commits.close()
            finally:
                self._commits = None
                restore()

    def _check_commits(self) -> None:
        """Fail the run here if the commit thread has failed."""
        if self._commits is not None:
            self._commits.check()

    def _run_inline(self, pending) -> tuple[dict[int, JobResult], list[QuarantinedJob]]:
        from repro.sweep.executor import execute_work

        states = {index: _JobState(job=job) for index, job in pending}
        results: dict[int, JobResult] = {}
        quarantined: list[QuarantinedJob] = []
        retry_heap: list[tuple[float, int]] = []
        ready = _ReadyQueue(pending)
        trace = None
        while ready or retry_heap:
            self._check_commits()
            if self._stop.is_set():
                self._raise_interrupted(results, states)
            if not ready:
                due, index = heapq.heappop(retry_heap)
                wait = due - time.monotonic()
                if wait > 0 and self._stop.wait(wait):
                    self._raise_interrupted(results, states)
                ready.push(index)
                continue
            index = ready.pop(trace)
            state = states[index]
            trace = state.job.trace_key
            caught: list = []
            try:
                self.injector.pre_job(index, state.attempt)
                with warnings.catch_warnings(record=True) as caught:
                    outcome = execute_work(state.job)
            except TransientJobError as error:
                self._fail(index, state, "transient", str(error),
                           retry_heap, quarantined)
            except (MemoryError, OSError) as error:
                self._fail(index, state, "transient",
                           f"{type(error).__name__}: {error}",
                           retry_heap, quarantined)
            except Exception as error:  # noqa: BLE001 — classification boundary
                self._fail(index, state, "deterministic",
                           f"{type(error).__name__}: {error}",
                           retry_heap, quarantined)
            else:
                self._complete(index, state, outcome, results)
            finally:
                for warning in caught:
                    self._relay_warning(warning.category, str(warning.message))
        return results, quarantined

    def _run_pool(self, pending) -> tuple[dict[int, JobResult], list[QuarantinedJob]]:
        states = {index: _JobState(job=job) for index, job in pending}
        results: dict[int, JobResult] = {}
        quarantined: list[QuarantinedJob] = []
        retry_heap: list[tuple[float, int]] = []
        ready = _ReadyQueue(pending)
        n_workers = min(self.config.workers, len(pending))
        # Loaded only here: inline runs and the server never need it.
        import multiprocessing

        ctx = multiprocessing.get_context()
        slots = [_WorkerSlot(i, ctx, self.config) for i in range(n_workers)]

        def outstanding() -> int:
            return len(states) - len(self._settled)

        def dispatch(slot: _WorkerSlot) -> None:
            if slot.busy is None and ready and not self._stop.is_set():
                index = ready.pop(
                    slot.trace, {other.trace for other in slots if other is not slot}
                )
                state = states[index]
                try:
                    slot.assign(index, state.attempt, state.job)
                except (BrokenPipeError, OSError):
                    # Dead before dispatch: requeue, respawn below.
                    ready.push_front(index)

        try:
            while outstanding() > 0:
                self._check_commits()
                if self._stop.is_set():
                    self._raise_interrupted(results, states)
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    ready.push(heapq.heappop(retry_heap)[1])
                for slot in slots:
                    dispatch(slot)
                self._drain_results(slots, states, results, quarantined,
                                    retry_heap, dispatch)
                self._supervise(slots, states, results, quarantined, retry_heap,
                                outstanding)
        finally:
            for slot in slots:
                slot.shutdown()
        return results, quarantined

    def _drain_results(self, slots, states, results, quarantined, retry_heap,
                       dispatch):
        """Wait briefly for worker messages and apply them.

        A worker that reports is handed its next unit (``dispatch``)
        before the broker queues the report for the commit thread.
        """
        by_conn = {slot.result_r: slot for slot in slots}
        timeout = POLL_INTERVAL
        if retry_heap:
            timeout = max(0.0, min(timeout,
                                   retry_heap[0][0] - time.monotonic()))
        from multiprocessing.connection import wait

        try:
            ready_conns = wait(list(by_conn), timeout=timeout)
        except OSError:
            return
        for conn in ready_conns:
            slot = by_conn[conn]
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    break  # death handled by _supervise via is_alive()
                self._apply(slot, message, states, results, quarantined,
                            retry_heap, dispatch)

    def _apply(self, slot, message, states, results, quarantined, retry_heap,
               dispatch=None):
        kind = message[0]
        if kind == "beat":
            slot.last_beat = time.monotonic()
            return
        if kind == "warn":
            _, _, category, text = message
            self._relay_warning(category, text)
            return
        if kind == "done":
            _, _, index, attempt, outcome, _elapsed = message
            slot.busy = None
            slot.last_beat = time.monotonic()
            if dispatch is not None:
                dispatch(slot)
            self._complete(index, states[index], outcome, results)
            return
        if kind == "failed":
            _, _, index, failure_kind, error = message
            slot.busy = None
            slot.last_beat = time.monotonic()
            self._fail(index, states[index], failure_kind, error,
                       retry_heap, quarantined)

    def _supervise(self, slots, states, results, quarantined, retry_heap,
                   outstanding):
        """Detect dead and silently stalled workers; recover their jobs."""
        now = time.monotonic()
        for slot in slots:
            if not slot.process.is_alive():
                # Drain any reports it managed to send before dying (a
                # worker can complete its job and then be killed idle).
                while True:
                    try:
                        if not slot.result_r.poll():
                            break
                        self._apply(slot, slot.result_r.recv(), states,
                                    results, quarantined, retry_heap)
                    except (EOFError, OSError):
                        break
                if slot.busy is not None:
                    index, attempt, job = slot.busy
                    slot.busy = None
                    if index not in states or index in self._settled:
                        pass
                    else:
                        self._fail(index, states[index], _CRASH,
                                   f"worker {slot.worker_id} died "
                                   f"(exitcode {slot.process.exitcode})",
                                   retry_heap, quarantined)
                if outstanding() > 0 and not self._stop.is_set():
                    slot.respawn()
            elif (slot.busy is not None
                  and now - slot.last_beat > self.config.heartbeat_timeout):
                index, attempt, job = slot.busy
                self._log(
                    f"straggler: worker {slot.worker_id} silent for "
                    f">{self.config.heartbeat_timeout:g}s on job {index}; "
                    "re-dispatching"
                )
                slot.busy = None
                self._fail(index, states[index], _STALL,
                           f"no heartbeat for {self.config.heartbeat_timeout:g}s",
                           retry_heap, quarantined)
                if outstanding() > 0 and not self._stop.is_set():
                    slot.respawn()
                else:
                    slot.kill()
