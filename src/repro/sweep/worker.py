"""The sweep worker process: pull a job, run it, report back.

One worker owns two pipe endpoints handed to it by the broker: a task
connection it reads ``(index, attempt, job)`` assignments from, and a
result connection it writes ``("done" | "failed" | "beat", ...)`` tuples
to.  Per-worker pipes (instead of one shared ``multiprocessing.Queue``)
are a deliberate crash-isolation choice: when a worker is SIGKILLed the
worst it can corrupt is *its own* result pipe — the broker sees the EOF
or the short read, classifies the death, and respawns the slot with
fresh pipes, while every other worker's channel stays intact.

Failure classification happens here, at the raising site, where the
exception type is still known:

* :class:`~repro.sweep.faults.TransientJobError`, ``OSError`` and
  ``MemoryError`` report as ``transient`` — the broker retries them with
  backoff;
* everything else reports as ``deterministic`` — re-running the same
  pure function on the same spec would fail the same way, so the broker
  quarantines the job immediately.

Warnings the job raised travel ahead of its report as ``("warn",
worker_id, category, text)`` messages; the broker re-issues each
distinct one once per run.

A daemon heartbeat thread writes ``("beat", worker_id)`` every
:data:`DEFAULT_HEARTBEAT_INTERVAL` seconds (sharing the result pipe
under a lock — two threads writing one pipe unlocked would interleave
frames).  A worker that stops beating while holding a job is, to the
broker, indistinguishable from a hung one — which is exactly the point:
the injected ``stall`` fault suppresses the heartbeat to rehearse the
silent-straggler re-dispatch path.
"""

from __future__ import annotations

import signal
import threading
import time
import warnings

from repro.sweep.faults import FaultInjector, TransientJobError

__all__ = ["worker_main", "DEFAULT_HEARTBEAT_INTERVAL"]

#: How often an alive worker proves it: small enough that the broker's
#: default deadline (see BrokerConfig) spans many missed beats.
DEFAULT_HEARTBEAT_INTERVAL = 0.2


def _heartbeat_loop(result_conn, send_lock, worker_id, stop, suppress):
    while not stop.wait(DEFAULT_HEARTBEAT_INTERVAL):
        if suppress.is_set():
            continue
        try:
            with send_lock:
                result_conn.send(("beat", worker_id))
        except (BrokenPipeError, OSError):
            return  # broker is gone; the main loop will notice too


def worker_main(worker_id: int, task_conn, result_conn,
                faults_text: str = "") -> None:
    """Process entry point: serve assignments until the None sentinel.

    SIGINT is ignored — interrupt handling (journal checkpoint, worker
    shutdown) belongs to the broker, and a Ctrl-C delivered to the whole
    process group must not take workers down mid-job before the broker
    has checkpointed.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Import here, not at module top: the worker only needs the (heavy)
    # engine stack once it actually runs, and keeping the import inside
    # makes the fork cheap even if this module is loaded early.
    from repro.sweep.executor import execute_work

    injector = FaultInjector.parse(faults_text)
    send_lock = threading.Lock()
    stop = threading.Event()
    suppress = threading.Event()
    beat_thread = threading.Thread(
        target=_heartbeat_loop,
        args=(result_conn, send_lock, worker_id, stop, suppress),
        daemon=True,
    )
    beat_thread.start()

    try:
        while True:
            try:
                message = task_conn.recv()
            except (EOFError, OSError):
                return  # broker died; nothing to do but exit
            if message is None:
                return
            index, attempt, job = message
            started = time.perf_counter()
            caught: list = []
            try:
                injector.pre_job(index, attempt, on_stall=suppress.set)
                with warnings.catch_warnings(record=True) as caught:
                    outcome = execute_work(job)
            except TransientJobError as error:
                report = ("failed", worker_id, index, "transient", str(error))
            except (MemoryError, OSError) as error:
                report = ("failed", worker_id, index, "transient",
                          f"{type(error).__name__}: {error}")
            except Exception as error:  # noqa: BLE001 — classification boundary
                report = ("failed", worker_id, index, "deterministic",
                          f"{type(error).__name__}: {error}")
            else:
                report = ("done", worker_id, index, attempt, outcome,
                          time.perf_counter() - started)
            suppress.clear()
            try:
                with send_lock:
                    for warning in caught:
                        result_conn.send(("warn", worker_id, warning.category,
                                          str(warning.message)))
                    result_conn.send(report)
            except (BrokenPipeError, OSError):
                return
    finally:
        stop.set()
