"""The pre-forked worker pool and its micro-batching dispatchers.

Topology: N forked worker processes (fork start method on Linux — the
pool is constructed *before* the HTTP threads start, so forking is
safe), each wired to the parent by one ``Pipe`` and fed by one
dispatcher thread.  All dispatchers pull from a single shared queue:

* a dispatcher blocks for the next pending job, then **drains up to
  ``batch_max - 1`` more without blocking** — under load, queued jobs
  ride along in one pipe round-trip (micro-batching), while an idle
  service degenerates to batch size 1 and minimum latency;
* jobs whose deadline passed while queued are answered ``504`` right
  here and never cross the pipe (cancellation before execution — the
  worker re-checks per item for deadlines that expire mid-batch);
* a worker that dies or wedges mid-batch fails only that batch: each
  job is **requeued once, transparently** (the retry is invisible to
  the client — a single crash costs latency, not an error) or answered
  ``500`` honestly if it already rode a dead worker, and the
  dispatcher forks a fresh replacement before pulling more work — the
  pool heals itself;
* an optional **stall watchdog** (``stall_timeout_s``) bounds how long
  a dispatcher waits for a worker's reply: a wedged worker — stuck,
  not dead — is killed and replaced through the same healing path as a
  crash, so a missed deadline can't pin a dispatcher forever.

The pool is also where the serve resilience plane injects failures: an
optional :class:`~repro.faults.FaultInjector` for the ``serve`` target
is consulted once per site per dispatch (fixed order, so recorded chaos
schedules replay bit-for-bit), and worker-lifecycle events are
reported to an optional callback the degradation ladder listens on.

Admission control belongs to the caller: :attr:`WorkerPool.outstanding`
is the live queued+in-flight count the frontend compares against its
bounded queue depth before calling :meth:`submit`.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..faults import FaultInjector
from ..obs.trace import end_span, start_span
from .protocol import Job, JobOutcome, error_body

_SHUTDOWN = object()


@dataclass
class PendingJob:
    """One submitted job: the dispatcher resolves it exactly once."""

    job: Job
    #: called (in the dispatcher thread) with the outcome — the serve
    #: frontend uses it to fill the coalescing slot and hot cache
    on_resolve: Optional[Callable[["PendingJob"], None]] = None
    outcome: Optional[JobOutcome] = None
    #: True when the pool cancelled the job before execution
    cancelled: bool = False
    #: True when a worker actually computed (ran frontend/machine)
    computed: bool = False
    #: True once the job has been transparently resubmitted after a
    #: worker failure — a second failure is answered 500, not retried
    requeued: bool = False
    #: True when a service fault touched this job's dispatch (injected
    #: crash/stall/spike/pipe/corruption, or a real worker death) —
    #: the tail sampler always retains fault-affected traces
    faulted: bool = False
    #: pool/worker spans accumulated for this job (traced jobs only);
    #: written by the dispatcher strictly before ``done`` is set, read
    #: by the coalescing leader strictly after — no lock needed
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: the open queue-wait span (one per submit/requeue)
    qspan: Optional[Dict[str, Any]] = None
    #: the open dispatch span for the in-flight attempt
    dspan: Optional[Dict[str, Any]] = None
    done: threading.Event = field(default_factory=threading.Event)

    def resolve(self, outcome: JobOutcome, *, cancelled: bool = False,
                computed: bool = False) -> None:
        self.outcome = outcome
        self.cancelled = cancelled
        self.computed = computed
        if self.on_resolve is not None:
            try:
                self.on_resolve(self)
            except Exception:
                pass  # a frontend bug must not wedge the dispatcher
        self.done.set()


class WorkerPool:
    """N warm workers behind one bounded dispatch queue."""

    def __init__(self, workers: int = 2,
                 cache_root: Optional[str] = None,
                 batch_max: int = 8,
                 metrics: Optional[Any] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 stall_timeout_s: Optional[float] = None,
                 requeue_on_crash: bool = True,
                 on_worker_event: Optional[Callable[[str], None]]
                 = None,
                 flight_dir: Optional[str] = None) -> None:
        import multiprocessing as mp
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.cache_root = cache_root
        #: handed to each worker: traced inspect jobs dump their flight
        #: record here, keyed by trace id (see WarmWorker._dump_flight)
        self.flight_dir = flight_dir
        self.batch_max = max(1, batch_max)
        #: a serve-target FaultInjector, seeded or replaying (None in
        #: prod)
        self.faults = fault_injector
        #: reply-wait bound per dispatch; None disables the watchdog
        self.stall_timeout_s = stall_timeout_s
        self.requeue_on_crash = requeue_on_crash
        self._on_worker_event = on_worker_event
        self._ctx = mp.get_context()
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._lock = threading.Lock()
        self._outstanding = 0
        self._closed = False
        self._procs: List[Any] = [None] * workers
        self._conns: List[Any] = [None] * workers
        self._restarts = 0
        self._metrics = metrics
        if metrics is not None:
            self._batch_hist = metrics.histogram(
                "repro_serve_batch_size",
                "jobs per worker dispatch (micro-batching)",
                buckets=tuple(range(1, self.batch_max + 1)))
            self._restart_ctr = metrics.counter(
                "repro_serve_worker_restarts_total",
                "worker processes replaced after a crash")
            self._requeue_ctr = metrics.counter(
                "repro_serve_requeued_jobs_total",
                "jobs transparently resubmitted after a worker "
                "failure")
        else:
            self._batch_hist = self._restart_ctr = None
            self._requeue_ctr = None
        for i in range(workers):
            self._spawn(i)
        self._threads = [
            threading.Thread(target=self._dispatch, args=(i,),
                             name=f"repro-serve-dispatch-{i}",
                             daemon=True)
            for i in range(workers)]
        for t in self._threads:
            t.start()

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self, index: int) -> None:
        from .worker import worker_main
        parent_conn, child_conn = self._ctx.Pipe()
        # the fork copies every parent-side pipe end into the child —
        # including this very pipe's, which would keep its write end
        # open *inside the worker* and turn a dead parent into a
        # forever-blocked recv instead of EOF.  Hand the child the full
        # list to close first thing, so workers always exit when the
        # parent goes away, however it went away.
        unwanted = ([parent_conn]
                    + [c for c in self._conns if c is not None])
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.cache_root, unwanted,
                  self.flight_dir),
            name=f"repro-serve-worker-{index}", daemon=True)
        proc.start()
        child_conn.close()
        self._procs[index] = proc
        self._conns[index] = parent_conn

    @property
    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding

    @property
    def restarts(self) -> int:
        return self._restarts

    def alive_workers(self) -> int:
        return sum(1 for p in self._procs
                   if p is not None and p.is_alive())

    # -- submission -----------------------------------------------------

    def submit(self, pending: PendingJob) -> PendingJob:
        """Enqueue; the caller is responsible for admission control
        (checking :attr:`outstanding` against its queue bound first)."""
        if self._closed:
            pending.resolve(JobOutcome(
                503, error_body("service shutting down")))
            return pending
        if pending.job.trace_id:
            pending.qspan = start_span("queue-wait", "pool",
                                       parent=pending.job.root_span)
        with self._lock:
            self._outstanding += 1
        self._queue.put(pending)
        return pending

    def _finish(self, pending: PendingJob, outcome: JobOutcome,
                **kw: Any) -> None:
        with self._lock:
            self._outstanding -= 1
        pending.resolve(outcome, **kw)

    def _event(self, kind: str) -> None:
        """Report a worker-lifecycle event (``crash`` / ``stall`` /
        ``pipe_write`` / ``respawn``) to the ladder, if one listens."""
        if self._on_worker_event is not None:
            try:
                self._on_worker_event(kind)
            except Exception:
                pass  # an observer bug must not wedge the dispatcher

    # -- fault consultation (chaos campaigns only; no-op in prod) -------

    def _consult_faults(self, index: int, live: List[PendingJob]
                        ) -> tuple:
        """Consult every service fault site exactly once for this
        dispatch — the fixed per-dispatch consult pattern is what makes
        recorded schedules replayable.  Returns
        ``(kill, delay_ms, pipe_fail)``."""
        injector = self.faults
        if injector is None:
            return False, None, False
        # the trace id rides in the fault *detail* — diagnostics, not
        # identity (replay compares fault_key/statuses/digests only),
        # so stamping it keeps chaos schedules replayable while giving
        # `repro chaos` a join key into retained traces
        detail = (f"worker={index} "
                  f"job={live[0].job.fingerprint[:12]}")
        if live[0].job.trace_id:
            detail += f" trace={live[0].job.trace_id[:16]}"
        kill = injector.fire("worker_crash", detail)
        stall = injector.fire("worker_stall", detail)
        spike = injector.fire("latency_spike", detail)
        pipe_fail = injector.fire("pipe_write", detail)
        corrupt = injector.fire("cache_corrupt", detail)
        if corrupt:
            self._corrupt_shard(live[0].job.source_sha)
        delay_ms: Optional[float] = None
        if stall:
            delay_ms = injector.plan.magnitudes["stall_ms"]
        elif spike:
            delay_ms = injector.plan.magnitudes["spike_ms"]
        if kill or stall or spike or pipe_fail or corrupt:
            # any fired fault taints every job riding this dispatch —
            # the tail sampler retains their traces unconditionally
            for p in live:
                p.faulted = True
        return kill, delay_ms, pipe_fail

    def _corrupt_shard(self, sha: str) -> None:
        """Tear the job's on-disk analysis-cache shard (truncated
        JSON) so the worker's disk-tier load must take the quarantine
        path instead of trusting the bytes."""
        if not self.cache_root:
            return
        from ..core.cache import shard_path
        path = shard_path(self.cache_root, sha)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{"schema": "repro-analysis-cache/1", '
                             '"entries": {"torn')
        except OSError:
            pass

    # -- the dispatcher -------------------------------------------------

    def _take_batch(self) -> Optional[List[PendingJob]]:
        head = self._queue.get()
        if head is _SHUTDOWN:
            return None
        batch = [head]
        while len(batch) < self.batch_max:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # keep the sentinel moving so every dispatcher stops
                self._queue.put(item)
                break
            batch.append(item)
        return batch

    def _dispatch(self, index: int) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            now = time.monotonic()
            live: List[PendingJob] = []
            for p in batch:
                if (p.job.deadline is not None
                        and now >= p.job.deadline):
                    if p.qspan is not None:
                        p.spans.append(end_span(p.qspan,
                                                outcome="deadline"))
                        p.qspan = None
                    self._finish(p, JobOutcome(
                        504, error_body("deadline exceeded")),
                        cancelled=True)
                else:
                    live.append(p)
            if not live:
                continue
            if self._batch_hist is not None:
                self._batch_hist.observe(len(live))
            kill, delay_ms, pipe_fail = self._consult_faults(index,
                                                             live)
            if kill:
                proc = self._procs[index]
                if proc is not None:
                    proc.kill()
                    proc.join(timeout=2.0)
            for p in live:
                if p.qspan is not None:
                    p.spans.append(end_span(p.qspan))
                    p.qspan = None
                if p.job.trace_id:
                    p.dspan = start_span(
                        "dispatch", "pool", parent=p.job.root_span,
                        attrs={"worker": index, "batch": len(live),
                               "attempt": 2 if p.requeued else 1})
            wire = [p.job.to_wire() for p in live]
            for w, p in zip(wire, live):
                if p.dspan is not None:
                    # worker spans parent under this dispatch attempt,
                    # so a requeued job shows two distinct subtrees
                    w["parent_span"] = p.dspan["span"]
            if delay_ms is not None:
                # ride the delay on the wire: the worker sleeps before
                # handling, which is what a slow or stuck analysis
                # looks like from this side of the pipe
                wire[0]["_delay_ms"] = delay_ms
            conn = self._conns[index]
            try:
                if pipe_fail:
                    raise OSError("injected pipe-write failure")
                conn.send(wire)
                if (self.stall_timeout_s is not None
                        and not conn.poll(self.stall_timeout_s)):
                    # the worker is wedged, not dead: the watchdog
                    # turns a missed deadline into the healing path
                    self._heal(index, live, "stall")
                    continue
                replies = conn.recv()
            except (EOFError, OSError, ValueError):
                self._heal(index, live,
                           "pipe_write" if pipe_fail else "crash")
                continue
            for p, reply in zip(live, replies):
                if p.dspan is not None:
                    p.spans.append(end_span(p.dspan))
                    p.dspan = None
                if isinstance(reply, dict):
                    p.spans.extend(reply.pop("spans", None) or [])
                self._finish(
                    p,
                    JobOutcome(reply["status"], reply["body"],
                               memo=reply.get("memo", False)),
                    cancelled=reply.get("cancelled", False),
                    computed=reply.get("computed", False))

    def _heal(self, index: int, live: List[PendingJob],
              reason: str) -> None:
        """Replace a dead or wedged worker and re-route its batch:
        first failure per job is requeued transparently, a repeat is
        answered ``500`` honestly — an admitted request is never
        silently dropped."""
        proc = self._procs[index]
        if proc is not None and proc.is_alive():
            proc.kill()  # a stalled worker must die before respawn
            proc.join(timeout=2.0)
        try:
            self._conns[index].close()
        except OSError:
            pass
        self._event(reason)
        for p in live:
            p.faulted = True
            if p.dspan is not None:
                p.spans.append(end_span(p.dspan, outcome=reason))
                p.dspan = None
            if (self.requeue_on_crash and not self._closed
                    and not p.requeued):
                p.requeued = True
                if self._requeue_ctr is not None:
                    self._requeue_ctr.inc()
                if p.job.trace_id:
                    # the retry waits in queue again: a fresh
                    # queue-wait span keeps the tree honest about
                    # where the second attempt's time went
                    p.qspan = start_span("queue-wait", "pool",
                                         parent=p.job.root_span,
                                         attrs={"requeued": True})
                self._queue.put(p)  # outstanding stays counted
            else:
                self._finish(p, JobOutcome(
                    500, error_body("worker process died",
                                    reason=reason)))
        if not self._closed:
            self._restarts += 1
            if self._restart_ctr is not None:
                self._restart_ctr.inc()
            self._spawn(index)
            self._event("respawn")

    # -- shutdown -------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Stop dispatchers, drain workers, reap every child process."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        for t in self._threads:
            t.join(timeout=timeout)
        for conn in self._conns:
            try:
                conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + timeout
        for i, proc in enumerate(self._procs):
            if proc is None:
                continue
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            self._procs[i] = None
        for i, conn in enumerate(self._conns):
            try:
                conn.close()
            except OSError:
                pass
            self._conns[i] = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
