"""``repro serve``: sharded analysis-as-a-service.

A long-lived stdlib-only HTTP service that runs analyze→run→inspect
jobs on a pre-forked pool of warm workers over the shared
content-addressed :class:`~repro.core.cache.AnalysisCache` tree, with
request coalescing, micro-batching, bounded-queue admission control,
per-tenant token-bucket quotas, and deadline propagation.  See
``docs/SERVING.md`` for the architecture and tuning guide.

The resilience plane lives alongside: deterministic service-fault
injection (the ``serve`` target of :mod:`repro.faults`, consulted by
the pool), the healthy→brownout→shed
degradation ladder (:mod:`~repro.serve.degrade`), a self-healing
retrying client (:mod:`~repro.serve.client`), and seeded chaos
campaigns against a live service (:mod:`~repro.serve.chaos`).  See
``docs/ROBUSTNESS.md``.

Every request carries a wire-propagated trace context
(``X-Repro-Trace``, schema ``repro-trace/1``): the client, frontend,
pool dispatcher and warm workers each contribute spans to one tree,
tail-sampled into the service's trace buffer and analysed by ``repro
trace``.  See the "Request tracing" section of
``docs/OBSERVABILITY.md``.
"""

from .client import ClientPolicy, ResilientClient, ServeClientError
from .degrade import (RUNG_BROWNOUT, RUNG_HEALTHY, RUNG_NAMES,
                      RUNG_SHED, DegradationLadder)
from .pool import PendingJob, WorkerPool
from .protocol import (ENDPOINTS, TRACE_HEADER, TRACE_ID_HEADER, Job,
                       JobOutcome, admit_trace, format_traceparent,
                       job_fingerprint, parse_traceparent, program_sha)
from .quota import QuotaTable, TokenBucket
from .server import ServeConfig, ServeService
from .worker import WarmWorker

__all__ = [
    "ENDPOINTS", "Job", "JobOutcome", "PendingJob", "QuotaTable",
    "ServeConfig", "ServeService", "TokenBucket", "WarmWorker",
    "WorkerPool", "job_fingerprint", "program_sha",
    "DegradationLadder", "RUNG_HEALTHY",
    "RUNG_BROWNOUT", "RUNG_SHED", "RUNG_NAMES", "ClientPolicy",
    "ResilientClient", "ServeClientError", "TRACE_HEADER",
    "TRACE_ID_HEADER", "admit_trace", "format_traceparent",
    "parse_traceparent",
]
