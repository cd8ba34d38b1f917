"""The telemetry routes: what ``repro metricsd`` and ``repro run
--serve-metrics`` serve, all read-only.

* ``GET /metrics`` — Prometheus text exposition.  With a live
  :class:`~repro.obs.metrics.MetricsRegistry` (the ``--serve-metrics``
  flag on a long run) the registry renders directly; otherwise the
  newest envelope in the telemetry store with a metrics snapshot is
  re-rendered via :func:`~repro.obs.exporters.snapshot_to_prometheus`.
* ``GET /healthz`` — liveness JSON: status, store root, envelope
  count, and the source the ``/metrics`` route would use.
* ``GET /runs`` — the newest telemetry index entries as a JSON array
  (``?n=`` bounds the count, ``?kind=`` filters); ``GET /runs/<sha>``
  returns one full envelope.

The routes mount on the serve frontend's
:class:`~repro.serve.server.HTTPEdge`, the one HTTP server.  Every
response is computed per request, so a scrape always sees the current
store state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .exporters import snapshot_to_prometheus, to_prometheus
from .metrics import MetricsRegistry
from .telemetry import TelemetryStore

Query = Dict[str, List[str]]


def telemetry_routes(store: Optional[TelemetryStore] = None,
                     registry: Optional[MetricsRegistry] = None
                     ) -> Dict[str, Callable[[str, Query],
                                             Tuple[int, Any]]]:
    """The GET route table over ``store`` (default: the store under
    ``.repro/telemetry/``); ``registry``, when given, takes precedence
    for ``/metrics``."""
    if store is None:
        store = TelemetryStore()

    def metrics(_tail: str, _query: Query) -> Tuple[int, str]:
        if registry is not None:
            return 200, to_prometheus(registry)
        for envelope in store.load_recent(20):
            snapshot = envelope.get("metrics")
            if snapshot:
                return 200, snapshot_to_prometheus(snapshot)
        return 200, ""

    def health(_tail: str, _query: Query) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "status": "ok",
            "store": store.root,
            "envelopes": len(store.index()),
            "metrics_source": "live" if registry is not None else "store",
        }

    def runs(_tail: str, query: Query) -> Tuple[int, Any]:
        try:
            n = int(query.get("n", ["20"])[0])
        except ValueError:
            return 400, {"error": "bad n= value"}
        return 200, store.recent(n=n, kind=query.get("kind", [None])[0])

    def run(sha: str, _query: Query) -> Tuple[int, Any]:
        try:
            return 200, store.load(sha)
        except (OSError, ValueError):
            return 404, {"error": f"no envelope {sha!r}"}

    return {"/metrics": metrics, "/healthz": health, "/runs": runs,
            "/runs/": run}
