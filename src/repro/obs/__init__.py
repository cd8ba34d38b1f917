"""Observability for the simulated RTSJ platform.

Nine modules, all independent of the runtime packages (``repro.rtsj``
imports *us*, never the reverse):

* :mod:`repro.obs.flightrec` — the bounded, causal flight recorder:
  the one sink the runtime writes events to, dumped post-mortem
  (``repro run --record-out``, chaos auto-dumps);
* :mod:`repro.obs.exporters` — the ``repro run --trace-out`` JSON
  Lines view of the flight recorder, and Prometheus text;
* :mod:`repro.obs.metrics` — counters / gauges / histograms in a
  :class:`MetricsRegistry`;
* :mod:`repro.obs.profile` — per-region / per-call-site / per-category
  cycle attribution behind ``repro profile``;
* :mod:`repro.obs.analyze` — the ``repro inspect`` analysis engine
  over flight-recorder dumps;
* :mod:`repro.obs.telemetry` — the content-addressed cross-run
  envelope store under ``.repro/telemetry/``;
* :mod:`repro.obs.live` — the telemetry routes (``/metrics``,
  ``/healthz``, ``/runs``) that ``repro metricsd`` and ``repro run
  --serve-metrics`` mount on the serve frontend's HTTP server;
* :mod:`repro.obs.report` — the ``repro report`` regression
  observatory over the store and committed bench baselines;
* :mod:`repro.obs.trace` — request-scoped distributed tracing for
  ``repro serve`` (span trees, tail-based sampling, the ``repro
  trace`` critical-path analyser).

See ``docs/OBSERVABILITY.md`` for the event schema and metric names.
"""

from .exporters import (parse_prometheus, snapshot_to_prometheus,
                        to_prometheus, trace_lines, write_metrics,
                        write_trace)
from .flightrec import (FLIGHT_SCHEMA, FlightRecord, FlightRecorder,
                        dump_flight, flight_lines, load_flight,
                        validate_flight)
from .metrics import (Counter, DEFAULT_CYCLE_BUCKETS, Gauge, Histogram,
                      MetricsRegistry, NullMetricsRegistry)
from .profile import (CATEGORIES, NullProfile, ProfileCollector,
                      ProfileReport, build_report)
from .telemetry import (TELEMETRY_SCHEMA, TelemetryStore, make_envelope,
                        validate_envelope)
from .trace import (TRACE_SCHEMA, RequestTrace, TraceBuffer,
                    analyze_traces, dump_traces, load_traces,
                    new_span_id, new_trace_id, validate_trace)

__all__ = [
    "MetricsRegistry", "NullMetricsRegistry", "Counter", "Gauge",
    "Histogram", "DEFAULT_CYCLE_BUCKETS",
    "trace_lines", "write_trace", "to_prometheus", "write_metrics",
    "snapshot_to_prometheus", "parse_prometheus",
    "ProfileCollector", "NullProfile", "ProfileReport", "build_report",
    "CATEGORIES",
    "FlightRecorder", "FlightRecord",
    "FLIGHT_SCHEMA", "flight_lines", "dump_flight", "load_flight",
    "validate_flight",
    "TelemetryStore", "TELEMETRY_SCHEMA", "make_envelope",
    "validate_envelope",
    "TRACE_SCHEMA", "RequestTrace", "TraceBuffer", "analyze_traces",
    "dump_traces", "load_traces", "new_span_id", "new_trace_id",
    "validate_trace",
]
