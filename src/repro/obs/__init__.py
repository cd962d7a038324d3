"""repro.obs — structured event tracing and metrics for the simulator.

Three pieces (see DESIGN.md §2 and the README "Observability" section):

* **Event bus** (:mod:`repro.obs.events`): typed events from the packet
  hot path, the special-message transport, the recovery FSMs, and the
  deadlock oracle.  Zero-cost when nothing traces (no observer, or a
  metrics-only one) — every emission site is a single
  ``network.tracer is not None`` check.
* **Sinks** (:mod:`repro.obs.tracer`, :mod:`repro.obs.transcript`): a
  bounded ring buffer, JSONL export, Chrome ``trace_event`` export (open
  in Perfetto for per-router timelines), and per-recovery transcripts
  that stitch one FSM's probe -> enable lifecycle.
* **Metrics** (:mod:`repro.obs.metrics`): counters / gauges / histograms
  sampled on a configurable cadence and merged across
  :mod:`repro.parallel` workers (``REPRO_OBS=1`` / ``--obs``).

Typical use::

    from repro.obs import Observer, write_jsonl, write_chrome_trace

    obs = Observer()
    net.attach_obs(obs)
    net.run(2000)
    write_jsonl(obs.events, "run.jsonl")
    write_chrome_trace(obs.events, "run.chrome.json")
    for t in obs.transcripts():
        print(t.describe())
"""

from repro.obs.events import EVENT_SCHEMA, Event
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    OBS_ENV_VAR,
    drain_proc_registry,
    obs_enabled,
    proc_registry,
)
from repro.obs.observer import Observer
from repro.obs.tracer import Tracer, chrome_trace_events, write_chrome_trace, write_jsonl
from repro.obs.transcript import RecoveryTranscript, recovery_transcripts

__all__ = [
    "EVENT_SCHEMA",
    "Event",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS_ENV_VAR",
    "drain_proc_registry",
    "obs_enabled",
    "proc_registry",
    "Observer",
    "Tracer",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
    "RecoveryTranscript",
    "recovery_transcripts",
]
