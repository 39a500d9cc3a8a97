"""repro.obs — structured tracing, metrics and live telemetry.

The observability layer for every engine in the reproduction: a
near-zero-cost process-local :class:`~repro.obs.tracer.Tracer` feeding
instrumentation points in the DE kernel, the block-stepped ISS, the
abstraction flow, the compile cache and the run store; multiprocessing-safe
payload collection merged into campaign-level
:class:`~repro.obs.telemetry.TelemetryReport` objects; markdown reports;
and one telemetry file format, Chrome/Perfetto ``trace_event`` JSON
(:mod:`repro.obs.export`: written by ``write_trace_json``, read back by
``report_from_trace``, inspected by the ``repro-trace`` console script;
HTML dashboards are :mod:`repro.report`'s job).

Keep this module import-light: instrumented subsystems import
``repro.obs.tracer`` at module load, so anything heavy here would tax every
import of the kernel or ISS.
"""

from .progress import ProgressReporter
from .telemetry import TelemetryReport
from .tracer import TRACER, Tracer, disable_tracing, enable_tracing, tracing_enabled

__all__ = [
    "TRACER",
    "Tracer",
    "TelemetryReport",
    "ProgressReporter",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
]
