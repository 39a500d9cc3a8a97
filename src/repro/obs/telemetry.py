"""Campaign-level telemetry: merged worker payloads → one report.

Every batch engine (parameter sweep, platform sweep, fault campaign) can run
with tracing on.  Each worker — forked process or the serial fallback —
returns a compact :meth:`~repro.obs.tracer.Tracer.collect` payload with its
results; :meth:`TelemetryReport.merge` folds those payloads together with
the engine's own bookkeeping (scenario counts, wall clock, per-scenario
latencies) into the one object reports and exporters consume.

The report answers the questions a campaign operator actually asks:

- throughput (scenarios/s) and wall-clock split,
- latency percentiles across scenarios (p50/p90/p99/max),
- worker utilization (busy time vs. ``wall × workers``),
- cache and store effectiveness (codegen hit rate, store hits/commits),
- every raw counter the instrumentation points accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

#: Percentiles quoted in summaries and markdown reports.
PERCENTILES = (50.0, 90.0, 99.0)


def _normalized_events(payload: dict) -> list[dict]:
    """Tracer event tuples → pid-tagged dicts (the merged on-wire shape)."""
    pid = int(payload.get("pid", 0))
    events = []
    for phase, name, category, ts, dur, args in payload.get("events", ()):
        events.append(
            {
                "ph": phase,
                "name": name,
                "cat": category,
                "ts": float(ts),
                "dur": float(dur),
                "args": args,
                "pid": pid,
            }
        )
    return events


@dataclass
class TelemetryReport:
    """Merged telemetry of one campaign run.

    ``latencies`` holds per-*executed*-scenario wall seconds where the engine
    measures them (platform sweeps, fault campaigns); batched engines that
    simulate scenarios jointly leave it empty and the report falls back to
    aggregate throughput only.  A report read back from a trace file has no
    latencies; ``exported_latency`` and ``exported_utilization`` then hold
    the percentiles and the worker utilization its summary recorded.
    """

    engine: str
    scenarios: int
    executed: int
    loaded: int
    wall: float
    workers: int
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0))
    counters: dict[str, float] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    dropped: int = 0
    exported_latency: dict[str, float] = field(default_factory=dict)
    exported_utilization: "float | None" = None

    # -- construction ------------------------------------------------------------------
    @classmethod
    def merge(
        cls,
        engine: str,
        payloads: "list[dict | None]",
        *,
        scenarios: int,
        executed: int,
        wall: float,
        workers: int,
        latencies: "np.ndarray | None" = None,
    ) -> "TelemetryReport":
        """Fold per-worker tracer payloads into one campaign report."""
        counters: dict[str, float] = {}
        events: list[dict] = []
        dropped = 0
        for payload in payloads:
            if not payload:
                continue
            events.extend(_normalized_events(payload))
            for name, value in payload.get("counters", {}).items():
                counters[name] = counters.get(name, 0.0) + float(value)
            dropped += int(payload.get("dropped", 0))
        events.sort(key=lambda event: event["ts"])
        if latencies is None:
            latencies = np.empty(0)
        return cls(
            engine=engine,
            scenarios=int(scenarios),
            executed=int(executed),
            loaded=int(scenarios) - int(executed),
            wall=float(wall),
            workers=int(workers),
            latencies=np.asarray(latencies, dtype=float),
            counters=counters,
            events=events,
            dropped=dropped,
        )

    def retagged(self, engine: str) -> "TelemetryReport":
        """The same report attributed to a different engine name."""
        return replace(self, engine=engine)

    # -- derived metrics ---------------------------------------------------------------
    @property
    def throughput(self) -> float:
        """Executed scenarios per wall-clock second."""
        if self.wall <= 0.0:
            return 0.0
        return self.executed / self.wall

    @property
    def busy_seconds(self) -> float:
        """Total measured scenario time across all workers."""
        return float(self.latencies.sum()) if self.latencies.size else 0.0

    @property
    def worker_utilization(self) -> "float | None":
        """Busy time / (wall × workers); without per-scenario latencies, the
        exported value (``None`` when there is none)."""
        if not self.latencies.size:
            return self.exported_utilization
        if self.wall <= 0.0 or self.workers <= 0:
            return None
        return min(1.0, self.busy_seconds / (self.wall * self.workers))

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p90/p99/max scenario latency in seconds; without latencies,
        the exported percentiles (empty when there are none)."""
        if not self.latencies.size:
            return dict(self.exported_latency)
        stats = {
            f"p{percentile:g}": float(np.percentile(self.latencies, percentile))
            for percentile in PERCENTILES
        }
        stats["max"] = float(self.latencies.max())
        return stats

    def _ratio(self, hits_key: str, misses_key: str) -> "float | None":
        hits = self.counters.get(hits_key, 0.0)
        misses = self.counters.get(misses_key, 0.0)
        total = hits + misses
        if total <= 0.0:
            return None
        return hits / total

    @property
    def codegen_hit_rate(self) -> "float | None":
        """Compile-cache hit rate over the campaign (``None`` if never exercised)."""
        return self._ratio("codegen.cache_hits", "codegen.compiles")

    @property
    def store_hit_rate(self) -> "float | None":
        """Run-store hit rate over the campaign (``None`` if never exercised)."""
        return self._ratio("store.hits", "store.misses")

    def summary(self) -> dict:
        """The headline numbers as one plain dict (JSON-friendly)."""
        summary = {
            "engine": self.engine,
            "scenarios": self.scenarios,
            "executed": self.executed,
            "loaded": self.loaded,
            "wall_seconds": self.wall,
            "workers": self.workers,
            "throughput_per_second": self.throughput,
            "events": len(self.events),
            "dropped_events": self.dropped,
        }
        utilization = self.worker_utilization
        if utilization is not None:
            summary["worker_utilization"] = utilization
        percentiles = self.latency_percentiles()
        if percentiles:
            summary["latency_seconds"] = percentiles
        if self.codegen_hit_rate is not None:
            summary["codegen_hit_rate"] = self.codegen_hit_rate
        if self.store_hit_rate is not None:
            summary["store_hit_rate"] = self.store_hit_rate
        return summary

    # -- reporting ---------------------------------------------------------------------
    def to_markdown(self) -> str:
        """Render the campaign telemetry as a markdown report."""
        lines = [
            f"# Telemetry — {self.engine}",
            "",
            f"- scenarios: {self.scenarios} ({self.executed} executed, "
            f"{self.loaded} loaded from store)",
            f"- wall clock: {self.wall:.3f} s across {self.workers} worker(s)",
            f"- throughput: {self.throughput:.2f} scenarios/s",
        ]
        utilization = self.worker_utilization
        if utilization is not None:
            lines.append(f"- worker utilization: {100.0 * utilization:.1f} %")
        percentiles = self.latency_percentiles()
        if percentiles:
            rendered = ", ".join(
                f"{name}={seconds * 1e3:.1f} ms" for name, seconds in percentiles.items()
            )
            lines.append(f"- scenario latency: {rendered}")
        if self.codegen_hit_rate is not None:
            lines.append(f"- codegen cache hit rate: {100.0 * self.codegen_hit_rate:.1f} %")
        if self.store_hit_rate is not None:
            lines.append(f"- store hit rate: {100.0 * self.store_hit_rate:.1f} %")
        if self.dropped:
            lines.append("")
            lines.append(
                f"**WARNING — telemetry truncated:** the tracer hit its event "
                f"buffer cap and dropped {self.dropped} event(s); the span "
                f"tallies below are partial and undercount the campaign. "
                f"Raise `max_events` to capture everything. (Counters are "
                f"unaffected — they accumulate outside the event buffer.)"
            )
        if self.counters:
            lines.append("")
            lines.append("## Counters")
            lines.append("")
            lines.append("| counter | value |")
            lines.append("|---|---|")
            for name in sorted(self.counters):
                lines.append(f"| {name} | {self.counters[name]:g} |")
        spans = self.span_stats()
        if spans:
            lines.append("")
            lines.append("## Spans")
            lines.append("")
            lines.append("| span | count | total s | mean ms |")
            lines.append("|---|---|---|---|")
            for name, stats in spans.items():
                lines.append(
                    f"| {name} | {stats['count']} | {stats['total']:.3f} "
                    f"| {1e3 * stats['mean']:.2f} |"
                )
        return "\n".join(lines)

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per-span-name aggregate (count / total / mean seconds), sorted by total."""
        totals: dict[str, list[float]] = {}
        for event in self.events:
            if event["ph"] != "X":
                continue
            totals.setdefault(event["name"], []).append(event["dur"])
        stats = {
            name: {
                "count": float(len(durations)),
                "total": float(sum(durations)),
                "mean": float(sum(durations) / len(durations)),
            }
            for name, durations in totals.items()
        }
        return dict(sorted(stats.items(), key=lambda item: -item[1]["total"]))
