"""Inline-SVG chart primitives for the dashboard generator.

Every function returns a fragment of markup — an ``<svg>`` element or a
small HTML block — with **zero external references**: no scripts, no
stylesheets, no fonts, no image URLs.  Styling rides on CSS classes that
:mod:`repro.report.dashboard` defines once per page (with light and dark
values), so the charts restyle with the page theme without duplicating hex
values into every mark.

Hover detail uses native SVG/HTML ``<title>`` tooltips — the browser
renders them without a line of JavaScript, which keeps the dashboard inert
enough to upload anywhere as a CI artifact.

Conventions (shared with the page stylesheet):

* series classes ``s1``…``s8`` — the fixed categorical slot order; slots
  are assigned in first-appearance order and never cycled: past eight
  distinct names everything folds into the muted ``s-other`` class;
* status classes ``st-good`` / ``st-warning`` / ``st-serious`` /
  ``st-critical`` — reserved for verdict state, never reused as
  series colors;
* chart chrome classes ``grid`` (hairline), ``axis`` (baseline),
  ``tick`` / ``lbl`` (muted / secondary text).

All dynamic text — span names, netlist names, fault names, labels — is
HTML-escaped here, at the point of emission; callers never pre-escape.
"""

from __future__ import annotations

import html
import math
from typing import Mapping, Sequence

#: Number of categorical series slots; names past the cap share ``s-other``.
SERIES_SLOTS = 8

#: Sample budget per plotted series: envelope traces are min/max-pooled
#: down to this many buckets so a 100k-sample campaign still renders as a
#: few kilobytes of path data.
MAX_PLOT_POINTS = 480


def esc(text: object) -> str:
    """HTML-escape one dynamic value (also used by the HTML table emitters)."""
    return html.escape(str(text), quote=True)


def _fmt(value: float) -> str:
    """Compact human formatting for tick and direct labels."""
    if value == 0.0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e15 or magnitude < 1e-4:
        return f"{value:.3g}"
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if magnitude >= threshold:
            return f"{value / threshold:.3g}{suffix}"
    return f"{value:.4g}"


def _coord(value: float) -> str:
    """SVG coordinate rendering (fixed precision keeps paths compact)."""
    return f"{value:.2f}".rstrip("0").rstrip(".")


def nice_ticks(low: float, high: float, count: int = 5) -> list[float]:
    """Round tick positions covering ``[low, high]`` (clean 1/2/5 steps)."""
    if not math.isfinite(low) or not math.isfinite(high):
        return []
    if high <= low:
        return [low]
    span = high - low
    raw_step = span / max(count - 1, 1)
    power = 10.0 ** math.floor(math.log10(raw_step))
    for multiple in (1.0, 2.0, 5.0, 10.0):
        step = multiple * power
        if span / step <= count + 0.5:
            break
    first = math.ceil(low / step) * step
    ticks = []
    position = first
    while position <= high + 1e-9 * step:
        ticks.append(0.0 if abs(position) < step * 1e-9 else position)
        position += step
    return ticks


class LinearScale:
    """Affine map from a data domain to a pixel range."""

    def __init__(self, d0: float, d1: float, r0: float, r1: float) -> None:
        if d1 == d0:  # degenerate domain: map everything to the range middle
            d1 = d0 + 1.0
            d0 = d0 - 1.0
        self.d0, self.d1, self.r0, self.r1 = d0, d1, r0, r1
        self._k = (r1 - r0) / (d1 - d0)

    def __call__(self, value: float) -> float:
        return self.r0 + (value - self.d0) * self._k


def _pad_domain(low: float, high: float) -> tuple[float, float]:
    if high == low:
        pad = abs(low) * 0.05 or 1.0
        return low - pad, high + pad
    pad = (high - low) * 0.05
    return low - pad, high + pad


def decimate(values: Sequence[float], buckets: int, mode: str) -> list[float]:
    """Pool ``values`` into ``buckets`` (``min``/``max``/``mean`` per bucket).

    Envelope bands must pool *conservatively* — the lower edge with ``min``,
    the upper with ``max`` — so decimation can only widen the band, never
    hide an excursion.
    """
    n = len(values)
    if n <= buckets:
        return [float(value) for value in values]
    pool = {"min": min, "max": max}.get(mode)
    result = []
    for index in range(buckets):
        start = index * n // buckets
        stop = max((index + 1) * n // buckets, start + 1)
        chunk = values[start:stop]
        if pool is None:
            result.append(float(sum(chunk) / len(chunk)))
        else:
            result.append(float(pool(chunk)))
    return result


def _polyline(xs: Sequence[float], ys: Sequence[float]) -> str:
    return " ".join(f"{_coord(x)},{_coord(y)}" for x, y in zip(xs, ys))


def _y_grid(ticks: Sequence[float], scale: LinearScale, x0: float, x1: float) -> list[str]:
    parts = []
    for tick in ticks:
        y = _coord(scale(tick))
        parts.append(
            f'<line class="grid" x1="{_coord(x0)}" y1="{y}" x2="{_coord(x1)}" y2="{y}"/>'
        )
        parts.append(
            f'<text class="tick" x="{_coord(x0 - 6)}" y="{y}" dy="0.32em" '
            f'text-anchor="end">{esc(_fmt(tick))}</text>'
        )
    return parts


def series_class(slot: int) -> str:
    """The CSS class of categorical slot ``slot`` (0-based; capped, never cycled)."""
    if slot < SERIES_SLOTS:
        return f"s{slot + 1}"
    return "s-other"


# -- envelope plot ---------------------------------------------------------------------
def envelope_chart(
    x: Sequence[float],
    low: Sequence[float],
    high: Sequence[float],
    center: Sequence[float],
    *,
    title: str,
    x_label: str = "time",
    y_label: str = "",
    center_label: str = "median",
    band_label: str = "min–max",
    width: int = 720,
    height: int = 260,
) -> str:
    """Ensemble envelope: a min–max band with the central trace on top.

    ``x``/``low``/``high``/``center`` are equal-length sequences; long
    traces are min/max-pooled to :data:`MAX_PLOT_POINTS` buckets.
    """
    if not len(x) or len(x) != len(low) or len(x) != len(high) or len(x) != len(center):
        return f'<p class="empty">{esc(title)}: no samples to plot</p>'
    buckets = MAX_PLOT_POINTS
    xs = decimate(x, buckets, "mean")
    lows = decimate(low, buckets, "min")
    highs = decimate(high, buckets, "max")
    centers = decimate(center, buckets, "mean")

    ml, mr, mt, mb = 64, 16, 28, 40
    x0, x1, y0, y1 = ml, width - mr, height - mb, mt
    dx0, dx1 = min(xs), max(xs)
    dlo, dhi = _pad_domain(min(lows), max(highs))
    sx = LinearScale(dx0, dx1, x0, x1)
    sy = LinearScale(dlo, dhi, y0, y1)

    px = [sx(value) for value in xs]
    band_points = _polyline(px, [sy(v) for v in highs]) + " " + _polyline(
        list(reversed(px)), [sy(v) for v in reversed(lows)]
    )
    center_points = _polyline(px, [sy(v) for v in centers])

    parts = [
        f'<svg class="chart" role="img" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" aria-label="{esc(title)}">',
        f'<text class="chart-title" x="{ml}" y="16">{esc(title)}</text>',
    ]
    parts += _y_grid(nice_ticks(dlo, dhi), sy, x0, x1)
    for tick in nice_ticks(dx0, dx1, 6):
        tx = _coord(sx(tick))
        parts.append(
            f'<text class="tick" x="{tx}" y="{_coord(y0 + 16)}" '
            f'text-anchor="middle">{esc(_fmt(tick))}</text>'
        )
    parts.append(
        f'<line class="axis" x1="{_coord(x0)}" y1="{_coord(y0)}" '
        f'x2="{_coord(x1)}" y2="{_coord(y0)}"/>'
    )
    band_tip = (
        f"{band_label}: {_fmt(min(lows))} … {_fmt(max(highs))}"
    )
    parts.append(
        f'<polygon class="band s1-fill" points="{band_points}">'
        f"<title>{esc(band_tip)}</title></polygon>"
    )
    parts.append(
        f'<polyline class="line s1" fill="none" points="{center_points}">'
        f"<title>{esc(center_label)}</title></polyline>"
    )
    # Direct labels at the right edge: the band extremes and the center line.
    parts.append(
        f'<text class="lbl" x="{_coord(x1 + 2)}" y="{_coord(sy(centers[-1]))}" '
        f'dy="0.32em" text-anchor="start"></text>'
    )
    parts.append(
        f'<text class="lbl" x="{_coord(x0)}" y="{_coord(height - 6)}">'
        f"{esc(x_label)}</text>"
    )
    if y_label:
        parts.append(
            f'<text class="lbl" x="{ml}" y="{mt - 2}" text-anchor="start" '
            f'opacity="0"> </text>'
        )
    legend = (
        f'<span class="key"><span class="swatch s1-fill-solid"></span>'
        f"{esc(center_label)}</span>"
        f'<span class="key"><span class="swatch s1-wash"></span>'
        f"{esc(band_label)}</span>"
    )
    parts.append("</svg>")
    return (
        '<figure class="chart-block">'
        + "".join(parts)
        + f'<figcaption class="legend">{legend}'
        + (f' <span class="unit">{esc(y_label)}</span>' if y_label else "")
        + "</figcaption></figure>"
    )


# -- span timeline ---------------------------------------------------------------------
#: At most this many spans are drawn (the longest win); the rest are summed
#: into a caption note so truncation is loud, never silent.
MAX_TIMELINE_SPANS = 1500


def timeline_chart(
    spans: Sequence[Mapping],
    *,
    title: str = "Span timeline",
    width: int = 860,
) -> str:
    """Per-phase span timeline: one lane per worker pid, bars colored by name.

    ``spans`` are telemetry event dicts (``ph == "X"``) with ``name``,
    ``ts``, ``dur`` (seconds) and ``pid``.  Colors are assigned to span
    names in first-appearance order over the fixed categorical slots; names
    past the eighth share the muted "other" slot (folded, never cycled).
    """
    complete = [
        event
        for event in spans
        if event.get("ph") == "X" and float(event.get("dur", 0.0)) >= 0.0
    ]
    if not complete:
        return f'<p class="empty">{esc(title)}: no spans recorded</p>'
    dropped_note = ""
    if len(complete) > MAX_TIMELINE_SPANS:
        keep = sorted(complete, key=lambda e: -float(e["dur"]))[:MAX_TIMELINE_SPANS]
        dropped_note = (
            f" — drawing the {MAX_TIMELINE_SPANS} longest of "
            f"{len(complete)} spans"
        )
        complete = sorted(keep, key=lambda e: float(e["ts"]))

    t0 = min(float(event["ts"]) for event in complete)
    t1 = max(float(event["ts"]) + float(event["dur"]) for event in complete)
    pids = sorted({int(event.get("pid", 0)) for event in complete})
    slots: dict[str, int] = {}
    for event in complete:
        name = str(event["name"])
        if name not in slots:
            slots[name] = len(slots)

    lane_h, bar_h = 22, 14
    ml, mr, mt, mb = 76, 16, 28, 30
    height = mt + lane_h * len(pids) + mb
    x0, x1 = ml, width - mr
    sx = LinearScale(t0, t1, x0, x1)

    parts = [
        f'<svg class="chart" role="img" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" aria-label="{esc(title)}">',
        f'<text class="chart-title" x="{ml}" y="16">{esc(title)}</text>',
    ]
    for position, pid in enumerate(pids):
        y = mt + position * lane_h
        parts.append(
            f'<text class="tick" x="{ml - 8}" y="{_coord(y + lane_h / 2)}" '
            f'dy="0.32em" text-anchor="end">pid {pid}</text>'
        )
        parts.append(
            f'<line class="grid" x1="{x0}" y1="{_coord(y + lane_h)}" '
            f'x2="{x1}" y2="{_coord(y + lane_h)}"/>'
        )
    lane_of = {pid: index for index, pid in enumerate(pids)}
    for event in complete:
        name = str(event["name"])
        start = sx(float(event["ts"]))
        stop = sx(float(event["ts"]) + float(event["dur"]))
        bar_w = max(stop - start, 1.0)
        y = mt + lane_of[int(event.get("pid", 0))] * lane_h + (lane_h - bar_h) / 2
        tip = f"{name}: {1e3 * float(event['dur']):.3f} ms"
        args = event.get("args")
        if isinstance(args, Mapping) and args:
            detail = ", ".join(f"{key}={value}" for key, value in args.items())
            tip += f" ({detail})"
        parts.append(
            f'<rect class="span {series_class(slots[name])}-fill-solid" '
            f'x="{_coord(start)}" y="{_coord(y)}" width="{_coord(bar_w)}" '
            f'height="{bar_h}" rx="2"><title>{esc(tip)}</title></rect>'
        )
    for tick in nice_ticks(0.0, (t1 - t0) * 1e3, 6):
        tx = _coord(sx(t0 + tick / 1e3))
        parts.append(
            f'<text class="tick" x="{tx}" y="{height - 10}" '
            f'text-anchor="middle">{esc(_fmt(tick))} ms</text>'
        )
    parts.append("</svg>")
    keys = "".join(
        f'<span class="key"><span class="swatch '
        f'{series_class(slot)}-fill-solid"></span>{esc(name)}</span>'
        for name, slot in list(slots.items())[: SERIES_SLOTS]
    )
    if len(slots) > SERIES_SLOTS:
        keys += (
            f'<span class="key"><span class="swatch s-other-fill"></span>'
            f"{len(slots) - SERIES_SLOTS} more</span>"
        )
    return (
        '<figure class="chart-block">'
        + "".join(parts)
        + f'<figcaption class="legend">{keys}'
        + (f'<span class="unit">{esc(dropped_note)}</span>' if dropped_note else "")
        + "</figcaption></figure>"
    )


# -- coverage matrix -------------------------------------------------------------------
#: Verdict → reserved status class (icon glyph, label text).  Status colors
#: never impersonate series colors; every cell also carries its count as
#: text, so color is never the only channel.
VERDICT_STATUS = {
    "silent": ("st-neutral", "●"),
    "trace-divergent": ("st-warning", "◆"),
    "firmware-detected": ("st-good", "✓"),
    "crash": ("st-critical", "✗"),
    # Lint severities reuse the same reserved status hues (the lint section's
    # rule × severity matrix goes through coverage_matrix_table too).
    "error": ("st-critical", "✗"),
    "warning": ("st-warning", "◆"),
    "info": ("st-neutral", "●"),
}


def coverage_matrix_table(
    matrix: Mapping[str, Mapping[str, int]],
    verdicts: Sequence[str],
    *,
    caption: str = "Coverage by fault kind",
) -> str:
    """Fault-kind × verdict matrix as an HTML table colored by verdict.

    Cell washes use the verdict's status hue with opacity scaled by count
    (relative to the largest cell), the count itself stays in text ink.
    """
    if not matrix:
        return f'<p class="empty">{esc(caption)}: no faulted runs</p>'
    peak = max(
        (count for row in matrix.values() for count in row.values()), default=0
    )
    head = ["<tr><th>fault kind</th>"]
    for verdict in verdicts:
        status, glyph = VERDICT_STATUS.get(verdict, ("st-neutral", "●"))
        head.append(
            f'<th><span class="chip {status}">{glyph}</span> {esc(verdict)}</th>'
        )
    head.append("<th>total</th></tr>")
    body = []
    for kind, row in matrix.items():
        cells = [f"<tr><th>{esc(kind)}</th>"]
        for verdict in verdicts:
            count = int(row.get(verdict, 0))
            status, _ = VERDICT_STATUS.get(verdict, ("st-neutral", "●"))
            alpha = 0.0 if peak == 0 else 0.12 + 0.58 * (count / peak)
            style = f' style="--cell-alpha:{alpha:.2f}"' if count else ""
            cells.append(
                f'<td class="cell {status}-wash"{style}>{count}</td>'
            )
        cells.append(f"<td>{sum(int(v) for v in row.values())}</td></tr>")
        body.append("".join(cells))
    return (
        f'<table class="matrix"><caption>{esc(caption)}</caption>'
        + "".join(head)
        + "".join(body)
        + "</table>"
    )


# -- small HTML helpers ----------------------------------------------------------------
def stat_tile(label: str, value: str, detail: str = "") -> str:
    """One stat tile: sentence-case label, compact value, optional detail."""
    extra = f'<div class="tile-detail">{esc(detail)}</div>' if detail else ""
    return (
        f'<div class="tile"><div class="tile-label">{esc(label)}</div>'
        f'<div class="tile-value">{esc(value)}</div>{extra}</div>'
    )


def tile_row(tiles: Sequence[str]) -> str:
    return '<div class="tiles">' + "".join(tiles) + "</div>"


def kv_table(rows: Sequence[tuple[str, object]], caption: str = "") -> str:
    """A two-column key/value table (keys escaped, values escaped)."""
    cap = f"<caption>{esc(caption)}</caption>" if caption else ""
    body = "".join(
        f"<tr><th>{esc(key)}</th><td>{esc(value)}</td></tr>" for key, value in rows
    )
    return f'<table class="kv">{cap}{body}</table>'


def data_table(
    header: Sequence[str], rows: Sequence[Sequence[object]], caption: str = ""
) -> str:
    """A plain data table (every cell escaped) — the chart's table view."""
    cap = f"<caption>{esc(caption)}</caption>" if caption else ""
    head = "<tr>" + "".join(f"<th>{esc(cell)}</th>" for cell in header) + "</tr>"
    body = "".join(
        "<tr>" + "".join(f"<td>{esc(cell)}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f'<table class="data">{cap}{head}{body}</table>'


def warning_banner(text: str) -> str:
    """A loud inline warning (truncated telemetry, missing inputs...)."""
    return (
        f'<p class="warning"><span class="chip st-warning">!</span> '
        f"{esc(text)}</p>"
    )
