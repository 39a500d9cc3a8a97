"""Assemble sections into one self-contained HTML dashboard file.

The contract this module enforces is the one CI relies on: the rendered
page embeds **everything** — styles, charts, data — inline.  No external
stylesheets, scripts, fonts, images or network requests of any kind, so
the file opens from disk, attaches to a ticket, and uploads as a CI
artifact without dragging a CDN along.  :func:`self_contained_problems`
is the machine check (used by the tests, ``repro-report --check`` and
the CI job): it scans the rendered page for any ``http(s)://``
reference or external-asset element and returns the violations.

Light and dark theming both ship in the one ``<style>`` block (the dark
values are their own selected steps, not an automatic inversion), driven
by ``prefers-color-scheme``.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path

from .sections import Section
from .svg import esc

#: Series slots (light, dark) in the fixed categorical order, plus status
#: and chrome colors — the validated reference palette; data marks wear
#: these via CSS classes, text always wears the ink tokens.
_LIGHT = {
    "surface": "#fcfcfb", "page": "#f9f9f7", "ink": "#0b0b0b",
    "ink2": "#52514e", "muted": "#898781", "grid": "#e1e0d9",
    "axis": "#c3c2b7", "border": "rgba(11,11,11,0.10)",
    "s1": "#2a78d6", "s2": "#eb6834", "s3": "#1baf7a", "s4": "#eda100",
    "s5": "#e87ba4", "s6": "#008300", "s7": "#4a3aa7", "s8": "#e34948",
    "good": "#0ca30c", "warning": "#fab219", "serious": "#ec835a",
    "critical": "#d03b3b",
}
_DARK = {
    "surface": "#1a1a19", "page": "#0d0d0d", "ink": "#ffffff",
    "ink2": "#c3c2b7", "muted": "#898781", "grid": "#2c2c2a",
    "axis": "#383835", "border": "rgba(255,255,255,0.10)",
    "s1": "#3987e5", "s2": "#d95926", "s3": "#199e70", "s4": "#c98500",
    "s5": "#d55181", "s6": "#008300", "s7": "#9085e9", "s8": "#e66767",
    "good": "#0ca30c", "warning": "#fab219", "serious": "#ec835a",
    "critical": "#d03b3b",
}


def _vars(palette: dict) -> str:
    return "".join(f"--{name}:{value};" for name, value in palette.items())


_SERIES_RULES = "\n".join(
    f".s{n}{{stroke:var(--s{n})}}"
    f".s{n}-fill{{fill:var(--s{n});fill-opacity:0.12}}"
    f".s{n}-fill-solid{{fill:var(--s{n})}}"
    f".s{n}-wash{{background:var(--s{n})}}"
    for n in range(1, 9)
)

_CSS = (
    ":root{" + _vars(_LIGHT) + "}"
    "@media (prefers-color-scheme: dark){:root{" + _vars(_DARK) + "}}"
    """
html{color-scheme:light dark}
body{font-family:system-ui,-apple-system,"Segoe UI",sans-serif;
  margin:0;background:var(--page);color:var(--ink)}
header{padding:1.2rem 2rem;border-bottom:1px solid var(--border)}
header h1{margin:0;font-size:1.3rem}
header .meta{color:var(--ink2);font-size:0.85rem;margin-top:0.3rem}
nav{padding:0.5rem 2rem;border-bottom:1px solid var(--border);
  display:flex;gap:1rem;flex-wrap:wrap}
nav a{color:var(--ink2);text-decoration:none;font-size:0.9rem}
nav a:hover{color:var(--ink)}
main{padding:1rem 2rem;max-width:1100px}
section{background:var(--surface);border:1px solid var(--border);
  border-radius:8px;padding:1rem 1.4rem;margin:1.2rem 0}
h2{font-size:1.05rem;margin:0.2rem 0 0.8rem}
h3{font-size:0.95rem;margin:1rem 0 0.2rem}
.sub{color:var(--ink2);font-size:0.85rem;margin:0.1rem 0 0.5rem}
.tiles{display:flex;gap:0.8rem;flex-wrap:wrap;margin:0.4rem 0 0.8rem}
.tile{border:1px solid var(--border);border-radius:6px;
  padding:0.5rem 0.9rem;min-width:7.5rem}
.tile-label{color:var(--ink2);font-size:0.78rem}
.tile-value{font-size:1.35rem;font-weight:600}
.tile-detail{color:var(--muted);font-size:0.75rem}
table{border-collapse:collapse;margin:0.8rem 0;font-size:0.85rem}
caption{text-align:left;color:var(--ink2);font-size:0.85rem;
  padding-bottom:0.3rem;font-weight:600}
th,td{border:1px solid var(--grid);padding:0.25rem 0.6rem;text-align:left}
th{color:var(--ink2);font-weight:600}
td{font-variant-numeric:tabular-nums}
table.matrix td.cell{position:relative;text-align:center;min-width:4.5rem}
.st-good-wash{background:color-mix(in srgb, var(--good) calc(100% * var(--cell-alpha,0)), transparent)}
.st-warning-wash{background:color-mix(in srgb, var(--warning) calc(100% * var(--cell-alpha,0)), transparent)}
.st-serious-wash{background:color-mix(in srgb, var(--serious) calc(100% * var(--cell-alpha,0)), transparent)}
.st-critical-wash{background:color-mix(in srgb, var(--critical) calc(100% * var(--cell-alpha,0)), transparent)}
.st-neutral-wash{background:color-mix(in srgb, var(--muted) calc(100% * var(--cell-alpha,0)), transparent)}
.chip{display:inline-block;min-width:1.1em;text-align:center;
  border-radius:3px;font-size:0.75rem;padding:0 0.2em;color:var(--surface)}
.chip.st-good{background:var(--good)}
.chip.st-warning{background:var(--warning);color:var(--ink)}
.chip.st-serious{background:var(--serious);color:var(--ink)}
.chip.st-critical{background:var(--critical)}
.chip.st-neutral{background:var(--muted)}
.warning{border:1px solid var(--warning);border-radius:6px;
  padding:0.5rem 0.8rem;font-size:0.88rem}
.empty{color:var(--muted);font-style:italic}
svg.chart{max-width:100%;height:auto;display:block;margin:0.6rem 0}
svg text{font-family:inherit}
.chart-title{font-size:13px;font-weight:600;fill:var(--ink)}
.tick{font-size:10px;fill:var(--muted);font-variant-numeric:tabular-nums}
.lbl{font-size:10px;fill:var(--ink2)}
.grid{stroke:var(--grid);stroke-width:1}
.axis{stroke:var(--axis);stroke-width:1}
.line{stroke-width:2;stroke-linejoin:round;stroke-linecap:round}
.span{stroke:var(--surface);stroke-width:1}
.band{stroke:none}
.s-other-fill{fill:var(--muted)}.s-other{stroke:var(--muted)}
.legend{display:flex;gap:1rem;flex-wrap:wrap;color:var(--ink2);
  font-size:0.8rem;margin-top:0.1rem}
.key{display:inline-flex;align-items:center;gap:0.35rem}
.swatch{display:inline-block;width:0.85em;height:0.85em;border-radius:2px}
.s1-wash{background:var(--s1);opacity:0.25}
.unit{color:var(--muted)}
figure.chart-block{margin:0.8rem 0}
footer{color:var(--muted);font-size:0.8rem;padding:1rem 2rem}
"""
    + _SERIES_RULES
)

#: Patterns a self-contained dashboard must never contain.  ``http(s)://``
#: catches remote URLs wherever they hide (href, src, CSS url(), @import);
#: the element-level patterns catch protocol-relative or local references
#: that would still make the file depend on anything outside itself.
_EXTERNAL_PATTERNS = (
    re.compile(r"https?://", re.IGNORECASE),
    re.compile(r"<script[^>]*\bsrc\s*=", re.IGNORECASE),
    re.compile(r"<link\b", re.IGNORECASE),
    re.compile(r"<img\b", re.IGNORECASE),
    re.compile(r"<iframe\b", re.IGNORECASE),
    re.compile(r"@import\b", re.IGNORECASE),
    re.compile(r"url\s*\(", re.IGNORECASE),
)


def self_contained_problems(html_text: str) -> list[str]:
    """Violations of the zero-external-assets contract (empty == clean)."""
    problems = []
    for pattern in _EXTERNAL_PATTERNS:
        for match in pattern.finditer(html_text):
            start = max(match.start() - 40, 0)
            snippet = html_text[start : match.end() + 40].replace("\n", " ")
            problems.append(
                f"external reference {match.group(0)!r} near ...{snippet}..."
            )
    return problems


class _IdCollector(HTMLParser):
    """Collect every element id while exercising the stdlib parser."""

    def __init__(self) -> None:
        super().__init__()
        self.ids: set[str] = set()
        self.tags = 0

    def handle_starttag(self, tag, attrs) -> None:  # noqa: D102
        self.tags += 1
        for name, value in attrs:
            if name == "id" and value:
                self.ids.add(value)


def collect_ids(html_text: str) -> set[str]:
    """Element ids of a rendered page (parsed with ``html.parser``)."""
    collector = _IdCollector()
    collector.feed(html_text)
    collector.close()
    return collector.ids


def verify_dashboard(
    html_text: str, required_anchors: "tuple[str, ...] | list[str]" = ()
) -> list[str]:
    """The full machine check CI runs over a rendered dashboard.

    Parses the page with the stdlib ``html.parser`` (a page the parser
    finds no elements in is broken), requires every anchor in
    ``required_anchors`` to exist as an element id, and applies
    :func:`self_contained_problems`.  Returns all violations.
    """
    problems: list[str] = []
    collector = _IdCollector()
    try:
        collector.feed(html_text)
        collector.close()
    except Exception as exc:  # pragma: no cover - html.parser is lenient
        return [f"html.parser failed: {exc}"]
    if collector.tags == 0:
        problems.append("page contains no HTML elements")
    for anchor in required_anchors:
        if anchor not in collector.ids:
            problems.append(f"missing section anchor #{anchor}")
    problems.extend(self_contained_problems(html_text))
    return problems


@dataclass
class Dashboard:
    """An ordered collection of sections rendered as one HTML page."""

    title: str = "repro dashboard"
    subtitle: str = ""
    sections: list[Section] = field(default_factory=list)

    def add(self, section: "Section | None") -> "Dashboard":
        """Append a section (``None`` is ignored, so adapters may skip)."""
        if section is not None:
            self.sections.append(section)
        return self

    def render(self) -> str:
        """The complete page.  Section slugs become ``<section id=...>``
        anchors, mirrored in the nav bar."""
        stamp = time.strftime("%Y-%m-%d %H:%M:%S %Z")
        nav = "".join(
            f'<a href="#{esc(section.slug)}">{esc(section.title)}</a>'
            for section in self.sections
        )
        body = "".join(
            f'<section id="{esc(section.slug)}">'
            f"<h2>{esc(section.title)}</h2>{section.body}</section>"
            for section in self.sections
        )
        sub = f'<div class="meta">{esc(self.subtitle)}</div>' if self.subtitle else ""
        return (
            "<!doctype html>\n"
            '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
            '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
            f"<title>{esc(self.title)}</title>\n"
            f"<style>{_CSS}</style>\n</head>\n<body>\n"
            f"<header><h1>{esc(self.title)}</h1>{sub}"
            f'<div class="meta">generated {esc(stamp)} — fully self-contained, '
            "no external assets</div></header>\n"
            f"<nav>{nav}</nav>\n<main>{body}</main>\n"
            "<footer>repro.report — single-file dashboard; open offline, "
            "attach anywhere.</footer>\n</body>\n</html>\n"
        )

    def write(self, path: "str | Path") -> Path:
        """Render and write the page; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render(), encoding="utf-8")
        return path
