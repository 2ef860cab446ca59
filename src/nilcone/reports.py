"""Deterministic text artifacts: CSV tables, JSON summaries, SVG plots.

Identical inputs must yield byte-identical files, so floats are written
with repr (shortest round-trip form), newlines are always "\n", and
JSON keys are sorted.
"""

from __future__ import annotations

import json
from pathlib import Path


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def csv_text(header, rows) -> str:
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(csv_text(header, rows), encoding="utf-8", newline="\n")
    return path


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text(obj), encoding="utf-8", newline="\n")
    return path


def _svg_points(xs, ys, width, height, pad) -> str:
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = pad + (x - xmin) / (xmax - xmin) * (width - 2 * pad)
        py = height - pad - (y - ymin) / (ymax - ymin) * (height - 2 * pad)
        pts.append(f"{px:.2f},{py:.2f}")
    return " ".join(pts)


def svg_line_plot(xs, ys, title: str = "") -> str:
    """A single polyline with axes, as a standalone 480 x 320 SVG document."""
    width, height = 480, 320
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if len(xs) != len(ys) or not xs:
        raise ValueError("need equal-length nonempty x and y sequences")
    pad = 36
    pts = _svg_points(xs, ys, width, height, pad)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" '
        f'stroke-width="2"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width // 2}" y="{pad // 2 + 6}" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{title}</text>'
        )
    first, last = xs[0], xs[-1]
    parts.append(
        f'<text x="{pad}" y="{height - pad + 16}" font-family="monospace" '
        f'font-size="11">{first:g}</text>'
    )
    parts.append(
        f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{last:g}</text>'
    )
    parts.append(
        f'<text x="{pad - 4}" y="{pad}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{max(ys):g}</text>'
    )
    parts.append(
        f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{min(ys):g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, xs, ys, title: str = "") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(svg_line_plot(xs, ys, title), encoding="utf-8",
                    newline="\n")
    return path
