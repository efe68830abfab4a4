"""Self-contained SVG line charts and heat maps (no plotting backend)."""

from __future__ import annotations

import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")
TICKS = 5  # per axis
LINE_WIDTH, LINE_HEIGHT = 640, 420
HEATMAP_SIZE = 560


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (TICKS - 1)
    return [lo + step * k for k in range(TICKS)]


def _text(x, y, label, size: int = 11, anchor=None, transform=None) -> str:
    """A sans-serif label at (x, y), each given as it is to be written."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{label}</text>')


def _svg(width: int, height: int, title: str, title_y: int, body: list) -> str:
    """The document: a white ground, the title centred at ``title_y``, then ``body``."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _text(f"{width / 2:.0f}", title_y, title, 14, "middle"),
        *body,
        "</svg>",
    ])


def line_chart(series: dict, title: str, xlabel: str, ylabel: str) -> str:
    """Polyline chart; ``series`` maps label -> [(x, y), ...]."""
    width, height = LINE_WIDTH, LINE_HEIGHT
    left, right, top, bottom = 64, 20, 36, 52
    pw, ph = width - left - right, height - top - bottom
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        raise ValueError("no data points to chart")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return top + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = []
    for tx in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{px(tx):.1f}" y1="{top + ph}" x2="{px(tx):.1f}" '
            f'y2="{top + ph + 4}" stroke="black"/>'
        )
        out.append(_text(f"{px(tx):.1f}", top + ph + 18, _fmt(tx), anchor="middle"))
    for ty in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{left - 4}" y1="{py(ty):.1f}" x2="{left}" '
            f'y2="{py(ty):.1f}" stroke="black"/>'
        )
        out.append(_text(left - 8, f"{py(ty) + 4:.1f}", _fmt(ty), anchor="end"))
    out.append(
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black"/>'
    )
    out.append(_text(f"{left + pw / 2:.0f}", height - 12, xlabel, 12, "middle"))
    mid = f"{top + ph / 2:.0f}"
    out.append(_text(16, mid, ylabel, 12, "middle", transform=f"rotate(-90 16 {mid})"))
    for k, (label, pts) in enumerate(sorted(series.items())):
        color = PALETTE[k % len(PALETTE)]
        path = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in sorted(pts))
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )
        for x, y in pts:
            out.append(
                f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.4" fill="{color}"/>'
            )
        ly = top + 14 + 16 * k
        out.append(
            f'<line x1="{left + pw - 130}" y1="{ly - 4}" x2="{left + pw - 110}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(_text(left + pw - 104, ly, label))
    return _svg(width, height, title, 20, out)


def _heat_color(frac: float) -> str:
    # blue -> yellow -> red
    frac = min(max(frac, 0.0), 1.0)
    if frac < 0.5:
        t = frac / 0.5
        r, g, b = int(30 + t * (250 - 30)), int(60 + t * (220 - 60)), int(180 - t * 140)
    else:
        t = (frac - 0.5) / 0.5
        r, g, b = 250, int(220 - t * 180), int(40 - t * 30)
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap(matrix, title: str, log_scale: bool = True) -> str:
    """Cell-per-rect heat map; log-scale color for wide-range data."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0 or cols == 0:
        raise ValueError("empty matrix")
    values = [float(v) for row in matrix for v in row]
    if log_scale:
        if min(values) <= 0:
            raise ValueError("log-scale heat map needs positive values")
        values = [math.log10(v) for v in values]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    margin, legend = 40, 46
    cell = max(1, (HEATMAP_SIZE - 2 * margin) // max(rows, cols))
    width = margin * 2 + cell * cols
    height = margin * 2 + cell * rows + legend
    out = []
    k = 0
    for i in range(rows):
        for j in range(cols):
            frac = (values[k] - lo) / span
            k += 1
            # row 0 drawn at the bottom: the driver corner is bottom-left
            x = margin + j * cell
            y = margin + (rows - 1 - i) * cell
            out.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_heat_color(frac)}"/>'
            )
    bar_y = margin + rows * cell + 14
    for s in range(100):
        out.append(
            f'<rect x="{margin + s * (cols * cell) / 100:.1f}" y="{bar_y}" '
            f'width="{cols * cell / 100 + 0.5:.1f}" height="12" '
            f'fill="{_heat_color(s / 99)}"/>'
        )
    lo_label = f"1e{lo:.1f}" if log_scale else _fmt(lo)
    hi_label = f"1e{hi:.1f}" if log_scale else _fmt(hi)
    out.append(_text(margin, bar_y + 26, lo_label))
    out.append(_text(margin + cols * cell, bar_y + 26, hi_label, anchor="end"))
    return _svg(width, height, title, 24, out)
