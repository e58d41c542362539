"""Tiny self-contained SVG writers for sweep output (no external renderer)."""

from __future__ import annotations

import base64
import struct
import zlib

import numpy as np

_WIDTH = 860
_HEIGHT = 520
_MARGIN_L = 70
_MARGIN_R = 170
_MARGIN_T = 40
_MARGIN_B = 55

_PALETTE = (
    "#2b6cb0", "#c05621", "#2f855a", "#9b2c2c",
    "#6b46c1", "#986801", "#0e7490", "#97266d",
)

# Heat-map colour stops (r, g, b): cold at fraction 0, white at 0.5, hot at 1.
_COLD = np.array([43, 75, 155])
_WHITE = np.array([255, 255, 255])
_HOT = np.array([196, 57, 43])


def _finite_range(*arrays: np.ndarray) -> tuple[float, float]:
    """Least and greatest finite value over ``arrays``, widened by 0.5 each
    way when equal; ``(0, 1)`` when no value is finite."""
    values = np.concatenate([np.empty(0), *(array.ravel() for array in arrays)])
    # Python's min/max keep the first of equal values, so a range that starts
    # at zero keeps the sign of the first zero met, as the scale text shows.
    finite = values[np.isfinite(values)].tolist()
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def _ticks(lo: float, hi: float, count: int = 5):
    """``count`` evenly spaced values from ``lo`` to ``hi``, computed on
    halved values so that no step overflows; with the default count this
    keeps the bits of ``lo + (hi - lo) * i / (count - 1)`` for normal floats."""
    half_lo, half_span = 0.5 * lo, 0.5 * hi - 0.5 * lo
    return [2.0 * (half_lo + half_span * (i / (count - 1))) for i in range(count)]


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def line_plot(x, series, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render ``series`` (label -> y values) against ``x`` as polylines."""
    x = np.asarray(x, dtype=float)
    x_lo, x_hi = _finite_range(x)
    y_series = [np.asarray(ys, dtype=float) for _, ys in series]
    y_lo, y_hi = _finite_range(*y_series)

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # Halved, as in heat_panels, so that no difference can overflow.
    def sx(v: float) -> float:
        return _MARGIN_L + (0.5 * v - 0.5 * x_lo) / (0.5 * x_hi - 0.5 * x_lo) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + plot_h - (0.5 * v - 0.5 * y_lo) / (0.5 * y_hi - 0.5 * y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    axis = f'stroke="#444" stroke-width="1"'
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
        f'x2="{_MARGIN_L + plot_w}" y2="{_MARGIN_T + plot_h}" {axis}/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" '
        f'x2="{_MARGIN_L}" y2="{_MARGIN_T + plot_h}" {axis}/>'
    )
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_MARGIN_T + plot_h}" '
            f'x2="{px:.1f}" y2="{_MARGIN_T + plot_h + 5}" {axis}/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_MARGIN_T + plot_h + 20}" '
            f'text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.1f}" x2="{_MARGIN_L}" y2="{py:.1f}" {axis}/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 9}" y="{py + 4:.1f}" text-anchor="end">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.1f})">{y_label}</text>'
    )
    for index, ((label, _), ys) in enumerate(zip(series, y_series)):
        colour = _PALETTE[index % len(_PALETTE)]
        count = min(x.size, ys.size)
        keep = np.isfinite(ys[:count])
        xy = np.column_stack((sx(x[:count][keep]), sy(ys[:count][keep])))
        points = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        parts.append(
            f'<polyline fill="none" stroke="{colour}" stroke-width="1.6" points="{points}"/>'
        )
        ly = _MARGIN_T + 16 * index + 8
        lx = _MARGIN_L + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
            f'stroke="{colour}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 24}" y="{ly + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _heat_rgb(fraction: np.ndarray) -> np.ndarray:
    """Two-stop blue-to-red map through white: one (r, g, b) row per fraction."""
    # As Python's min(1.0, max(0.0, f)): a nan fraction maps to 0.
    fraction = np.where(fraction > 0.0, fraction, 0.0)
    fraction = np.where(fraction < 1.0, fraction, 1.0)[:, None]
    low = fraction < 0.5
    mix = np.where(low, fraction / 0.5, (fraction - 0.5) / 0.5)
    start = np.where(low, _COLD, _WHITE)
    span = np.where(low, _WHITE - _COLD, _HOT - _WHITE)
    # astype(int) truncates toward zero, as int() does.
    return (start + span * mix).astype(int)


def _png(rgb: np.ndarray) -> bytes:
    """8-bit RGB PNG of a (rows, columns, 3) array, filter byte 0 on every row."""
    rows, columns, _ = rgb.shape
    scanlines = np.insert(rgb.reshape(rows, -1).astype(np.uint8), 0, 0, axis=1)
    chunks = ((b"IHDR", struct.pack(">IIBBBBB", columns, rows, 8, 2, 0, 0, 0)),
              (b"IDAT", zlib.compress(scanlines.tobytes(), 6)), (b"IEND", b""))
    return b"\x89PNG\r\n\x1a\n" + b"".join(
        struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))
        for kind, data in chunks
    )


def heat_panels(x_values, y_values, panels, title: str = "",
                x_label: str = "", y_label: str = "") -> str:
    """Render one heat panel per (label, matrix) pair, side by side.

    ``matrix[i][j]`` is the value at ``(x_values[i], y_values[j])``;
    ``x_values`` run left to right and ``y_values`` bottom to top, as the
    caption under each panel says.  Each panel is one embedded PNG image
    with one pixel per cell, stretched over the panel without smoothing.
    """
    n_panels = len(panels)
    panel_w = 300
    panel_h = 300
    gap = 60
    width = _MARGIN_L + n_panels * panel_w + (n_panels - 1) * gap + 30
    height = panel_h + 130

    nx, ny = len(x_values), len(y_values)
    matrices = [np.asarray(matrix, dtype=float).reshape(nx, ny) for _, matrix in panels]
    lo, hi = _finite_range(*matrices)
    # Halved, so that hi - lo cannot overflow; halving is exact for normal floats.
    half_lo, half_span = 0.5 * lo, 0.5 * hi - 0.5 * lo

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" xmlns:xlink="http://www.w3.org/1999/xlink" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    top = 45
    for index, ((label, _), matrix) in enumerate(zip(panels, matrices)):
        left = _MARGIN_L + index * (panel_w + gap)
        fraction = np.zeros(nx * ny) if hi == lo else (0.5 * matrix.ravel() - half_lo) / half_span
        # Image rows run top to bottom: the last y value first, x along each row.
        rgb = _heat_rgb(fraction).reshape(nx, ny, 3).transpose(1, 0, 2)[::-1]
        png = base64.b64encode(_png(rgb)).decode("ascii")
        box = f'x="{left}" y="{top}" width="{panel_w}" height="{panel_h}"'
        parts.append(f'<image {box} preserveAspectRatio="none" image-rendering="pixelated" '
                     f'xlink:href="data:image/png;base64,{png}"/>')
        parts.append(f'<rect {box} fill="none" stroke="#444"/>')
        parts.append(
            f'<text x="{left + panel_w / 2:.1f}" y="{top + panel_h + 20}" '
            f'text-anchor="middle">{label}</text>'
        )
        parts.append(
            f'<text x="{left + panel_w / 2:.1f}" y="{top + panel_h + 40}" '
            f'text-anchor="middle">{x_label}: {_fmt(min(x_values))} to {_fmt(max(x_values))} '
            f'(horizontal), {y_label}: {_fmt(min(y_values))} to {_fmt(max(y_values))} '
            f'(vertical)</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L}" y="{height - 14}">scale: {_fmt(lo)} (blue) to {_fmt(hi)} (red)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
