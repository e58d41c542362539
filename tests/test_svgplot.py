"""The array-built SVG plots against the per-cell and per-point formulas."""

import base64
import math
import re
import struct
import warnings
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest

from mirrorfield import parse_csv, svgplot
from mirrorfield.cli import main
from mirrorfield.svgplot import heat_panels, line_plot

SVG = "http://www.w3.org/2000/svg"
XLINK = "http://www.w3.org/1999/xlink"


def reference_range(values) -> tuple[float, float]:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def reference_colour(fraction: float) -> str:
    fraction = min(1.0, max(0.0, fraction))
    if fraction < 0.5:
        mix = fraction / 0.5
        r = int(43 + (255 - 43) * mix)
        g = int(75 + (255 - 75) * mix)
        b = int(155 + (255 - 155) * mix)
    else:
        mix = (fraction - 0.5) / 0.5
        r = int(255 + (196 - 255) * mix)
        g = int(255 + (57 - 255) * mix)
        b = int(255 + (43 - 255) * mix)
    return f"#{r:02x}{g:02x}{b:02x}"


def decode_png(data: bytes) -> list[list[str]]:
    """Pixel colours of an 8-bit RGB PNG whose rows all have filter byte 0,
    one list per pixel row from the top."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, at = {}, 8
    while at < len(data):
        (length,) = struct.unpack(">I", data[at : at + 4])
        body = data[at + 4 : at + 8 + length]
        assert struct.unpack(">I", data[at + 8 + length : at + 12 + length])[0] == zlib.crc32(body)
        chunks[body[:4]] = chunks.get(body[:4], b"") + body[4:]
        at += 12 + length
    width, height, depth, colour_type, *_ = struct.unpack(">IIBBBBB", chunks[b"IHDR"])
    assert (depth, colour_type) == (8, 2)
    raw = zlib.decompress(chunks[b"IDAT"])
    stride = 1 + 3 * width
    assert len(raw) == height * stride
    rows = [raw[row * stride : (row + 1) * stride] for row in range(height)]
    assert all(line[0] == 0 for line in rows)
    return [["#%02x%02x%02x" % tuple(line[1 + 3 * c : 4 + 3 * c]) for c in range(width)]
            for line in rows]


def panel_images(svg: str) -> list[ET.Element]:
    return ET.fromstring(svg).findall(f"{{{SVG}}}image")


def image_pixels(image: ET.Element) -> list[list[str]]:
    uri = image.get(f"{{{XLINK}}}href")
    assert uri.startswith("data:image/png;base64,")
    return decode_png(base64.b64decode(uri[len("data:image/png;base64,"):], validate=True))


def reference_pixels(x_values, y_values, panels):
    """Each panel's pixel colours, one cell at a time: x_values left to right,
    y_values bottom to top; and the colour range."""
    lo, hi = reference_range([v for _, matrix in panels for row in matrix for v in row])

    def colour(value):
        return reference_colour(0.0 if hi == lo else (value - lo) / (hi - lo))

    images = [[[colour(matrix[i][j]) for i in range(len(x_values))]
               for j in reversed(range(len(y_values)))] for _, matrix in panels]
    return images, lo, hi


def reference_points(x, series) -> list[str]:
    """Each polyline's points, one point at a time, skipping non-finite y."""
    x = [float(v) for v in x]
    x_lo, x_hi = reference_range(x)
    y_lo, y_hi = reference_range([v for _, ys in series for v in ys])
    plot_w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    plot_h = svgplot._HEIGHT - svgplot._MARGIN_T - svgplot._MARGIN_B

    def sx(v):
        return svgplot._MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return svgplot._MARGIN_T + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    return [
        " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in zip(x, ys) if math.isfinite(py))
        for _, ys in series
    ]


def seeded_matrix(seed: int, nx: int, ny: int) -> list[list[float]]:
    return np.random.default_rng(seed).normal(size=(nx, ny)).tolist()


HEAT_CASES = {
    # Unequal axes, so a swapped i/j would show; values at the colour stops.
    "seeded": ([0.1, 0.2, 0.3, 0.4, 0.5], [1.0, 2.0, 3.0, 4.0],
               [("a", seeded_matrix(1, 5, 4)),
                ("b", np.linspace(-0.0, 1.0, 20).reshape(5, 4).tolist())]),
    "constant": ([0.0, 1.0, 2.0], [0.0, 1.0], [("c", [[0.25] * 2] * 3)]),
    # Widening by 0.5 is lost at this magnitude, so hi == lo and every fraction is 0.
    "hi-equals-lo": ([0.0, 1.0], [0.0, 1.0], [("c", [[1e17, 1e17], [1e17, 1e17]])]),
    "non-finite": ([0.0, 1.0], [0.0, 1.0, 2.0],
                   [("n", [[math.nan, math.inf, -math.inf], [math.nan, math.nan, math.inf]])]),
    "signed-zero-range": ([0.0, 1.0], [0.0], [("z", [[0.0], [-0.0]]), ("w", [[-0.0], [2.0]])]),
}


class TestHeatPanels:
    @pytest.mark.parametrize("case", HEAT_CASES, ids=list(HEAT_CASES))
    def test_cells_equal_per_cell_formula(self, case):
        x_values, y_values, panels = HEAT_CASES[case]
        svg = heat_panels(x_values, y_values, panels, "t", "x", "y")
        expected, lo, hi = reference_pixels(x_values, y_values, panels)
        images = panel_images(svg)
        assert len(images) == len(panels)
        for index, image in enumerate(images):
            assert image_pixels(image) == expected[index]
            assert (image.get("x"), image.get("y")) == (str(svgplot._MARGIN_L + index * 360), "45")
            assert (image.get("width"), image.get("height")) == ("300", "300")
            assert image.get("preserveAspectRatio") == "none"
            assert image.get("image-rendering") == "pixelated"
        # The background and one frame per panel; no cell is a rect.
        assert len(ET.fromstring(svg).findall(f"{{{SVG}}}rect")) == 1 + len(panels)
        assert svg.splitlines()[-2].endswith(
            f"scale: {svgplot._fmt(lo)} (blue) to {svgplot._fmt(hi)} (red)</text>"
        )

    def test_arrays_and_lists_give_the_same_bytes(self):
        x_values, y_values, panels = HEAT_CASES["seeded"]
        as_arrays = [(label, np.array(matrix)) for label, matrix in panels]
        assert heat_panels(x_values, y_values, as_arrays) == heat_panels(x_values, y_values, panels)

    def test_a_range_wider_than_the_float_range_spans_cold_to_hot(self):
        # hi - lo is inf here; the colour scale must not overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svg = heat_panels([0, 1], [0], [("a", [[-1e308], [1e308]])])
        assert image_pixels(panel_images(svg)[0]) == [[reference_colour(0.0), reference_colour(1.0)]]

    def test_every_fraction_gets_the_reference_colour(self):
        fractions = np.concatenate(
            [np.linspace(-0.5, 1.5, 2001), [0.5, math.nextafter(0.5, 0.0), math.nan, math.inf]]
        )
        got = ["#%02x%02x%02x" % tuple(rgb) for rgb in svgplot._heat_rgb(fractions).tolist()]
        assert got == [reference_colour(f) for f in fractions.tolist()]


class TestMapOrientation:
    def test_pixels_sit_where_the_caption_puts_them(self, tmp_path):
        # Unequal r_a and r_b ranges; eta_b_sq peaks at r_a = 0, r_b = 0.8.
        out = tmp_path / "e.csv"
        assert main(["eta-map", "--grid-count", "3", "--r-a-max", "0.3", "--r-b-max", "0.8",
                     "--l-sq", "0.1", "--out", str(out), "--svg"]) == 0
        table = parse_csv(out.read_text())
        svg = (tmp_path / "e.svg").read_text()
        captions = re.findall(r"(\w+): (\S+) to (\S+) \(horizontal\), (\w+): (\S+) to (\S+) \(vertical\)",
                              svg)
        assert captions == [("r_a", "0", "0.3", "r_b", "0", "0.8")] * 2
        across, up = table.column("r_a"), table.column("r_b")
        values = table.column("eta_b_sq")
        pixels = image_pixels(panel_images(svg)[1])
        peak = int(np.argmax(values))
        assert (across[peak], up[peak]) == (0.0, 0.8)
        # Left column, top row; the peak is the hottest value of both panels.
        assert pixels[0][0] == reference_colour(1.0)
        lo, hi = reference_range(table.rows[:, 2:].ravel().tolist())
        assert hi == values[peak]
        for a, b, value in zip(across, up, values):
            column = int(np.searchsorted(np.unique(across), a))
            row = len(pixels) - 1 - int(np.searchsorted(np.unique(up), b))
            assert pixels[row][column] == reference_colour((value - lo) / (hi - lo))


class TestLinePlot:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_points_equal_per_point_formula(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.0, 50.0, 40)).tolist()
        with_gaps = rng.normal(size=40).tolist()
        with_gaps[3] = math.nan
        with_gaps[17] = math.inf
        series = [("one", with_gaps), ("short", rng.normal(size=25).tolist()), ("flat", [2.0] * 40)]
        svg = line_plot(x, series, "t", "x", "y")
        assert re.findall(r'points="([^"]*)"', svg) == reference_points(x, series)

    def test_all_non_finite_series(self):
        x = [0.0, 1.0, 2.0]
        series = [("gone", [math.nan, math.inf, -math.inf]), ("kept", [math.nan, 1.0, 1.0])]
        points = re.findall(r'points="([^"]*)"', line_plot(x, series))
        assert points == reference_points(x, series)
        assert points[0] == ""

    @pytest.mark.parametrize("x", [[0.0, 1.0], [-1e308, 1e308]])
    def test_a_range_wider_than_the_float_range_stays_finite(self, x):
        # hi - lo is inf here; no coordinate or tick label may overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svg = line_plot(x, [("a", [-1e308, 1e308])])
        root = ET.fromstring(svg)
        coordinates = [
            float(value)
            for element in root.iter()
            for name, value in element.attrib.items()
            if name in ("x", "y", "x1", "y1", "x2", "y2")
        ]
        (points,) = [element.get("points") for element in root.iter(f"{{{SVG}}}polyline")]
        coordinates += [float(value) for pair in points.split() for value in pair.split(",")]
        assert coordinates and all(math.isfinite(value) for value in coordinates)
        assert points == "70.00,465.00 690.00,40.00"
        labels = [element.text for element in root.iter(f"{{{SVG}}}text")
                  if element.get("text-anchor") == "end"]
        assert labels == ["-1e+308", "-5e+307", "0", "5e+307", "1e+308"]
        x_labels = [element.text for element in root.iter(f"{{{SVG}}}text")
                    if element.get("text-anchor") == "middle" and element.get("y") == "485"]
        assert len(x_labels) == 5 and all(math.isfinite(float(label)) for label in x_labels)

    def test_range_keeps_the_sign_of_the_first_zero(self):
        for values in ([0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [math.nan, -0.0, 0.0]):
            lo, hi = svgplot._finite_range(np.array(values))
            assert (repr(lo), repr(hi)) == tuple(map(repr, reference_range(values)))
