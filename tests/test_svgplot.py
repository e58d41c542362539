"""The array-built SVG plots against the per-cell and per-point formulas."""

import math
import re

import numpy as np
import pytest

from mirrorfield import svgplot
from mirrorfield.svgplot import heat_panels, line_plot


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


def reference_cells(x_values, y_values, panels):
    """One ``<rect>`` line per cell, formatted one cell at a time, and the range."""
    lo, hi = reference_range([v for _, matrix in panels for row in matrix for v in row])
    nx, ny = len(x_values), len(y_values)
    cell_w = 300 / nx
    cell_h = 300 / ny
    lines = []
    for index, (_, matrix) in enumerate(panels):
        left = svgplot._MARGIN_L + index * (300 + 60)
        for i in range(nx):
            for j in range(ny):
                value = matrix[i][j]
                frac = 0.0 if hi == lo else (value - lo) / (hi - lo)
                px = left + i * cell_w
                py = 45 + 300 - (j + 1) * cell_h
                lines.append(
                    f'<rect x="{px:.2f}" y="{py:.2f}" width="{cell_w + 0.5:.2f}" '
                    f'height="{cell_h + 0.5:.2f}" fill="{reference_colour(frac)}"/>'
                )
    return lines, lo, hi


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
        lines = svg.splitlines()
        expected, lo, hi = reference_cells(x_values, y_values, panels)
        # Title block, the cells, three lines per panel, the scale and </svg>.
        assert len(lines) == 3 + len(expected) + 3 * len(panels) + 2
        assert [line for line in lines if 'fill="#' in line] == expected
        assert lines[-2].endswith(
            f"scale: {svgplot._fmt(lo)} (blue) to {svgplot._fmt(hi)} (red)</text>"
        )

    def test_arrays_and_lists_give_the_same_bytes(self):
        x_values, y_values, panels = HEAT_CASES["seeded"]
        as_arrays = [(label, np.array(matrix)) for label, matrix in panels]
        assert heat_panels(x_values, y_values, as_arrays) == heat_panels(x_values, y_values, panels)

    def test_every_fraction_gets_the_reference_colour(self):
        fractions = np.concatenate(
            [np.linspace(-0.5, 1.5, 2001), [0.5, math.nextafter(0.5, 0.0), math.nan, math.inf]]
        )
        got = ["#%02x%02x%02x" % tuple(rgb) for rgb in svgplot._heat_rgb(fractions).tolist()]
        assert got == [reference_colour(f) for f in fractions.tolist()]


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

    def test_range_keeps_the_sign_of_the_first_zero(self):
        for values in ([0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [math.nan, -0.0, 0.0]):
            lo, hi = svgplot._finite_range(np.array(values))
            assert (repr(lo), repr(hi)) == tuple(map(repr, reference_range(values)))
