"""Workloads of the mirrorfield benchmark and the checks on their outputs.

A workload turns a seed into a fixed list of steps.  Each step is one
child process: either the shipped command line (``python -m
mirrorfield.cli ...``) or the large-u oracle probe in ``oracle_probe.py``.
The program only ever sees the generated flags and values, never the
workload name.

Every check is computed independently of mirrorfield, in numpy, from the
values the program wrote.  A check returns a list of problems; an empty
list means the step's output is correct.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Absolute tolerance of the normalisation identity and the xi-map check.
IDENTITY_TOL = 1e-12

#: Largest oracle deviation a case may show before it counts as failed.
ORACLE_TOL = 1e-6

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Step:
    """One child process of a workload run.

    ``kind`` is ``"cli"`` (``args`` follow ``python -m mirrorfield.cli``)
    or ``"probe"`` (``args`` follow ``python oracle_probe.py``).  ``csv``
    names the CSV file the step writes, if any.  ``check`` receives the
    step's exit code and captured stdout/stderr text and returns
    ``(problems, csv_values)``.
    """

    name: str
    kind: str
    args: tuple[str, ...]
    csv: Path | None
    check: Callable[[int, str, str], tuple[list[str], int]]


@dataclass(frozen=True)
class Workload:
    why: str
    steps: Callable[[int, Path], list[Step]]


# ---------------------------------------------------------------- reading

def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Column names and value matrix of a mirrorfield CSV."""
    lines = path.read_text(encoding="ascii").splitlines()
    if len(lines) < 3 or not lines[0].startswith("# provenance: "):
        raise ValueError(f"{path.name}: not a mirrorfield CSV")
    columns = lines[1].split(",")
    body = [line for line in lines[2:] if not line.startswith("#")]
    values = np.array(",".join(body).split(","), dtype=float)
    if values.size != len(body) * len(columns):
        raise ValueError(f"{path.name}: ragged rows")
    return columns, values.reshape(len(body), len(columns))


def _checked(csv: Path, verify: Callable[[list[str], np.ndarray], list[str]]):
    """Build a step check: exit code 0, then ``verify`` on the CSV."""

    def check(code: int, stdout: str, stderr: str) -> tuple[list[str], int]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"], 0
        try:
            columns, data = _read_csv(csv)
        except (OSError, ValueError) as exc:
            return [str(exc)], 0
        return verify(columns, data), int(data.size)

    return check


def _exceeds(label: str, error: np.ndarray, tol) -> list[str]:
    bad = ~(np.abs(error) <= tol)
    if not bad.any():
        return []
    worst = int(np.argmax(np.where(bad, np.abs(np.nan_to_num(error, nan=np.inf)), -1.0)))
    return [f"{label}: {int(bad.sum())} values off, worst row {worst} by {error.flat[worst]!r}"]


# ------------------------------------------------------- independent models

def _map_axis(l_sq: float, count: int) -> np.ndarray:
    return np.linspace(0.0, math.sqrt(max(0.0, 1.0 - l_sq)), count)


def _eta_sq(r_a, t_a_sq, r_b, t_b_sq):
    """Squared normalisation constants from amplitudes and squared transmissions."""
    num_a = 1.0 + r_a * r_a - t_a_sq
    num_b = 1.0 + r_b * r_b - t_b_sq
    return 1.0 + r_a * r_a + num_a / num_b * t_b_sq, 1.0 + r_b * r_b + num_b / num_a * t_a_sq


def _check_grid(columns, data, l_sq: float, count: int, names: list[str]) -> list[str]:
    if columns != names:
        return [f"columns {columns} != {names}"]
    if data.shape[0] != count * count:
        return [f"{data.shape[0]} rows, expected {count * count}"]
    axis = _map_axis(l_sq, count)
    problems = []
    if not np.array_equal(data[:, 0], np.repeat(axis, count)):
        problems.append("r_a column is not the expected grid")
    if not np.array_equal(data[:, 1], np.tile(axis, count)):
        problems.append("r_b column is not the expected grid")
    return problems


def check_eta_map(l_sq: float, count: int):
    """Every row must satisfy (1 + r_a^2)/eta_a^2 + t_b^2/eta_b^2 = 1."""

    def verify(columns, data):
        problems = _check_grid(columns, data, l_sq, count, ["r_a", "r_b", "eta_a_sq", "eta_b_sq"])
        if problems:
            return problems
        r_a, r_b, eta_a_sq, eta_b_sq = data.T
        t_b_sq = np.maximum(0.0, 1.0 - r_b * r_b - l_sq)
        identity = (1.0 + r_a * r_a) / eta_a_sq + t_b_sq / eta_b_sq - 1.0
        return _exceeds("normalisation identity", identity, IDENTITY_TOL)

    return verify


def check_xi_map(l_sq: float, count: int, phases: tuple[float, ...]):
    """Every value must equal 3 r_a cos(phi3) / eta_a^2."""

    def verify(columns, data):
        names = ["r_a", "r_b"] + [f"xi_phi3={phase!r}" for phase in phases]
        problems = _check_grid(columns, data, l_sq, count, names)
        if problems:
            return problems
        r_a, r_b = data[:, 0], data[:, 1]
        t_a_sq = np.maximum(0.0, 1.0 - r_a * r_a - l_sq)
        t_b_sq = np.maximum(0.0, 1.0 - r_b * r_b - l_sq)
        eta_a_sq, _ = _eta_sq(r_a, t_a_sq, r_b, t_b_sq)
        for index, phase in enumerate(phases):
            expected = 3.0 * r_a * math.cos(phase) / eta_a_sq
            problems += _exceeds(names[2 + index], data[:, 2 + index] - expected, IDENTITY_TOL)
        return problems

    return verify


def closed_form(xi: float, alignment: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rate ratio 1 + xi * bracket(u, A) and a rounding bound for it.

    The bound scales with the magnitude of the terms that cancel in the
    bracket, so a last-bit difference in ``sin`` near small ``u`` is not
    taken for a wrong result.
    """
    sin_u, cos_u = np.sin(u), np.cos(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc = sin_u / u
        tail = cos_u / (u * u) - sin_u / (u * u * u)
        scale = np.abs(sinc) + (1.0 + alignment) * (np.abs(cos_u / (u * u)) + np.abs(sin_u / (u * u * u)))
    small = u < 1e-3
    u_sq = u * u
    sinc = np.where(small, 1.0 - u_sq / 6.0, sinc)
    tail = np.where(small, -1.0 / 3.0 + u_sq / 30.0, tail)
    scale = np.where(small, 1.0, scale)
    bracket = (1.0 - alignment) * sinc + (1.0 + alignment) * tail
    return 1.0 + xi * bracket, IDENTITY_TOL + 16.0 * _EPS * abs(xi) * scale


def check_curves(u_min: float, u_max: float, count: int, curves: list[tuple[str, float, float]]):
    """Each ratio column must match the closed form and lie in [0, 2].

    ``curves`` lists ``(column label, xi, alignment)``.
    """

    def verify(columns, data):
        names = ["u"] + [label for label, _, _ in curves]
        if columns != names:
            return [f"columns {columns} != {names}"]
        u = np.linspace(u_min, u_max, count)
        if data.shape[0] != count or not np.array_equal(data[:, 0], u):
            return ["u column is not the expected grid"]
        problems = []
        for index, (label, xi, alignment) in enumerate(curves, start=1):
            ratio = data[:, index]
            if not ((ratio >= 0.0) & (ratio <= 2.0)).all():
                problems.append(f"{label}: ratio outside [0, 2]")
            expected, tol = closed_form(xi, alignment, u)
            problems += _exceeds(label, ratio - expected, tol)
        return problems

    return verify


def check_oracle_csv(csv: Path, cases: int):
    """oracle-check must exit 0, report no failures and agree to ORACLE_TOL."""

    def check(code: int, stdout: str, stderr: str) -> tuple[list[str], int]:
        problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]
        summary = [line for line in stderr.splitlines() if line.startswith("summary:")]
        if not summary or "failures=0 " not in summary[-1] + " ":
            problems.append(f"summary line reports failures: {summary}")
        try:
            columns, data = _read_csv(csv)
        except (OSError, ValueError) as exc:
            return problems + [str(exc)], 0
        if data.shape[0] != cases:
            problems.append(f"{data.shape[0]} rows, expected {cases}")
        table = dict(zip(columns, data.T))
        if not (table["ok"] == 1.0).all():
            problems.append("a case is marked failed")
        problems += _exceeds("max_rel_error", table["max_rel_error"], ORACLE_TOL)
        for route in ("oracle_2d", "oracle_1d"):
            gap = (table[route] - table["closed_form"]) / np.maximum(1.0, np.abs(table["closed_form"]))
            problems += _exceeds(route, gap, ORACLE_TOL)
        return problems, int(data.size)

    return check


def check_probe(cases: int, u_values: tuple[float, ...]):
    """The probe's reports must agree to ORACLE_TOL and stay in [0, 2]."""

    def check(code: int, stdout: str, stderr: str) -> tuple[list[str], int]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"], 0
        try:
            reports = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            return [f"probe output is not JSON: {exc}"], 0
        if len(reports) != cases * len(u_values):
            return [f"{len(reports)} probe reports, expected {cases * len(u_values)}"], 0
        problems = []
        for report in reports:
            closed = report["closed_form"]
            worst = max(abs(report[route] - closed) for route in ("oracle_2d", "oracle_1d"))
            if not (0.0 <= closed <= 2.0):
                problems.append(f"probe closed form {closed!r} outside [0, 2]")
            if not (report["max_rel_error"] <= ORACLE_TOL and worst / max(1.0, abs(closed)) <= ORACLE_TOL):
                problems.append(f"probe case at u={report['u']!r} off by {report['max_rel_error']!r}")
        return problems, 0

    return check


# ---------------------------------------------------------------- workloads

MAP_ETA_GRID = 151
MAP_XI_GRID = 81
MAP_PHASES = (0.0, math.pi)
CURVE_PRESET_COUNT = 4001
CURVE_CUSTOM_COUNT = 12001
CURVE_U = (0.01, 50.0)  # the command's default u range
ORACLE_CLI_CASES = 8
PROBE_CASES = 1
PROBE_U = (1e3, 2e3)

#: The fig4 preset: (column label, xi, alignment); the labels carry xi.
FIG4 = [
    (f"xi={xi:+.2f}_d1sq={alignment}", xi, float(alignment))
    for xi in (-1.5, -0.75, 0.75, 1.5)
    for alignment in (0, 1)
]


def maps_steps(seed: int, out: Path) -> list[Step]:
    # The loss floor keeps the r_a = r_b = 0 corner clear of the
    # degenerate-transparency cut (1 + r^2 - t^2 = l_sq there).
    l_sq = random.Random(seed).uniform(0.01, 0.5)
    eta_csv, xi_csv = out / "eta.csv", out / "xi.csv"
    return [
        Step(
            "eta-map", "cli",
            ("eta-map", "--grid-count", str(MAP_ETA_GRID), "--l-sq", repr(l_sq), "--out", str(eta_csv)),
            eta_csv, _checked(eta_csv, check_eta_map(l_sq, MAP_ETA_GRID)),
        ),
        Step(
            "xi-map", "cli",
            ("xi-map", "--grid-count", str(MAP_XI_GRID), "--phi3-values", "0,pi",
             "--l-sq", repr(l_sq), "--out", str(xi_csv), "--svg"),
            xi_csv, _checked(xi_csv, check_xi_map(l_sq, MAP_XI_GRID, MAP_PHASES)),
        ),
    ]


def _custom_coating(rng: random.Random) -> dict[str, float]:
    r_a = rng.uniform(0.2, 0.9)
    r_b = rng.uniform(0.1, 0.9)
    return {
        "r_a": r_a,
        "t_a": 0.999 * rng.uniform(0.0, math.sqrt(1.0 - r_a * r_a)),
        "r_b": r_b,
        "t_b": 0.999 * rng.uniform(0.0, math.sqrt(1.0 - r_b * r_b)),
        "phi3": rng.uniform(0.0, 2.0 * math.pi),
        "alignment": rng.uniform(0.0, 1.0),
    }


def curves_steps(seed: int, out: Path) -> list[Step]:
    coating = _custom_coating(random.Random(seed))
    eta_a_sq, _ = _eta_sq(coating["r_a"], coating["t_a"] ** 2, coating["r_b"], coating["t_b"] ** 2)
    xi = 3.0 * coating["r_a"] * math.cos(coating["phi3"]) / eta_a_sq
    fig4_csv, custom_csv = out / "fig4.csv", out / "custom.csv"
    flags = tuple(
        token
        for key, value in coating.items()
        for token in (f"--{key.replace('_', '-')}", repr(value))
    )
    return [
        Step(
            "fig4", "cli",
            ("decay-curve", "--preset", "fig4", "--u-count", str(CURVE_PRESET_COUNT),
             "--out", str(fig4_csv), "--svg"),
            fig4_csv, _checked(fig4_csv, check_curves(*CURVE_U, CURVE_PRESET_COUNT, FIG4)),
        ),
        Step(
            "custom", "cli",
            ("decay-curve", *flags, "--u-count", str(CURVE_CUSTOM_COUNT), "--out", str(custom_csv)),
            custom_csv,
            _checked(custom_csv, check_curves(
                *CURVE_U, CURVE_CUSTOM_COUNT, [("ratio_vs_gamma_air", xi, coating["alignment"])]
            )),
        ),
    ]


def oracle_steps(seed: int, out: Path) -> list[Step]:
    case_seed = random.Random(seed).randrange(2**31)
    check_csv = out / "check.csv"
    u_text = ",".join(repr(u) for u in PROBE_U)
    return [
        Step(
            "oracle-check", "cli",
            ("oracle-check", "--seed", str(case_seed), "--cases", str(ORACLE_CLI_CASES),
             "--out", str(check_csv)),
            check_csv, check_oracle_csv(check_csv, ORACLE_CLI_CASES),
        ),
        Step(
            "probe", "probe",
            ("--seed", str(case_seed), "--cases", str(PROBE_CASES), "--u", u_text),
            None, check_probe(PROBE_CASES, PROBE_U),
        ),
    ]


WORKLOADS = {
    "maps": Workload(
        "every cell is a distinct coating: stresses interface, sweep CSV and heat SVG; never reaches rates or oracle",
        maps_steps,
    ),
    "curves": Workload(
        "every sample of a curve shares one coating: stresses rates and the line SVG; uses interface the opposite way from maps",
        curves_steps,
    ),
    "oracle": Workload(
        "the only workload that runs the quadratures: many small-u cases plus memory-bound large-u cases",
        oracle_steps,
    ),
}
