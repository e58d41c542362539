import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from mirrorfield import modes, oracle
from mirrorfield.cli import main
from mirrorfield import (
    DEFAULT_QUADRATURE,
    DipoleOrientation,
    DomainError,
    QuadratureBudgetExceeded,
    QuadratureSpec,
    decay_rate_1d_oracle,
    decay_rate_2d_oracle,
    lossless_interface,
    oracle_compare,
    panel_count,
    relative_decay_rate,
    seeded_oracle_cases,
    validate_interface,
)
from mirrorfield.interface import side_rate_terms
from test_interface import valid_side_squares
from test_rates import NUMPY_NUMBERS

DEFAULT_LEAF_VALUES = oracle.LEAF_VALUES

BLACK_SHEET = validate_interface(0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
PERFECT_MIRROR = validate_interface(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, phi1=math.pi, phi3=math.pi)


def oracle_hexes(distances) -> dict[str, str]:
    """``.hex()`` of both oracles at each distance in turn, default and 9-point specs."""
    case = seeded_oracle_cases(seed=13, count=1)[0]
    specs = {"default": DEFAULT_QUADRATURE, "9x2": QuadratureSpec(points_per_panel=9, panels_per_oscillation=2)}
    values = {}
    for u in distances:
        for name, spec in specs.items():
            values[f"2d {u!r} {name}"] = decay_rate_2d_oracle(case.interface, case.side, case.dipole, u, spec).hex()
            values[f"1d {u!r} {name}"] = decay_rate_1d_oracle(
                case.interface, case.side, case.dipole.alignment, u, spec
            ).hex()
    return values


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(points_per_panel=1)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tolerance=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(min_panels=0)
        QuadratureSpec(points_per_panel=512)
        with pytest.raises(DomainError, match="points_per_panel must be <= 512"):
            QuadratureSpec(points_per_panel=513)
        for tolerance in (math.inf, math.nan):
            with pytest.raises(DomainError, match="rel_tolerance"):
                QuadratureSpec(rel_tolerance=tolerance)

    def test_panel_count_tracks_oscillations(self):
        assert panel_count(0.0, DEFAULT_QUADRATURE) == 8
        assert panel_count(1.0, DEFAULT_QUADRATURE) == 8
        # one panel block per half oscillation of exp(i u cos theta)
        assert panel_count(200.0, DEFAULT_QUADRATURE) == 256
        assert panel_count(200.0, DEFAULT_QUADRATURE) >= math.ceil(200.0 / math.pi) * 4


class TestKnownIntegrals:
    def test_black_sheet_is_free_space(self):
        # orientation sum rule: the solid-angle integral is exactly 1
        for dipole in (
            DipoleOrientation(1.0, 0.0, 0.0),
            DipoleOrientation(0.0, 1.0, 0.0),
            DipoleOrientation.from_components(0.3 + 0.4j, -0.5, 0.7j),
        ):
            value = decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 3.7)
            assert value == pytest.approx(1.0, abs=1e-9)
        assert decay_rate_1d_oracle(BLACK_SHEET, "a", 0.35, 3.7) == pytest.approx(1.0, abs=1e-9)

    def test_perfect_mirror_contact(self):
        tangential = DipoleOrientation(0.0, 1.0, 0.0)
        assert decay_rate_2d_oracle(PERFECT_MIRROR, "a", tangential, 0.0) == pytest.approx(0.0, abs=1e-9)
        normal = DipoleOrientation(1.0, 0.0, 0.0)
        assert decay_rate_2d_oracle(PERFECT_MIRROR, "a", normal, 1e-4) == pytest.approx(2.0, abs=1e-4)
        assert decay_rate_1d_oracle(PERFECT_MIRROR, "a", 1.0, 1e-4) == pytest.approx(2.0, abs=1e-4)

    def test_quarter_phase_gives_unity(self):
        iface = lossless_interface(0.8, phi3=0.5 * math.pi)
        dipole = DipoleOrientation.aligned(0.5)
        assert decay_rate_2d_oracle(iface, "a", dipole, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_only_alignment_matters(self):
        iface = lossless_interface(0.6, phi3=math.pi)
        first = DipoleOrientation.from_components(math.sqrt(0.3), math.sqrt(0.7), 0.0)
        second = DipoleOrientation.from_components(
            1j * math.sqrt(0.3), math.sqrt(0.2), math.sqrt(0.5) * (0.6 + 0.8j)
        )
        assert first.alignment == pytest.approx(second.alignment, rel=1e-12)
        a = decay_rate_2d_oracle(iface, "a", first, 1.3)
        b = decay_rate_2d_oracle(iface, "a", second, 1.3)
        assert a == pytest.approx(b, abs=1e-9)


def log_uniform(low: float, high: float):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@st.composite
def edge_sides(draw):
    """``(r, t)`` of one side, the loss implied: a plain side, a near-perfect
    reflector (``r**2 > 1 - 1e-3``) or a near-transparent sheet (``r**2`` and
    ``l**2`` between 1e-9 and 1e-6)."""
    family = draw(st.sampled_from(["plain", "near-perfect", "near-transparent"]))
    if family == "plain":
        r_sq, l_sq = valid_side_squares(draw)
    elif family == "near-perfect":
        deficit = draw(log_uniform(1e-12, 1e-3))
        r_sq, l_sq = 1.0 - deficit, draw(st.floats(0.0, 1.0)) * deficit
    else:
        r_sq, l_sq = draw(log_uniform(1e-9, 1e-6)), draw(log_uniform(1e-9, 1e-6))
    return math.sqrt(r_sq), math.sqrt(max(0.0, 1.0 - r_sq - l_sq))


@st.composite
def edge_coatings(draw):
    (r_a, t_a), (r_b, t_b) = draw(edge_sides()), draw(edge_sides())
    phases = [draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True)) for _ in range(4)]
    return validate_interface(r_a, t_a, None, r_b, t_b, None, *phases)


@st.composite
def complex_dipoles(draw):
    parts = [draw(st.floats(-1.0, 1.0)) for _ in range(6)]
    assume(math.hypot(*parts) > 1e-3)
    return DipoleOrientation.from_components(*(complex(x, y) for x, y in zip(parts[::2], parts[1::2])))


class TestAgreementWithClosedForm:
    # Below u = 0.1 the closed form's trigonometric bracket loses digits to
    # cancellation (of order eps / u**2), so the search starts there.
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(edge_coatings(), st.sampled_from(["a", "b"]), complex_dipoles(), log_uniform(0.1, 3e3))
    def test_adversarial_search_agrees_to_1e12(self, iface, side, dipole, u):
        report = oracle_compare(iface, side, dipole, u)
        target(report.max_rel_error)
        assert report.max_rel_error <= 1e-12

    # The band where the oracles sum several leaves per level (the 2D
    # oracle from u = 1e2, the 1D oracle above about 400); the search
    # above, steered toward small u, reaches few distances here.
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(edge_coatings(), st.sampled_from(["a", "b"]), complex_dipoles(), log_uniform(1e2, 3e3))
    def test_multi_leaf_band_agrees_to_1e12(self, iface, side, dipole, u):
        assert oracle_compare(iface, side, dipole, u).max_rel_error <= 1e-12

    @pytest.mark.parametrize("case", seeded_oracle_cases(seed=99, count=10), ids=lambda c: f"case{c.index}")
    def test_random_configurations(self, case):
        report = oracle_compare(case.interface, case.side, case.dipole, case.u)
        closed = relative_decay_rate(case.interface, case.side, case.dipole.alignment, case.u)
        assert report.closed_form == closed
        assert report.oracle_2d == pytest.approx(closed, rel=1e-9, abs=1e-9)
        assert report.oracle_1d == pytest.approx(closed, rel=1e-9, abs=1e-9)
        assert report.max_rel_error < 1e-9

    def test_refinement_is_stable(self):
        iface = lossless_interface(0.9, phi3=1.0)
        dipole = DipoleOrientation.aligned(0.7)
        fine = QuadratureSpec(points_per_panel=32)
        coarse_value = decay_rate_2d_oracle(iface, "a", dipole, 30.0)
        fine_value = decay_rate_2d_oracle(iface, "a", dipole, 30.0, fine)
        assert coarse_value == pytest.approx(fine_value, abs=1e-10)


class TestNumpyNumbers:
    @pytest.mark.parametrize("alignment, u", NUMPY_NUMBERS.values(), ids=NUMPY_NUMBERS)
    def test_oracles_read_python_values(self, alignment, u):
        # Each oracle computes with the Python float of a numpy number, so
        # it gives that float's result bit for bit.
        case = seeded_oracle_cases(seed=13, count=1)[0]
        args = (case.interface, case.side)
        python = float(alignment), float(u)
        for numbers in ((alignment, python[1]), (python[0], u), (alignment, u)):
            assert decay_rate_1d_oracle(*args, *numbers) == decay_rate_1d_oracle(*args, *python), numbers
        assert decay_rate_2d_oracle(*args, case.dipole, u) == decay_rate_2d_oracle(*args, case.dipole, python[1])
        report = oracle_compare(*args, case.dipole, u)
        assert report == oracle_compare(*args, case.dipole, python[1])
        assert type(report.u) is float


class TestBudget:
    def test_underresolved_quadrature_raises(self):
        starved = QuadratureSpec(
            panels_per_oscillation=1, points_per_panel=2, min_panels=1, rel_tolerance=1e-9
        )
        iface = lossless_interface(0.9, phi3=math.pi)
        with pytest.raises(QuadratureBudgetExceeded):
            decay_rate_2d_oracle(iface, "a", DipoleOrientation.aligned(0.0), 20.0, starved)

    def test_over_budget_raises_before_allocating(self):
        # At u = 1e5 the 2D grid would hold about 130M nodes.
        dipole = DipoleOrientation.aligned(0.3)
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureBudgetExceeded, match="MAX_ORACLE_NODES"):
                decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 1e5)
            with pytest.raises(QuadratureBudgetExceeded, match="MAX_ORACLE_NODES"):
                decay_rate_1d_oracle(BLACK_SHEET, "a", 0.3, 1e7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_budget_counts_fine_level_nodes(self, monkeypatch):
        # u = 0 with the default spec: 8 panels of 2 * 16 points at the fine level.
        dipole = DipoleOrientation.aligned(0.3)
        fine_2d = 8 * 32 * oracle.PHI_ORDER
        monkeypatch.setattr(oracle, "MAX_ORACLE_NODES", fine_2d)
        assert decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 0.0) == pytest.approx(1.0, abs=1e-9)
        monkeypatch.setattr(oracle, "MAX_ORACLE_NODES", fine_2d - 1)
        with pytest.raises(QuadratureBudgetExceeded):
            decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 0.0)
        monkeypatch.setattr(oracle, "MAX_ORACLE_NODES", 8 * 32)
        assert decay_rate_1d_oracle(BLACK_SHEET, "a", 0.3, 0.0) == pytest.approx(1.0, abs=1e-9)
        monkeypatch.setattr(oracle, "MAX_ORACLE_NODES", 8 * 32 - 1)
        with pytest.raises(QuadratureBudgetExceeded):
            decay_rate_1d_oracle(BLACK_SHEET, "a", 0.3, 0.0)

    def test_1d_fine_level_just_over_budget_raises_before_allocating(self, monkeypatch):
        # ceil(u / pi) = 131073 oscillations of 4 panels of 2 * 16 points.
        u = 131072.5 * math.pi
        assert 32 * panel_count(u, DEFAULT_QUADRATURE) == 16_777_344 > 2**24

        def no_workspaces(*args):
            raise AssertionError("workspaces allocated over budget")

        monkeypatch.setattr(oracle, "_level_sums", no_workspaces)
        with pytest.raises(QuadratureBudgetExceeded, match="16777344 fine-level nodes"):
            decay_rate_1d_oracle(BLACK_SHEET, "a", 0.3, u)

    def test_refinement_check_has_a_unit_floor(self):
        # The levels differ by 5e-10: within 1e-9 * max(1, |fine|), not 1e-9 * |fine|.
        # One panel, whose weights sum to 2 at either level, so scale 1/2.
        levels = {16: 1e-3, 32: 1e-3 + 5e-10}

        def kernel(nodes, weights, workspace):
            return weights * levels[nodes.size]

        fine = oracle._refined("test", DEFAULT_QUADRATURE, 1, kernel, 1, (), 0.5)
        assert fine == pytest.approx(levels[32], rel=1e-14)

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            decay_rate_2d_oracle(BLACK_SHEET, "a", DipoleOrientation.aligned(0.0), -0.5)
        with pytest.raises(DomainError):
            decay_rate_1d_oracle(BLACK_SHEET, "a", 1.5, 0.5)


def exactly_summed(monkeypatch, compute):
    """``compute()`` with each oracle sum taken by one ``math.fsum`` over all
    values of the grid, which rounds their exact total once."""
    def one_fsum_per_level(shapes, fill, dtypes):
        # One leaf per level, in a workspace that holds the whole grid.
        return [
            math.fsum(fill(level, slice(0, rows), [np.empty(rows * width, dtype) for dtype in dtypes]).ravel())
            for level, (rows, width) in enumerate(shapes)
        ]

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_level_sums", one_fsum_per_level)
        return compute()


def ulps_apart(found: float, expected: float) -> float:
    return abs(found - expected) / math.ulp(expected)


class TestLeaves:
    # The leaf size moves a result only in its last bits: at each leaf
    # size it stays within 4 ulp of the oracle that sums all values exactly.

    @pytest.mark.parametrize("u", [300.0, 1e3])
    def test_result_is_independent_of_leaf_size(self, monkeypatch, u):
        # One leaf (the whole grid at once), one panel per leaf, the default.
        for case in seeded_oracle_cases(seed=11, count=2):
            compute = functools.partial(decay_rate_2d_oracle, case.interface, case.side, case.dipole, u)
            expected = exactly_summed(monkeypatch, compute)
            for leaf_values in (10**9 * oracle.PHI_ORDER, 7 * oracle.PHI_ORDER, DEFAULT_LEAF_VALUES):
                monkeypatch.setattr(oracle, "LEAF_VALUES", leaf_values)
                assert ulps_apart(compute(), expected) <= 4, leaf_values

    @pytest.mark.parametrize("u", [300.0, 3e3])
    def test_1d_result_is_independent_of_leaf_size(self, monkeypatch, u):
        # All panels at once, one or two panels, a ragged last leaf, the default.
        ragged = QuadratureSpec(points_per_panel=7, panels_per_oscillation=3)
        for case in seeded_oracle_cases(seed=12, count=2):
            for spec in (DEFAULT_QUADRATURE, ragged):
                compute = functools.partial(
                    decay_rate_1d_oracle, case.interface, case.side, case.dipole.alignment, u, spec
                )
                expected = exactly_summed(monkeypatch, compute)
                for leaf_values in (10**9 * oracle.PHI_ORDER, oracle.PHI_ORDER, 7 * oracle.PHI_ORDER,
                                    DEFAULT_LEAF_VALUES):
                    monkeypatch.setattr(oracle, "LEAF_VALUES", leaf_values)
                    assert ulps_apart(compute(), expected) <= 4, leaf_values

    def test_1d_leaves_do_not_depend_on_phi_order(self, monkeypatch):
        # A leaf is counted in values, so the order of the 2D oracle's
        # azimuth rule moves no bit of the 1D oracle.
        ragged = QuadratureSpec(points_per_panel=7, panels_per_oscillation=3)

        def hexes():
            return [
                decay_rate_1d_oracle(case.interface, case.side, case.dipole.alignment, u, spec).hex()
                for case in seeded_oracle_cases(seed=12, count=2)
                for spec in (DEFAULT_QUADRATURE, ragged)
                for u in (300.0, 3e3)
            ]

        expected = hexes()
        for order in (8, 64):
            monkeypatch.setattr(oracle, "PHI_ORDER", order)
            assert hexes() == expected, order

    def test_result_is_independent_of_worker_count(self, monkeypatch):
        # At each leaf size the bits do not depend on the worker count,
        # for both oracles, the default and a ragged 7-point spec.
        ragged = QuadratureSpec(points_per_panel=7, panels_per_oscillation=3)
        specs = (DEFAULT_QUADRATURE, ragged)
        for leaf_values in (10**9 * oracle.PHI_ORDER, 7 * oracle.PHI_ORDER, DEFAULT_LEAF_VALUES):
            monkeypatch.setattr(oracle, "LEAF_VALUES", leaf_values)
            values = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
                values.append([
                    decay_rate_2d_oracle(case.interface, case.side, case.dipole, 100.0, spec).hex()
                    for case in seeded_oracle_cases(seed=11, count=2)
                    for spec in specs
                ] + [
                    decay_rate_1d_oracle(case.interface, case.side, case.dipole.alignment, 3e3, spec).hex()
                    for case in seeded_oracle_cases(seed=12, count=2)
                    for spec in specs
                ])
            assert values[0] == values[1] == values[2], leaf_values

    def test_oracle_check_bytes_are_independent_of_worker_count(self, monkeypatch, capsys):
        outputs = []
        for workers in (1, oracle._worker_count()):
            monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
            assert main(["oracle-check", "--seed", "1", "--cases", "8"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_leaf_error_reaches_the_caller(self, monkeypatch, workers):
        class LeafFailed(Exception):
            pass

        real_integrand = oracle._angular_integrand
        lock = threading.Lock()
        calls = []

        def failing_integrand(*args):
            leaf = real_integrand(*args)

            def second_leaf_raises(cos_nodes, cos_weights, workspace):
                with lock:
                    calls.append(len(cos_nodes))
                    count = len(calls)
                if count == 2:
                    raise LeafFailed("second leaf")
                return leaf(cos_nodes, cos_weights, workspace)

            return second_leaf_raises

        dipole = DipoleOrientation.aligned(0.3)
        monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
        # u = 0: 8 panels of 16 rows, so 8 leaves of one panel (32 rows at the fine level).
        monkeypatch.setattr(oracle, "LEAF_VALUES", 16 * oracle.PHI_ORDER)
        monkeypatch.setattr(oracle, "_angular_integrand", failing_integrand)
        with pytest.raises(LeafFailed, match="second leaf"):
            decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 0.0)
        assert len(calls) >= 2
        monkeypatch.setattr(oracle, "_angular_integrand", real_integrand)
        assert decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_a_leaf_error_stops_the_other_workers(self, monkeypatch):
        # Two workers: the helper's first leaf raises, and the calling
        # thread's first leaf waits until that helper has ended, so its error
        # is recorded.  The calling thread then checks for the error before
        # its next leaf, so no third leaf starts.
        class LeafFailed(Exception):
            pass

        real_integrand = oracle._angular_integrand
        caller = threading.current_thread()
        failed = []  # the helper whose leaf raised
        raised = threading.Event()
        started = []

        def failing_integrand(*args):
            leaf = real_integrand(*args)

            def helper_leaf_raises(cos_nodes, cos_weights, workspace):
                started.append(None)
                if threading.current_thread() is not caller:
                    failed.append(threading.current_thread())
                    raised.set()
                    raise LeafFailed("helper leaf")
                assert raised.wait(timeout=30)
                failed[0].join(timeout=30)
                assert not failed[0].is_alive()
                return leaf(cos_nodes, cos_weights, workspace)

            return helper_leaf_raises

        monkeypatch.setattr(oracle, "_worker_count", lambda: 2)
        # u = 0: 8 leaves of one panel at each level.
        monkeypatch.setattr(oracle, "LEAF_VALUES", 16 * oracle.PHI_ORDER)
        monkeypatch.setattr(oracle, "_angular_integrand", failing_integrand)
        with pytest.raises(LeafFailed, match="helper leaf"):
            decay_rate_2d_oracle(BLACK_SHEET, "a", DipoleOrientation.aligned(0.3), 0.0)
        assert len(started) <= 2

    def test_each_call_starts_one_helper_session(self, monkeypatch):
        # Both levels share one session: a 2D call at u = 0 with 8 leaves per
        # level and 3 workers starts 2 helpers, not 2 per level.  The 1D
        # oracle at u <= 100 has one leaf per level and starts none.
        started = []
        real_start = threading.Thread.start

        def counted_start(thread):
            if thread.name.startswith("mirrorfield"):
                started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        monkeypatch.setattr(oracle, "_worker_count", lambda: 3)
        dipole = DipoleOrientation.aligned(0.3)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "LEAF_VALUES", 16 * oracle.PHI_ORDER)
            assert decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert len(started) == 2
        started.clear()
        for u in (0.0, 1.0, 30.0, 100.0):
            decay_rate_1d_oracle(BLACK_SHEET, "a", 0.3, u)
        assert started == []

    def test_result_is_independent_of_call_history(self, monkeypatch):
        # Each call sizes and fills its own workspaces, so no call sees what
        # an earlier one left in memory, also one whose leaf raised halfway.
        # The reference is a fresh interpreter making the calls in reverse.
        class LeafFailed(Exception):
            pass

        def third_leaf_raises(leaf):
            lock = threading.Lock()
            calls = []

            def counted(*args):
                with lock:
                    calls.append(None)
                    count = len(calls)
                if count == 3:
                    raise LeafFailed
                return leaf(*args)

            return counted

        monkeypatch.setattr(oracle, "_worker_count", lambda: 2)
        forward = (2e3, 0.3, 100.0)
        first = oracle_hexes(forward)
        case = seeded_oracle_cases(seed=13, count=1)[0]
        real_2d, real_1d = oracle._angular_integrand, oracle._distance_integrand
        monkeypatch.setattr(oracle, "_angular_integrand", lambda *args: third_leaf_raises(real_2d(*args)))
        monkeypatch.setattr(oracle, "_distance_integrand", third_leaf_raises(real_1d))
        with pytest.raises(LeafFailed):
            decay_rate_2d_oracle(case.interface, case.side, case.dipole, 2e3)
        with pytest.raises(LeafFailed):
            decay_rate_1d_oracle(case.interface, case.side, case.dipole.alignment, 2e3)
        monkeypatch.setattr(oracle, "_angular_integrand", real_2d)
        monkeypatch.setattr(oracle, "_distance_integrand", real_1d)
        after_error = oracle_hexes(forward)

        src = str(Path(oracle.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import json, sys; sys.path.insert(0, sys.argv[1]); import test_oracle; "
        code += f"print(json.dumps(test_oracle.oracle_hexes({forward[::-1]!r})))"
        child = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        fresh = json.loads(child.stdout)
        assert len(first) == 12
        assert first == after_error == fresh

    @pytest.mark.parametrize("workers", [1, 3])
    def test_calls_leave_no_threads_behind(self, monkeypatch, workers):
        # Each call joins every helper thread it started before it returns,
        # also when a leaf raised; no thread outlives the call.
        class LeafFailed(Exception):
            pass

        def second_leaf_raises(leaf):
            lock = threading.Lock()
            calls = []

            def counted(*args):
                with lock:
                    calls.append(None)
                    count = len(calls)
                if count == 2:
                    raise LeafFailed
                return leaf(*args)

            return counted

        def oracle_threads():
            return [thread for thread in threading.enumerate() if thread.name.startswith("mirrorfield")]

        dipole = DipoleOrientation.aligned(0.3)
        monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
        # 8 leaves of one panel at each level of the 2D oracle at u = 0, 12
        # leaves of 32 panels for the 1D oracle at u = 300 (24 of 16 at the
        # fine level).
        monkeypatch.setattr(oracle, "LEAF_VALUES", 16 * oracle.PHI_ORDER)
        before = threading.active_count()
        decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 0.0)
        decay_rate_1d_oracle(BLACK_SHEET, "a", 0.3, 300.0)
        assert threading.active_count() == before
        real_2d, real_1d = oracle._angular_integrand, oracle._distance_integrand
        monkeypatch.setattr(oracle, "_angular_integrand", lambda *args: second_leaf_raises(real_2d(*args)))
        with pytest.raises(LeafFailed):
            decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 0.0)
        assert threading.active_count() == before
        monkeypatch.setattr(oracle, "_distance_integrand", second_leaf_raises(real_1d))
        with pytest.raises(LeafFailed):
            decay_rate_1d_oracle(BLACK_SHEET, "a", 0.3, 300.0)
        assert threading.active_count() == before
        assert oracle_threads() == []

    def test_forked_child_starts_its_own_pool(self):
        # A forked child inherits none of the parent's threads; its oracle
        # call starts and joins its own.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("this platform cannot fork")
        dipole = DipoleOrientation.aligned(0.3)
        expected = decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 3.7)
        with multiprocessing.get_context("fork").Pool(1) as children:
            found = children.apply_async(decay_rate_2d_oracle, (BLACK_SHEET, "a", dipole, 3.7))
            assert found.get(timeout=60) == expected

    def test_2d_peak_memory(self):
        # 2.6M fine-level nodes, summed leaf by leaf in a fixed scratch per worker.
        case = seeded_oracle_cases(seed=12, count=1)[0]
        tracemalloc.start()
        try:
            decay_rate_2d_oracle(case.interface, case.side, case.dipole, 2e3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_1d_peak_memory(self):
        # 2.04M fine-level nodes, summed leaf by leaf in a fixed scratch per worker.
        case = seeded_oracle_cases(seed=12, count=1)[0]
        tracemalloc.start()
        try:
            decay_rate_1d_oracle(case.interface, case.side, case.dipole.alignment, 5e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    # Two workers, so that the bounds do not depend on the machine's CPU
    # count; each further worker adds its own workspace.  The grids grow
    # fourfold and eightfold between the two distances, the peaks do not.
    @pytest.mark.parametrize("u, bound", [(2e3, 5e6), (8e3, 5e6)])
    def test_2d_peak_memory_is_flat_in_u(self, monkeypatch, u, bound):
        monkeypatch.setattr(oracle, "_worker_count", lambda: 2)
        case = seeded_oracle_cases(seed=12, count=1)[0]
        tracemalloc.start()
        try:
            decay_rate_2d_oracle(case.interface, case.side, case.dipole, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("u, bound", [(5e4, 4e6), (4e5, 4e6)])
    def test_1d_peak_memory_is_flat_in_u(self, monkeypatch, u, bound):
        monkeypatch.setattr(oracle, "_worker_count", lambda: 2)
        case = seeded_oracle_cases(seed=12, count=1)[0]
        tracemalloc.start()
        try:
            decay_rate_1d_oracle(case.interface, case.side, case.dipole.alignment, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("n_panels", [1, 2, 3, 7, 10, 49, 1000, 509296])
    def test_leaf_panels_are_linspace_panels(self, n_panels):
        # Slices from the first panel, to the last, and in between.
        edges = np.linspace(-1.0, 1.0, n_panels + 1)
        for start, stop in {(0, n_panels), (0, 1), (n_panels - 1, n_panels),
                            (n_panels // 3, n_panels // 2 + 1), (n_panels // 2, n_panels)}:
            own = edges[start:stop + 1]
            centres, half_width = oracle._panels(n_panels, slice(start, stop))
            assert centres.tobytes() == (0.5 * (own[1:] + own[:-1])).tobytes()
            assert half_width.tobytes() == (0.5 * (own[1:] - own[:-1])).tobytes()

    @pytest.mark.parametrize("u", [0.0, 37.0, 300.0])
    def test_each_leaf_builds_linspace_panels(self, monkeypatch, u):
        # Each leaf computes the edges of its own whole panels.  With leaves
        # of 640 values and 9 or 18 points per panel, a 2D leaf holds two
        # panels or one, and no panel is split between leaves.
        calls = []

        def recorded(n_panels, panels):
            calls.append((n_panels, panels, real(n_panels, panels)))
            return calls[-1][2]

        real = oracle._panels
        monkeypatch.setattr(oracle, "_panels", recorded)
        monkeypatch.setattr(oracle, "LEAF_VALUES", 20 * oracle.PHI_ORDER)
        spec = QuadratureSpec(points_per_panel=9, panels_per_oscillation=2)
        dipole = DipoleOrientation.aligned(0.3)
        decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, u, spec)
        decay_rate_1d_oracle(BLACK_SHEET, "a", 0.3, u, spec)
        n_panels = oracle.panel_count(u, spec)
        edges = np.linspace(-1.0, 1.0, n_panels + 1)
        for n, panels, (centres, half_width) in calls:
            own = edges[panels.start:panels.stop + 1]
            assert n == n_panels
            assert centres.tobytes() == (0.5 * (own[1:] + own[:-1])).tobytes()
            assert half_width.tobytes() == (0.5 * (own[1:] - own[:-1])).tobytes()
        # The leaves of each level of each oracle tile its panels exactly once.
        assert [panels.start for _, panels, _ in calls].count(0) == 4
        assert sum(panels.stop - panels.start for _, panels, _ in calls) == 4 * n_panels
        covered = np.zeros(n_panels, int)
        for _, panels, _ in calls:
            covered[panels] += 1
        assert (covered == 4).all()

    def test_a_panel_above_leaf_values_is_one_leaf(self, monkeypatch):
        # At 512 points per panel a fine-level 2D panel holds 1024 * 32
        # values, twice LEAF_VALUES: each such leaf is one whole panel, and
        # the workspaces double, which the peak bound still covers.
        spec = QuadratureSpec(points_per_panel=512)
        case = seeded_oracle_cases(seed=12, count=1)[0]
        monkeypatch.setattr(oracle, "_worker_count", lambda: 2)
        leaves = []
        real = oracle._panel_nodes

        def recorded(n_panels, points, panels):
            leaves.append((points, panels.stop - panels.start))
            return real(n_panels, points, panels)

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_panel_nodes", recorded)
            expected = decay_rate_2d_oracle(case.interface, case.side, case.dipole, 100.0, spec)
        fine = [size for points, size in leaves if points == 1024]
        assert len(fine) == oracle.panel_count(100.0, spec) and set(fine) == {1}
        tracemalloc.start()
        try:
            assert decay_rate_2d_oracle(case.interface, case.side, case.dipole, 100.0, spec) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_cached_rules_are_read_only(self):
        nodes, weights = oracle._gauss_legendre(16)
        assert oracle._gauss_legendre(16)[0] is nodes
        assert not nodes.flags.writeable
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0


class TestLeafSums:
    """The oracles sum each fixed leaf of rows with ``np.sum`` and add the
    leaf sums of each level with ``math.fsum``."""

    # Rows, and so for width 1 values: below 8, from 8 to 128, 129, odd
    # primes, and (with the last row count) about 1e5 values for every width.
    ROWS = (1, 3, 5, 8, 16, 17, 128, 129, 997, 7919)

    @staticmethod
    def filler(grids: tuple[np.ndarray, ...], filled: list | None = None):
        def fill(level: int, block: slice, workspace: list) -> np.ndarray:
            if filled is not None:
                filled.append((level, block.start, workspace[0]))
            out = modes._grid(workspace[0], grids[level][block].shape)
            out[...] = grids[level][block]
            return out

        return fill

    @pytest.mark.parametrize("width", [1, 7, 16, 32])
    # Leaves as long as this many rows of a PHI_ORDER-wide grid.
    @pytest.mark.parametrize("leaf_rows", [1, 7, DEFAULT_LEAF_VALUES // oracle.PHI_ORDER, 10**9])
    def test_streamed_sum_is_within_4_ulp_of_fsum(self, monkeypatch, width, leaf_rows):
        monkeypatch.setattr(oracle, "LEAF_VALUES", leaf_rows * oracle.PHI_ORDER)
        rng = np.random.default_rng([width, leaf_rows])
        for rows in (*self.ROWS, 100003 // width):
            # Nonnegative like every oracle grid (a bound in ulp of the sum
            # needs that): values of one scale, and values over 24 decades,
            # as the two levels of one call.
            flat = rng.uniform(0.0, 1.0, (rows, width))
            grids = (flat, flat * 10.0 ** rng.uniform(-12.0, 12.0, (rows, width)))
            for workers in (1, 3):
                monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
                found = oracle._level_sums([grid.shape for grid in grids], self.filler(grids), (np.float64,))
                for grid, total in zip(grids, found, strict=True):
                    assert ulps_apart(total, math.fsum(grid.ravel())) <= 4, (rows, workers)

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_a_workspace_error_reaches_the_caller_after_every_join(self, monkeypatch, failing):
        # A workspace that cannot be allocated stops the call like a leaf
        # error, in the helper threads or in the calling thread, and no
        # helper outlives the call.  Each helper leaf takes 0.2 s, so a
        # helper left running when the call returns is still alive at the
        # check; a working engine waits for it, whatever its speed.
        grids = (np.random.default_rng(9).uniform(0.0, 1.0, (400, 7)),)
        caller = threading.current_thread()
        real_empty = np.empty
        fill = self.filler(grids)

        def empty(*args, **kwargs):
            if (threading.current_thread() is caller) == (failing == "caller"):
                raise MemoryError(f"no workspace in the {failing}")
            return real_empty(*args, **kwargs)

        def slow_helper_fill(level, rows, workspace):
            if threading.current_thread() is not caller:
                threading.Event().wait(0.2)
            return fill(level, rows, workspace)

        monkeypatch.setattr(oracle, "LEAF_VALUES", oracle.PHI_ORDER)
        monkeypatch.setattr(oracle, "_worker_count", lambda: 3)
        monkeypatch.setattr(np, "empty", empty)
        with pytest.raises(MemoryError, match=f"no workspace in the {failing}"):
            oracle._level_sums([grids[0].shape], slow_helper_fill, (np.float64,))
        monkeypatch.setattr(np, "empty", real_empty)
        assert [thread for thread in threading.enumerate() if thread.name.startswith("mirrorfield")] == []

    def test_workers_take_each_leaf_once(self, monkeypatch):
        # More workers than cores, switching threads as often as possible:
        # a leaf taken twice or lost shows in the fill count or the sum, at
        # either level.
        rng = np.random.default_rng(8)
        grids = (rng.uniform(0.0, 1.0, (20011, 7)), rng.uniform(0.0, 1.0, (10007, 13)))
        filled = []
        monkeypatch.setattr(oracle, "LEAF_VALUES", oracle.PHI_ORDER)
        monkeypatch.setattr(oracle, "_worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            found = oracle._level_sums([grid.shape for grid in grids], self.filler(grids, filled), (np.float64,))
        finally:
            sys.setswitchinterval(interval)
        # Each of the 8 workers filled its leaves in its own workspace.
        assert len({id(workspace) for _, _, workspace in filled}) == 8
        for level, grid in enumerate(grids):
            leaf_rows = oracle._leaf_rows(grid.shape[1])
            starts = [start for at, start, _ in filled if at == level]
            assert len(starts) == math.ceil(len(grid) / leaf_rows)
            assert sorted(starts) == list(range(0, len(grid), leaf_rows))
            assert ulps_apart(found[level], math.fsum(grid.ravel())) <= 4
