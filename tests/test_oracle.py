import math
import multiprocessing
import os
import threading
import tracemalloc

import pytest

from mirrorfield import oracle
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

DEFAULT_ROWS_PER_BLOCK = oracle.ROWS_PER_BLOCK

BLACK_SHEET = validate_interface(0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
PERFECT_MIRROR = validate_interface(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, phi1=math.pi, phi3=math.pi)


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


class TestAgreementWithClosedForm:
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

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            decay_rate_2d_oracle(BLACK_SHEET, "a", DipoleOrientation.aligned(0.0), -0.5)
        with pytest.raises(DomainError):
            decay_rate_1d_oracle(BLACK_SHEET, "a", 1.5, 0.5)


class TestRowBlocks:
    @pytest.mark.parametrize("u", [300.0, 1e3])
    def test_result_is_independent_of_block_size(self, monkeypatch, u):
        # One block (the whole grid at once), a ragged last block, the default.
        for case in seeded_oracle_cases(seed=11, count=2):
            values = []
            for rows in (10**9, 7, DEFAULT_ROWS_PER_BLOCK):
                monkeypatch.setattr(oracle, "ROWS_PER_BLOCK", rows)
                values.append(decay_rate_2d_oracle(case.interface, case.side, case.dipole, u).hex())
            assert values[0] == values[1] == values[2]

    @pytest.mark.parametrize("u", [300.0, 3e3])
    def test_1d_result_is_independent_of_block_size(self, monkeypatch, u):
        # Blocks of whole panels: all at once, one or two panels, ragged, the default.
        ragged = QuadratureSpec(points_per_panel=7, panels_per_oscillation=3)
        for case in seeded_oracle_cases(seed=12, count=2):
            for spec in (DEFAULT_QUADRATURE, ragged):
                values = []
                for rows in (10**9, 1, 7, DEFAULT_ROWS_PER_BLOCK):
                    monkeypatch.setattr(oracle, "ROWS_PER_BLOCK", rows)
                    values.append(
                        decay_rate_1d_oracle(case.interface, case.side, case.dipole.alignment, u, spec).hex()
                    )
                assert len(set(values)) == 1

    def test_result_is_independent_of_worker_count(self, monkeypatch):
        # Worker counts and block sizes in every combination, for both
        # oracles, the default and a ragged 7-point spec.
        ragged = QuadratureSpec(points_per_panel=7, panels_per_oscillation=3)
        specs = (DEFAULT_QUADRATURE, ragged)
        values = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
            for rows in (10**9, 7, DEFAULT_ROWS_PER_BLOCK):
                monkeypatch.setattr(oracle, "ROWS_PER_BLOCK", rows)
                values[workers, rows] = [
                    decay_rate_2d_oracle(case.interface, case.side, case.dipole, 100.0, spec).hex()
                    for case in seeded_oracle_cases(seed=11, count=2)
                    for spec in specs
                ] + [
                    decay_rate_1d_oracle(case.interface, case.side, case.dipole.alignment, 3e3, spec).hex()
                    for case in seeded_oracle_cases(seed=12, count=2)
                    for spec in specs
                ]
        first = values[1, 10**9]
        assert all(found == first for found in values.values())

    def test_oracle_check_bytes_are_independent_of_worker_count(self, monkeypatch, capsys):
        outputs = []
        for workers in (1, oracle._worker_count()):
            monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
            assert main(["oracle-check", "--seed", "1", "--cases", "8"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_block_error_reaches_the_caller(self, monkeypatch, workers):
        class BlockFailed(Exception):
            pass

        real_integrand = oracle._angular_integrand
        lock = threading.Lock()
        calls = []

        def failing_integrand(*args):
            block = real_integrand(*args)

            def second_block_raises(cos_nodes):
                with lock:
                    calls.append(len(cos_nodes))
                    count = len(calls)
                if count == 2:
                    raise BlockFailed("second block")
                return block(cos_nodes)

            return second_block_raises

        dipole = DipoleOrientation.aligned(0.3)
        monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
        # u = 0: 8 panels of 16 rows, so 8 blocks of 16 rows.
        monkeypatch.setattr(oracle, "ROWS_PER_BLOCK", 16)
        pool = oracle._pool(workers, os.getpid())
        monkeypatch.setattr(oracle, "_angular_integrand", failing_integrand)
        with pytest.raises(BlockFailed, match="second block"):
            decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 0.0)
        assert len(calls) >= 2
        monkeypatch.setattr(oracle, "_angular_integrand", real_integrand)
        assert decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert oracle._pool(workers, os.getpid()) is pool

    def test_forked_child_starts_its_own_pool(self):
        # A forked child inherits the parent's cached pool but none of its threads.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("this platform cannot fork")
        dipole = DipoleOrientation.aligned(0.3)
        expected = decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 3.7)
        with multiprocessing.get_context("fork").Pool(1) as children:
            found = children.apply_async(decay_rate_2d_oracle, (BLACK_SHEET, "a", dipole, 3.7))
            assert found.get(timeout=60) == expected

    def test_2d_peak_memory(self):
        # 2.6M fine-level nodes: 21 MB of weighted values plus the blocks in flight.
        case = seeded_oracle_cases(seed=12, count=1)[0]
        tracemalloc.start()
        try:
            decay_rate_2d_oracle(case.interface, case.side, case.dipole, 2e3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_1d_peak_memory(self):
        # 2.04M fine-level nodes: 16 MB of weighted values plus one block.
        case = seeded_oracle_cases(seed=12, count=1)[0]
        tracemalloc.start()
        try:
            decay_rate_1d_oracle(case.interface, case.side, case.dipole.alignment, 5e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_cached_rules_are_read_only(self):
        nodes, weights = oracle._gauss_legendre(16)
        assert oracle._gauss_legendre(16)[0] is nodes
        assert not nodes.flags.writeable
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
