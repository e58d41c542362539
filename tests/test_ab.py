import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

METRICS = [
    {"name": "run_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "values_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def result(run_s: float, values_per_s: float, failed: int = 0) -> dict:
    return {
        "correct": failed == 0, "attempted": 4, "failed": failed,
        "metrics": {"run_s.p50": {"value": run_s, "unit": "s"},
                    "values_per_s": {"value": values_per_s, "unit": "1/s"}},
    }


def row(lines: list[str], name: str) -> str:
    return next(line for line in lines if line.startswith(name))


def test_quartiles():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_wins_and_flags_only_past_the_bound():
    parent = [result(1.0, 100.0), result(1.1, 110.0), result(0.9, 90.0), result(1.0, 100.0)]
    # Run time 20 % worse, within its bound; throughput 32.5 % worse, past it.
    change = [result(1.2, 70.0), result(1.3, 65.0), result(0.8, 60.0), result(1.2, 100.0)]
    lines, flagged = ab.summarise(METRICS, parent, change)
    assert flagged
    run_line = row(lines, "run_s.p50")
    assert "[0.975, 1.025]" in run_line and "+20.00%" in run_line
    assert run_line.endswith("1/4") and "WORSE" not in run_line
    values_line = row(lines, "values_per_s")
    assert "-32.50%" in values_line and "0/4  WORSE (bound 25%)" in values_line


def test_summary_of_a_better_change_is_not_flagged():
    parent = [result(1.0, 100.0)] * 3
    change = [result(0.5, 200.0)] * 3
    lines, flagged = ab.summarise(METRICS, parent, change)
    assert not flagged
    assert row(lines, "run_s.p50").endswith("3/3")
    assert row(lines, "values_per_s").endswith("3/3")


@pytest.mark.parametrize("side,flagged", [("parent", False), ("change", True)])
def test_a_failed_change_run_is_flagged(side, flagged):
    runs = {"parent": [result(1.0, 100.0)] * 2, "change": [result(1.0, 100.0)] * 2}
    runs[side] = [result(1.0, 100.0), result(1.0, 100.0, failed=1)]
    lines, got = ab.summarise(METRICS, runs["parent"], runs["change"])
    assert got is flagged
    assert f"{side}: 1 of 8 runs failed a check, 1 of 2 results not correct" in lines


def test_every_run_gets_a_line():
    parent = [result(1.0, 100.0), result(1.5, 90.0)]
    change = [result(0.5, 200.0), result(2.0, 80.0)]
    assert ab.run_lines(METRICS, parent, change) == [
        "pair  1 parent: run_s.p50=1 values_per_s=100",
        "pair  1 change: run_s.p50=0.5 values_per_s=200",
        "pair  2 parent: run_s.p50=1.5 values_per_s=90",
        "pair  2 change: run_s.p50=2 values_per_s=80",
    ]
