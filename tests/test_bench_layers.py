import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"
_SPEC = importlib.util.spec_from_file_location("bench_layers", _PATH)
bench_layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_layers)

SUBCOMMANDS = ("eta-map", "xi-map", "decay-curve", "oracle-check")


def test_tiny_run_writes_every_layer(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    assert bench_layers.main(["--tiny", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    environment = result["environment"]
    assert {"python", "numpy", "usable_cpus", "repeats"} <= environment.keys()
    assert environment["usable_cpus"] >= 1 and environment["repeats"] == 5
    expected = {
        "interface.validate_us_per_cell.array", "interface.validate_us_per_cell.scalar",
        "rates.ns_per_sample", "rates.us_per_scalar_call", "sweep.config_us",
        *(f"{layer}.{subcommand}" for subcommand in SUBCOMMANDS
          for layer in ("sweep.assemble_s", "csv.format_ns_per_value", "svg.ns_per_point")),
        *(f"oracle.{route}_{figure}.u={u}.workers={workers}"
          for route in ("2d", "1d") for figure in ("ms", "peak_mb")
          for u in ("1", "100") for workers in ("1", "default")),
        "e2e.wall_s.eta-map.grid=11", "e2e.peak_mib.eta-map.grid=11",
    }
    assert set(result["metrics"]) == expected
    for name, figure in result["metrics"].items():
        assert len(figure["runs"]) == 5, name
        assert 0.0 < figure["q1"] <= figure["median"] <= figure["q3"], name


def test_repeats_run_round_by_round(monkeypatch):
    """Each figure is warmed once, then every round reads every figure once,
    then the children run once per round, so no figure's repeats run back to
    back and each figure's runs are its own readings in round order."""
    log = []

    def logged(name):
        return lambda: log.append(name) or len(log)

    def read(call):
        return call()

    monkeypatch.setattr(bench_layers, "figures",
                        lambda size: {name: (read, logged(name), 1.0, "s") for name in ("a", "b")})
    monkeypatch.setattr(bench_layers, "child", lambda argv, out: (logged(argv)(), 1.0))
    metrics = bench_layers.measure({"children": {"x": "x", "y": "y"}})
    assert log == ["a", "b"] + ["a", "b"] * 5 + ["x", "y"] * 5
    assert metrics["a"]["runs"] == [3, 5, 7, 9, 11] and metrics["b"]["runs"] == [4, 6, 8, 10, 12]
    assert metrics["e2e.wall_s.x"]["runs"] == [13, 15, 17, 19, 21]
    assert metrics["e2e.peak_mib.y"]["runs"] == [1.0] * 5
