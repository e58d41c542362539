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

