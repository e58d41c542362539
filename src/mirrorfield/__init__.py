"""Spontaneous emission near a lossy, asymmetric mirror coating.

The package models a two-level emitter at distance x from a thin coated
interface between air and a denser dielectric.  The coating reflects,
transmits and absorbs with independent amplitudes on each side, and the
emitter's decay rate relative to its homogeneous-space value follows in
closed form from those amplitudes.

Importing the package loads nothing else: each submodule, and numpy with
it, is imported the first time one of its names is used (PEP 562).
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the public names it defines.
_PUBLIC = {
    "errors": (
        "ConfigError", "DegenerateTransparency", "DomainError", "EnergyViolation",
        "MirrorFieldError", "QuadratureBudgetExceeded", "RangeError",
    ),
    "interface": (
        "AIR", "Medium", "MirrorInterface", "QuadratureSpec", "SideCoefficients",
        "SideRateTerms", "lossless_interface", "mirror_parameter",
        "normalisation_constants", "refractive_index", "side_rate_terms",
        "validate_interface",
    ),
    "oracle": (
        "DEFAULT_QUADRATURE", "OracleReport", "decay_rate_1d_oracle",
        "decay_rate_2d_oracle", "oracle_compare", "panel_count",
    ),
    "rates": (
        "CODATA2018", "NATURAL_UNITS", "AtomParams", "DecayRateCurve", "DipoleOrientation",
        "PhysicalConstants", "gamma_air", "gamma_med", "oscillatory_bracket",
        "relative_decay_rate", "sample_decay_curve", "unnormalised_decay_rate",
    ),
    "sweep": (
        "ORACLE_U_VALUES", "OracleCase", "ResultTable", "SweepConfig", "format_csv",
        "parse_csv", "replay_provenance", "seeded_oracle_cases", "write_csv",
    ),
}

_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _PUBLIC:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
