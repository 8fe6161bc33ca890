"""Consensus dynamics on switching interaction graphs: simulation,
graph metrics, persistence certification and decay measurement.

The public names below are loaded lazily (PEP 562): the first access of a
name imports the module that defines it, so a process loads only the
modules it uses; `consensus-lab certify` never loads `analysis`, `dynamics`
or the float text of `_text`.
"""
import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "_kernels": ("Constant", "CuckerSmale", "Kernel"),
    "analysis": (
        "ContractionReport", "DecayFit", "DiameterPairSet",
        "check_maximizer_geometry", "diameter", "diameter_pairs",
        "fit_exponential", "mean", "variance", "variance_dissipation_residual",
        "window_contraction",
    ),
    "dynamics": (
        "Configuration", "Trajectory", "integrate", "integrate_batch",
        "kernel_bounds", "rescale_dilation", "rhs",
    ),
    "errors": (
        "ConfigError", "ConsensusLabError", "DegenerateDiameter",
        "DimensionMismatch", "HorizonUncovered", "InvalidPair",
        "NonFiniteState", "NonPositiveValue", "SpanTooShort", "UnbalancedGraph",
    ),
    "graphs": (
        "AdjacencyMatrix", "LaplacianMatrix", "algebraic_connectivity",
        "degrees", "dirichlet_energy", "is_balanced", "laplacian", "scrambling",
    ),
    "signals": (
        "PersistenceReport", "PiecewiseConstantSignal", "Window", "certify_eta",
        "certify_lambda2", "evaluate", "gen_blinking_pairs", "gen_rotating_star",
        "window_average", "window_average_batch",
    ),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import the module defining the public `name`; keep the name here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
