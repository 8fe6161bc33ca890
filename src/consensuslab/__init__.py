"""Consensus dynamics on switching interaction graphs: simulation,
graph metrics, persistence certification and decay measurement."""

from .analysis import (
    ContractionReport,
    DecayFit,
    DiameterPairSet,
    check_maximizer_geometry,
    diameter,
    diameter_pairs,
    fit_exponential,
    mean,
    variance,
    variance_dissipation_residual,
    window_contraction,
)
from .dynamics import (
    Configuration,
    Constant,
    CuckerSmale,
    Kernel,
    Trajectory,
    integrate,
    kernel_bounds,
    rescale_dilation,
    rhs,
)
from .errors import (
    ConfigError,
    ConsensusLabError,
    DegenerateDiameter,
    DimensionMismatch,
    HorizonUncovered,
    InvalidPair,
    NonFiniteState,
    NonPositiveValue,
    SpanTooShort,
    UnbalancedGraph,
)
from .graphs import (
    AdjacencyMatrix,
    LaplacianMatrix,
    algebraic_connectivity,
    degrees,
    dirichlet_energy,
    is_balanced,
    laplacian,
    scrambling,
)
from .signals import (
    PersistenceReport,
    PiecewiseConstantSignal,
    Window,
    certify_eta,
    certify_lambda2,
    evaluate,
    gen_blinking_pairs,
    gen_rotating_star,
    window_average,
    window_average_batch,
)

__version__ = "0.1.0"
