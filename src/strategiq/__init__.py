"""Privacy-constrained strategic quantization of a jointly Gaussian source.

An encoder observing (X, theta) signals a decoder that estimates X while an
eavesdropper tries to recover theta; the encoder's objective trades
estimation fidelity against privacy leakage with a weight lam.  The package
computes the closed-form linear equilibrium when the message rate is
unconstrained, designs M-message strategic quantizers by a projected
trust-region Newton method on nonnegative boundary increments when it is
not, and ships the oracles
(exhaustive search, Monte Carlo) used to validate both.
"""

from .gaussian_model import (
    MASS_FLOOR,
    SourceSpec,
    ThetaGrid,
    make_source,
    make_theta_grid,
)
from .linear_equilibrium import (
    LinearEquilibrium,
    linear_distortions,
    optimal_alpha,
    solve_equilibrium,
)
from .metrics import (
    LloydMaxResult,
    SimilarityReport,
    lloyd_max,
    lloyd_max_quantizer,
    max_kl,
)
from .optimizer import (
    DesignResult,
    boundary_gradient,
    design,
    design_result_to_dict,
    multistart,
    random_monotone_quantizer,
)
from .oracle import (
    MonteCarloReport,
    OracleGrid,
    brute_force_design,
    make_oracle_grid,
    monte_carlo_distortions,
)
from .quantizer_core import (
    BestResponses,
    DistortionReport,
    Quantizer,
    distortions,
    evaluate,
    quantizer_from_dict,
    quantizer_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "MASS_FLOOR",
    "SourceSpec",
    "ThetaGrid",
    "make_source",
    "make_theta_grid",
    "LinearEquilibrium",
    "linear_distortions",
    "optimal_alpha",
    "solve_equilibrium",
    "LloydMaxResult",
    "SimilarityReport",
    "lloyd_max",
    "lloyd_max_quantizer",
    "max_kl",
    "DesignResult",
    "boundary_gradient",
    "design",
    "design_result_to_dict",
    "multistart",
    "random_monotone_quantizer",
    "MonteCarloReport",
    "OracleGrid",
    "brute_force_design",
    "make_oracle_grid",
    "monte_carlo_distortions",
    "BestResponses",
    "DistortionReport",
    "Quantizer",
    "distortions",
    "evaluate",
    "quantizer_from_dict",
    "quantizer_to_dict",
]
