"""Kicked-top dynamics toolkit.

Classical stroboscopic map on the unit sphere, tangent-space Lyapunov
estimation, a bipartite classical limit, the quantum Floquet map for a
spin-j top, a k-nearest-neighbour mutual information estimator, and the
experiment runners that tie them together.
"""

from .classical import (
    KickedTopError,
    KickParams,
    SphericalPoint,
    cartesian_to_spherical,
    classical_step,
    evolve_trajectory,
    phase_portrait,
    spherical_to_cartesian,
)
from .lyapunov import (
    DegenerateTangentError,
    LyapunovEstimate,
    TangentFrame,
    benettin_lyapunov,
    initial_tangent_frame,
    jacobian,
)
from .mutual_info import MIEstimate, digamma, ksg_mi
from .quantum import (
    NormDriftError,
    SpinOperators,
    SpinState,
    bloch_vector,
    coherent_state,
    evolve_expectations,
    floquet_unitary,
    linear_entropy,
    spin_operators,
    thermo_limit_entropy,
    von_neumann_entropy_single_spin,
)
from .bipartite import (
    CapDistribution,
    SampleSeries,
    evolve_ensemble,
    sample_cap,
)
from .experiments import (
    Dataset,
    EquilibriumMap,
    ExperimentConfig,
    GrowthFit,
    NotEquilibratedError,
    TeqResult,
    WindowTooShortError,
    equilibrium_map,
    estimate_teq,
    fit_growth_rate,
    grid_centers,
    map_cell_value,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "KickedTopError",
    "KickParams",
    "SphericalPoint",
    "cartesian_to_spherical",
    "classical_step",
    "evolve_trajectory",
    "phase_portrait",
    "spherical_to_cartesian",
    "DegenerateTangentError",
    "LyapunovEstimate",
    "TangentFrame",
    "benettin_lyapunov",
    "initial_tangent_frame",
    "jacobian",
    "MIEstimate",
    "digamma",
    "ksg_mi",
    "NormDriftError",
    "SpinOperators",
    "SpinState",
    "bloch_vector",
    "coherent_state",
    "evolve_expectations",
    "floquet_unitary",
    "linear_entropy",
    "spin_operators",
    "thermo_limit_entropy",
    "von_neumann_entropy_single_spin",
    "CapDistribution",
    "SampleSeries",
    "evolve_ensemble",
    "sample_cap",
    "Dataset",
    "EquilibriumMap",
    "ExperimentConfig",
    "GrowthFit",
    "NotEquilibratedError",
    "TeqResult",
    "WindowTooShortError",
    "equilibrium_map",
    "estimate_teq",
    "fit_growth_rate",
    "grid_centers",
    "map_cell_value",
    "run_experiment",
    "__version__",
]
