"""Gaussian entanglement delivery over satellite beam-wander fading links.

Covariance-matrix simulation of three two-station distribution schemes
(direct transmission, satellite-mounted source, entanglement swapping on the
satellite), their fading-ensemble averages, classical and quantum
post-selection, and the reduction of every scheme to an effective
squeezed-state-plus-loss channel.
"""

from .effective import EffectiveParams, ordering_check, scheme_effective_summary, to_effective, try_effective
from .errors import ConfigError, CvsatError, DomainError, NumericalError
from .fading import (
    FadingChannel,
    LinkGeometry,
    Links,
    expand_links,
    loss_db,
    mean_transmittance,
    pdf,
    sample,
)
from .gaussian import (
    Squeezing,
    StandardFormCM,
    TwoModeCM,
    add_excess_noise,
    apply_loss,
    is_entangled,
    log_negativity,
    standard_form,
    symplectic_spectrum_pt,
    tmsv_cm,
)
from .numerics import (
    DEFAULT_QUAD,
    McSpec,
    QuadratureSpec,
    bessel_i,
    mc_expectation,
)
from .postselect import (
    ClassicalPsConfig,
    PostSelectionResult,
    QuantumPsConfig,
    classical_postselect,
    quantum_moments_realization,
    quantum_postselect,
)
from .schemes import (
    GeneralBipartiteInput,
    SchemeConfig,
    SwapGains,
    direct_realization,
    ensemble_cm,
    optimal_gains,
    swap_conditional,
    swap_ensemble_cm,
    swap_realization,
)

__all__ = [
    "ClassicalPsConfig",
    "ConfigError",
    "CvsatError",
    "DEFAULT_QUAD",
    "DomainError",
    "EffectiveParams",
    "FadingChannel",
    "GeneralBipartiteInput",
    "LinkGeometry",
    "Links",
    "McSpec",
    "NumericalError",
    "PostSelectionResult",
    "QuadratureSpec",
    "QuantumPsConfig",
    "SchemeConfig",
    "Squeezing",
    "StandardFormCM",
    "SwapGains",
    "TwoModeCM",
    "add_excess_noise",
    "apply_loss",
    "bessel_i",
    "classical_postselect",
    "direct_realization",
    "ensemble_cm",
    "expand_links",
    "is_entangled",
    "log_negativity",
    "loss_db",
    "mc_expectation",
    "mean_transmittance",
    "optimal_gains",
    "ordering_check",
    "pdf",
    "quantum_moments_realization",
    "quantum_postselect",
    "sample",
    "scheme_effective_summary",
    "standard_form",
    "swap_conditional",
    "swap_ensemble_cm",
    "swap_realization",
    "symplectic_spectrum_pt",
    "tmsv_cm",
    "to_effective",
    "try_effective",
    "__version__",
]

__version__ = "0.1.0"
