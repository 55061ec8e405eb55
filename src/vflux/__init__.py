"""Steady-state heat transport through a V-type three-level system.

Core objects: :class:`~vflux.model.SystemSpec` describes a scenario;
generators of the reduced dynamics live in :mod:`vflux.liouvillian`;
steady states, counting statistics, currents and figures of merit in
:mod:`vflux.steady`, :mod:`vflux.fcs`, :mod:`vflux.transport` and
:mod:`vflux.analysis`.  The ``vflux`` command line drives scenario files
and figure reproduction.
"""

from .analysis import (
    AmplificationResult,
    RectificationResult,
    amplification,
    cyclic_amplification_analytic,
    max_amplification,
    max_rectification,
    rectification,
)
from .errors import (
    BranchError,
    ConfigError,
    DegenerateSteadyStateError,
    DomainError,
    IndeterminateAmplificationError,
    IndeterminateRectificationError,
    UsageError,
    VfluxError,
)
from .fcs import (
    CumulantSet,
    cumulants_finite_difference,
    cumulants_perturbative,
    dominant_eigenvalue,
    first_cumulant_direct,
    pseudo_inverse_R,
)
from .liouvillian import (
    Generator,
    build_counting_generator,
    build_generator,
    generator_chi_derivative,
    verify_block_decoupling,
)
from .model import (
    ENERGY,
    PARTICLE,
    CountingFields,
    RateSet,
    SystemSpec,
    bose_occupation,
    build_rates,
    validate,
)
from .steady import (
    SteadyState,
    coherence_vanishing_residual,
    evolve,
    steady_state,
    steady_state_resonant_two_bath,
    steady_state_three_terminal,
    steady_state_time_integration,
)
from .transport import (
    CurrentReport,
    closed_form_JR_no_interference,
    closed_form_JeR_resonant,
    heat_currents,
    particle_currents,
)

__version__ = "0.1.0"

#: The library API, module by module; ``from vflux import *`` binds these
#: names and no submodule.
__all__ = [
    # analysis
    "AmplificationResult", "RectificationResult", "amplification",
    "cyclic_amplification_analytic", "max_amplification", "max_rectification",
    "rectification",
    # errors
    "BranchError", "ConfigError", "DegenerateSteadyStateError", "DomainError",
    "IndeterminateAmplificationError", "IndeterminateRectificationError", "UsageError",
    "VfluxError",
    # fcs
    "CumulantSet", "cumulants_finite_difference", "cumulants_perturbative",
    "dominant_eigenvalue", "first_cumulant_direct", "pseudo_inverse_R",
    # liouvillian
    "Generator", "build_counting_generator", "build_generator", "generator_chi_derivative",
    "verify_block_decoupling",
    # model
    "ENERGY", "PARTICLE", "CountingFields", "RateSet", "SystemSpec", "bose_occupation",
    "build_rates", "validate",
    # steady
    "SteadyState", "coherence_vanishing_residual", "evolve", "steady_state",
    "steady_state_resonant_two_bath", "steady_state_three_terminal",
    "steady_state_time_integration",
    # transport
    "CurrentReport", "closed_form_JR_no_interference", "closed_form_JeR_resonant",
    "heat_currents", "particle_currents",
]
