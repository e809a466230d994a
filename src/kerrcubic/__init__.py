"""Truncated-Fock-space toolkit for a Kerr-based deterministic cubic phase gate.

A squeezed and displaced frame turns a driven Kerr nonlinearity into an
effective cubic-phase Hamiltonian; this package provides the exact
operator-algebra engine behind that statement, dense simulators for the gate
with loss and parameter noise, the discrete-drive (Trotterized) variant, the
grid-qubit and cubic-phase state library, sweep/fit harnesses, and the
soliton-platform figure of merit.
"""

from .algebra import (
    AlphaPoly,
    BosonPolynomial,
    CubicGateParams,
    QuadraturePolynomial,
    cubic_counterterms,
    cubic_parameters,
    driven_kerr,
    effective_cubic_hamiltonian,
    substitute_gaussian_frame,
    to_matrix,
    to_quadrature_form,
)
from .dynamics import (
    EvolutionResult,
    GateConfig,
    IntegrationError,
    NoiseParams,
    UnsupportedConfigurationError,
    cubic_gate,
    effective_generators,
    evolve_lindblad,
    photon_number_trace,
    trotterized_gate,
)
from .experiments import (
    AlphaOptimum,
    CubicStateResult,
    FitResult,
    SweepSpec,
    fit_power_law,
    generate_cubic_state,
    noise_sweep,
    optimize_alpha,
    optimize_gaussian_correction,
    run_sweep,
)
from .fock import (
    ContractViolationError,
    DimensionMismatchError,
    InvalidDimensionError,
    MixedState,
    PureState,
    Spectrum,
    TruncationWarning,
    annihilation,
    check_truncation_convergence,
    displacement,
    expectation,
    fidelity,
    fock_state,
    interior_dim,
    lambda_from_db,
    momentum,
    number,
    position,
    squeeze,
    vacuum,
    variance,
    wigner,
)
from .soliton import (
    BUILTIN_MATERIALS,
    MaterialParams,
    MissingFieldError,
    SolitonScales,
    envelope_overlap,
    figure_of_merit,
    gamma_from_material,
    soliton_scales,
    soliton_timescale,
)
from .states import (
    GkpParams,
    gkp_state,
    ideal_cubic_gate,
    nlq_operator,
    nlq_variance,
    parse_state,
    squeezed_vacuum,
)

__version__ = "0.1.0"
