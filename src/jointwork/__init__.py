"""Joint work observables for noisy two-point energy measurements.

Builds the square-root joint observable for a pair of unsharp energy
measurements around a unitary process, checks the closed-form visibility
bounds, recovers average work and free energy differences from generalized
two-point statistics, and probes the bounds numerically with a convex
feasibility solver. Everything runs on numpy alone.
"""

from .bloch import (
    VisibilityPair,
    choi_matrix,
    choi_positivity_margin,
    gamma_bound,
    kappa,
    lambda_mub,
    lambda_opt,
    product_state_minimum,
    symmetric_critical_visibility,
)
from .errors import (
    AssignmentDomainError,
    BasisMismatchError,
    DegenerateSpectrumError,
    JointWorkError,
    NonInvertibleInstrumentError,
    NotHermitianError,
    NotPsdError,
    NotUnitaryError,
    ZeroVisibilityError,
)
from .feasibility import (
    FeasibilityProblem,
    FeasibilityResult,
    FeasibilityStatus,
    estimate_critical_visibility,
    joint_feasibility_problem,
    solve_joint_feasibility,
)
from .gtpm import (
    DiagonalState,
    fluctuation_residual,
    free_energy_difference,
    gibbs_state,
    gtpm_distribution,
    sample_gtpm,
)
from .operators import (
    SpectralHamiltonian,
    haar_random_unitary,
    hamiltonian_from_energies,
    matrix_sqrt_psd,
)
from .povm import (
    LuedersInstrument,
    NoisyEnergyPovm,
    Povm,
    check_marginals,
    depolarize,
    heisenberg_povm,
    instrument_channel,
    inverse_instrument_channel,
    luders_apply,
    luders_instrument,
    noisy_effects,
    povm_from_effects,
)
from .workobs import (
    AssignmentKind,
    EnergyAssignment,
    JointWorkObservable,
    WorkDistribution,
    build_joint_observable,
    corrected_assignment,
    jarzynski_assignment,
    jarzynski_sum,
    mean_work,
    naive_assignment,
    work_distribution,
)

__version__ = "0.1.0"
