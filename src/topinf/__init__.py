"""Inference of parametric reduced-order operators from trajectory data.

The package learns the operator tensor of a linear parametric system

    d/dt xhat(t; mu) = (T nu(mu)) xhat(t; mu),    T in R^{r x r x p},

from reduced trajectory snapshots and their time derivatives, by solving
the regression problem over all parameter samples at once.  Three solvers
are provided (explicit normal equations, stacked least squares, and an
equality-constrained variant that returns exactly symmetric or skew
operator slices), together with the surrounding machinery to run full
studies: finite-element benchmark models (a diffusion problem and a
canonical wave problem), mass-weighted and symplectic block bases, energy-
preserving time integrators, error and energy-drift metrics, a binary
artifact format, and a five-stage experiment pipeline with a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    NonUniqueSolutionError,
    NotPositiveDefiniteError,
    NumericError,
    ResourceLimitError,
    SingularMatrixError,
    StorageFormatError,
    StructureError,
)
from .tensors import (
    cmat,
    cvec,
    double_contract,
    frobenius,
    mode3_product,
    outer,
    rmat,
    rvec,
    swap_axes,
)
from .linalg import (
    TridiagonalFactor,
    cholesky_upper,
    factor_tridiagonals,
    lstsq_min_norm,
    solve_sym,
    thin_svd,
)
from .heat import (
    HeatModel,
    build_heat_model,
    heat_features,
    heat_initial_state,
    heat_operator,
    heat_sweep,
    sample_conductivities,
)
from .wave import (
    WaveModel,
    build_wave_model,
    canonical_j,
    sample_wave_speeds,
    wave_features,
    wave_full_operator,
    wave_hamiltonian,
    wave_initial_state,
    wave_mass_form_operator,
    wave_mass_v,
    wave_operator_a1,
    wave_projected_stiffness,
    wave_rhs,
    wave_stiffness,
    wave_sweep,
)
from .basis import (
    ReducedBasis,
    estimate_time_derivative,
    exact_reduced_derivative,
    project_snapshots,
    psd_cotangent_lift,
    weighted_pod,
)
from .inference import (
    InferenceData,
    InferredTensor,
    UniquenessReport,
    assemble_lstsq_system,
    assemble_normal_system,
    infer_lstsq,
    infer_normal,
    infer_symmetric,
    objective,
    objective_gradient,
    uniqueness_check,
)
from .rom import (
    RomModel,
    Trajectory,
    assemble_block_hamiltonian,
    block_operator,
    crank_nicolson,
    implicit_midpoint,
    cayley_sweep,
    intrusive_project,
    project_matrix,
    reduced_hamiltonian,
    symmetric_part,
)
from .metrics import hamiltonian_drift, projection_error, relative_l2, weighted_norm_sq
from .storage import load_matrix, load_tensor, save_matrix, save_tensor
from .config import (
    ExperimentConfig,
    default_config,
    format_config,
    load_config_file,
    parse_config,
)
from .pipeline import (
    build_basis,
    evaluate,
    infer,
    make_rng,
    run_pipeline,
    simulate_fom,
    simulate_rom,
)

__all__ = [
    "__version__",
    # errors
    "NumericError",
    "NotPositiveDefiniteError",
    "SingularMatrixError",
    "NonUniqueSolutionError",
    "ResourceLimitError",
    "StructureError",
    "StorageFormatError",
    # tensor calculus
    "cvec",
    "rvec",
    "cmat",
    "rmat",
    "swap_axes",
    "mode3_product",
    "outer",
    "double_contract",
    "frobenius",
    # numerical kernels
    "cholesky_upper",
    "solve_sym",
    "lstsq_min_norm",
    "thin_svd",
    "TridiagonalFactor",
    "factor_tridiagonals",
    # benchmark models
    "HeatModel",
    "build_heat_model",
    "heat_operator",
    "heat_sweep",
    "heat_initial_state",
    "heat_features",
    "sample_conductivities",
    "WaveModel",
    "build_wave_model",
    "wave_mass_v",
    "wave_stiffness",
    "wave_projected_stiffness",
    "wave_operator_a1",
    "wave_full_operator",
    "wave_sweep",
    "wave_mass_form_operator",
    "wave_rhs",
    "wave_hamiltonian",
    "wave_initial_state",
    "wave_features",
    "sample_wave_speeds",
    "canonical_j",
    # bases and data
    "ReducedBasis",
    "weighted_pod",
    "psd_cotangent_lift",
    "project_snapshots",
    "estimate_time_derivative",
    "exact_reduced_derivative",
    # inference
    "InferenceData",
    "InferredTensor",
    "UniquenessReport",
    "uniqueness_check",
    "assemble_normal_system",
    "assemble_lstsq_system",
    "infer_normal",
    "infer_lstsq",
    "infer_symmetric",
    "objective",
    "objective_gradient",
    # reduced models and integrators
    "RomModel",
    "Trajectory",
    "project_matrix",
    "intrusive_project",
    "assemble_block_hamiltonian",
    "block_operator",
    "reduced_hamiltonian",
    "symmetric_part",
    "crank_nicolson",
    "implicit_midpoint",
    "cayley_sweep",
    # metrics
    "weighted_norm_sq",
    "relative_l2",
    "projection_error",
    "hamiltonian_drift",
    # storage
    "save_matrix",
    "load_matrix",
    "save_tensor",
    "load_tensor",
    # configuration and pipeline
    "ExperimentConfig",
    "default_config",
    "parse_config",
    "format_config",
    "load_config_file",
    "run_pipeline",
    "simulate_fom",
    "build_basis",
    "infer",
    "simulate_rom",
    "evaluate",
    "make_rng",
]
