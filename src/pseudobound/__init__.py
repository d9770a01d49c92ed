"""Pseudo bound entanglement toolkit for a three-qubit NMR register.

Construction and PPT certification of a bound-entangled state family,
witness evaluation and optimization, simulation of the NMR preparation
pipeline (temporal averaging plus a fixed gate sequence), least-squares
state tomography with error propagation, and state-comparison metrics.
"""

from .core import (
    CUT_LABELS,
    DensityOperator,
    PPTReport,
    eigvalsh,
    is_ppt,
    matrix_from_json,
    matrix_sqrt_psd,
    matrix_to_json,
    maximally_mixed,
    numeric_rank,
    partial_transpose,
    tensor,
    trace_distance,
    uhlmann_fidelity,
)
from .states import (
    StateParams,
    bound_entangled_state,
    ghz,
    pseudo_state,
)
from .witnesses import (
    ProductStateMinimum,
    RobustnessReport,
    WitnessParams,
    expectation,
    min_over_product_states,
    optimize_parameters,
    pseudo_witness,
    white_noise_threshold,
    witness,
    witness_bar,
)
from .nmr import (
    DiagonalStateSpec,
    WeightSolution,
    depolarize,
    factor_preparation,
    initial_states,
    matched_fraction,
    mix_states,
    preparation_unitary,
    prepare_pseudo_state,
    solve_temporal_weights,
    target_diagonal,
)
from .tomography import (
    ReconstructionResult,
    TomographyDataset,
    design_matrix,
    generate_dataset,
    measure,
    project_to_physical,
    propagate_witness_error,
    readout_unitary,
    reconstruct,
)

__version__ = "0.1.0"
