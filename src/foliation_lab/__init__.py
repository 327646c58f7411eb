"""Desk-scale verification lab for the convolution algebra, twisted jet
rings and operator-index data attached to flows on the line that fix the
origin to finite order."""

from .coeff_ring import (
    GaussPolyFn,
    GridFn,
    GridMismatchError,
    RepresentationMismatchError,
    random_gauss_poly,
)
from .flow import (
    COMPLETE_RESCALED,
    MONOMIAL,
    FlowDomainError,
    FlowModel,
    FlowTaylorTable,
    beta_cocycle,
    check_cocycle_identity,
    check_composition_identity,
    cocycle_delta,
    flow_derivative,
    flow_eval,
    taylor_flow_power,
)
from .groupoid_conv import (
    GridSpec,
    GroupoidKernel,
    adjoint,
    convolve,
    l1_as_norm,
    l1_groupoid_norm,
    module_mult_left,
    module_mult_right,
    scale_by_delta,
    taylor_map,
)
from .jet_algebra import Jet, commutativity_report, commutator, jet_mul, x_mult_left, x_mult_right
from .wiener_hopf import (
    Diffeomorphism,
    FiniteSection,
    FlowBiIndex,
    GaussianSpec,
    SymbolLoop,
    boundary_index,
    cayley_basis_image,
    cayley_gram_matrix,
    finite_section_kernel_counts,
    flow_bi_index,
    fourier_transform_values,
    generator_hat_closed_form,
    generator_kernel,
    generator_symbol_loop,
    index_report,
    nonpreservation_demo,
    parity_invariant,
    toeplitz_finite_section,
    winding_number,
)

__version__ = "0.1.0"
