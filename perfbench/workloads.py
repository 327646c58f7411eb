"""The benchmark's workloads and the fixed check lists their reports must carry.

A workload is a list of suites run back to back in one fresh interpreter,
on the built-in config plus a few overrides; the workload seed replaces
``config["seed"]`` and is the only input that varies between runs.
"""

from collections import namedtuple

# The seed every report uses by default, and the seed kept out of tuning
# for later performance claims (see README.md).
DEFAULT_SEED = 12345
HELD_OUT_SEED = 90210

Workload = namedtuple("Workload", "suites overrides")

WORKLOADS = {
    "groupoid-default": Workload(("verify-groupoid",), ()),
    "groupoid-refined": Workload(
        ("verify-groupoid",),
        ("grid.x_step=0.002", "grid.t_step=0.01", "k_values=[2]"),
    ),
    "jets-exact": Workload(("verify-jets", "verify-coeff"), ()),
    "flow-index": Workload(("verify-flow", "index", "classify", "demo-nonpreservation"), ()),
}

# Check names each suite's report must list, in order, at the workload
# configs above.  A report that differs is a failure of the program, not
# of the benchmark.
EXPECTED_CHECKS = {
    "verify-groupoid": (
        "convolution_associativity",
        "adjoint_antimultiplicativity",
        "adjoint_involution",
        "module_action_associativity",
        "coordinate_commutation_via_cocycle",
        "product_kernel_l1_norm",
        "l1_norm_submultiplicative",
        "taylor_map_is_multiplicative",
    ),
    "verify-jets": tuple(
        f"commutator_norm_k{k}_order{q}" for k in (1, 2, 3) for q in range(5)
    )
    + (
        "defining_relations_of_the_twist",
        "jet_product_associativity",
        "truncation_respects_product",
        "iterated_exponential_twist",
    ),
    "verify-coeff": (
        "gaussian_self_convolution_closed_form",
        "convolution_commutativity",
        "convolution_associativity",
        "sampled_ring_matches_exact_ring",
        "time_multiplication_is_a_derivation",
        "exponential_multiplication_is_an_automorphism",
    ),
    "verify-flow": (
        "flow_group_law",
        "taylor_table_diagonal_band_row0",
        "flow_power_cocycle_identity",
        "series_composition_identity",
        "delta_cocycle_multiplicativity",
        "beta_cocycle_multiplicativity",
        "monomial_vs_rescaled_contact_order",
    ),
    "index": (
        "generator_transform_quadrature",
        "generator_winding_and_boundary_index",
        "circle_power_windings",
        "winding_additivity",
        "finite_section_truncation_artifact",
    ),
    "classify": (
        "parity_classification",
        "bi_index_components_equal_iff_odd",
    ),
    "demo-nonpreservation": (
        "steep_warp_breaks_the_algebra",
        "translation_invariant_term_is_constant",
        "identity_warp_reference_scenario",
    ),
}
