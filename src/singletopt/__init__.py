"""Optimal singlet fraction and entanglement metrics for qubit channels.

For any qubit channel this package computes the best singlet fraction
attainable with a single channel use and trace-preserving local operations,
the pure input state achieving it, the associated teleportation fidelity
and negativity quantities, and the strictly smaller value reachable by
post-processing a maximally entangled transmission.  Every closed form is
paired with an independent brute-force oracle.
"""

from .channel import (
    BlochRepresentation,
    CanonicalForm,
    KrausChannel,
    ValidationReport,
    amplitude_damping,
    apply,
    apply_to_half,
    bit_flip,
    bloch_representation,
    canonical_form,
    channel_from_dict,
    channel_to_dict,
    choi_matrix,
    depolarizing,
    dual,
    identity,
    is_unital,
    kraus_from_choi,
    named_channel,
    phase_damping,
    random_channel,
    unitary,
    validate,
)
from .choi import ChoiState, choi, dual_choi, eigenvector_correspondence_check
from .entmetrics import (
    SchmidtData,
    negativity,
    pt_spectrum_identity_residual,
    schmidt,
    singlet_fraction,
    singlet_fraction_oracle,
    teleportation_fidelity,
)
from .linalg import (
    EigenDecomposition,
    hermitian_eig,
    partial_transpose,
    swap_conjugate,
    tensor_product,
    to_magic_basis,
)
from .locc import (
    FilterProtocol,
    FstarCertificate,
    fstar,
    fstar_bracket,
    fstar_certificate,
    fstar_filter_oracle,
    postprocessing_gap,
)
from .oneshot import (
    ChannelReport,
    Classification,
    NegativitySearch,
    OptimalFraction,
    OptimalInput,
    channel_negativity,
    classify,
    negativity_relation_residual,
    optimal_input_state,
    optimal_singlet_fraction,
    preprocessed_fidelity,
    preprocessed_fidelity_oracle,
    report,
)

__version__ = "0.1.0"
