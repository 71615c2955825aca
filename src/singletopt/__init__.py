"""Optimal singlet fraction and entanglement metrics for qubit channels.

For any qubit channel this package computes the best singlet fraction
attainable with a single channel use and trace-preserving local operations,
the pure input state achieving it, the associated teleportation fidelity
and negativity quantities, and the strictly smaller value reachable by
post-processing a maximally entangled transmission.  Every closed form is
checked against an independent route: a certificate, an identity, or a
brute-force search.  The package ships one search, the singlet-fraction
oracle; the filter searches for F* and for the optimal input are references
in the test suite.
"""

from .channel import (
    KrausChannel,
    ValidationReport,
    amplitude_damping,
    apply,
    apply_to_half,
    bit_flip,
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
    channel_fstar,
    fstar,
    fstar_bracket,
    fstar_certificate,
    postprocessing_gap,
)
from .oneshot import (
    IDENTITIES,
    ChannelReport,
    Classification,
    Identity,
    NegativitySearch,
    OptimalFraction,
    OptimalInput,
    channel_negativity,
    classify,
    negativity_relation_residual,
    optimal_input_state,
    optimal_singlet_fraction,
    preprocessed_fidelity,
    report,
    residuals,
)

__version__ = "0.1.0"
