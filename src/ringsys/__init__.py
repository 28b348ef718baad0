"""Exact classification of linear control systems over commutative rings.

The package decides feedback, dynamic, and stable equivalence of
systems over the rationals, prime fields, and the integers through
their invariant module chains; computes Brunovsky canonical data and
exact feedback certificates over fields; and verifies feedback
isomorphism certificates by pure ring arithmetic over any supported
ring, polynomial quotient rings included.
"""

from .equivalence import (
    IsoCertificate,
    VerifyResult,
    direct_sum_certificate,
    dynamic_equivalent,
    enlarge_certificate,
    feedback_equivalent,
    feedback_equivalent_pairs_bruteforce,
    identity_certificate,
    k0_class,
    orbit_crosscheck,
    stabilize_certificate,
    stable_equivalent,
    verify_certificate,
)
from .errors import (
    DescriptorMismatch,
    ElementSyntaxError,
    NotLocallyBrunovsky,
    NotReachable,
    OrbitSizeError,
    RingsysError,
    ShapeError,
    SystemFileError,
    UnsupportedRing,
)
from .invariants import (
    BrunovskyData,
    CanonicalCertificate,
    InvariantReport,
    ZSignature,
    brunovsky,
    canonical_certificate,
    canonical_pair,
    compute_chain,
    conjugate_partition,
    signature_from_report,
    z_signature,
)
from .linalg import (
    AbelianGroupStructure,
    RingMatrix,
    SmithDecomposition,
    cokernel_structure,
    column_canonical,
    det,
    invert,
    kernel_basis,
    membership,
    rref,
    snf,
    solve_right,
)
from .rings import (
    Integers,
    Poly,
    PolyQuotient,
    PrimeField,
    Rationals,
    RingDescriptor,
    RingElement,
    format_polynomial,
    parse_polynomial,
    try_invert,
)
from .systems import (
    LinearSystem,
    SystemMorphism,
    biproduct_witnesses,
    direct_sum,
    dynamic_enlarge,
    from_pair,
    gamma,
    identity_morphism,
    is_morphism,
    swap_matrix,
    zero_system,
)
from .sysfile import SystemFile, emit, parse, parse_text, write

__version__ = "0.1.0"
