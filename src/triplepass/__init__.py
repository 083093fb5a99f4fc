"""triplepass: a lab for the three-pass mask/unmask protocol over 2x2
matrix group actions, with exact leakage analysis.

The protocol sends v.A, then v.A.B, then v.A.B.A^-1, hoping B^-1 undoes
the rest; that works exactly on points fixed by the mask commutators.
This package runs the protocol over pluggable finite instances, checks
the action conditions exhaustively, and measures what a passive
eavesdropper learns, with exact rational probabilities throughout.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    AttackInapplicableError,
    DomainMismatchError,
    InconsistentTranscriptError,
    SingularMatrixError,
    TriplePassError,
    WorkCapExceeded,
)
from .fields import PrimeField, RATIONALS, Rationals, Scalar, format_scalar, parse_scalar
from .matrices import Mat2, format_matrix, parse_matrix
from .groups import (
    DEFAULT_PRIME_CAP,
    FiniteGroup,
    commutator,
    commutator_subgroup,
    enumerate_gl2,
    gl2_order,
    subgroup_closure,
)
from .actions import (
    ActionInstance,
    ConditionReport,
    DEFAULT_WORK_CAP,
    Point,
    act,
    build_instance,
    check_masking_coverage,
    check_transcript_equivalence,
    format_point,
    instance_from_descriptor,
    instance_to_descriptor,
    is_commutator_fixed_point,
    is_commutator_fixed_set,
    parse_point,
    rational_demo_instance,
    recheck_counterexample,
    trivial_instance,
)
from .protocol import (
    GroundTruth,
    SecretEncoding,
    SessionOutcome,
    Transcript,
    check_roundtrip_commutator_fixed,
    encode_secret,
    exhaustive_roundtrip,
    run_session,
    run_session_with,
    transcript_from_dict,
    transcript_to_dict,
)
from .analysis import (
    LeakageReport,
    PosteriorReport,
    SearchReport,
    WitnessSet,
    enumerate_consistent,
    exact_mutual_information,
    find_witness,
    posterior_from_transcript,
    quotient_attack,
    search_instances,
    uniform_prior,
)
