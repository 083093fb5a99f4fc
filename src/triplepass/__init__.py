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

# Public names by defining module. Each is looked up in its module when
# read (PEP 562), so importing the package loads no submodule and a
# command loads only the modules it uses.
_EXPORTS = {
    "errors": ("AttackInapplicableError", "DomainMismatchError", "InconsistentTranscriptError",
               "SingularMatrixError", "TriplePassError", "WorkCapExceeded"),
    "fields": ("PrimeField", "RATIONALS", "Rationals", "Scalar", "format_scalar", "parse_scalar"),
    "matrices": ("Mat2", "format_matrix", "parse_matrix"),
    "groups": ("DEFAULT_PRIME_CAP", "FiniteGroup", "commutator", "commutator_subgroup",
               "enumerate_gl2", "gl2_order", "subgroup_closure"),
    "actions": ("ActionInstance", "DEFAULT_WORK_CAP", "Point", "act", "build_instance",
                "format_point", "instance_from_descriptor", "instance_to_descriptor", "parse_point",
                "rational_demo_instance", "trivial_instance"),
    "checks": ("ConditionReport", "check_masking_coverage", "check_transcript_equivalence",
               "is_commutator_fixed_point", "is_commutator_fixed_set", "recheck_counterexample"),
    "protocol": ("GroundTruth", "SecretEncoding", "SessionOutcome", "Transcript",
                 "check_roundtrip_commutator_fixed", "encode_secret", "exhaustive_roundtrip",
                 "run_session", "run_session_with", "transcript_from_dict", "transcript_to_dict"),
    "analysis": ("LeakageReport", "exact_mutual_information", "quotient_attack", "uniform_prior"),
    "posterior": ("PosteriorReport", "WitnessSet", "enumerate_consistent", "find_witness",
                  "posterior_from_transcript"),
    "census": ("SearchReport", "search_instances"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
