"""The four-pass masking protocol: Alice masks, Bob masks, Alice unmasks,
Bob unmasks, with an eavesdropper tap recording the three wire messages.

A session on a finite instance runs on one residue core over the
instance's index tables: the masks are group indices, the four passes
are lookups in ``act_table`` and ``inv_rows``, and the commutator is a
residue product. ``run_session`` draws the masks as group elements and
``run_session_with`` runs them, building ``Scalar``, ``Point`` and
``Mat2`` values only for its returned outcome. ``WireWriter`` writes a
finite instance's wire dicts straight from residues and builds none:
``wire_sessions`` feeds it seeded sessions, the scripted demo its fixed
ones, and posterior reports their transcripts. The rational demo runs
the same four passes with ``act`` on ``Mat2`` masks. Everything is exact.
The round trip returns the original point exactly when the point is
fixed by the commutator A.B.A^-1.B^-1 of the two masks, which is why
only commuting mask families make the trick reliable.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Optional, Union

from .actions import (
    ActionInstance,
    InstanceIndex,
    Point,
    WireTranscript,
    _require_finite,
    _within_cap,
    act,
    instance_index,
)
from .errors import TriplePassError
from .fields import PrimeField, RATIONALS, Scalar, prime_field, scalar_from_json, scalar_to_json
from .groups import Residues, _mul
from .matrices import Mat2, format_matrix, parse_matrix, parse_matrix_values
from .records import Frozen

if TYPE_CHECKING:
    from .checks import ConditionReport

__all__ = [
    "SecretEncoding",
    "GroundTruth",
    "Transcript",
    "SessionOutcome",
    "encode_secret",
    "run_session",
    "run_session_with",
    "exhaustive_roundtrip",
    "check_roundtrip_commutator_fixed",
    "sample_rational_scalar",
    "sample_rational_matrix",
    "transcript_to_dict",
    "transcript_from_dict",
    "WireWriter",
    "wire_sessions",
]

ROUNDTRIP_CONDITION = "roundtrip-comm-fixed"


class SecretEncoding(Frozen):
    """A secret s, its random blinding coordinate t, and the carrier
    point v that encodes the pair."""

    __slots__ = _fields = ("s", "t", "v")

    def __init__(self, s: Scalar, t: Scalar, v: Point) -> None:
        self._assign(s, t, v)


class GroundTruth(Frozen):
    __slots__ = _fields = ("s", "t", "mask_a", "mask_b")

    def __init__(self, s: Scalar, t: Scalar, mask_a: Mat2, mask_b: Mat2) -> None:
        self._assign(s, t, mask_a, mask_b)


class Transcript(Frozen):
    """The eavesdropper's view of one session: the three wire messages.

    ``ground_truth`` is lab-side metadata; the adversary-view export
    never contains it.
    """

    __slots__ = _fields = ("instance", "v1", "v2", "v3", "session_id", "ground_truth")

    def __init__(self, instance: str, v1: Point, v2: Point, v3: Point, session_id: int = 0,
                 ground_truth: Optional[GroundTruth] = None) -> None:
        self._assign(instance, v1, v2, v3, session_id, ground_truth)


class SessionOutcome(Frozen):
    __slots__ = _fields = ("transcript", "v4", "success", "commutator_applied")

    def __init__(
        self, transcript: Transcript, v4: Point, success: bool, commutator_applied: Mat2
    ) -> None:
        self._assign(transcript, v4, success, commutator_applied)


def sample_rational_scalar(rng: random.Random, *, nonzero: bool = False) -> Scalar:
    """Bounded exact rational: numerator in [-9, 9], denominator in [1, 9]."""
    while True:
        num = rng.randint(-9, 9)
        if nonzero and num == 0:
            continue
        den = rng.randint(1, 9)
        return RATIONALS.scalar(num, den)


def sample_rational_matrix(rng: random.Random) -> Mat2:
    """Random invertible rational matrix; singular draws are rejected."""
    while True:
        m = Mat2(
            sample_rational_scalar(rng),
            sample_rational_scalar(rng),
            sample_rational_scalar(rng),
            sample_rational_scalar(rng),
        )
        if m.is_invertible:
            return m


def encode_secret(instance: ActionInstance, s: Scalar, rng: random.Random) -> SecretEncoding:
    """Blind a secret with a fresh random coordinate.

    On a finite instance t is one uniform draw from the t-domain for
    every secret, the distribution the leakage analysis counts. A plain
    instance whose domains both hold 0 can therefore send the origin,
    which every mask fixes; a t-domain without 0 keeps it off the wire.
    """
    _require_secret(instance, s)
    if not instance.is_finite:
        t = sample_rational_scalar(rng)
        return SecretEncoding(s, t, Point(s, t))

    t = instance.t_domain[rng.randrange(len(instance.t_domain))]
    return SecretEncoding(s, t, instance.secret_pair_point(s, t))


def _require_secret(instance: ActionInstance, s: Scalar) -> None:
    """Refuse a secret the instance cannot send."""
    if not instance.is_finite:
        if s.domain != RATIONALS:
            raise TriplePassError("rational instance requires a rational secret")
        if s.is_zero:
            raise ValueError("secret must be nonzero in a multiplicative-style instance")
        return
    if s not in instance.secret_domain:
        if instance.multiplicative and s.is_zero:
            raise ValueError("secret must be nonzero in a multiplicative-style instance")
        raise ValueError(f"secret {s} is outside the instance secret domain")


def _passes(idx: InstanceIndex, v: int, a_i: int, b_i: int) -> tuple[int, int, int, int, Residues]:
    """The residue session core: the four passes from point index v on
    the index tables, with the masks A and B given as group indices.
    Returns the messages (v1, v2, v3, v4) and the commutator's residues."""
    v1 = idx.act_table[a_i][v]
    v2 = idx.act_table[b_i][v1]
    v3 = idx.inv_rows[a_i][v2]
    v4 = idx.inv_rows[b_i][v3]

    p, res, inverse = idx.p, idx.group.residues, idx.inverse
    comm = _mul(p, _mul(p, _mul(p, res[a_i], res[b_i]), res[inverse[a_i]]), res[inverse[b_i]])
    # The four passes compose to exactly this element; kept as an always-on
    # consistency check because everything downstream relies on it.
    x, y = divmod(v, p)
    a, b, c, d = comm
    if ((x * a + y * c) % p) * p + (x * b + y * d) % p != v4:
        raise AssertionError("the four passes do not compose to the mask commutator")
    return v1, v2, v3, v4, comm


def run_session_with(
    instance: ActionInstance,
    encoding: SecretEncoding,
    mask_a: Mat2,
    mask_b: Mat2,
    session_id: int = 0,
) -> SessionOutcome:
    """Run the four passes with explicit choices; the deterministic core.

    On a finite instance both masks must be elements of its group, or
    ``TriplePassError`` is raised; the passes then run on the index
    tables (``_passes``). On the rational instance the passes are ``act``
    calls; a singular mask raises ``SingularMatrixError``.
    """
    if instance.is_finite:
        a_i, b_i = instance.group.index_of(mask_a), instance.group.index_of(mask_b)
        if a_i is None or b_i is None:
            raise TriplePassError(f"masks must be elements of the {instance.name} group")
        idx = instance_index(instance)
        *messages, comm = _passes(idx, idx.point_index(encoding.v), a_i, b_i)
        v1, v2, v3, v4 = (idx.points[u] for u in messages)
        commutator_applied = Mat2.from_values(idx.field, *comm)
    else:
        v1 = act(mask_a, encoding.v)
        v2 = act(mask_b, v1)
        v3 = act(mask_a.inverse(), v2)
        v4 = act(mask_b.inverse(), v3)
        commutator_applied = ((mask_a @ mask_b) @ mask_a.inverse()) @ mask_b.inverse()
        if v4 != act(commutator_applied, encoding.v):
            raise AssertionError("the four passes do not compose to the mask commutator")

    transcript = Transcript(
        instance=instance.name,
        v1=v1,
        v2=v2,
        v3=v3,
        session_id=session_id,
        ground_truth=GroundTruth(encoding.s, encoding.t, mask_a, mask_b),
    )
    return SessionOutcome(transcript, v4, v4 == encoding.v, commutator_applied)


def run_session(
    instance: ActionInstance,
    s: Scalar,
    rng: random.Random,
    session_id: int = 0,
) -> SessionOutcome:
    """Encode the secret, draw both masks, and call ``run_session_with``.

    Draw order is fixed (t, then A, then B) so a seeded generator
    reproduces sessions byte for byte. On a finite instance each mask is
    the group element of one ``rng.randrange(|G|)`` draw.
    """
    encoding = encode_secret(instance, s, rng)
    if instance.is_finite:
        elements = instance.group.elements
        mask_a = elements[rng.randrange(len(elements))]
        mask_b = elements[rng.randrange(len(elements))]
    else:
        mask_a = sample_rational_matrix(rng)
        mask_b = sample_rational_matrix(rng)
    return run_session_with(instance, encoding, mask_a, mask_b, session_id)


class WireWriter:
    """The wire format of one finite instance, written from residues.

    Every dict it returns shares one [x, y] list per point, so
    ``cli._wire_texts`` renders each once, each point literal is
    formatted once per writer, and the mask literals are the index's
    own. No ``Scalar``, ``Point`` or ``Mat2`` is built.
    """

    def __init__(self, instance: ActionInstance) -> None:
        self.index = idx = instance_index(instance)
        self.points = [[x, y] for x in range(idx.p) for y in range(idx.p)]
        self.labels = [f"[{x},{y}]@F{idx.p}" for x, y in self.points]

    @cached_property
    def masks(self) -> list[str]:
        """The matrix literal of each group element, by group index."""
        return list(self.index.mask_literals)

    def transcript(self, v1: int, v2: int, v3: int) -> dict:
        """The adversary view of the messages with point indices v1, v2, v3."""
        points = self.points
        return {"instance": self.index.name, "p": self.index.p,
                "v1": points[v1], "v2": points[v2], "v3": points[v3]}

    def session(self, s: int, t: int, a_i: int, b_i: int) -> tuple[dict, str, bool]:
        """Run the session of the secret pair (s, t), residues, under the
        masks with group indices a_i and b_i on the residue core. Returns
        its lab-view wire dict, the literal of v4 and whether v4 = v."""
        v = self.index.point_of_pair[(s, t)]
        v1, v2, v3, v4, _ = _passes(self.index, v, a_i, b_i)
        wire = self.transcript(v1, v2, v3)
        wire["truth"] = {"s": s, "t": t, "A": self.masks[a_i], "B": self.masks[b_i]}
        return wire, self.labels[v4], v4 == v


def wire_sessions(
    instance: ActionInstance, secret: Optional[Scalar], rng: random.Random, count: int
) -> Iterator[tuple[dict, Union[str, Point], bool]]:
    """Run ``count`` seeded sessions and yield each as (lab-view wire
    dict, v4, success). A given ``secret`` is checked first, whatever the
    count. Each session draws its secret, unless ``secret`` is given,
    then what ``run_session`` draws. A finite instance's sessions are
    written by one ``WireWriter``, with v4 as a point literal.
    """
    if secret is not None:
        _require_secret(instance, secret)
    if not instance.is_finite:
        for i in range(count):
            s = secret if secret is not None else sample_rational_scalar(rng, nonzero=True)
            outcome = run_session(instance, s, rng, session_id=i)
            yield transcript_to_dict(outcome.transcript, lab_view=True), outcome.v4, outcome.success
        return
    writer = WireWriter(instance)
    secrets, t_domain, n = instance.secret_domain, instance.t_domain, writer.index.n_group
    for _ in range(count):
        s = (secret if secret is not None else secrets[rng.randrange(len(secrets))]).value
        t = t_domain[rng.randrange(len(t_domain))].value
        a_i = rng.randrange(n)
        b_i = rng.randrange(n)
        yield writer.session(s, t, a_i, b_i)


def exhaustive_roundtrip(
    instance: ActionInstance,
    over: str = "secret-square",
    *,
    cap: Optional[int] = None,
) -> tuple[int, int, Optional[tuple[Point, Mat2, Mat2]]]:
    """Count round-trip failures over all (v, A, B) choices.

    ``over`` selects the start points: the embedded secret square or the
    whole carrier. Returns (failures, total, first failing triple).
    """
    idx = _require_finite(instance, "exhaustive round trip")
    if over == "secret-square":
        starts = list(idx.square.values())
    elif over == "carrier":
        starts = list(range(idx.n_points))
    else:
        raise ValueError(f"unknown start-point selection {over!r}")
    total = len(starts) * idx.n_group * idx.n_group
    _within_cap("roundtrip", total, cap)

    # The four passes of ``_passes`` as row lookups, A-major in group order.
    rows = list(zip(idx.act_table, idx.inv_rows))
    failures = 0
    first: Optional[tuple[Point, Mat2, Mat2]] = None
    for v in starts:
        for a_i, (a_row, a_inv) in enumerate(rows):
            v1 = a_row[v]
            for b_i, (b_row, b_inv) in enumerate(rows):
                if b_inv[a_inv[b_row[v1]]] != v:
                    failures += 1
                    if first is None:
                        first = (idx.points[v], idx.group.elements[a_i], idx.group.elements[b_i])
    return failures, total, first


def check_roundtrip_commutator_fixed(
    instance: ActionInstance, *, cap: Optional[int] = None
) -> ConditionReport:
    """Does [every session round-trips on the secret square] match
    [the secret square is commutator-fixed]?

    Both sides are evaluated exhaustively and the report records them;
    the check passes when they agree.
    """
    from .actions import is_commutator_fixed_set
    from .checks import ConditionReport, secret_square_points

    failures, total, first = exhaustive_roundtrip(instance, "secret-square", cap=cap)
    sessions_ok = failures == 0
    fixed = is_commutator_fixed_set(secret_square_points(instance), instance.group, instance.name)
    detail = {
        "all_sessions_succeed": sessions_ok,
        "roundtrip_failures": failures,
        "roundtrip_total": total,
        "secret_square_commutator_fixed": fixed.passed,
    }
    if first is not None:
        detail["first_roundtrip_failure"] = {
            "v": str(first[0]),
            "A": format_matrix(first[1]),
            "B": format_matrix(first[2]),
        }
    return ConditionReport(
        instance=instance.name,
        condition=ROUNDTRIP_CONDITION,
        passed=sessions_ok == fixed.passed,
        counterexample=None if sessions_ok == fixed.passed else (fixed.counterexample or detail["first_roundtrip_failure"]),
        work=total + fixed.work,
        detail=detail,
    )


def transcript_to_dict(transcript: Transcript, *, lab_view: bool = False) -> dict:
    """Wire form of a transcript; field order is part of the format.

    The adversary view carries only the instance name, the scalar domain,
    and the three messages. The lab view appends the ground truth.
    """
    domain = transcript.v1.domain
    d = {"instance": transcript.instance, "p": domain.p if isinstance(domain, PrimeField) else "Q"}
    for key, pt in (("v1", transcript.v1), ("v2", transcript.v2), ("v3", transcript.v3)):
        d[key] = [scalar_to_json(pt.x), scalar_to_json(pt.y)]
    if lab_view:
        if transcript.ground_truth is None:
            raise ValueError("transcript has no ground truth to export")
        truth = transcript.ground_truth
        d["truth"] = {
            "s": scalar_to_json(truth.s),
            "t": scalar_to_json(truth.t),
            "A": format_matrix(truth.mask_a),
            "B": format_matrix(truth.mask_b),
        }
    return d


def _wire_residue(value, p: int) -> int:
    # Wire residues are canonical; anything outside [0, p) is corrupt.
    if type(value) is int and 0 <= value < p:
        return value
    if isinstance(value, int) and not 0 <= value < p:
        raise ValueError(f"residue {value!r} is outside [0, {p})")
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer or a string scalar, got {value!r}")
    if not isinstance(value, int):
        raise ValueError(f"expected integer residue, got {value!r}")
    return value


def transcript_from_dict(
    d: dict, session_id: int = 0, *, index: Optional[InstanceIndex] = None
) -> Union[Transcript, WireTranscript]:
    """Parse the wire form, rejecting malformed input with ValueError.

    With ``index``, the transcript is read straight into that instance's
    tables as a ``WireTranscript``, with no scalar, point or matrix built
    on the way: it is validated the same way, with the same messages,
    and must also be over the instance's modulus and name the instance
    (``TriplePassError`` otherwise). Both forms walk the same fields in
    the same order; they differ only in how a scalar, a point and a mask
    are made.
    """
    if not isinstance(d, dict) or not {"instance", "p", "v1", "v2", "v3"} <= d.keys():
        raise ValueError("a transcript must be an object with instance, p, v1, v2 and v3")
    p = d["p"]
    if p != "Q" and type(p) is not int:
        raise ValueError(f"transcript p must be a prime or \"Q\", got {p!r}")
    if index is not None:
        if p != index.p:
            if p != "Q":
                prime_field(p)  # a modulus that is not prime is refused as such
            raise TriplePassError(f"transcript p {p!r} is not the instance modulus {index.p}")

        def scalar(value) -> int:
            return _wire_residue(value, p)

        def point(x: int, y: int) -> int:
            return x * p + y

        def mask(text) -> Optional[int]:
            # A group element's own literal is known; any other is parsed where it is read.
            if isinstance(text, str) and text in index.mask_literals:
                return index.mask_literals[text]
            domain, values = parse_matrix_values(text)
            return index.group._residue_index.get(values) if domain == index.field else None
    else:
        point, mask = Point, parse_matrix
        if p == "Q":
            def scalar(value) -> Scalar:
                return scalar_from_json(RATIONALS, value)
        else:
            field = prime_field(p)

            def scalar(value) -> Scalar:
                return Scalar(field, _wire_residue(value, p))

    truth = None
    if "truth" in d:
        t = d["truth"]
        if not isinstance(t, dict) or not {"s", "t", "A", "B"} <= t.keys():
            raise ValueError("a transcript truth must be an object with s, t, A and B")
        truth = (scalar(t["s"]), scalar(t["t"]), mask(t["A"]), mask(t["B"]))

    def message(key: str):
        values = d[key]
        if not isinstance(values, list) or len(values) != 2:
            raise ValueError(f"a point must be a two-element list, got {values!r}")
        return point(scalar(values[0]), scalar(values[1]))

    v1, v2, v3 = message("v1"), message("v2"), message("v3")
    if index is None:
        ground_truth = None if truth is None else GroundTruth(*truth)
        return Transcript(d["instance"], v1, v2, v3, session_id, ground_truth)
    if d["instance"] != index.name:
        raise TriplePassError(f"transcript is for {d['instance']!r}, not {index.name!r}")
    return WireTranscript(v1, v2, v3, truth, session_id, index)
