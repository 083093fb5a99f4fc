"""Pluggable group-action instances and their integer index.

An instance bundles a carrier plane, a finite matrix group acting on it
by right multiplication, an explicit secret domain, and optionally an
injection of secret pairs into the carrier. ``InstanceIndex`` holds its
integer tables, the engine every exhaustive scan runs on. The condition
checkers live in ``checks``.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import SingularMatrixError, TriplePassError, WorkCapExceeded
from .fields import (
    Domain,
    PrimeField,
    RATIONALS,
    Scalar,
    domain_from_label,
    format_scalar,
    parse_scalar,
)
from .groups import FiniteGroup, enumerate_gl2, gl2_order, subgroup_closure
from .matrices import Mat2, format_matrix, format_residues, parse_matrix
from .records import Frozen, setfield

__all__ = [
    "DEFAULT_WORK_CAP",
    "RATIONAL_GL2",
    "INSTANCE_KINDS",
    "Point",
    "act",
    "format_point",
    "parse_point",
    "ActionInstance",
    "build_instance",
    "trivial_instance",
    "InstanceIndex",
    "instance_index",
    "WireTranscript",
    "instance_to_descriptor",
    "instance_from_descriptor",
]


def __getattr__(name: str):
    # ``perfbench/tracer.py`` reads these checkers here. Reading one loads
    # ``checks`` and binds it in this module, where callers look it up.
    if name not in ("is_commutator_fixed_set", "check_masking_coverage",
                    "check_transcript_equivalence"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import checks

    value = globals()[name] = getattr(checks, name)
    return value


# Exhaustive jobs above this many (estimated) inner evaluations are
# refused with the estimate instead of running without bound.
DEFAULT_WORK_CAP = 1_000_000_000

# Tag standing in for the infinite rational general-linear group in the
# demonstration-only rational mode.
RATIONAL_GL2 = "rational-gl2"

INSTANCE_KINDS = (
    "general-linear",
    "diagonal",
    "rotation",
    "scalar",
    "borel-embedded",
    "custom",
)


class Point(Frozen):
    """A carrier point: a pair of scalars from one domain."""

    __slots__ = _fields = ("x", "y")

    def __init__(self, x: Scalar, y: Scalar) -> None:
        if x.domain != y.domain:
            raise TriplePassError("point coordinates must share one scalar domain")
        setfield(self, "x", x)
        setfield(self, "y", y)

    @property
    def domain(self) -> Domain:
        return self.x.domain

    @property
    def is_zero(self) -> bool:
        return self.x.is_zero and self.y.is_zero

    def __str__(self) -> str:
        return format_point(self)


def act(g: Mat2, x: Point) -> Point:
    """Apply a group element to a point: row-vector times matrix."""
    if g.domain != x.domain:
        raise TriplePassError("matrix and point domains differ")
    if not g.is_invertible:
        raise SingularMatrixError("group elements must be invertible")
    return Point(x.x * g.a + x.y * g.c, x.x * g.b + x.y * g.d)


def format_point(pt: Point) -> str:
    """Canonical whitespace-free literal, e.g. ``[1,2]@F5``."""
    return f"[{format_scalar(pt.x)},{format_scalar(pt.y)}]@{pt.domain.label}"


def parse_point(text: str) -> Point:
    text = text.replace(" ", "")
    if not (text.startswith("[") and "@" in text):
        raise ValueError(f"invalid point literal {text!r}")
    body, label = text.rsplit("@", 1)
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"invalid point literal {text!r}")
    parts = body[1:-1].split(",")
    if len(parts) != 2:
        raise ValueError(f"invalid point literal {text!r}")
    domain = domain_from_label(label)
    return Point(parse_scalar(parts[0], domain), parse_scalar(parts[1], domain))


class ActionInstance(Frozen):
    """A named (carrier, secret domain, group, action) universe.

    ``group`` is either an explicit FiniteGroup or the RATIONAL_GL2 tag
    for the demonstration-only rational mode, where the secret and
    blinding domains are unbounded and every exhaustive checker refuses
    to run. ``embedding`` injects secret pairs into the carrier; when
    absent a pair (s, t) is the carrier point (s, t) itself. Once valid, a
    finite instance builds its ``InstanceIndex``, checking the action.
    """

    _fields = ("name", "field", "group", "secret_domain", "t_domain", "embedding",
               "multiplicative", "kind")
    __slots__ = _fields + ("_index",)
    __hash__ = None  # the embedding is a dict: instances compare, never hash

    def __init__(self, name: str, field: Domain, group: Union[FiniteGroup, str],
                 secret_domain: Optional[tuple[Scalar, ...]],
                 t_domain: Optional[tuple[Scalar, ...]],
                 embedding: Optional[dict[tuple[Scalar, Scalar], Point]] = None,
                 multiplicative: bool = True, kind: str = "custom") -> None:
        self._assign(name, field, group, secret_domain, t_domain, embedding, multiplicative, kind)
        if self.is_finite:
            embedded = [x for (s, t), pt in (embedding or {}).items() for x in (s, t, pt.x, pt.y)]
            for what, parts in (("the group", (group,)), ("every secret", secret_domain or ()),
                                ("every blinding value", t_domain or ()),
                                ("every embedding scalar", embedded)):
                if any(x.domain != field for x in parts):
                    raise ValueError(f"{what} must be over {field.label}")
            if not secret_domain:
                raise ValueError("secret domain must be nonempty")
            if multiplicative and any(s.is_zero for s in secret_domain):
                raise ValueError("0 cannot be a secret in a multiplicative-style instance")
            if not t_domain:
                raise ValueError("blinding domain must be nonempty")
            if embedding is not None:
                pairs = {(s.value, t.value) for s in secret_domain for t in secret_domain}
                keys = {(s.value, t.value) for s, t in embedding}
                if keys != pairs:
                    raise ValueError("embedding must be defined on exactly the secret pairs")
                if {t.value for t in t_domain} != {s.value for s in secret_domain}:
                    raise ValueError("embedded instances draw both coordinates from the secret domain")
                images = list(embedding.values())
                if len({(p.x.value, p.y.value) for p in images}) != len(images):
                    raise ValueError("embedding is not injective")
            setfield(self, "_index", InstanceIndex(self))
        elif group != RATIONAL_GL2:
            raise ValueError(f"unknown symbolic group tag {group!r}")

    @property
    def is_finite(self) -> bool:
        return isinstance(self.group, FiniteGroup)

    def secret_pair_point(self, s: Scalar, t: Scalar) -> Point:
        """Carrier point encoding the pair (s, t)."""
        if self.embedding is not None:
            try:
                return self.embedding[(s, t)]
            except KeyError:
                raise ValueError(f"pair ({s}, {t}) is outside the embedded secret square") from None
        return Point(s, t)


def _require_finite(instance: ActionInstance, what: str) -> InstanceIndex:
    """The index of a finite instance, the way into the integer core;
    the rational instance is refused as unable to run ``what``."""
    if not instance.is_finite:
        raise TriplePassError(f"{what} requires finite group")
    return instance._index


def _within_cap(job: str, estimate: int, cap: Optional[int]) -> int:
    """The cap of an exhaustive job, ``DEFAULT_WORK_CAP`` when None;
    a job whose estimated work exceeds it is refused first."""
    cap = DEFAULT_WORK_CAP if cap is None else cap
    if estimate > cap:
        raise WorkCapExceeded(job, estimate, cap)
    return cap


class InstanceIndex:
    """Integer tables for one finite instance; the hot-loop backend.

    Carrier points are indexed x*p + y over residues; ``act_table[g][i]``
    is the index of point i moved by group element g. Building the index
    also verifies that every group element permutes the carrier. The
    index keeps the instance's field and name, never the instance, so a
    dropped instance is freed with its tables by reference counting.
    """

    def __init__(self, instance: ActionInstance):
        if not instance.is_finite:
            raise TriplePassError("indexing requires finite group")
        group = instance.group
        fp = instance.field
        p = fp.p
        self.field = fp
        self.name = instance.name
        self.p = p
        self.n_points = p * p
        self.group = group
        self.n_group = len(group)

        self.act_table = list(group._point_rows)
        self.inverse = list(group.inverse_indices)
        # inv_rows[g] moves a point by the inverse of group element g.
        self.inv_rows = [self.act_table[j] for j in self.inverse]

        self.s_res = sorted(s.value for s in instance.secret_domain)
        self.t_res = sorted(t.value for t in instance.t_domain)

        def point_index(s: int, t: int) -> int:
            if instance.embedding is None:
                return s * p + t
            pt = instance.secret_pair_point(fp.scalar(s), fp.scalar(t))
            return pt.x.value * p + pt.y.value

        # (s, t) residue pair -> carrier point index, over S x T.
        self.point_of_pair = {(s, t): point_index(s, t) for s in self.s_res for t in self.t_res}
        if len(set(self.point_of_pair.values())) != len(self.point_of_pair):
            raise TriplePassError("secret pairs do not map to distinct carrier points")
        self.pair_of_point = {v: k for k, v in self.point_of_pair.items()}
        # The secret square S x S in lexicographic pair order: the start
        # points of the condition checkers, whose candidate blinding
        # values range over the secret domain itself.
        self.square = {(s, t): point_index(s, t) for s in self.s_res for t in self.s_res}
        self.secret_pair_of_point = {v: k for k, v in self.square.items()}
        # Point -> its fibre table, filled lazily by ``fibres``; the
        # tables share one int object per group index.
        self._fibres: dict[int, dict[int, tuple[int, ...]]] = {}
        self._group_indices = list(range(self.n_group))

    def fibres(self, v: int) -> dict[int, tuple[int, ...]]:
        """Orbit-stabilizer table of point v, built on first use: each
        w in the orbit of v maps to the group indices g with v.g == w,
        in group order. The keys are the orbit; ``fibres(v)[v]`` is the
        stabilizer. Raises TriplePassError unless the fibres all have
        the stabilizer's size, so |orbit| * |Stab| == |G|."""
        fib = self._fibres.get(v)
        if fib is None:
            grouped: dict[int, list[int]] = {}
            for g, row in zip(self._group_indices, self.act_table):
                grouped.setdefault(row[v], []).append(g)
            stab = len(grouped.get(v, ()))
            if any(len(gs) != stab for gs in grouped.values()):
                raise TriplePassError(
                    f"point {v} breaks orbit-stabilizer: {len(grouped)} orbit points"
                    f" times a stabilizer of {stab} is not |G| = {self.n_group}"
                )
            fib = self._fibres[v] = {w: tuple(gs) for w, gs in grouped.items()}
        return fib

    @cached_property
    def mask_literals(self) -> dict[str, int]:
        """The group index of each element's own matrix literal, in group
        order; never written after it is built."""
        return {format_residues(self.p, r): i for i, r in enumerate(self.group.residues)}

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """Every carrier point, by index; built on first use."""
        scalars = self.field.elements()
        return tuple(Point(x, y) for x in scalars for y in scalars)

    def point_index(self, pt: Point) -> int:
        if pt.domain != self.field:
            raise TriplePassError("point domain does not match the instance carrier")
        return pt.x.value * self.p + pt.y.value


def instance_index(instance: ActionInstance) -> InstanceIndex:
    """The InstanceIndex a finite instance was built with."""
    return _require_finite(instance, "indexing")


class WireTranscript:
    """A wire transcript read into the index tables ``index``: the three
    messages as point indices and, from a lab view, the ground truth as
    (s, t, A, B), residues and group indices (None outside the group)."""

    __slots__ = ("v1", "v2", "v3", "truth", "session_id", "index")

    def __init__(self, v1: int, v2: int, v3: int, truth: Optional[tuple], session_id: int = 0,
                 index: Optional[InstanceIndex] = None):
        self.v1, self.v2, self.v3, self.truth = v1, v2, v3, truth
        self.session_id, self.index = session_id, index


def _sorted_scalars(fp: PrimeField, values) -> tuple[Scalar, ...]:
    """Deduplicated, sorted scalars of ``fp`` from canonical residues or
    scalars of ``fp``; anything else would alias a value."""
    res = set()
    for v in values:
        if isinstance(v, Scalar):
            if v.domain != fp:
                raise ValueError(f"scalar {v} is not over {fp.label}")
            v = v.value
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < fp.p:
            raise ValueError(f"domain value {v!r} is not a residue in [0, {fp.p})")
        res.add(v)
    return tuple(fp.scalar(r) for r in sorted(res))


def _named_group_order(kind: str, p: int) -> int:
    """|G| of a named kind in closed form, known before enumerating it."""
    if kind == "general-linear":
        return gl2_order(p)
    if kind == "diagonal":
        return (p - 1) ** 2
    if kind == "rotation":
        # c^2 + s^2 = 1 has p - 1 solutions if p = 1 mod 4, else p + 1 (2 at p = 2).
        return 2 if p == 2 else p - 1 if p % 4 == 1 else p + 1
    if kind == "scalar":
        return p - 1
    return p * (p - 1) ** 2  # borel-embedded


def build_instance(
    kind: str,
    p: int,
    *,
    generators: Optional[Sequence[Union[Mat2, str]]] = None,
    secret_domain: Optional[Sequence[Union[Scalar, int]]] = None,
    t_domain: Optional[Sequence[Union[Scalar, int]]] = None,
    multiplicative: Optional[bool] = None,
    name: Optional[str] = None,
    embedding: Optional[Sequence] = None,
    work_cap: Optional[int] = None,
) -> ActionInstance:
    """Construct and validate a named finite instance.

    Kinds: ``general-linear`` (all invertible matrices), ``diagonal``,
    ``rotation`` (c^2 + s^2 = 1, always commutative), ``scalar``
    (nonzero multiples of the identity), ``borel-embedded`` (invertible
    upper-triangulars with the secret square injected into the line
    x = 0 that their commutators fix), and ``custom`` (explicit
    generators, closed into a group, with an optional ``embedding`` of
    residue pairs ``[[s, t], [x, y]]``). Named kinds refuse both.

    ``general-linear`` is refused above p = 7 (``enumerate_gl2``); an
    instance whose action table of |G| * p^2 entries exceeds
    ``work_cap`` is refused with ``WorkCapExceeded`` before anything is
    enumerated, or, for custom groups, as soon as their closure grows
    too large.
    """
    if kind not in INSTANCE_KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    for given, what in ((generators, "generators"), (embedding, "embedding")):
        if given is not None and kind != "custom":
            raise ValueError(f"{kind} instances fix their own {what}")
    fp = PrimeField(p)
    # The action table holds |G| * p^2 entries; a custom group has at least one.
    estimate = (1 if kind == "custom" else _named_group_order(kind, p)) * p * p
    work_cap = _within_cap("instance-construction", estimate, work_cap)

    if kind == "general-linear":
        group = enumerate_gl2(p)
    elif kind == "diagonal":
        group = FiniteGroup.from_residues(
            fp, ((a, 0, 0, d) for a in range(1, p) for d in range(1, p))
        )
    elif kind == "rotation":
        group = FiniteGroup.from_residues(
            fp,
            (
                (c, s, (-s) % p, c)
                for c in range(p)
                for s in range(p)
                if (c * c + s * s) % p == 1
            ),
        )
    elif kind == "scalar":
        group = FiniteGroup.from_residues(fp, ((c, 0, 0, c) for c in range(1, p)))
    elif kind == "borel-embedded":
        group = FiniteGroup.from_residues(
            fp, ((a, b, 0, d) for a in range(1, p) for b in range(p) for d in range(1, p))
        )
    else:  # custom
        if not generators:
            raise ValueError("custom instances require explicit generators")
        gens = [g if isinstance(g, Mat2) else parse_matrix(g) for g in generators]
        for g in gens:
            if g.domain != fp:
                raise ValueError(f"generator {g} is not over F{p}")
        try:
            group = subgroup_closure(gens, max_order=work_cap // (p * p))
        except WorkCapExceeded as exc:
            raise WorkCapExceeded("instance-construction", exc.estimate * p * p, work_cap) from None

    if kind == "borel-embedded":
        # The commutators fix exactly the line x = 0; the zero vector is
        # excluded as an embedding target, so k^2 pairs need k^2 <= p - 1.
        own = range(1, math.isqrt(p - 1) + 1)
        for given in (secret_domain, t_domain):
            if given is not None and _sorted_scalars(fp, given) != _sorted_scalars(fp, own):
                raise ValueError("borel-embedded instances fix their own secret domain")
        secret_domain = t_domain = own
        targets = iter(range(1, p))
        embedding = [((s, t), (0, next(targets))) for s in own for t in own]
    return _instance_on(group, kind, secret_domain, t_domain, embedding, multiplicative, name)


def _instance_on(
    group: FiniteGroup,
    kind: str,
    secret_domain: Optional[Sequence[Union[Scalar, int]]] = None,
    t_domain: Optional[Sequence[Union[Scalar, int]]] = None,
    embedding: Optional[Sequence] = None,
    multiplicative: Optional[bool] = None,
    name: Optional[str] = None,
) -> ActionInstance:
    """The validated instance of ``kind`` on an already built group, with
    its index: everything ``build_instance`` does once the group exists,
    so a caller that holds the group does not close it again."""
    fp = group.domain
    p = fp.p
    scalars = fp.elements()
    secrets = _sorted_scalars(fp, secret_domain) if secret_domain is not None else scalars[1:]
    t_values = _sorted_scalars(fp, t_domain) if t_domain is not None else scalars
    pairs = None
    if embedding is not None:
        pairs = {}
        for (s, t), (x, y) in embedding:
            if (scalars[s], scalars[t]) in pairs:
                raise ValueError(f"embedding lists the pair ({s}, {t}) twice")
            pairs[scalars[s], scalars[t]] = Point(scalars[x], scalars[y])

    if multiplicative is None:
        multiplicative = all(not s.is_zero for s in secrets)

    return ActionInstance(
        name=name or f"{kind}-f{p}",
        field=fp,
        group=group,
        secret_domain=secrets,
        t_domain=t_values,
        embedding=pairs,
        multiplicative=multiplicative,
        kind=kind,
    )


def trivial_instance(
    p: int = 5, name: Optional[str] = None, *, work_cap: Optional[int] = None
) -> ActionInstance:
    """One secret, identity-only group: the smallest valid instance."""
    fp = PrimeField(p)
    return build_instance(
        "custom",
        p,
        generators=[Mat2.identity(fp)],
        secret_domain=[1],
        name=name or f"trivial-f{p}",
        work_cap=work_cap,
    )


def rational_demo_instance(name: str = "rational-gl2") -> ActionInstance:
    """Demonstration-only instance over the rationals; not checkable."""
    return ActionInstance(
        name=name,
        field=RATIONALS,
        group=RATIONAL_GL2,
        secret_domain=None,
        t_domain=None,
        embedding=None,
        multiplicative=True,
        kind="custom",
    )


def _embedding_json(instance: ActionInstance) -> Optional[list]:
    if instance.embedding is None:
        return None
    return [
        [[s.value, t.value], [pt.x.value, pt.y.value]]
        for (s, t), pt in sorted(
            instance.embedding.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
        )
    ]


def instance_to_descriptor(instance: ActionInstance) -> dict:
    """JSON-ready descriptor from which the instance can be rebuilt."""
    if not instance.is_finite:
        return {"name": instance.name, "kind": "rational-demo", "p": "Q"}
    assert isinstance(instance.field, PrimeField)
    # Named kinds are rebuilt from their kind, so they list no generators.
    group = instance.group
    gens = (group.generators or group.elements) if instance.kind == "custom" else ()
    return {
        "name": instance.name,
        "kind": instance.kind,
        "p": instance.field.p,
        "generators": [format_matrix(g) for g in gens],
        "secret_domain": [s.value for s in instance.secret_domain or ()],
        "t_domain": [t.value for t in instance.t_domain or ()],
        "multiplicative": instance.multiplicative,
        "embedding": _embedding_json(instance),
    }


def _descriptor_list(desc: dict, key: str, item_type: type, what: str) -> Optional[list]:
    """An optional descriptor field that must be a list of ``item_type``."""
    value = desc.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, item_type) for v in value
    ):
        raise ValueError(f"descriptor field {key!r} must be a list of {what}, got {value!r}")
    return value


def _descriptor_embedding(desc: dict, p: int) -> Optional[list]:
    """The embedding as a list of [[s, t], [x, y]] residue pairs, or None."""
    value = desc.get("embedding")
    if value is None:
        return None
    if not isinstance(value, list):
        raise ValueError(f"descriptor embedding must be a list, got {value!r}")
    for entry in value:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(pair, list) and len(pair) == 2 for pair in entry)
        ):
            raise ValueError(f"embedding entries must be [[s, t], [x, y]], got {entry!r}")
        for r in entry[0] + entry[1]:
            if isinstance(r, bool) or not isinstance(r, int) or not 0 <= r < p:
                raise ValueError(f"embedding residue {r!r} is not an integer in [0, {p})")
    return value


def instance_from_descriptor(desc: dict, *, work_cap: Optional[int] = None) -> ActionInstance:
    """Rebuild a finite instance from its descriptor.

    Named kinds ignore any listed generators, and an embedding they list
    must be their own; custom kinds close their generators. A malformed
    descriptor raises ``ValueError``.
    """
    if not isinstance(desc, dict):
        raise ValueError("an instance descriptor must be a JSON object")
    kind = desc.get("kind")
    if not isinstance(kind, str):
        raise ValueError(f"descriptor kind must be a string, got {kind!r}")
    if "name" in desc and not isinstance(desc["name"], str):
        raise ValueError(f"descriptor name must be a string, got {desc['name']!r}")
    if kind == "rational-demo":
        return rational_demo_instance(desc.get("name", "rational-gl2"))
    p = desc.get("p")
    if isinstance(p, bool) or not isinstance(p, int):
        raise ValueError(f"descriptor p must be an integer prime, got {p!r}")
    multiplicative = desc.get("multiplicative")
    if multiplicative is not None and not isinstance(multiplicative, bool):
        raise ValueError(f"descriptor multiplicative must be true or false, got {multiplicative!r}")
    generators = _descriptor_list(desc, "generators", str, "matrix literals")
    embedding = _descriptor_embedding(desc, p)
    fields = dict(
        secret_domain=_descriptor_list(desc, "secret_domain", int, "residues"),
        t_domain=_descriptor_list(desc, "t_domain", int, "residues"),
        multiplicative=multiplicative,
        name=desc.get("name"),
        work_cap=work_cap,
    )
    if kind != "custom":
        instance = build_instance(kind, p, **fields)
        if "embedding" in desc and embedding != _embedding_json(instance):
            raise ValueError(f"descriptor embedding differs from the {kind} instance's own")
        return instance
    return build_instance("custom", p, generators=generators, embedding=embedding, **fields)


def load_json(path: str):
    """The JSON value a file holds. Input nested too deeply to decode is
    a ``ValueError``, as any other malformed JSON is. ``json`` is loaded
    here, so a command that reads no JSON does not load it."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to decode") from None

