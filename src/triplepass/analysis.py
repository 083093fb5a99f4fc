"""The passive adversary's leakage, made exact.

Mutual information is reduced from integer-scaled counts, with one
Fraction per distinct probability ratio. A zero-leakage verdict is an
exact comparison of posterior against prior, never a float test.
Logarithms enter only at presentation, grouped by exact ratio, so an
instance that leaks nothing reports exactly 0.0 bits and a total break
on a uniform prior over 2^k secrets reports exactly k bits. Witnesses
and posteriors of single transcripts live in ``posterior``, the census
in ``census``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import TYPE_CHECKING, Mapping, Optional

from .actions import ActionInstance, InstanceIndex, Point, _require_finite, _within_cap
from .errors import AttackInapplicableError, TriplePassError
from .fields import Scalar
from .records import Frozen

if TYPE_CHECKING:
    from .protocol import Transcript

__all__ = ["LeakageReport", "uniform_prior", "exact_mutual_information", "mutual_information_bits",
           "quotient_attack"]

# ``perfbench/tracer.py`` reads these names here: reading one loads its
# module and binds it in this one, where callers look it up.
_FORWARDS = {"enumerate_consistent": "posterior", "posterior_from_transcript": "posterior",
             "search_instances": "census"}


def __getattr__(name: str):
    module = _FORWARDS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)
    return value


def uniform_prior(instance: ActionInstance) -> dict[Scalar, Fraction]:
    """The default prior: equal exact mass on every secret."""
    _require_finite(instance, "a uniform prior")
    mass = Fraction(1, len(instance.secret_domain))
    return dict.fromkeys(instance.secret_domain, mass)


def _validate_prior(instance: ActionInstance, prior: Mapping[Scalar, Fraction]) -> dict[Scalar, Fraction]:
    domain = set(instance.secret_domain)
    out = {}
    for s, mass in prior.items():
        if s not in domain:
            raise ValueError(f"prior mass on {s}, which is not a valid secret")
        frac = Fraction(mass)
        if frac < 0:
            raise ValueError("prior masses must be nonnegative")
        out[s] = frac
    if sum(out.values()) != 1:
        raise ValueError("prior masses must sum to exactly 1")
    return out

class LeakageReport(Frozen):
    """Exact-count leakage summary for a whole instance."""

    __slots__ = _fields = ("instance", "mutual_information_bits", "zero_leakage",
                           "transcripts_examined", "prior")

    def __init__(self, instance: str, mutual_information_bits: float, zero_leakage: bool,
                 transcripts_examined: int, prior: dict[Scalar, Fraction]) -> None:
        self._assign(instance, mutual_information_bits, zero_leakage, transcripts_examined, prior)


def mutual_information_bits(
    joint_counts: Mapping[tuple, int],
    prior: Mapping[object, Fraction],
    completions_per_secret: int,
    multiplicity: Optional[Mapping[object, int]] = None,
) -> tuple[float, bool, int]:
    """Mutual information in bits from exact joint counts.

    ``joint_counts`` maps (transcript key, secret key) to the number of
    nuisance completions; every secret has exactly
    ``completions_per_secret`` of them in total. A transcript key may
    stand for several transcripts with the same counts: ``multiplicity``
    maps it to how many (default 1), which weighs the key's counts and
    transcripts as if each were listed separately. Terms are grouped by
    the exact rational ratio p(s,v)/(p(s)p(v)) and logs are taken only
    per distinct ratio, so zero leakage yields exactly 0.0 and a total
    break on a uniform prior over 2^k secrets yields exactly k.

    Prior masses are scaled to integers n_s over their common
    denominator D. With T = sum of n_s * c_s at a transcript, a cell with
    count c has ratio c*D / T and weight n_s*c / (D * completions).

    Returns (bits, zero_leakage, transcripts_examined). Raises
    ValueError on a count or multiplicity that is not a nonnegative
    (positive) int, a prior that is not a distribution, or a secret
    whose counts do not total ``completions_per_secret``.
    """
    masses = {s: m if type(m) is Fraction else Fraction(m) for s, m in prior.items()}
    denom = math.lcm(*(m.denominator for m in masses.values()))
    scaled = {s: m.numerator * (denom // m.denominator) for s, m in masses.items()}
    if any(n < 0 for n in scaled.values()) or sum(scaled.values()) != denom:
        raise ValueError("prior masses must be nonnegative and sum to exactly 1")
    multiplicity = {} if multiplicity is None else multiplicity

    totals = dict.fromkeys(scaled, 0)
    t_mass: dict[tuple, int] = {}
    for (t_key, s_key), count in joint_counts.items():
        if type(count) is not int or count < 0:
            raise ValueError(f"joint count {count!r} is not a nonnegative int")
        if s_key not in totals:
            raise ValueError(f"joint counts name secret {s_key!r}, which has no prior mass")
        size = multiplicity.get(t_key, 1)
        if type(size) is not int or size < 1:
            raise ValueError(f"multiplicity {size!r} is not a positive int")
        totals[s_key] += count * size
        t_mass[t_key] = t_mass.get(t_key, 0) + scaled[s_key] * count
    if any(total != completions_per_secret for total in totals.values()):
        raise ValueError(f"each secret's counts must total {completions_per_secret}")

    # A positive-mass secret with no completion at a transcript has
    # posterior 0 there. When T > 0 the per-cell test c*D == T catches
    # it: cells that all pass carry all of T, so their masses sum to D
    # and no positive mass is left for a missing secret. T == 0 means no
    # positive-mass completion at all.
    zero_leakage = all(t_mass.values())
    # Weights by unreduced ratio (c*D, T) first: cells repeat few of them.
    raw_weights: dict[tuple[int, int], int] = {}
    for (t_key, s_key), count in joint_counts.items():
        n_s = scaled[s_key]
        if n_s == 0:
            continue
        num, den = count * denom, t_mass[t_key]
        if num != den:
            zero_leakage = False
        if count == 0:
            continue  # zero-probability cell: contributes nothing
        weight = n_s * count * multiplicity.get(t_key, 1)
        raw_weights[num, den] = raw_weights.get((num, den), 0) + weight
    ratio_weights: dict[tuple[int, int], int] = {}
    for (num, den), weight in raw_weights.items():
        g = math.gcd(num, den)
        ratio = (num // g, den // g)
        ratio_weights[ratio] = ratio_weights.get(ratio, 0) + weight

    # Ascending exact ratio; int / int is the correctly rounded float of
    # the weight's Fraction.
    scale = denom * completions_per_secret
    bits = 0.0
    for num, den in sorted(ratio_weights, key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])):
        bits += ratio_weights[(num, den)] / scale * (math.log2(num) - math.log2(den))
    return bits, zero_leakage, sum(multiplicity.get(t_key, 1) for t_key in t_mass)


def _pair_classes(idx: InstanceIndex) -> list[tuple[int, int, int, int]]:
    """The G-orbits of message pairs (v1, v2) with v2 in the orbit of v1,
    as (r, w, size, stab) tuples.

    Fixing h in G, (t, A, B) -> (t, A.h, h^-1.B.h) keeps s and v3 and
    moves (v1, v2) to (v1.h, v2.h), so per-secret witness counts depend
    on (v1, v2) only through its class. Each class is (r, w): r the
    least point of its orbit, w a Stab(r)-orbit representative, and the
    class is that Stab(r)-orbit moved along one mask per orbit point.
    ``size`` counts its pairs, |orbit(r)| * |Stab(r).w|, and ``stab`` is
    |Stab(r)|, the replies B with r.B == w. Raises TriplePassError unless
    every orbit pair lands in exactly one class and the class sizes sum
    to the sum of |orbit|^2."""
    n, table = idx.n_points, idx.act_table
    classes: list[tuple[int, int, int, int]] = []
    # Pairs placed so far, keyed v1 * n_points + v2.
    placed_pairs: set[int] = set()
    placed: set[int] = set()
    total = 0
    for r in range(n):
        if r in placed:
            continue
        fib = idx.fibres(r)
        placed.update(fib)
        total += len(fib) ** 2
        stab = fib[r]
        movers = [(u, table[gs[0]]) for u, gs in fib.items()]
        for w in sorted(fib):
            if r * n + w in placed_pairs:
                continue
            cell = {table[h][w] for h in stab}
            classes.append((r, w, len(fib) * len(cell), len(stab)))
            for u, row in movers:
                for x in cell:
                    key = u * n + row[x]
                    if key in placed_pairs or row[x] not in fib:
                        raise TriplePassError(
                            f"pair ({u}, {row[x]}) does not fall in exactly one orbit class"
                        )
                    placed_pairs.add(key)
    if len(placed_pairs) != total or sum(c[2] for c in classes) != total:
        raise TriplePassError(
            f"orbit classes cover {len(placed_pairs)} pairs, not the {total} orbit pairs"
        )
    return classes


def exact_mutual_information(
    instance: ActionInstance,
    prior: Optional[Mapping[Scalar, Fraction]] = None,
    *,
    cap: Optional[int] = None,
) -> LeakageReport:
    """I(secret; transcript) from a full exact joint enumeration.

    The blinding value and both masks are uniform; the secret follows
    the prior. Only realizable transcripts carry weight. For each v3 the
    per-secret count is constant on a G-orbit of (v1, v2), so transcripts
    are counted once per class of ``_pair_classes``: at the
    class representative (r, w), mask A unmasks r onto u = r.A^-1 and
    sends v3 = w.A^-1; when u encodes (s, t), that adds the |Stab(r)|
    replies B with r.B == w to the cell ((class, v3), s). The reduction
    weighs each key by its class size, which counts every (t, A, B)
    exactly once in one pass over G per class.
    """
    idx = _require_finite(instance, "leakage analysis")
    prior = uniform_prior(instance) if prior is None else _validate_prior(instance, prior)
    # Steps of the pair-class kernel, bounded before it runs. Each of the
    # at most p^2 orbits costs one fibre scan of |G|, its pairs number
    # |orbit|^2 <= |orbit| * |G|, and each of the at most p^2 classes
    # costs one pass over G.
    _within_cap("leakage-analysis", 3 * idx.n_group * idx.n_points, cap)

    prior_by_res = {s.value: mass for s, mass in prior.items() if mass > 0}
    secret_at = {u: s for u, (s, _) in idx.pair_of_point.items() if s in prior_by_res}
    classes = _pair_classes(idx)
    counts: dict[tuple, int] = {}
    for c, (r, w, _, stab) in enumerate(classes):
        for inv_row in idx.inv_rows:
            s = secret_at.get(inv_row[r])
            if s is not None:
                cell = ((c, inv_row[w]), s)
                counts[cell] = counts.get(cell, 0) + stab
    sizes = {key: classes[key[0]][2] for key, _ in counts}

    completions = len(idx.t_res) * idx.n_group**2
    bits, zero_leakage, examined = mutual_information_bits(
        counts, prior_by_res, completions, multiplicity=sizes
    )
    return LeakageReport(
        instance=instance.name,
        mutual_information_bits=bits,
        zero_leakage=zero_leakage,
        transcripts_examined=examined,
        prior=dict(prior),
    )


def quotient_attack(transcript: Transcript) -> Scalar:
    """Componentwise-division attack for diagonal-style masks.

    Dividing the second message by the first recovers Bob's mask when
    masks are diagonal; dividing the third message by it returns the
    secret. Requires both components of the first message nonzero.
    """
    v1, v2, v3 = transcript.v1, transcript.v2, transcript.v3
    if v1.x.is_zero or v1.y.is_zero:
        raise AttackInapplicableError("attack inapplicable: zero component in v1")
    mask_estimate = Point(v2.x / v1.x, v2.y / v1.y)
    if mask_estimate.x.is_zero:
        raise AttackInapplicableError("attack inapplicable: estimated mask component is zero")
    return v3.x / mask_estimate.x
