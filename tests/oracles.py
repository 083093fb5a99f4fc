"""Plain-integer reference implementations used as independent oracles.

Everything here works on raw residue tuples mod p and is deliberately
written without importing the package under test: matrices are 4-tuples
(a, b, c, d) read row-major, points are residue pairs. The one exception
to plain integers is ``mutual_information``, which reduces exact joint
counts with ``Fraction`` arithmetic throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


def det(p: int, m: tuple[int, int, int, int]) -> int:
    return (m[0] * m[3] - m[1] * m[2]) % p


def gl2(p: int) -> list[tuple[int, int, int, int]]:
    return [m for m in product(range(p), repeat=4) if det(p, m) != 0]


def mmul(p: int, m, n):
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def minv(p: int, m):
    a, b, c, d = m
    di = pow(det(p, m), -1, p)
    return (d * di % p, -b * di % p, -c * di % p, a * di % p)


def act(p: int, v, m):
    return ((v[0] * m[0] + v[1] * m[2]) % p, (v[0] * m[1] + v[1] * m[3]) % p)


def closure(p: int, gens) -> frozenset:
    ident = (1, 0, 0, 1)
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mmul(p, x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def commutators(p: int, elems) -> set:
    out = set()
    for g in elems:
        for h in elems:
            out.add(mmul(p, mmul(p, mmul(p, minv(p, h), minv(p, g)), h), g))
    return out


def comm_subgroup(p: int, elems) -> frozenset:
    return closure(p, sorted(commutators(p, elems)))


def session(p: int, v, a, b):
    v1 = act(p, v, a)
    v2 = act(p, v1, b)
    v3 = act(p, v2, minv(p, a))
    v4 = act(p, v3, minv(p, b))
    return v1, v2, v3, v4


def witnesses(p: int, secrets, t_values, elems, transcript):
    """Four-deep scan for all (s, t, A, B) reproducing (v1, v2, v3)."""
    v1, v2, v3 = transcript
    found = []
    for s in secrets:
        for t in t_values:
            for a in elems:
                if act(p, (s, t), a) != v1:
                    continue
                inv_a = minv(p, a)
                if act(p, v2, inv_a) != v3:
                    continue
                for b in elems:
                    if act(p, v1, b) == v2:
                        found.append((s, t, a, b))
    return found


def rotation_elements(p: int) -> list[tuple[int, int, int, int]]:
    return [
        (c, s, (-s) % p, c)
        for c in range(p)
        for s in range(p)
        if (c * c + s * s) % p == 1
    ]


def diagonal_elements(p: int) -> list[tuple[int, int, int, int]]:
    return [(a, 0, 0, d) for a in range(1, p) for d in range(1, p)]


def upper_triangular_elements(p: int) -> list[tuple[int, int, int, int]]:
    return [(a, b, 0, d) for a in range(1, p) for b in range(p) for d in range(1, p)]


def norm_circle(p: int, n: int, secrets, t_values) -> set[int]:
    """Secrets s for which some t puts (s, t) on the circle x^2+y^2 = n."""
    return {s for s in secrets if any((s * s + t * t) % p == n for t in t_values)}


def first_message_secrets(p: int, secrets, t_values, elems, v1) -> set[int]:
    """Secrets s for which some t and mask A send (s, t) to v1."""
    return {
        s
        for s in secrets
        for t in t_values
        if any(act(p, (s, t), a) == v1 for a in elems)
    }


def mutual_information(joint, prior, completions):
    """(bits, zero_leakage, transcripts) from exact joint counts, in Fractions.

    ``joint`` maps (transcript, secret) to a completion count; each
    secret's counts total ``completions``. Every probability is a
    ``Fraction``, terms are grouped by the exact ratio p(s,v)/(p(s)p(v))
    and summed in ascending ratio order, with one log per ratio.
    """
    by_transcript: dict = {}
    for (t_key, s_key), count in joint.items():
        by_transcript.setdefault(t_key, {})[s_key] = count

    zero_leakage = True
    ratio_weights: dict = {}
    for t_key in sorted(by_transcript):
        counts = by_transcript[t_key]
        p_t = sum((prior[s] * Fraction(c, completions) for s, c in counts.items()), Fraction(0))
        for s_key, count in counts.items():
            p_s = prior[s_key]
            if p_s == 0:
                continue
            p_joint = p_s * Fraction(count, completions)
            if p_joint / p_t != p_s:
                zero_leakage = False
            if p_joint == 0:
                continue
            ratio = p_joint / (p_s * p_t)
            ratio_weights[ratio] = ratio_weights.get(ratio, Fraction(0)) + p_joint
        # A secret that cannot produce this transcript has posterior 0 here.
        if any(p_s > 0 and s_key not in counts for s_key, p_s in prior.items()):
            zero_leakage = False

    bits = 0.0
    for ratio in sorted(ratio_weights):
        bits += float(ratio_weights[ratio]) * (
            math.log2(ratio.numerator) - math.log2(ratio.denominator)
        )
    return bits, zero_leakage, len(by_transcript)


def first_masking_violation(p: int, secrets, elems):
    """(first (s, t, g, s'), work) in sorted-residue order such that no
    blinding t' in ``secrets`` and mask g' in ``elems`` send (s', t') to
    the masked point (s, t).g; the violation is None when there is none.
    ``work`` counts |G| per start point to build the reach sets, then one
    per (s, t, g, s') test, the units the masking-coverage check reports;
    a pass costs the reach sets alone.
    """
    secrets = sorted(secrets)
    elems = sorted(elems)
    reach = {s: {act(p, (s, t), g) for t in secrets for g in elems} for s in secrets}
    work = reach_work = len(secrets) ** 2 * len(elems)
    for s in secrets:
        for t in secrets:
            for g in elems:
                w = act(p, (s, t), g)
                for s2 in secrets:
                    work += 1
                    if w not in reach[s2]:
                        return (s, t, g, s2), work
    return None, reach_work


def first_transcript_violation(p: int, secrets, elems):
    """(first (s, t, A, B, s'), work) in sorted-residue order such that no
    blinding t' in ``secrets`` and masks A', B' in ``elems`` reproduce
    the three messages of the session (s, t, A, B) from (s', t'); the
    violation is None when every candidate secret explains every session.
    Start points range over the secret square, as in the
    transcript-equivalence check. ``work`` counts |G| per distinct
    transcript and one per (session, s') test, as that check reports.
    """
    secrets = sorted(secrets)
    elems = sorted(elems)
    explained: dict = {}
    work = 0
    for s in secrets:
        for t in secrets:
            for a in elems:
                for b in elems:
                    tau = session(p, (s, t), a, b)[:3]
                    if tau not in explained:
                        work += len(elems)
                        v1, v2, v3 = tau
                        reply = any(act(p, v1, b2) == v2 for b2 in elems)
                        explained[tau] = {
                            s2
                            for s2 in secrets
                            for t2 in secrets
                            for a2 in elems
                            if reply
                            and act(p, (s2, t2), a2) == v1
                            and act(p, v2, minv(p, a2)) == v3
                        }
                    for s2 in secrets:
                        work += 1
                        if s2 not in explained[tau]:
                            return (s, t, a, b, s2), work
    return None, work
