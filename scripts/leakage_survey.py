#!/usr/bin/env python3
"""Survey exact eavesdropper leakage across the standard instances.

For each instance the survey reports the exact mutual information
between the secret and the three wire messages, whether the leak is
exactly zero, and whether every candidate secret can explain every
transcript. The headline result: every family that makes the round trip
reliable also hands the wiretapper the whole secret. When every
commutator A*B*A^-1*B^-1 fixes every start point, each transcript with
positive probability has exactly one start point that explains it, so
I(S; V1V2V3) = H(S) for every prior; the action need not be free. In
the subgroup census that is 34 of 55 reliable entries at p = 3, 323 of
533 at p = 5 and 1,098 of 1,912 at p = 7 (README gives the proof sketch).
"""

from __future__ import annotations

import argparse
import math

from triplepass import (
    build_instance,
    check_transcript_equivalence,
    exact_mutual_information,
    trivial_instance,
)


def survey_instances(primes: list[int]):
    instances = [trivial_instance(primes[0])]
    for p in primes:
        for kind in ("scalar", "diagonal", "rotation"):
            instances.append(build_instance(kind, p))
        if p > 3:
            instances.append(build_instance("borel-embedded", p))
    instances.append(build_instance("general-linear", 2))
    instances.append(build_instance("general-linear", 3))
    return instances


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=str, default="3,5,7",
                        help="comma-separated primes to survey")
    args = parser.parse_args()
    primes = [int(p) for p in args.primes.split(",")]

    header = f"{'instance':<22} {'|S|':>3} {'|G|':>5} {'MI bits':>10} {'max bits':>9}  zero-leak  equiv"
    print(header)
    print("-" * len(header))
    for instance in survey_instances(primes):
        leak = exact_mutual_information(instance)
        equiv = check_transcript_equivalence(instance)
        n_secrets = len(instance.secret_domain)
        print(
            f"{instance.name:<22} {n_secrets:>3} {len(instance.group):>5}"
            f" {leak.mutual_information_bits:>10.6f} {math.log2(n_secrets):>9.6f}"
            f"  {str(leak.zero_leakage):<9}  {equiv.verdict}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
