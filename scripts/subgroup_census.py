#!/usr/bin/env python3
"""Census of every instance generated by small matrix subsets.

Enumerates subgroup closures of generator subsets of the full 2x2
invertible group, deduplicates them, and runs all condition checks and
the exact leakage analysis on each resulting instance; the interesting
empirical question is whether any instance with more than one secret
passes everything and leaks nothing.

This is ``triplepass search --format human``: it exits 0 when the census
is complete and 3 when the work cap cut it short.
"""

from __future__ import annotations

import argparse

from triplepass import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=2, help="prime modulus")
    parser.add_argument("--max-generators", type=int, default=2)
    parser.add_argument("--cap", type=int, default=None, help="work cap")
    args = parser.parse_args()

    argv = ["search", "--p", str(args.p), "--max-generators", str(args.max_generators)]
    if args.cap is not None:
        argv += ["--cap", str(args.cap)]
    return cli.main(argv + ["--format", "human"])


if __name__ == "__main__":
    raise SystemExit(main())
