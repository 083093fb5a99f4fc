#!/usr/bin/env python3
"""Observed images of the first masked message.

A tempting intuition says the first message v.A could be "any point",
so it reveals nothing. This script enumerates the actual image set
{v.A : A in G} per encoded point on finite instances: for invertible
masks the image never contains the zero vector and is exactly one group
orbit, whose invariants (a norm, a zero pattern) are what the message
really leaks.
"""

from __future__ import annotations

import argparse

from triplepass import build_instance
from triplepass.actions import instance_index


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", type=str, default="rotation")
    parser.add_argument("--p", type=int, default=7)
    args = parser.parse_args()

    instance = build_instance(args.kind, args.p)
    idx = instance_index(instance)
    carrier = idx.n_points
    print(f"{instance.name}: carrier {carrier} points, group order {idx.n_group}")

    zero_index = 0  # index of the zero vector under x*p + y
    sizes = {}
    for s in idx.s_res:
        for t in idx.t_res:
            v = idx.point_of_pair[(s, t)]
            image = {row[v] for row in idx.act_table}
            sizes.setdefault(len(image), 0)
            sizes[len(image)] += 1
            if zero_index in image and v != zero_index:
                raise AssertionError(f"the orbit of v=({s},{t}) reaches the zero vector")
            print(
                f"  v=({s},{t}): image size {len(image)} of {carrier},"
                f" contains zero: {zero_index in image}"
            )
    print("image-size histogram:", dict(sorted(sizes.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
