#!/usr/bin/env python3
"""Brute-force scan of which mod-2 classes lattice vectors can realize.

Enumerates every lattice vector of self-pairing >= the floor, reduces it
mod 2, and tabulates the (fiber bit, coset representative) pairs that
occur.  On the parity-bound types the fiber bit is forced by the
quadratic refinement; elsewhere both bits should appear for every coset.

    python scripts/scan_realizability.py --type '4|0' --floor -8
"""

import argparse

from conelines.lattices import SexticType, build_lattice
from conelines.mod2 import Mod2Vector, all_residues, q0
from conelines.translations import coset_representative, shell_classes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--type", default="4|0", help="curve type, e.g. 4|0 or 1|1")
    parser.add_argument("--floor", type=int, default=-8, help="lowest self-pairing to scan")
    args = parser.parse_args()

    sextic = SexticType.from_key(args.type)
    lattice = build_lattice(sextic)
    hits = shell_classes(lattice, args.floor)
    print(f"type {sextic.key}: {hits.total()} vectors with self-pairing >= {args.floor}")
    parity_violations = sum(
        count for (mu, bits), count in hits.items() if mu != q0(Mod2Vector(bits, lattice))
    )

    reps = {coset_representative(x).bits for x in all_residues(lattice)}
    print(f"cosets: {len(reps)}, (fiber bit, coset) pairs attained: {len(hits)} of {2 * len(reps)}")
    print(f"vectors whose fiber bit disagrees with the refinement: {parity_violations}")

    width = max(len(str(r)) for r in reps) if reps else 0
    for rep in sorted(reps):
        bits = "".join(
            "x" if hits[(mu, rep)] else "." for mu in (0, 1)
        )
        counts = ", ".join(f"bit {mu}: {hits[(mu, rep)]}" for mu in (0, 1))
        print(f"  {str(rep):<{width}}  [{bits}]  {counts}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
