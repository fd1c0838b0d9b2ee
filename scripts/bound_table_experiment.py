#!/usr/bin/env python3
"""Sweep the exact root-bound table over a grid of multiplicities and sizes.

Each cell folds the nontrivial matching polynomial m times (one power
series raised to the m-th power), brackets its largest root in the cell that
Sturm bisection would end in (found from a float guess and proved on
integers, so the bracket is the bisection's exactly), and compares it with
2*sqrt(m-1) exactly: by the bracket alone when the bound lies outside it,
else by a Sturm count.  Prints TSV plus a timing line per multiplicity;
nonzero exit if any cell ever reaches the bound.
"""
from __future__ import annotations

import argparse
import sys
import time

from ffc import mfold_root_bound_table
from ffc.serial import TABLE_TSV_HEADER, table_to_tsv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-max", type=int, default=8)
    parser.add_argument("--d-max", type=int, default=24)
    parser.add_argument("--mode", choices=["sym", "asym", "both"], default="both")
    args = parser.parse_args()

    ms = list(range(3, args.m_max + 1))
    ds = list(range(4, args.d_max + 1, 2))
    modes = ["sym", "asym"] if args.mode == "both" else [args.mode]

    print(TABLE_TSV_HEADER)
    failures = 0
    for m in ms:
        start = time.perf_counter()
        rows = []
        for mode in modes:
            rows.extend(mfold_root_bound_table([m], ds, mode))
        body = table_to_tsv(rows).split("\n", 1)[1]
        sys.stdout.write(body)
        failures += sum(not r.below_bound for r in rows)
        print(
            f"# m={m}: {len(rows)} cells in {time.perf_counter() - start:.2f}s",
            file=sys.stderr,
        )
    if failures:
        print(f"# {failures} cells reached the bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
