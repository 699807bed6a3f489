"""Check the compilers against the chase oracle on seeded random guarded theories.

Usage: python tools/random_sweep.py --seed N --theories T --max-arity A
                                    [--max-query-atoms M]

Runs ``sweep`` of ``tests/differential.py`` (which says what is compiled and
compared) and prints one JSON object: the counts of compiles, capped
compiles, decided and undecided comparisons, and each mismatch.  Exits 1
when a comparison mismatched, 2 on bad options.  ``--max-query-atoms``
(default 2) bounds the atoms of each theory's random query.  The test suite
runs arity-2 sweeps of 20 theories at seed 0, with queries of at most 2 and
of at most 3 atoms.  An arity-3 sweep, where ternary
guards meet the enumeration caps, took 13 s for 20 theories on a 2-vCPU
machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from differential import sweep  # noqa: E402


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--theories", type=int, required=True)
    ap.add_argument("--max-arity", type=int, required=True)
    ap.add_argument("--max-query-atoms", type=int, default=2)
    args = ap.parse_args(argv)
    result = sweep(args.seed, args.theories, args.max_arity, args.max_query_atoms)
    print(json.dumps({"seed": args.seed, "theories": args.theories,
                      "max_arity": args.max_arity, "max_query_atoms": args.max_query_atoms,
                      **dataclasses.asdict(result)}, indent=1))
    return 1 if result.mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
