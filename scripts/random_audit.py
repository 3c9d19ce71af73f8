#!/usr/bin/env python3
"""Random plumbing sweep: build presentations and re-audit d^2 = 0.

  python3 scripts/random_audit.py --count 1000 --seed 7 --dims 2,3,4,5,6
  python3 scripts/random_audit.py --count 300 --simplify

With --simplify each presentation is also simplified greedily; the result
is re-audited, and its JSON must come back byte-identical through
to_json, the CLI's writer, from_json and to_json again.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semifree.algebra import INTEGERS, RATIONALS, integers_mod  # noqa: E402
from semifree.cli import _dump  # noqa: E402
from semifree.dgcat import audit_d_squared, from_json, to_json  # noqa: E402
from semifree.plumbing import (  # noqa: E402
    RandomPlumbingConfig,
    build_wrapped,
    random_plumbing,
)
from semifree.reduce import greedy_simplify  # noqa: E402

RINGS = {"Z": INTEGERS, "Q": RATIONALS, "Zmod10007": integers_mod(10007)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dims", default="2,3,4,5,6")
    parser.add_argument("--max-vertices", type=int, default=5)
    parser.add_argument("--max-arrows", type=int, default=8)
    parser.add_argument("--simplify", action="store_true",
                        help="also simplify greedily, re-audit and check "
                             "the JSON round trip")
    args = parser.parse_args()

    import random
    rng = random.Random(args.seed)
    config = RandomPlumbingConfig(
        max_vertices=args.max_vertices,
        max_arrows=args.max_arrows,
        dims=tuple(int(d) for d in args.dims.split(",")))
    started = time.time()
    generators = simplified = 0
    for i in range(args.count):
        for name, ring in RINGS.items():
            data = random_plumbing(rng, config, ring)
            cat = build_wrapped(data)
            audit_d_squared(cat)
            generators += len(cat.generators)
            if not args.simplify:
                continue
            cat, _ = greedy_simplify(cat)
            audit_d_squared(cat)
            simplified += len(cat.generators)
            text = _dump(to_json(cat))
            again = _dump(to_json(from_json(json.loads(text))))
            if again != text:
                print(f"sample {i} over {name}: the simplified presentation "
                      f"does not survive the JSON round trip")
                return 1
    elapsed = time.time() - started
    print(f"audited {args.count} random data x {len(RINGS)} rings "
          f"({generators} generators) in {elapsed:.2f}s: all d^2 = 0")
    if args.simplify:
        print(f"simplified greedily to {simplified} generators: all d^2 = 0, "
              f"JSON round trips byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
