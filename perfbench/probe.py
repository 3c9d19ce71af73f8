"""A fixed piece of pure-Python work that measures the machine's speed.

The CPU speed of a shared machine drifts by 30-80 % in phases of seconds to
minutes, and more for dict- and object-heavy code than for arithmetic.  The
benchmark runs this probe at the start and end of every job and between
calls every half second of work, and reports times scaled to the speed at
which the probe takes ``PROBE_REF_S``.  The probe
uses no code of the program, so a change to the program moves the scaled
times exactly as it moves the wall times.  Its work mixes what the
program's hot paths do: prefix matching of words by generator name (as in
rewriting), sparse elimination over a prime field and fraction-free integer
elimination with gcd reduction (as in rank computation).
"""

import random
import time
from collections import namedtuple
from math import gcd

# Probe seconds at the reference speed (the faster phases of the 2-vCPU
# Intel Xeon machine the benchmark was built on).
PROBE_REF_S = 0.025

_Gen = namedtuple("_Gen", "name rank")


def _inputs():
    rng = random.Random(0)
    gens = [_Gen(f"g{i}", i) for i in range(24)]
    rules = [tuple(rng.choice(gens) for _ in range(rng.randint(2, 3)))
             for _ in range(120)]
    words = [tuple(rng.choice(gens) for _ in range(rng.randint(2, 6)))
             for _ in range(30)]
    mod_rows = [{rng.randrange(60): rng.randrange(1, 1000003)
                 for _ in range(5)} for _ in range(60)]
    int_rows = [{rng.randrange(40): rng.randrange(-9, 10) or 1
                 for _ in range(4)} for _ in range(40)]
    return rules, words, mod_rows, int_rows


_INPUTS = _inputs()


def _match(rules, word):
    n = len(word)
    for i in range(n):
        for idx, lhs in enumerate(rules):
            k = len(lhs)
            if i + k <= n and all(word[i + j].name == lhs[j].name
                                  for j in range(k)):
                return i, idx
    return None


def _rank_mod(rows, p=1000003):
    rows = [dict(r) for r in rows]
    rank = 0
    while rows:
        pivot = min(rows, key=min)
        rows.remove(pivot)
        col = min(pivot)
        inv = pow(pivot[col], -1, p)
        pivot = {c: v * inv % p for c, v in pivot.items()}
        rank += 1
        out = []
        for r in rows:
            if col in r:
                f = r[col]
                new = {c: (r.get(c, 0) - pivot.get(c, 0) * f) % p
                       for c in set(r) | set(pivot)}
                new = {c: v for c, v in new.items() if v}
                if new:
                    out.append(new)
            else:
                out.append(r)
        rows = out
    return rank


def _rank_int(rows):
    rows = [dict(r) for r in rows]
    rank = 0
    while rows:
        pivot = min(rows, key=lambda r: (min(r), min(abs(v) for v in r.values())))
        rows.remove(pivot)
        col, piv = min(pivot), pivot[min(pivot)]
        rank += 1
        out = []
        for r in rows:
            if col in r:
                f = r[col]
                new = {c: r.get(c, 0) * piv - pivot.get(c, 0) * f
                       for c in set(r) | set(pivot)}
                new = {c: v for c, v in new.items() if v}
                if new:
                    g = 0
                    for v in new.values():
                        g = gcd(g, v)
                    out.append({c: v // abs(g) for c, v in new.items()})
            else:
                out.append(r)
        rows = out
    return rank


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    rules, words, mod_rows, int_rows = _INPUTS
    start = time.perf_counter()
    for word in words:
        _match(rules, word)
    _rank_mod(mod_rows)
    _rank_int(int_rows)
    return time.perf_counter() - start
