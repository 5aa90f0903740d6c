"""A fixed piece of pure-Python work that measures how fast the machine runs now.

On a host whose cores are shared with other tenants the machine's speed
swings by up to 1.7x over stretches of seconds to minutes (measured on 2
vCPUs of a 2.0 GHz Xeon): a fixed loop without fsdim spread as widely from
run to run as the workloads did.  So a
run times `sample()` again and again between its operations and set-ups,
and the harness scales each timing by the sample's reference time over the
median of the samples taken around it.  The timings it reports are thus in
seconds of a machine that runs the sample in its reference time.

The samples do the kinds of work fsdim does, in code of their own.  The
mixed one: Fraction arithmetic (dispersion), counting byte-string blocks
into a dict and taking logarithms (blockstats, dispersion), big-integer
products, quotients and byte conversions (realarith, digitseq), and
scattered reads of a list of 200 000 integers.  The bigint one: the
big-integer part alone.  The loop one: integer arithmetic in a bare
interpreter loop.  They never call fsdim, so a change to fsdim cannot
move them.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from fractions import Fraction

_rng = random.Random(20061228)
_FRACTIONS = [Fraction(_rng.randint(1, 60), _rng.randint(1, 60)) for _ in range(48)]
_DIGITS = bytes(_rng.randrange(10) for _ in range(2000))
_BIG = _rng.getrandbits(24_000) | 1
_NUMBERS = list(range(10**6, 10**6 + 200_000))  # ints, which the collector does not track
_READS = [_rng.randrange(len(_NUMBERS)) for _ in range(3000)]


def _loop() -> int:
    total = 0
    for i in range(15_000):
        total += i * i % 7
    return total


def _bigint() -> int:
    quotient = _BIG * _BIG // (_BIG >> 8_000)
    digits = quotient.to_bytes((quotient.bit_length() + 7) // 8, "big")
    return digits[-1]


def _mixed() -> int:
    total = Fraction(0)
    for a, b in zip(_FRACTIONS, _FRACTIONS[1:]):
        total += a * b - b / (a + 1)
    counts = Counter(_DIGITS[i:i + 4] for i in range(len(_DIGITS) - 3))
    n = len(_DIGITS) - 3
    entropy = -sum(c / n * math.log2(c / n) for c in counts.values())
    reads = sum(_NUMBERS[i] for i in _READS)
    return total.numerator + int(entropy) + _bigint() + reads


# kind -> (work, REFERENCE_S).  Kinds of work do not slow alike: when the
# host went from busy to quiet, the mixed sample ran 1.6 to 2.2x faster, as
# did the delta-solve and dim-grid operations; the big-integer part 1.4x, as
# did the arith-stream operations; a bare interpreter loop 1.6x, as did the
# preserve-k10 operations (dicts of 10^6 blocks), which the mixed sample
# scaled 13% too far.  Each workload names the kind that matches its work.
# REFERENCE_S is about the sample's median between operations on a busy
# stretch of the machine where the bounds were set (2 vCPUs of a 2.0 GHz
# Xeon), so that the reported timings read close to wall times there; any
# fixed value would do, since it only names the unit.
SAMPLES = {"mixed": (_mixed, 0.0045), "bigint": (_bigint, 0.0014), "loop": (_loop, 0.0016)}


def sample(kind: str) -> float:
    """Seconds one run of the fixed work of `kind` takes now."""
    work, _ = SAMPLES[kind]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def reference_s(kind: str) -> float:
    """Seconds the sample of `kind` takes on the reference machine."""
    return SAMPLES[kind][1]
