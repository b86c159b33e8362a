"""Synthetic data generators.

Deterministic (seeded) value generators with controllable distribution —
the knobs the estimation-accuracy experiments need:

* uniform ints/floats,
* Zipf-skewed ints (the distribution that breaks the uniformity assumption),
* correlated column pairs (breaks the independence assumption),
* categorical values with weights,
* unique ints in random or sequential order (for clustered loading).
"""

from __future__ import annotations

import random
import string
from typing import Any, List, Optional, Sequence, Tuple


class Rng:
    """A seeded random source shared by one workload build."""

    def __init__(self, seed: int = 0):
        self.random = random.Random(seed)

    def spawn(self, salt: int) -> "Rng":
        return Rng(self.random.randint(0, 2**31) ^ salt)


def uniform_ints(rng: Rng, n: int, low: int, high: int) -> List[int]:
    """n ints uniform in [low, high]."""
    r = rng.random
    return [r.randint(low, high) for _ in range(n)]


def uniform_floats(rng: Rng, n: int, low: float = 0.0, high: float = 1.0) -> List[float]:
    r = rng.random
    span = high - low
    return [low + r.random() * span for _ in range(n)]


def sequential_ints(n: int, start: int = 0) -> List[int]:
    return list(range(start, start + n))


def shuffled_ints(rng: Rng, n: int, start: int = 0) -> List[int]:
    values = sequential_ints(n, start)
    rng.random.shuffle(values)
    return values


def zipf_ints(
    rng: Rng, n: int, num_values: int, skew: float = 1.0, start: int = 0
) -> List[int]:
    """n ints over [start, start+num_values) with Zipf(skew) frequencies.

    ``skew=0`` degenerates to uniform; ``skew≈1`` is classic Zipf; larger is
    more extreme.  Implemented by inverse-CDF over the finite harmonic
    weights, so it needs no scipy and is exactly reproducible.
    """
    if num_values < 1:
        raise ValueError("need at least one distinct value")
    weights = [1.0 / (k ** skew) for k in range(1, num_values + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    r = rng.random
    out = []
    for _ in range(n):
        x = r.random()
        out.append(start + _bisect(cdf, x))
    return out


def _bisect(cdf: Sequence[float], x: float) -> int:
    lo, hi = 0, len(cdf) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cdf[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    return lo


def correlated_pair(
    rng: Rng, n: int, domain: int, correlation: float = 1.0
) -> Tuple[List[int], List[int]]:
    """Two int columns over [0, domain) where the second equals the first
    with probability *correlation* (else independent uniform).

    ``correlation=1`` makes ``a = x AND b = x`` selectivities multiply
    wrongly under independence — the classic estimator failure mode.
    """
    r = rng.random
    a = [r.randrange(domain) for _ in range(n)]
    b = [
        v if r.random() < correlation else r.randrange(domain)
        for v in a
    ]
    return a, b


def categorical(
    rng: Rng, n: int, values: Sequence[Any], weights: Optional[Sequence[float]] = None
) -> List[Any]:
    r = rng.random
    if weights is None:
        return [r.choice(list(values)) for _ in range(n)]
    return r.choices(list(values), weights=list(weights), k=n)


def words(rng: Rng, n: int, length: int = 8, alphabet: str = string.ascii_lowercase) -> List[str]:
    r = rng.random
    return [
        "".join(r.choice(alphabet) for _ in range(length)) for _ in range(n)
    ]


def prefixed_words(
    rng: Rng, n: int, prefixes: Sequence[str], length: int = 6
) -> List[str]:
    """Strings with a categorical prefix — exercises LIKE-prefix estimation."""
    r = rng.random
    tails = words(rng, n, length)
    return [r.choice(list(prefixes)) + "-" + tail for tail in tails]

