"""Keyed deterministic randomness built on splitmix64.

Every key-driven choice in the toolkit (shot selection, bitplane
permutation, disorder masks, the noise attack) goes through these
primitives, so the same 64-bit keys reproduce the same bits on any
platform. splitmix64 was picked because it is tiny, fast and trivial
to port.
"""

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """One splitmix64 step: advance by the golden gamma, then finalize."""
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def mix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized mix64 over uint64 arrays (wrapping arithmetic)."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def hash64(seed: int, *words: int) -> int:
    """Hash a seed plus integer words into one 64-bit value.

    Chains mix64 over the words; order matters.
    """
    h = seed & MASK64
    for w in words:
        h = mix64(h ^ (w & MASK64))
    return h


def _words(seed: int, index: np.ndarray) -> np.ndarray:
    """Stream outputs at the given 0-based uint64 positions (counter form)."""
    return mix64_np(np.uint64(seed & MASK64) + index * np.uint64(_GOLDEN))


def stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the splitmix64 stream for `seed`.

    Uses the counter form (output i = finalize(seed + (i+1)*gamma)) so
    the whole stream vectorizes; equals the sequential generator's
    outputs exactly.
    """
    return _words(seed, np.arange(count, dtype=np.uint64))


def permutation(n: int, seed: int) -> np.ndarray:
    """Keyed Fisher-Yates permutation of range(n).

    Swaps from the top index down; step i (n-1 down to 1) takes the next
    splitmix64 value reduced modulo the remaining prefix length i + 1.
    The modulo bias is irrelevant at the sizes used here and keeps the
    draws trivially portable.
    """
    draws = stream(seed, max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
    p = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), draws.tolist()):
        p[i], p[j] = p[j], p[i]
    return np.array(p, dtype=np.int64)


def gaussian(
    seed: int, count: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Deviates [start, stop) of `count` standard normals (Box-Muller).

    With pairs = ceil(count / 2), deviate i takes stream words p and
    pairs + p, p = i mod pairs: a cosine for i < pairs, a sine after.
    Any range is thus drawn without the rest, bit-identical to the same
    slice of the whole draw.
    """
    stop = count if stop is None else stop
    pairs = (count + 1) // 2
    cos_at = np.arange(start, min(stop, pairs), dtype=np.uint64)
    sin_at = np.arange(max(start, pairs), stop, dtype=np.uint64) - np.uint64(pairs)
    p = np.concatenate([cos_at, sin_at])
    u1 = (_words(seed, p).astype(np.float64) + 1.0) * 2.0**-64  # (0, 1], log-safe
    u2 = _words(seed, p + np.uint64(pairs)).astype(np.float64) * 2.0**-64
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    n = len(cos_at)
    return np.concatenate([r[:n] * np.cos(theta[:n]), r[n:] * np.sin(theta[n:])])
