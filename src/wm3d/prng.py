"""Keyed deterministic randomness built on splitmix64.

Every key-driven choice in the toolkit (shot selection, the bitplane
permutation and XOR masks of wmprep, the noise attack) goes through these
primitives, so the same 64-bit keys reproduce the same bits on any
platform. splitmix64 was picked because it is tiny, fast and trivial
to port. It is implemented once, on uint64 arrays with wrapping
arithmetic; the sequential scalar form lives in the tests as the
reference.
"""

import functools

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64_np(x: np.ndarray) -> np.ndarray:
    """One splitmix64 step per element of a uint64 array: advance by the
    golden gamma, then finalize (wrapping arithmetic, in a new array)."""
    return _finalize(x + np.uint64(_GOLDEN))


def _finalize(x: np.ndarray) -> np.ndarray:
    """splitmix64's output function, in place on a uint64 array."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def _states(seed: int, start: int, stop: int) -> np.ndarray:
    """States seed + (i+1)*gamma whose finalized values are outputs [start, stop)."""
    x = np.arange(start, stop, dtype=np.uint64)
    x *= np.uint64(_GOLDEN)
    x += np.uint64((seed + _GOLDEN) & MASK64)
    return x


def stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the splitmix64 stream for `seed`.

    Uses the counter form (output i = finalize(seed + (i+1)*gamma)) so
    the whole stream vectorizes; equals the sequential generator's
    outputs exactly.
    """
    return _finalize(_states(seed, 0, count))


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


def _uniform16(seed: int, start: int, stop: int) -> np.ndarray:
    """16-bit uniforms [start, stop): uniform i is bits 16*(i % 4) and up of
    output i // 4 of stream(seed, ...); '<u8' puts the low bits first."""
    first = start // 4
    words = _finalize(_states(seed, first, -(-stop // 4))).astype("<u8", copy=False)
    return words.view("<u2")[start - 4 * first : stop - 4 * first]


@functools.cache
def _normal_quantiles() -> np.ndarray:
    """z[u], the standard normal quantile at (u + 0.5) / 65536, for every
    16-bit u; read-only, built on first use."""
    from statistics import NormalDist  # kept off every CLI start

    centers = np.arange(0.5, 65536) / 65536  # (u + 0.5) / 65536, exactly
    z = np.fromiter(map(NormalDist().inv_cdf, centers), np.float64, 65536)
    z.flags.writeable = False
    return z
