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
    return _finalize(x + np.uint64(_GOLDEN))


def _finalize(x: np.ndarray) -> np.ndarray:
    """splitmix64's output function, in place on a uint64 array."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def hash64(seed: int, *words: int) -> int:
    """Hash a seed plus integer words into one 64-bit value.

    Chains mix64 over the words; order matters.
    """
    h = seed & MASK64
    for w in words:
        h = mix64(h ^ (w & MASK64))
    return h


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


def _as_float(x: np.ndarray) -> np.ndarray:
    """x.astype(np.float64) of uint64 `x`, bit for bit but faster; clobbers x."""
    out = (x >> np.uint64(32)).view(np.int64).astype(np.float64)
    out *= 2.0**32  # exact, as are both int64 casts; the sum rounds once, as astype
    x &= np.uint64(0xFFFFFFFF)
    out += x.view(np.int64)
    return out


def _gaussian_pairs(seed: int, count: int, start: int, stop: int) -> tuple:
    """Box-Muller pairs [start, stop) of `count` standard normals.

    With pairs = ceil(count / 2), pair p takes stream words p and
    pairs + p (as floats, by _as_float) and gives deviate p as its
    cosine and deviate pairs + p as its sine; an odd count drops the
    last sine. Returns (cos, sin), the deviates [start, stop) and
    [pairs + start, min(pairs + stop, count)) of the whole draw,
    bit-identical to drawing it in one piece.
    """
    pairs = (count + 1) // 2
    x1 = _states(seed, start, stop)
    x2 = x1 + np.uint64((pairs * _GOLDEN) & MASK64)
    r = _as_float(_finalize(x1))
    r += 1.0
    r *= 2.0**-64  # (0, 1], log-safe
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = _as_float(_finalize(x2))
    theta *= 2.0**-64
    theta *= 2.0 * np.pi
    cos = np.cos(theta)
    cos *= r
    sin = np.sin(theta, out=theta)
    sin *= r
    return cos, sin[: max(min(stop, count - pairs) - start, 0)]
