"""Deterministic frame-level robustness attacks.

Every attack keeps the frame count and dimensions, so the stored shot
boundaries in a key bundle stay aligned with the attacked video.
"""

import os
from dataclasses import replace

import numpy as np

from . import prng
from .errors import GeometryError
from .media_io import VideoClip

# JPEG Annex K luminance quantization table.
_QTABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


# Orthonormal 8x8 DCT-II basis: row u is sqrt(2/8) c(u) cos((2x+1)u pi/16)
# with c(0) = 1/sqrt(2), so _DCT @ block @ _DCT.T is the 2-D DCT of a block
# and _DCT.T @ coeffs @ _DCT its inverse.
_DCT = np.sqrt(2.0 / 8.0) * np.cos(
    np.outer(np.arange(8), 2 * np.arange(8) + 1) * np.pi / 16.0
)
_DCT[0] /= np.sqrt(2.0)


def attack_drop(watermarked: VideoClip, original: VideoClip) -> VideoClip:
    """Replace every even-indexed frame with the corresponding original."""
    if watermarked.frame_count != original.frame_count:
        raise GeometryError(
            f"frame count mismatch: {watermarked.frame_count} vs "
            f"{original.frame_count}"
        )
    if watermarked.frames[0].shape != original.frames[0].shape:
        raise GeometryError("frame dimension mismatch between clips")
    frames = [
        original.frames[k].copy() if k % 2 == 0 else watermarked.frames[k].copy()
        for k in range(watermarked.frame_count)
    ]
    return replace(watermarked, frames=frames)


def attack_average(clip: VideoClip) -> VideoClip:
    """Replace each interior frame by the rounded mean of itself and its
    two neighbors; the first and last frames stay unchanged."""
    if clip.frame_count < 3:
        raise ValueError("averaging attack needs at least 3 frames")
    total = np.empty(clip.frames[0].shape, np.uint16)
    frames = [clip.frames[0].copy()]
    for k in range(1, clip.frame_count - 1):
        np.add(clip.frames[k - 1], clip.frames[k], out=total, dtype=np.uint16)
        total += clip.frames[k + 1]
        total += 1
        total //= 3  # round(s / 3), exactly: s / 3 is never a .5 tie
        frames.append(total.astype(np.uint8))
    frames.append(clip.frames[-1].copy())
    return replace(clip, frames=frames)


def attack_swap(clip: VideoClip) -> VideoClip:
    """Overwrite every odd-indexed frame with a copy of its predecessor."""
    frames = [
        clip.frames[k - 1].copy() if k % 2 == 1 else clip.frames[k].copy()
        for k in range(clip.frame_count)
    ]
    return replace(clip, frames=frames)


# the compress and noise value rules, which the CLI checks before reading input
def check_quality(quality: int) -> int:
    if not 1 <= quality <= 100:
        raise ValueError(f"quality {quality} outside [1, 100]")
    return quality


def check_sigma(sigma: float) -> float:
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    return sigma


def quantization_table(quality: int) -> np.ndarray:
    """Luminance table scaled by the JPEG quality rule, rounded half up
    (no entry is negative, so that is half away from zero), entries >= 1."""
    check_quality(quality)
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    return np.maximum(1.0, np.floor(_QTABLE * scale / 100.0 + 0.5))


def _round_half_away(x: np.ndarray, out: np.ndarray) -> None:
    """trunc(x + copysign(0.5, x)) of float64 `x` into `out`, which IEEE's
    sign-symmetric rounding makes floor(|x| + 0.5) with x's sign: halves
    round away from zero, and so does 0.49999999999999994 (+ 0.5 gives 1.0)."""
    np.copysign(0.5, x, out=out)
    out += x
    np.trunc(out, out=out)


def _quantize_into(out: np.ndarray, y: np.ndarray) -> None:
    """floor(y + 0.5) of float64 `y`, clamped to [0, 255], into uint8 `out`;
    clobbers `y`. Negative inputs clamp to 0: _round_half_away's rule."""
    y += 0.5
    np.floor(y, out=y)
    np.clip(y, 0, 255, out=y)
    out[...] = y


def _compress_frame(table, frame, out) -> None:
    """8x8 DCT quantization round trip of `frame` into `out`, through two
    float64 frame buffers. _DCT @ block @ _DCT.T runs as _DCT @ each 8-row
    strip, then each 8-pixel row piece @ _DCT.T: the same 8-term sums, in
    small stacked products that OpenBLAS keeps on the calling thread (one
    tall product would wake its own threads and contend with the pool)."""
    h, w = frame.shape
    strips, pieces = (h // 8, 8, w), (h, w // 8, 8)
    step = np.tile(table, (1, w // 8))  # table[u, v] at row u, column v of each block
    a, b = np.empty((2, h, w))
    np.subtract(frame, 128.0, out=a, dtype=np.float64)
    np.matmul(_DCT, a.reshape(strips), out=b.reshape(strips))
    np.matmul(b.reshape(pieces), _DCT.T, out=a.reshape(pieces))
    np.divide(a.reshape(strips), step, out=a.reshape(strips))
    _round_half_away(a, b)
    np.multiply(b.reshape(strips), step, out=b.reshape(strips))
    np.matmul(_DCT.T, b.reshape(strips), out=a.reshape(strips))
    np.matmul(a.reshape(pieces), _DCT, out=b.reshape(pieces))
    b += 128.0
    _quantize_into(out, b)


def attack_compress(clip: VideoClip, quality: int) -> VideoClip:
    """Intra-only lossy proxy: per-frame 8x8 DCT quantization round trip.

    Frames run on a pool of one thread per usable CPU; the output does not
    depend on the CPU count. Coefficients are divided by the scaled table
    and rounded to floor(|x| + 0.5) with the sign of x (_round_half_away).
    Tie rule: the DC, (0,4), (4,0) and (4,4) coefficients of an 8-bit block
    are multiples of 1/8, so `coeff/table` can be an exact .5 tie. The
    float64 basis-matrix DCT's rounding error (about 1e-14) decides which
    way such a tie rounds; another DCT, such as scipy's, may round it the
    other way, which moves every pixel of the block by table/8 before the
    final rounding.
    """
    if clip.height % 8 or clip.width % 8:
        raise GeometryError(
            f"compression proxy needs dimensions divisible by 8, "
            f"got {clip.width}x{clip.height}"
        )
    tables = [quantization_table(quality)] * clip.frame_count
    out = np.empty((clip.frame_count, clip.height, clip.width), np.uint8)
    # imported here to keep it off every CLI start; tasks call only private
    # helpers, as perfbench's tracer keeps one span stack that threads would mix
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(_usable_cpus(), clip.frame_count)) as pool:
        list(pool.map(_compress_frame, tables, clip.frames, out))
    return replace(clip, frames=list(out))


# Most threads the compression proxy runs, however many CPUs it may use.
_MAX_WORKERS = 4


def _usable_cpus() -> int:
    """CPUs this process may run on, capped at _MAX_WORKERS."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        n = os.cpu_count() or 1
    return min(n, _MAX_WORKERS)


def _noise_steps(sigma: float) -> np.ndarray:
    """step[u] = clip(floor(sigma * z[u] + 0.5), -255, 255) in int16, for z
    from prng._normal_quantiles. Each step saturates from sigma 2**24 on (the
    smallest |z| is about 1.9e-5), so capping sigma there keeps sigma*z finite."""
    z = prng._normal_quantiles() * min(sigma, 2.0**24)
    return np.clip(np.floor(z + 0.5), -255, 255).astype(np.int16)


def attack_noise(clip: VideoClip, sigma: float, seed: int) -> VideoClip:
    """Add keyed Gaussian noise of the given standard deviation.

    Pixel i of frame k, of value p, becomes clip(p + step[u], 0, 255) for u
    = prng._uniform16 number k*H*W + i and step = _noise_steps(sigma): given
    z, integer arithmetic, frame by frame on the calling thread.
    """
    check_sigma(sigma)
    prng.check_seed(seed, "noise seed")
    step = _noise_steps(sigma)
    out = np.empty((clip.frame_count, clip.height, clip.width), np.uint8)
    total = np.empty(out.shape[1:], np.int16)
    for k, frame in enumerate(clip.frames):
        u = prng._uniform16(seed, k * frame.size, (k + 1) * frame.size)
        np.take(step, u.reshape(frame.shape), out=total, mode="clip")  # u < 65536 always
        total += frame
        np.clip(total, 0, 255, out=out[k], casting="unsafe")
    return replace(clip, frames=list(out))
