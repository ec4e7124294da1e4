"""Deterministic frame-level robustness attacks.

Every attack keeps the frame count and dimensions, so the stored shot
boundaries in a key bundle stay aligned with the attacked video.
"""

from dataclasses import replace

import numpy as np

from . import prng
from .errors import GeometryError
from .media_io import VideoClip, quantize_luma, round_half_away

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
    frames = [clip.frames[0].copy()]
    for k in range(1, clip.frame_count - 1):
        mean = (
            clip.frames[k - 1].astype(np.float64)
            + clip.frames[k]
            + clip.frames[k + 1]
        ) / 3.0
        frames.append(quantize_luma(mean))
    frames.append(clip.frames[-1].copy())
    return replace(clip, frames=frames)


def attack_swap(clip: VideoClip) -> VideoClip:
    """Overwrite every odd-indexed frame with a copy of its predecessor."""
    frames = [
        clip.frames[k - 1].copy() if k % 2 == 1 else clip.frames[k].copy()
        for k in range(clip.frame_count)
    ]
    return replace(clip, frames=frames)


def quantization_table(quality: int) -> np.ndarray:
    """Luminance table scaled by the JPEG quality rule, entries >= 1."""
    if not 1 <= quality <= 100:
        raise ValueError(f"quality {quality} outside [1, 100]")
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    return np.maximum(1.0, round_half_away(_QTABLE * scale / 100.0))


def _compress_frame(frame: np.ndarray, table: np.ndarray) -> np.ndarray:
    h, w = frame.shape
    x = frame.astype(np.float64) - 128.0
    blocks = x.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
    coeffs = round_half_away(_DCT @ blocks @ _DCT.T / table) * table
    back = _DCT.T @ coeffs @ _DCT
    return quantize_luma(back.transpose(0, 2, 1, 3).reshape(h, w) + 128.0)


def attack_compress(clip: VideoClip, quality: int) -> VideoClip:
    """Intra-only lossy proxy: per-frame 8x8 DCT quantization round trip.

    Coefficients are divided by the scaled table and rounded half away
    from zero. Tie rule: the DC, (0,4), (4,0) and (4,4) coefficients of
    an 8-bit block are multiples of 1/8, so `coeff/table` can be an
    exact .5 tie. The float64 basis-matrix DCT's rounding error (about
    1e-14) decides which way such a tie rounds; another DCT, such as
    scipy's, may round it the other way, which moves every pixel of the
    block by table/8 before the final rounding.
    """
    if clip.height % 8 or clip.width % 8:
        raise GeometryError(
            f"compression proxy needs dimensions divisible by 8, "
            f"got {clip.width}x{clip.height}"
        )
    table = quantization_table(quality)
    return replace(clip, frames=[_compress_frame(f, table) for f in clip.frames])


def attack_noise(clip: VideoClip, sigma: float, seed: int) -> VideoClip:
    """Add keyed Gaussian noise of the given standard deviation."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    h, w = clip.frames[0].shape
    size = h * w
    count = clip.frame_count * size
    frames = []
    for k, f in enumerate(clip.frames):
        # one frame of deviates at a time, never the whole clip's
        noise = prng.gaussian(seed, count, k * size, (k + 1) * size).reshape(h, w)
        frames.append(quantize_luma(f.astype(np.float64) + sigma * noise))
    return replace(clip, frames=frames)
