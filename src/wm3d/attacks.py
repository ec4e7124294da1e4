"""Deterministic frame-level robustness attacks.

Every attack keeps the frame count and dimensions, so the stored shot
boundaries in a key bundle stay aligned with the attacked video.
"""

import numpy as np
from scipy.fft import dctn, idctn

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


def _clone(clip: VideoClip, frames) -> VideoClip:
    return VideoClip(
        frames=frames,
        rate=clip.rate,
        chroma_token=clip.chroma_token,
        chroma=clip.chroma,
        extras=clip.extras,
    )


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
    return _clone(watermarked, frames)


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
    return _clone(clip, frames)


def attack_swap(clip: VideoClip) -> VideoClip:
    """Overwrite every odd-indexed frame with a copy of its predecessor."""
    frames = [
        clip.frames[k - 1].copy() if k % 2 == 1 else clip.frames[k].copy()
        for k in range(clip.frame_count)
    ]
    return _clone(clip, frames)


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
    coeffs = dctn(blocks, axes=(-2, -1), norm="ortho")
    coeffs = round_half_away(coeffs / table) * table
    back = idctn(coeffs, axes=(-2, -1), norm="ortho")
    return quantize_luma(back.transpose(0, 2, 1, 3).reshape(h, w) + 128.0)


def attack_compress(clip: VideoClip, quality: int) -> VideoClip:
    """Intra-only lossy proxy: per-frame 8x8 DCT quantization round trip."""
    if clip.height % 8 or clip.width % 8:
        raise GeometryError(
            f"compression proxy needs dimensions divisible by 8, "
            f"got {clip.width}x{clip.height}"
        )
    table = quantization_table(quality)
    return _clone(clip, [_compress_frame(f, table) for f in clip.frames])


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
    return _clone(clip, frames)
