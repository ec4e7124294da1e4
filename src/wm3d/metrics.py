"""Similarity and fidelity metrics: normalized correlation and PSNR."""

import math
from dataclasses import dataclass, field

import numpy as np

from .media_io import VideoClip, _require_uint8


@dataclass
class MetricsReport:
    psnr_per_frame: list = field(default_factory=list)  # math.inf for identical frames
    psnr_mean: float = math.inf  # mean over finite entries


def nc(reference: np.ndarray, extracted: np.ndarray) -> float:
    """Cross-correlation normalized by the reference image energy.

    Computed over grayscale values; equals 1.0 for a perfect copy and
    may exceed 1.0 for a brighter one, since only the reference side
    normalizes.
    """
    ref = np.asarray(reference, dtype=np.float64)
    ext = np.asarray(extracted, dtype=np.float64)
    if ref.shape != ext.shape:
        raise ValueError(f"dimension mismatch: {ref.shape} vs {ext.shape}")
    energy = float(np.sum(ref * ref))
    if energy == 0.0:
        raise ValueError("all-zero reference watermark")
    return float(np.sum(ref * ext)) / energy


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB against a 255 peak; inf when equal."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return _psnr_from_mse(float(np.mean((x - y) ** 2)))


def _psnr_from_mse(mse: float) -> float:
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / math.sqrt(mse))


def _squared_error(x: np.ndarray, y: np.ndarray) -> int:
    """Sum of squared differences of two uint8 frames, exactly."""
    d = np.maximum(x, y)
    d -= np.minimum(x, y)
    sq = d.astype(np.uint16)
    sq *= sq  # at most 255**2, so a uint32 row sum is exact to 66051 columns
    acc = np.uint32 if sq.shape[-1] <= (2**32 - 1) // 255**2 else np.uint64
    return int(sq.sum(axis=-1, dtype=acc).sum(dtype=np.uint64))


def psnr_clip(a: VideoClip, b: VideoClip) -> MetricsReport:
    """Per-frame PSNR between two uint8 clips plus the mean over finite
    entries. Each frame's squared error is an exact integer sum, so
    sum / size is the mean squared error psnr computes, bit for bit."""
    if a.frame_count != b.frame_count:
        raise ValueError(
            f"frame count mismatch: {a.frame_count} vs {b.frame_count}"
        )
    if not a.frames or not a.frames[0].size:
        raise ValueError("empty clip")
    _require_uint8([*a.frames, *b.frames], "PSNR")
    values = []
    for fa, fb in zip(a.frames, b.frames):
        if fa.shape != fb.shape:
            raise ValueError(f"dimension mismatch: {fa.shape} vs {fb.shape}")
        values.append(_psnr_from_mse(_squared_error(fa, fb) / fa.size))
    finite = [v for v in values if math.isfinite(v)]
    mean = sum(finite) / len(finite) if finite else math.inf
    return MetricsReport(psnr_per_frame=values, psnr_mean=mean)
