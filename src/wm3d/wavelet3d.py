"""Forward and inverse 3D Haar transforms with subband addressing.

A shot is first decomposed along time: frames are padded to a power of
two by repeating the last frame, then fully reduced with orthonormal
Haar pairs ((a+b)/sqrt2, (a-b)/sqrt2) so exactly one DC frame remains.
Coefficient frames are kept in lowest-to-highest temporal frequency
order: index 0 is the DC frame, index 1 the coarsest detail frame, and
the finest details sit at the end.

Coefficient frames are decomposed spatially with 3 levels of separable
orthonormal Haar in the nested layout (approximation at the top left).
Both directions use the same 1/sqrt2 normalization, so all transforms
preserve energy and round-trip exactly. A level-3 coefficient depends
only on its own 8x8 pixel block, so the transforms of a block-aligned
crop are bit-identical to the same coefficients of the whole frame;
embedding and extraction rely on this to transform only the crop.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GeometryError

_SQRT2 = math.sqrt(2.0)

SPATIAL_LEVELS = 3


@dataclass
class CoeffVolume:
    """Temporal wavelet coefficient frames of one shot.

    frames: (padded_length, H, W) float64; frames[0] is the DC frame.
    original_length: shot length before padding.
    temporal_levels: dyadic levels applied (log2 of padded length).
    """

    frames: np.ndarray
    original_length: int
    temporal_levels: int

    @property
    def padded_length(self) -> int:
        return self.frames.shape[0]


class SubbandRect(NamedTuple):
    row0: int
    col0: int
    rows: int
    cols: int

    def slices(self):
        return (
            slice(self.row0, self.row0 + self.rows),
            slice(self.col0, self.col0 + self.cols),
        )


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length() if n > 1 else 1


def temporal_forward(frames) -> CoeffVolume:
    """Dyadic temporal Haar analysis of a shot.

    Pads to a power-of-two length by repeating the last frame, then
    recurses on the approximation until a single DC frame remains.
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] < 1:
        raise ValueError("expected a nonempty (frames, H, W) stack")
    n = x.shape[0]
    n2 = _next_pow2(n)
    if n2 > n:
        x = np.concatenate([x, np.repeat(x[-1:], n2 - n, axis=0)], axis=0)
    levels = n2.bit_length() - 1

    details = []
    a = x
    for _ in range(levels):
        even, odd = a[0::2], a[1::2]
        details.append((even - odd) / _SQRT2)
        a = (even + odd) / _SQRT2
    # a is now the single DC frame; coarsest detail goes right after it
    coeffs = np.concatenate([a, *reversed(details)], axis=0)
    return CoeffVolume(frames=coeffs, original_length=n, temporal_levels=levels)


def temporal_inverse(volume: CoeffVolume) -> np.ndarray:
    """Exact temporal synthesis; padding frames are discarded.

    Returns the first original_length frames as real-valued arrays
    (quantization back to 8 bits is the caller's business).
    """
    frames = volume.frames
    a = frames[:1]
    pos = 1
    for _ in range(volume.temporal_levels):
        m = a.shape[0]
        d = frames[pos : pos + m]
        pos += m
        out = np.empty((2 * m,) + a.shape[1:], dtype=np.float64)
        out[0::2] = (a + d) / _SQRT2
        out[1::2] = (a - d) / _SQRT2
        a = out
    return a[: volume.original_length]


# --- 2-D spatial transform ----------------------------------------------------


def _fwd_w(x):
    a = (x[..., 0::2] + x[..., 1::2]) / _SQRT2
    d = (x[..., 0::2] - x[..., 1::2]) / _SQRT2
    return np.concatenate([a, d], axis=-1)


def _fwd_h(x):
    a = (x[..., 0::2, :] + x[..., 1::2, :]) / _SQRT2
    d = (x[..., 0::2, :] - x[..., 1::2, :]) / _SQRT2
    return np.concatenate([a, d], axis=-2)


def _inv_w(x):
    half = x.shape[-1] // 2
    a, d = x[..., :half], x[..., half:]
    out = np.empty_like(x)
    out[..., 0::2] = (a + d) / _SQRT2
    out[..., 1::2] = (a - d) / _SQRT2
    return out


def _inv_h(x):
    half = x.shape[-2] // 2
    a, d = x[..., :half, :], x[..., half:, :]
    out = np.empty_like(x)
    out[..., 0::2, :] = (a + d) / _SQRT2
    out[..., 1::2, :] = (a - d) / _SQRT2
    return out


def _require_div8(h: int, w: int) -> None:
    if h % 8 or w % 8:
        raise GeometryError(
            f"frame dimensions {w}x{h} not divisible by 8 "
            f"(required for a 3-level spatial transform)"
        )


def spatial_forward3(x: np.ndarray) -> np.ndarray:
    """3-level separable orthonormal Haar analysis of (..., H, W) frames."""
    h, w = np.shape(x)[-2:]
    _require_div8(h, w)
    x = np.array(x, dtype=np.float64)
    for level in range(SPATIAL_LEVELS):
        hh, ww = h >> level, w >> level
        x[..., :hh, :ww] = _fwd_h(_fwd_w(x[..., :hh, :ww]))
    return x


def spatial_inverse3(x: np.ndarray) -> np.ndarray:
    """Exact inverse of spatial_forward3."""
    h, w = np.shape(x)[-2:]
    _require_div8(h, w)
    x = np.array(x, dtype=np.float64)
    for level in (2, 1, 0):
        hh, ww = h >> level, w >> level
        x[..., :hh, :ww] = _inv_w(_inv_h(x[..., :hh, :ww]))
    return x


def subband_rect(height: int, width: int, band: str, level: int) -> SubbandRect:
    """Locate a named subband in the nested coefficient layout.

    Convention: the first letter is the filter along rows (within a
    row, i.e. horizontally), the second along columns. "lh" is lowpass
    along rows and highpass along columns (vertical detail), stored
    below the approximation: rows [H/2^L, H/2^(L-1)), cols [0, W/2^L).
    """
    if level not in (1, 2, 3):
        raise ValueError(f"unsupported level {level}")
    scale = 1 << level
    if height % scale or width % scale:
        raise GeometryError(
            f"dimensions {width}x{height} not divisible by {scale} "
            f"(level {level} subband)"
        )
    rows, cols = height // scale, width // scale
    origin = {
        "ll": (0, 0),
        "lh": (rows, 0),
        "hl": (0, cols),
        "hh": (rows, cols),
    }
    key = band.lower()
    if key not in origin:
        raise ValueError(f"unknown band {band!r} (expected ll/lh/hl/hh)")
    r0, c0 = origin[key]
    return SubbandRect(r0, c0, rows, cols)
